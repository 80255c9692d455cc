#!/usr/bin/env python3
"""Self-test of the benchmark's outside checks: tampered payloads must fail.

    python3 bench/selftest.py

Runs one small job of each kind through the CLI, confirms the honest
payloads verify, then corrupts each payload in a way its verifier must
catch (one recoloured vertex, a dropped X member, a dropped island
member, a dropped activation, a removed branch set, a window island
grown by an outside vertex) and confirms the job is counted as failed.
Finally, a payload that changes between two passes must fail the job
through its digest alone.  Exits 0 when every tamper is caught.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys

import checks
import run
import workloads
from workloads import GraphInput, Job


def recolour_one_vertex(p, G):
    """Give a neighbour of a largest monochromatic component its colour."""
    from islandkit.graphs import components_within

    colors = p["colors"]
    best: tuple[int, ...] = ()
    for c in set(colors):
        for comp in components_within(G, [v for v in range(G.n) if colors[v] == c]):
            if len(comp) > len(best):
                best = comp
    c = colors[min(best)]
    u = min(u for v in best for u in G.adj[v] if colors[u] != c)
    p["colors"][u] = c


def drop_x_member(p, G):
    """Drop an X member whose return merges a component larger than C."""
    from islandkit.graphs import components_within

    X = p["X"]
    for x in X:
        rest = set(range(G.n)) - (set(X) - {x})
        if any(len(comp) > p["C"] for comp in components_within(G, rest)):
            X.remove(x)
            p["X_size"] = len(X)
            return
    raise AssertionError("no X member whose removal breaks the certificate")


def drop_island_member(p, G, t: int):
    """Drop a member so that another member gets t outside neighbours."""
    members = p["members"]
    for v in members:
        rest = set(members) - {v}
        if any(sum(1 for u in G.adj[w] if u not in rest) >= t for w in rest):
            members.remove(v)
            p["island_size"] = len(members)
            return
    raise AssertionError("no island member whose removal breaks the certificate")


def drop_activation(p, G):
    order = p["activation_order"]
    del order[len(order) // 2]
    p["active_count"] -= 1
    p["percolates"] = False


def remove_branch_set(p, G):
    sets = p["extract"]["branch_sets"]
    del sets[max(sets, key=int)]


def grow_window_island(p, G, t: int):
    """Add an outside vertex that has t neighbours outside the island."""
    members = p["extract"]["islands"][0]
    inset = set(members)
    for v in range(G.n):
        if v not in inset and sum(1 for u in G.adj[v] if u not in inset) >= t:
            members.append(v)
            return
    raise AssertionError("no outside vertex breaks the window island")


def main() -> int:
    sys.path.insert(0, run.SRC)
    ik = run.import_package()
    n_fan = 30
    graphs = [
        GraphInput("hex8x8", *workloads.hex_grid_edges(8, 8)),
        GraphInput("path60", 60, workloads.path_edges(60)),
        GraphInput("tri6x6", 36, workloads.triangulated_grid_edges(6, 6)),
        GraphInput("fan1x30", n_fan + 1, workloads.fan_edges(1, n_fan)),
        GraphInput("path40", 40, workloads.path_edges(40)),
    ]
    texts = {
        "fan.pd": workloads.pd_text([[i, i + 1, n_fan] for i in range(n_fan - 1)]),
        "path.pd": workloads.pd_text([[i, i + 1] for i in range(39)]),
    }
    chain = "linked,appuniv,largeint,extract"
    cases = [
        (Job("color", "color", "hex8x8", ["color", "{hex8x8}", "2"], params={"t": 2}),
         recolour_one_vertex),
        (Job("shatter", "shatter", "path60", ["shatter", "{path60}", "0.2"],
             params={"epsilon": "0.2"}), drop_x_member),
        (Job("island", "island", "hex8x8", ["island", "{hex8x8}", "2", "sparse", "0.25"],
             params={"t": 2}), lambda p, G: drop_island_member(p, G, 2)),
        (Job("percolate", "percolate", "tri6x6", ["percolate", "{tri6x6}", "0,1", "2"],
             params={"t": 2, "seeds": [0, 1]}), drop_activation),
        (Job("minor", "pathdecomp", "fan1x30",
             ["pathdecomp", "{fan1x30}", "{fan.pd}", chain, "2", "3", "1"],
             params={"t": 2, "m": 3, "l": 1, "expect": "minor"}), remove_branch_set),
        (Job("islands", "pathdecomp", "path40",
             ["pathdecomp", "{path40}", "{path.pd}", chain, "2", "3", "2"],
             params={"t": 2, "m": 3, "l": 2, "expect": "islands"}),
         lambda p, G: grow_window_island(p, G, 2)),
    ]
    directory = os.path.join(run.OUT, "selftest-inputs")
    failures = []
    try:
        paths, _ = workloads.write_inputs("selftest", 0, graphs, texts, directory)
        hosts = {g.name: ik.graphs.Graph(g.n, g.edges) for g in graphs}
        for job, tamper in cases:
            G = hosts[job.graph]
            result = run.run_job(ik, job, paths, None)
            seconds, code, body, _ = result
            honest = checks.check(ik, job, code, body, G, paths)
            if honest:
                failures.append(f"{job.id}: honest payload rejected: {honest}")
                continue
            bad = copy.deepcopy(body)
            tamper(bad, G)
            ledger = run.Ledger(ik, [job], paths, hosts)
            ledger.record([(seconds, code, bad, "")])
            if ledger.failed != 1:
                failures.append(f"{job.id}: tampered payload passed verification")
            # honest first pass, tampered second pass: caught by the digest
            ledger = run.Ledger(ik, [job], paths, hosts)
            ledger.record([result])
            ledger.record([(seconds, code, bad, "")])
            if ledger.failed != 1 or "digest" not in " ".join(ledger.problems[0]):
                failures.append(f"{job.id}: payload change between passes not caught")
            caught = "; ".join(checks.check(ik, job, code, bad, G, paths))
            print(f"{job.id:10s} honest ok; tampered: {caught}")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    for line in failures:
        print("FAIL " + line)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
