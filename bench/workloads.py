"""Generated inputs and job lists for the four benchmark workloads.

Every input graph is built here from its own edge rule, so a change to
the package's generators cannot change what the benchmark feeds the CLI.
The workload seed fixes the order of the edge lines in every graph file,
the chords of the random bounded-degree graph and the percolation seed
sets; everything else is fixed by the workload's definition.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from typing import Callable

WORKLOADS = ("color-planar", "certify-sparse", "percolate-chains", "surgery-chains")


# ---------------------------------------------------------------------------
# edge rules (vertex numbering matches the package's generators)
# ---------------------------------------------------------------------------

def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return path_edges(n) + [(0, n - 1)]


def triangulated_grid_edges(r: int, c: int) -> list[tuple[int, int]]:
    edges = []
    for i in range(r):
        for j in range(c):
            v = i * c + j
            if j + 1 < c:
                edges.append((v, v + 1))
            if i + 1 < r:
                edges.append((v, v + c))
                if j + 1 < c:
                    edges.append((v, v + c + 1))
    return edges


def hex_grid_edges(r: int, c: int) -> tuple[int, list[tuple[int, int]]]:
    cols = 2 * c + 1
    edges = []
    for i in range(r + 1):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i < r and j % 2 == i % 2:
                edges.append((v, v + cols))
    return (r + 1) * cols, edges


def fan_edges(n_apex: int, m_path: int) -> list[tuple[int, int]]:
    return path_edges(m_path) + [
        (j, m_path + a) for a in range(n_apex) for j in range(m_path)
    ]


def ladder_edges(k: int) -> list[tuple[int, int]]:
    edges = []
    for i in range(k - 1):
        edges.append((i, i + 1))
        edges.append((k + i, k + i + 1))
    edges.extend((i, k + i) for i in range(k))
    return edges


def random_bounded_degree_edges(
    n: int, chords: int, max_degree: int, rng: random.Random
) -> list[tuple[int, int]]:
    """A spanning path plus exactly ``chords`` random chords, every degree
    at most max_degree.  A fixed chord count keeps the work steady across
    seeds."""
    edges = path_edges(n)
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    while len(edges) < n - 1 + chords:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or v in adj[u] or len(adj[u]) >= max_degree or len(adj[v]) >= max_degree:
            continue
        adj[u].add(v)
        adj[v].add(u)
        edges.append((min(u, v), max(u, v)))
    return edges


# ---------------------------------------------------------------------------
# inputs and jobs
# ---------------------------------------------------------------------------

@dataclass
class GraphInput:
    name: str
    n: int
    edges: list[tuple[int, int]]


@dataclass
class Job:
    """One CLI invocation.  ``argv`` follows ``--json``; names in braces
    are replaced by input file paths.  ``prepare`` runs inside the timed
    region before the CLI call (used for the in-pass min-fill job)."""

    id: str
    kind: str  # color | island | shatter | percolate | pathdecomp
    graph: str
    argv: list[str]
    expect_exit: int = 0
    params: dict = field(default_factory=dict)
    prepare: Callable[[dict], None] | None = None


def pd_text(bags: list[list[int]]) -> str:
    lines = [f"path {len(bags)}"]
    lines.extend("bag " + " ".join(map(str, sorted(set(b)))) for b in bags)
    return "\n".join(lines) + "\n"


def _graph_text(g: GraphInput, rng: random.Random) -> str:
    lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in g.edges]
    rng.shuffle(lines)
    return f"{g.n} {len(g.edges)}\n" + "\n".join(lines) + "\n"


def _min_fill_prepare(paths: dict) -> None:
    """Build the min-fill tree decomposition of the grid inside the pass."""
    from islandkit import decomposition, graphs

    with open(paths["grid15x45"]) as fh:
        G = graphs.parse_graph(fh.read())
    td = decomposition.treewidth_decomposition(G)
    with open(paths["grid15x45.td"], "w") as fh:
        fh.write(decomposition.write_decomposition(td))


def build(workload: str, seed: int) -> tuple[list[GraphInput], dict[str, str], list[Job]]:
    """Inputs (graphs and decomposition texts) and the job list of a workload."""
    rng = random.Random(f"{workload}:{seed}")
    graphs: list[GraphInput] = []
    texts: dict[str, str] = {}  # non-graph input files
    jobs: list[Job] = []

    def graph(name: str, n: int, edges: list[tuple[int, int]]) -> str:
        graphs.append(GraphInput(name, n, edges))
        return "{" + name + "}"

    if workload == "color-planar":
        # The peel reruns the sparse pipeline on every residual, so coloring,
        # islands, separators and components_within do nearly all the work.
        g = graph("tri40x40", 1600, triangulated_grid_edges(40, 40))
        jobs.append(Job("color/tri40x40/t4", "color", "tri40x40", ["color", g, "4"],
                        params={"t": 4}))
        n, e = hex_grid_edges(21, 21)
        g = graph("hex21x21", n, e)
        jobs.append(Job("color/hex21x21/t2", "color", "hex21x21", ["color", g, "2"],
                        params={"t": 2}))
    elif workload == "certify-sparse":
        # One deep separator recursion per graph, no coloring.  The random
        # graph's shatter retries until C >= n, so its island is degenerate.
        g = graph("path2000", 2000, path_edges(2000))
        jobs.append(Job("shatter/path2000/e0.15", "shatter", "path2000",
                        ["shatter", g, "0.15"], params={"epsilon": "0.15"}))
        g = graph("tri50x50", 2500, triangulated_grid_edges(50, 50))
        jobs.append(Job("shatter/tri50x50/e0.2", "shatter", "tri50x50",
                        ["shatter", g, "0.2"], params={"epsilon": "0.2"}))
        jobs.append(Job("island/tri50x50/t4", "island", "tri50x50",
                        ["island", g, "4", "sparse", "0.3"], params={"t": 4}))
        n, e = hex_grid_edges(21, 21)
        g = graph("hex21x21", n, e)
        jobs.append(Job("island/hex21x21/t2", "island", "hex21x21",
                        ["island", g, "2", "sparse", "0.25"], params={"t": 2}))
        g = graph("rbd2000", 2000, random_bounded_degree_edges(2000, 1000, 4, rng))
        jobs.append(Job("island/rbd2000/t3", "island", "rbd2000",
                        ["island", g, "3", "sparse", "0.3"], params={"t": 3}))
    elif workload == "percolate-chains":
        # Closures with thousands of rounds, plus few-round jobs (about a
        # fifth of the pass) that would expose a per-call cost.
        for name, n, edges, seeds, t in (
            ("path6000", 6000, path_edges(6000), [0], 1),
            ("cycle6000", 6000, cycle_edges(6000), [0], 1),
            ("tri4x600", 2400, triangulated_grid_edges(4, 600), [0, 1], 2),
        ):
            g = graph(name, n, edges)
            jobs.append(Job(f"percolate/{name}/t{t}", "percolate", name,
                            ["percolate", g, ",".join(map(str, seeds)), str(t)],
                            params={"t": t, "seeds": seeds}))
        g = graph("tri100x100", 10000, triangulated_grid_edges(100, 100))
        jobs.append(Job("percolate/tri100x100/corner/t2", "percolate", "tri100x100",
                        ["percolate", g, "0,1", "2"], params={"t": 2, "seeds": [0, 1]}))
        for k in range(3):
            seeds = sorted(rng.sample(range(10000), 1000))
            jobs.append(Job(f"percolate/tri100x100/random{k}/t3", "percolate", "tri100x100",
                            ["percolate", g, ",".join(map(str, seeds)), "3"],
                            params={"t": 3, "seeds": seeds}))
    elif workload == "surgery-chains":
        # Max-flow linkages and decomposition validation; no separators or
        # coloring.  The grid's min-fill decomposition is built in the pass.
        chain = "linked,appuniv,largeint,extract"

        def pd_job(name, n, edges, bags, t, m, l, expect="minor"):
            g = graph(name, n, edges)
            texts[name + ".pd"] = pd_text(bags)
            jobs.append(Job(f"pathdecomp/{name}/t{t}", "pathdecomp", name,
                            ["pathdecomp", g, "{" + name + ".pd}", chain, str(t), str(m), str(l)],
                            params={"t": t, "m": m, "l": l, "expect": expect}))

        pd_job("fan1x1500", 1501, fan_edges(1, 1500),
               [[i, i + 1, 1500] for i in range(1499)], 2, 3, 1)
        pd_job("fan3x1000", 1003, fan_edges(3, 1000),
               [[i, i + 1, 1000, 1001, 1002] for i in range(999)], 4, 3, 1)
        pd_job("tri5x400", 2000, triangulated_grid_edges(5, 400),
               [[i * 400 + k for i in range(5)] + [i * 400 + k + 1 for i in range(5)]
                for k in range(399)], 3, 3, 2, expect="islands")
        pd_job("ladder500", 1000, ladder_edges(500),
               [[i, 500 + i, i + 1, 501 + i] for i in range(499)], 2, 3, 2, expect="islands")
        g = graph("grid15x45", 675, triangulated_grid_edges(15, 45))
        jobs.append(Job("pathdecomp/grid15x45-minfill/t2", "pathdecomp", "grid15x45",
                        ["pathdecomp", g, "{grid15x45.td}", "treepath," + chain, "2", "3", "1"],
                        expect_exit=2,
                        params={"t": 2, "m": 3, "l": 1, "expect": "order_too_small",
                                "td": "grid15x45.td"},
                        prepare=_min_fill_prepare))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return graphs, texts, jobs


def write_inputs(
    workload: str, seed: int, graphs: list[GraphInput], texts: dict[str, str], directory: str
) -> tuple[dict[str, str], dict[str, str]]:
    """Write every input file.  Returns name -> path (including the file
    the min-fill job writes during the pass) and name -> sha256."""
    rng = random.Random(f"{workload}:{seed}:lines")
    os.makedirs(directory, exist_ok=True)
    files = {g.name: _graph_text(g, rng) for g in graphs}
    files.update(texts)
    paths: dict[str, str] = {}
    digests: dict[str, str] = {}
    for name, text in files.items():
        data = text.encode()
        paths[name] = os.path.join(directory, name if name in texts else name + ".txt")
        with open(paths[name], "wb") as fh:
            fh.write(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    paths["grid15x45.td"] = os.path.join(directory, "grid15x45.td")
    return paths, digests


def expand(argv: list[str], paths: dict[str, str]) -> list[str]:
    return [paths[a[1:-1]] if a.startswith("{") and a.endswith("}") else a for a in argv]
