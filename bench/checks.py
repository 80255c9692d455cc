"""Outside re-verification, degeneracy flags and quality scores of CLI payloads.

Certificates are re-checked with the package's independent verifiers
(``is_island``, ``verify_coloring``, ``verify_shatter``,
``verify_minor_model``, ``validate_decomposition``) on graphs the
benchmark built itself; percolation runs are checked by a local replay.
A check returns a list of problems; an empty list means the job passed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def digest(body: dict) -> str:
    """sha256 of the sorted-key JSON form of a payload."""
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _vertex_list(G, members, what: str) -> list[str]:
    if len(set(members)) != len(members):
        return [f"{what} repeats a vertex"]
    if any(not isinstance(v, int) or not 0 <= v < G.n for v in members):
        return [f"{what} names a vertex outside 0..{G.n - 1}"]
    return []


def _closed(G, members) -> bool:
    """No member has a neighbour outside the set: a union of whole components."""
    inset = set(members)
    return all(u in inset for v in inset for u in G.adj[v])


def _check_color(ik, job, p, G) -> list[str]:
    t = job.params["t"]
    colors = p["colors"]
    if p.get("verified") is not True or p["palette"] != t:
        return ["payload not marked verified with the requested palette"]
    if len(colors) != G.n or any(not isinstance(c, int) or not 0 <= c < t for c in colors):
        return ["colors are not one palette color per vertex"]
    C = p["achieved_clustering"]
    col = ik.coloring.ClusteredColoring(tuple(colors), t, C)
    verdict = ik.coloring.verify_coloring(G, col, C)
    problems = []
    if not verdict.ok or verdict.max_component != C:
        problems.append(f"recomputed clustering {verdict.max_component} != reported {C}")
    if not 1 <= C <= p["max_island_size"] <= G.n:
        problems.append("clustering exceeds the largest peeled island")
    return problems


def _check_island(ik, job, p, G) -> list[str]:
    members = p["members"]
    problems = _vertex_list(G, members, "island")
    if problems or not members:
        return problems or ["empty island"]
    if p.get("verified") is not True or p["island_size"] != len(members):
        problems.append("island_size disagrees with members")
    if len(members) > p["C"]:
        problems.append(f"island of size {len(members)} exceeds C={p['C']}")
    if not ik.islands.is_island(G, members, job.params["t"]).ok:
        problems.append("members are not a t-island")
    return problems


def _check_shatter(ik, job, p, G) -> list[str]:
    X = p["X"]
    problems = _vertex_list(G, X, "X")
    if problems:
        return problems
    if p.get("verified") is not True or p["X_size"] != len(X) or p["C"] < 1:
        problems.append("X_size or C disagrees with the certificate")
    try:
        ik.separators.verify_shatter(G, X, p["C"], Fraction(job.params["epsilon"]))
    except ik.separators.ShatterBudgetError as err:
        problems.append(f"verify_shatter: {err}")
    return problems


def _check_percolate(ik, job, p, G) -> list[str]:
    """Replay the activation order: every activation has at least t
    neighbours active at an earlier step, and the final set is closed."""
    t = job.params["t"]
    step_of = {v: 0 for v in job.params["seeds"]}
    last = 1
    for entry in p["activation_order"]:
        v, step = entry
        if v in step_of or not 0 <= v < G.n:
            return [f"vertex {v} activated twice or out of range"]
        if step < last:
            return [f"activation steps decrease at vertex {v}"]
        last = step
        earlier = sum(1 for u in G.adj[v] if step_of.get(u, step) < step)
        if earlier < t:
            return [f"vertex {v} activated at step {step} "
                    f"with {earlier} < t earlier-active neighbours"]
        step_of[v] = step
    problems = []
    if p["n"] != G.n or p["active_count"] != len(step_of):
        problems.append("active_count or n disagrees with the activation order")
    if p["percolates"] != (len(step_of) == G.n):
        problems.append("percolates flag disagrees with the closure")
    for v in range(G.n):
        if v not in step_of and sum(1 for u in G.adj[v] if u in step_of) >= t:
            problems.append(f"closure not closed: inactive vertex {v} has >= t active neighbours")
            break
    return problems


def _check_pathdecomp(ik, job, p, G, paths) -> list[str]:
    t, m, l = job.params["t"], job.params["m"], job.params["l"]
    extract = p.get("extract", {})
    kind = extract.get("kind")
    if kind != job.params["expect"]:
        return [f"extract kind {kind!r}, expected {job.params['expect']!r}"]
    problems = []
    if "td" in job.params:
        with open(paths[job.params["td"]]) as fh:
            td = ik.decomposition.parse_decomposition(fh.read())
        if not ik.decomposition.validate_decomposition(G, td).ok:
            problems.append("min-fill tree decomposition is invalid")
    if kind == "minor":
        if extract["minor_of"] == "complete_bipartite":
            H = ik.graphs.gen_complete_bipartite(t, m)
        elif extract["minor_of"] == "fan":
            H = ik.graphs.gen_fan(t - 1, m)
        else:
            return problems + [f"unknown minor {extract['minor_of']!r}"]
        sets = extract["branch_sets"]
        for bs in sets.values():
            problems += _vertex_list(G, bs, "branch set")
        if problems:
            return problems
        model = ik.graphs.MinorModel({int(h): tuple(bs) for h, bs in sets.items()})
        verdict = ik.graphs.verify_minor_model(G, H, model)
        if not verdict.ok:
            problems.append(f"minor model: {verdict.violation} ({verdict.detail})")
    elif kind == "islands":
        isl = extract["islands"]
        if len(isl) != l or len(extract["window"]) != l:
            problems.append(f"window of {len(isl)} islands, expected l={l}")
        seen: set[int] = set()
        for members in isl:
            problems += _vertex_list(G, members, "window island")
            if problems:
                return problems
            if seen & set(members) or not members:
                problems.append("window islands overlap or are empty")
            seen.update(members)
            if not ik.islands.is_island(G, members, t).ok:
                problems.append("a window bag interior is not a t-island")
    return problems


def check(ik, job, code: int, body: dict | None, G, paths) -> list[str]:
    """Problems with one job's outcome; [] when it verifies."""
    if code != job.expect_exit:
        return [f"exit code {code}, expected {job.expect_exit}"]
    if body is None:
        return ["no JSON report"]
    try:
        if job.kind == "color":
            return _check_color(ik, job, body, G)
        if job.kind == "island":
            return _check_island(ik, job, body, G)
        if job.kind == "shatter":
            return _check_shatter(ik, job, body, G)
        if job.kind == "percolate":
            return _check_percolate(ik, job, body, G)
        return _check_pathdecomp(ik, job, body, G, paths)
    except (KeyError, TypeError, ValueError) as err:
        return [f"malformed payload: {type(err).__name__}: {err}"]


def degeneracy_flags(job, p: dict, G) -> list[str]:
    """Flags of a trivial certificate: the island is a whole component,
    C >= n, or X is empty."""
    flags = []
    if job.kind == "island":
        if _closed(G, p["members"]):
            flags.append("island_is_whole_component")
        if p["C"] >= G.n:
            flags.append("C_at_least_n")
    elif job.kind == "shatter":
        if not p["X"]:
            flags.append("X_empty")
        if p["C"] >= G.n:
            flags.append("C_at_least_n")
    elif job.kind == "color":
        if p["max_island_size"] >= G.n:
            flags.append("island_is_whole_component")
        if p["achieved_clustering"] >= G.n:
            flags.append("C_at_least_n")
    elif job.kind == "pathdecomp" and p.get("extract", {}).get("kind") == "islands":
        if any(_closed(G, members) for members in p["extract"]["islands"]):
            flags.append("island_is_whole_component")
    return flags


def quality(jobs, bodies: list[dict | None], graphs: dict) -> dict[str, float]:
    """Certificate-quality scores over the verified payloads (None marks a
    failed job) of the jobs that produce each kind.  A score whose jobs are
    absent from the workload reads 0."""
    sums: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        sums[key] = sums.get(key, 0) + value

    for job, p in zip(jobs, bodies):
        if p is None:
            continue
        n = graphs[job.graph].n
        if job.kind == "color":
            add("color.clustering", p["achieved_clustering"])
            add("color.island", p["max_island_size"])
            add("color.n", n)
        elif job.kind == "island":
            add("island.size", len(p["members"]))
            add("island.n", n)
        elif job.kind == "shatter":
            add("shatter.X", len(p["X"]))
            add("shatter.eps_n", float(Fraction(job.params["epsilon"]) * n))
            add("shatter.C", p["C"])
            add("shatter.n", n)
        elif job.kind == "percolate":
            add("percolation.rounds", max((s for _, s in p["activation_order"]), default=0))
        elif job.kind == "pathdecomp":
            add("pathdecomp.order_sum", sum(
                s["order"] for s in p.get("stages", []) if s.get("step") == "linked"))
        if degeneracy_flags(job, p, graphs[job.graph]):
            add("degenerate_certs", 1)

    def ratio(num: str, den: str) -> float:
        return sums.get(num, 0) / sums[den] if sums.get(den) else 0.0

    return {
        "color.clustering_frac": ratio("color.clustering", "color.n"),
        "color.island_frac": ratio("color.island", "color.n"),
        "island.size_frac": ratio("island.size", "island.n"),
        "shatter.X_frac": ratio("shatter.X", "shatter.eps_n"),
        "shatter.C_frac": ratio("shatter.C", "shatter.n"),
        "degenerate_certs": sums.get("degenerate_certs", 0),
        "pathdecomp.order_sum": sums.get("pathdecomp.order_sum", 0),
        "percolation.rounds": sums.get("percolation.rounds", 0),
    }
