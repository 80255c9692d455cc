"""Command-line front end: reproducible experiments with self-auditing
JSON reports.

Exit codes: 0 = success with a verified certificate, 2 = honest negative
(documented failure such as "order too small"), 1 = error, including a
malformed command line.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time

from . import coloring, islands, percolation, separators, surgery
from .decomposition import (
    parse_decomposition,
    restore_properness,
    validate_decomposition,
)
from .graphs import GENERATORS, Graph, checked_vset, int_token, parse_graph, write_graph


def _vertex_list(G: Graph, text: str, name: str) -> tuple[int, ...]:
    """The comma-separated vertex list given as argument `name`, in the
    given order, each id checked against G."""
    ids = []
    for token in text.split(","):
        if token != "":
            try:
                ids.append(int_token(token))
            except ValueError:
                raise ValueError(f"{name}: {token!r} is not a vertex id") from None
    checked_vset(G, ids)
    return tuple(ids)


def _finite(name: str, value: float) -> None:
    """Reject inf and nan given as argument `name`, by name."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _load_graph(path: str) -> tuple[Graph, str]:
    """The graph in the file at path and the sha256 of the file's bytes.
    parse_graph already builds sorted, symmetric, loop-free rows with the
    right edge count, so the graph is not re-validated."""
    with open(path, "rb") as fh:
        data = fh.read()
    return parse_graph(data.decode()), hashlib.sha256(data).hexdigest()


def _load_lists(path: str, n: int) -> coloring.ListAssignment:
    """One colour list per line, line i+1 for vertex i; the smallest list
    size is the assignment's min_size."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) != n:
        raise ValueError(
            f"{path}: line {min(len(lines), n) + 1}: expected {n} lists, one per vertex, "
            f"got {len(lines)}"
        )
    lists = []
    for lineno, line in enumerate(lines, start=1):
        try:
            lst = tuple(map(int_token, line.split()))
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: expected integer colours, got {line!r}")
        if any(c < 0 for c in lst):
            raise ValueError(f"{path}: line {lineno}: negative colour")
        if len(set(lst)) != len(lst):
            raise ValueError(f"{path}: line {lineno}: duplicate colour")
        lists.append(lst)
    return coloring.ListAssignment(tuple(lists), min(map(len, lists), default=0))


def _write_json(report: dict) -> None:
    """The whole report on one line, keys sorted, in a single write."""
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")


class HonestNegative(Exception):
    """A documented negative outcome: exit code 2, not an error."""

    def __init__(self, payload: dict):
        super().__init__(payload.get("reason", "negative"))
        self.payload = payload


def _emit(args, command: str, parameters: dict, payload: dict, started: float) -> None:
    report = {
        "command": command,
        "parameters": parameters,
        "input_digest": parameters.get("input_digest"),
        "payload": payload,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    if args.json:
        _write_json(report)
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def cmd_gen(args, started: float) -> int:
    if args.family not in GENERATORS:
        raise ValueError(f"unknown family {args.family!r}; choose from {sorted(GENERATORS)}")
    G = GENERATORS[args.family](*args.params)
    with open(args.out, "w") as fh:
        fh.write(write_graph(G))
    _emit(
        args,
        "gen",
        {"family": args.family, "params": args.params, "out": args.out},
        {"n": G.n, "m": G.m},
        started,
    )
    return 0


def cmd_island(args, started: float) -> int:
    _finite("alpha", args.alpha)
    G, digest = _load_graph(args.graph)
    params = {
        "graph": args.graph,
        "input_digest": digest,
        "t": args.t,
        "mode": args.mode,
        "alpha": args.alpha,
    }
    if args.mode == "brute":
        size, witness = islands.min_island_size_bruteforce(G, args.t)
        verdict = islands.is_island(G, witness, args.t)
        if not verdict.ok:
            raise RuntimeError("brute-force witness failed re-verification")
        payload = {
            "min_island_size": size,
            "witness": list(witness),
            "verified": True,
        }
    else:
        sp = islands.SparseIslandParams(t=args.t, alpha=args.alpha)
        try:
            cert, C = islands.find_island_sparse(G, sp)
        except (islands.DensityPreconditionError, separators.ShatterBudgetError) as exc:
            raise HonestNegative(
                {"reason": str(exc), "t": args.t, "alpha": args.alpha}
            ) from exc
        verdict = islands.is_island(G, cert.members, args.t)
        if not verdict.ok:
            raise RuntimeError("sparse certificate failed re-verification")
        payload = {
            "island_size": len(cert.members),
            "C": C,
            "members": list(cert.members),
            "verified": True,
        }
    _emit(args, "island", params, payload, started)
    return 0


# alpha of color's sparse island finder, and island's default ALPHA
ALPHA = 0.3


def _island_finder(g: Graph, t: int) -> tuple[int, ...]:
    """Cascade: exact minimum island on residuals of at most
    islands.BRUTEFORCE_CAP vertices, the sparse pipeline at ALPHA when the
    density precondition holds, otherwise the whole residual (always a
    valid island)."""
    if g.n <= islands.BRUTEFORCE_CAP:
        return islands.min_island_size_bruteforce(g, t)[1]
    sp = islands.SparseIslandParams(t=t, alpha=ALPHA)
    try:
        return islands.find_island_sparse(g, sp)[0].members
    except (islands.DensityPreconditionError, separators.ShatterBudgetError):
        return tuple(range(g.n))


def cmd_color(args, started: float) -> int:
    G, digest = _load_graph(args.graph)
    params = {
        "graph": args.graph,
        "input_digest": digest,
        "t": args.t,
        "lists": args.lists,
    }
    if args.lists:
        col, trace = coloring.greedy_clustered_list_coloring(
            G, _load_lists(args.lists, G.n), args.t, _island_finder
        )
    else:
        col, trace = coloring.greedy_clustered_coloring(G, args.t, _island_finder)
    # the theorem's bound: no monochromatic component outgrows an island
    verdict = coloring.verify_coloring(G, col, trace.max_island_size)
    if not verdict.ok or verdict.max_component != col.achieved_clustering:
        raise RuntimeError("greedy coloring failed re-verification")
    payload = {
        "palette": args.t,
        "achieved_clustering": col.achieved_clustering,
        "max_island_size": trace.max_island_size,
        "colors": [col.colors[v] for v in range(G.n)],
        "verified": True,
    }
    _emit(args, "color", params, payload, started)
    return 0


def cmd_percolate(args, started: float) -> int:
    G, digest = _load_graph(args.graph)
    seeds = _vertex_list(G, args.seeds, "seeds")
    params = {
        "graph": args.graph,
        "input_digest": digest,
        "seeds": list(seeds),
        "t": args.t,
    }
    run = percolation.percolate(G, seeds, args.t)
    payload = {
        "percolates": len(run.final_active) == G.n,
        "active_count": len(run.final_active),
        "n": G.n,
    }
    if args.json:
        payload["activation_order"] = [list(step) for step in run.activation_order]
    _emit(args, "percolate", params, payload, started)
    return 0


def cmd_shatter(args, started: float) -> int:
    _finite("epsilon", args.epsilon)
    G, digest = _load_graph(args.graph)
    params = {
        "graph": args.graph,
        "input_digest": digest,
        "epsilon": args.epsilon,
        "oracle": args.oracle,
    }
    oracle = (
        separators.brute_force_separator
        if args.oracle == "brute"
        else separators.bfs_level_separator
    )
    try:
        report = separators.shatter(G, args.epsilon, oracle)
    except separators.ShatterBudgetError as exc:
        raise HonestNegative({"reason": str(exc), "epsilon": args.epsilon}) from exc
    separators.verify_shatter(G, report.X, report.C, args.epsilon)
    payload = {
        "X_size": len(report.X),
        "C": report.C,
        "epsilon": args.epsilon,
        "verified": True,
    }
    if args.json:
        payload["X"] = list(report.X)
    _emit(args, "shatter", params, payload, started)
    return 0


def cmd_pathdecomp(args, started: float) -> int:
    G, digest = _load_graph(args.graph)
    with open(args.decomposition) as fh:
        D = parse_decomposition(fh.read())
    params = {
        "graph": args.graph,
        "input_digest": digest,
        "decomposition": args.decomposition,
        "chain": args.chain,
        "t": args.t,
        "m": args.m,
        "l": args.l,
    }
    payload: dict = {"stages": []}
    P = D
    for step in args.chain.split(","):
        step = step.strip()
        if step == "treepath":
            P = surgery.tree_to_path(G, P).decomposition
        elif step == "proper":
            P = restore_properness(P)
        elif step == "linked":
            P = surgery.make_linked(G, P).decomposition
        elif step == "appuniv":
            P = surgery.make_appearance_universal(G, P).decomposition
        elif step == "largeint":
            P = surgery.make_large_interiors(G, P).decomposition
        elif step == "extract":
            result = surgery.island_or_minor(G, P, args.t, args.m, args.l)
            if result.kind == "order_too_small":
                payload["extract"] = {"kind": result.kind, "note": result.note}
                _emit(args, "pathdecomp", params, payload, started)
                return 2
            if result.kind == "islands":
                payload["extract"] = {
                    "kind": "islands",
                    "window": list(result.window),
                    "islands": [list(c.members) for c in result.certificates],
                }
            else:
                payload["extract"] = {
                    "kind": "minor",
                    "minor_of": result.minor_of,
                    "branch_sets": {
                        str(h): list(bs)
                        for h, bs in result.model.branch_sets.items()
                    },
                }
            payload["stages"].append({"step": step, "kind": result.kind})
            continue
        else:
            raise ValueError(f"unknown transform {step!r}")
        payload["stages"].append({"step": step, "order": P.order, "width": P.width})
    if step != "extract":  # no stage received the last result
        verdict = validate_decomposition(G, P)
        if not verdict.ok:
            raise RuntimeError(f"invalid decomposition after {step}: {verdict.violation}")
    _emit(args, "pathdecomp", params, payload, started)
    return 0


def cmd_verify(args, started: float) -> int:
    G, digest = _load_graph(args.graph)
    params = {"graph": args.graph, "input_digest": digest}
    payload: dict = {"graph_ok": True, "n": G.n, "m": G.m}
    negative = False
    if args.decomposition:
        with open(args.decomposition) as fh:
            D = parse_decomposition(fh.read())
        verdict = validate_decomposition(G, D)
        payload["decomposition_ok"] = verdict.ok
        if not verdict.ok:
            payload["violation"] = verdict.violation
            negative = True
    if args.island:
        members = _vertex_list(G, args.island, "--island")
        verdict = islands.is_island(G, members, args.t)
        payload["island_ok"] = verdict.ok
        if not verdict.ok:
            payload["witness"] = verdict.witness
            negative = True
    if negative:  # reported once, as the negative payload
        raise HonestNegative(payload)
    _emit(args, "verify", params, payload, started)
    return 0


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on any other error: argparse's own 2
    is the exit code of an honest negative.  Subparsers share the class;
    main returns the exit code instead of raising SystemExit."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="islandkit",
        description="Islands, shattering, clustered coloring, percolation, "
        "and path-decomposition surgery.",
    )
    parser.add_argument("--json", action="store_true", help="emit the full JSON report")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="write a generated graph to a file")
    p.add_argument("family")
    p.add_argument("params", nargs="+", type=int)
    p.add_argument("out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("island", help="find a t-island")
    p.add_argument("graph")
    p.add_argument("t", type=int)
    p.add_argument("mode", choices=["brute", "sparse"])
    p.add_argument("alpha", nargs="?", type=float, default=ALPHA)
    p.set_defaults(func=cmd_island)

    p = sub.add_parser("color", help="island-driven greedy clustered coloring")
    p.add_argument("graph")
    p.add_argument("t", type=int)
    p.add_argument("--lists", help="file with one color list per vertex line")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("percolate", help="run bootstrap t-percolation from seeds")
    p.add_argument("graph")
    p.add_argument("seeds", help="comma-separated seed vertices")
    p.add_argument("t", type=int)
    p.set_defaults(func=cmd_percolate)

    p = sub.add_parser("shatter", help="remove few vertices to bound components")
    p.add_argument("graph")
    p.add_argument("epsilon", type=float)
    p.add_argument("oracle", choices=["bfs", "brute"], nargs="?", default="bfs")
    p.set_defaults(func=cmd_shatter)

    p = sub.add_parser("pathdecomp", help="run a decomposition transform chain")
    p.add_argument("graph")
    p.add_argument("decomposition")
    p.add_argument("chain", help="comma list: treepath,proper,linked,appuniv,largeint,extract")
    p.add_argument("t", type=int, nargs="?", default=2)
    p.add_argument("m", type=int, nargs="?", default=2)
    p.add_argument("l", type=int, nargs="?", default=1)
    p.set_defaults(func=cmd_pathdecomp)

    p = sub.add_parser("verify", help="re-check a graph/decomposition/island")
    p.add_argument("graph")
    p.add_argument("--decomposition")
    p.add_argument("--island", help="comma-separated vertex set")
    p.add_argument("--t", type=int, default=2)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error, or --help
        return exc.code
    started = time.perf_counter()
    try:
        return args.func(args, started)
    except HonestNegative as neg:
        if args.json:
            _write_json({"negative": neg.payload})
        else:
            print(f"negative: {neg.payload}", file=sys.stderr)
        return 2
    except Exception as exc:  # surfaced, never swallowed
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
