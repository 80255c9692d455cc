"""Outside-in tracing of islandkit's layers.

The tracer replaces every binding of each target function in every
loaded ``islandkit.*`` namespace with a wrapper that records a span
(name, start, end, parent, job) and returns the wrapped function's
result unchanged, re-raising whatever it raises.  Spans stay in memory
until the caller writes them out.  ``uninstall`` restores the original
bindings, so untraced passes in the same process pay nothing.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs; the span name is "<module>.<function>".
TARGETS = (
    ("graphs", "parse_graph"),
    ("graphs", "components_within"),
    ("graphs", "induced_subgraph"),
    ("graphs", "bfs_levels"),
    ("separators", "shatter"),
    ("separators", "bfs_level_separator"),
    ("separators", "verify_shatter"),
    ("islands", "find_island_sparse"),
    ("islands", "shrink_enclave_to_island"),
    ("islands", "min_island_size_bruteforce"),
    ("islands", "is_island"),
    ("coloring", "greedy_clustered_coloring"),
    ("coloring", "verify_coloring"),
    ("percolation", "percolate"),
    ("decomposition", "validate_decomposition"),
    ("decomposition", "find_linkage"),
    ("decomposition", "restore_properness"),
    ("decomposition", "treewidth_decomposition"),
    ("decomposition", "parse_decomposition"),
    ("surgery", "tree_to_path"),
    ("surgery", "make_linked"),
    ("surgery", "audit_linked"),
    ("surgery", "make_appearance_universal"),
    ("surgery", "make_large_interiors"),
    ("surgery", "extended_bags"),
    ("surgery", "island_or_minor"),
    ("cli", "main"),
)

JOB = "bench.job"
FINDER = "coloring.island_finder"  # the finder handed to the greedy coloring


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []  # (name, start, end, parent, job)
        self.stack: list[int] = []
        self.job = -1
        self.separations = 0  # find_linkage calls that returned a Separation
        self.fallbacks = 0  # finder calls that returned the whole residual
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.separations = 0
        self.fallbacks = 0

    def span(self, name: str, fn, args, kwargs):
        spans, stack = self.spans, self.stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent, self.job)

    def _wrap(self, name: str, fn):
        if name == "decomposition.find_linkage":
            def wrapper(*args, **kwargs):
                result = self.span(name, fn, args, kwargs)
                if type(result).__name__ == "Separation":
                    self.separations += 1
                return result
        elif name == "coloring.greedy_clustered_coloring":
            # the island finder is the last positional argument
            def wrapper(*args, **kwargs):
                if "island_finder" in kwargs:
                    kwargs["island_finder"] = self._wrap_finder(kwargs["island_finder"])
                else:
                    args = args[:-1] + (self._wrap_finder(args[-1]),)
                return self.span(name, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return self.span(name, fn, args, kwargs)
        return functools.wraps(fn)(wrapper)

    def _wrap_finder(self, finder):
        def traced_finder(g, t):
            result = self.span(FINDER, finder, (g, t), {})
            if len(set(result)) == g.n:
                self.fallbacks += 1
            return result
        return traced_finder

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "islandkit" or name.startswith("islandkit."))
        ]
        self.missing = []
        for modname, fname in TARGETS:
            owner = sys.modules.get(f"islandkit.{modname}")
            orig = getattr(owner, fname, None)
            if orig is None:
                self.missing.append(f"{modname}.{fname}")
                continue
            wrapper = self._wrap(f"{modname}.{fname}", orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._saved.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._saved):
            setattr(m, attr, orig)
        self._saved = []


def aggregate(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds (outermost spans of a name
    only, so recursion is not double counted), self seconds (duration
    minus the time covered by child spans), and, for each name, how many
    of its spans ran inside a span of each other name ("inside:<name>")."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child[i]
        ancestors = set()
        p = parent
        while p >= 0:
            ancestors.add(spans[p][0])
            p = spans[p][3]
        if name not in ancestors:
            row["s"] += end - start
        for a in ancestors:
            row[f"inside:{a}"] = row.get(f"inside:{a}", 0) + 1
    return out
