"""Clustered and clustered-list coloring.

The greedy algorithm peels t-islands off the graph and colors them in
reverse order: each island vertex gets a list color unused by its already
colored neighbors outside the island, which exists because an island
vertex has fewer than t outside neighbors and every list has at least t
colors.  Monochromatic components therefore never leave a single island,
so the clustering equals the largest island seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

from .graphs import Graph, components_within, gen_fan, induced_subgraph, vset
from .islands import GraphTooLarge, min_island_size_bruteforce


class IslandFinderError(RuntimeError):
    """The island finder failed on a residual graph (carried for diagnosis)."""

    def __init__(self, message: str, residual: tuple[int, ...]):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class ClusteredColoring:
    colors: tuple[int, ...]
    palette_size: int
    achieved_clustering: int


@dataclass(frozen=True)
class ListAssignment:
    lists: tuple[tuple[int, ...], ...]
    min_size: int

    def __post_init__(self):
        for i, lst in enumerate(self.lists):
            if len(lst) < self.min_size:
                raise ValueError(f"list of vertex {i} smaller than {self.min_size}")

    @staticmethod
    def uniform(n: int, t: int) -> "ListAssignment":
        return ListAssignment(tuple(tuple(range(t)) for _ in range(n)), t)


@dataclass(frozen=True)
class IslandEliminationTrace:
    steps: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # (island, colors)

    @property
    def max_island_size(self) -> int:
        return max((len(s) for s, _ in self.steps), default=0)


@dataclass(frozen=True)
class ColoringVerdict:
    ok: bool
    max_component: int
    witness: tuple[int, ...]


def monochromatic_components(G: Graph, colors: Sequence[int]) -> list[tuple[int, ...]]:
    """Components of each colour class, ordered by minimum vertex."""
    classes: dict[int, list[int]] = {}
    for v in range(G.n):
        classes.setdefault(colors[v], []).append(v)
    comps = [c for cls in classes.values() for c in components_within(G, cls)]
    return sorted(comps, key=lambda c: c[0])


def _mono_exceeds(G: Graph, colors: Sequence[int], v: int, C: int) -> bool:
    """Whether v's component among the vertices coloured colors[v] has more
    than C vertices; it can only grow as more vertices get coloured."""
    comp = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        for u in G.adj[x]:
            if colors[u] == colors[v] and u not in comp:
                comp.add(u)
                stack.append(u)
                if len(comp) > C:
                    return True
    return len(comp) > C


def verify_coloring(G: Graph, col: ClusteredColoring, C: int) -> ColoringVerdict:
    """Accept iff every monochromatic component has at most C vertices."""
    worst: tuple[int, ...] = ()
    for comp in monochromatic_components(G, col.colors):
        if len(comp) > len(worst):
            worst = comp
    return ColoringVerdict(len(worst) <= C, len(worst), worst)


# An island finder takes a (relabeled, non-empty) residual graph and t
# and returns a t-island of it as a sequence of local vertex ids.
IslandFinder = Callable[[Graph, int], Sequence[int]]


def _peel_islands(
    G: Graph, t: int, island_finder: IslandFinder
) -> list[tuple[int, ...]]:
    remaining = list(range(G.n))
    islands: list[tuple[int, ...]] = []
    while remaining:
        sub, _ = induced_subgraph(G, remaining)
        try:
            local = vset(island_finder(sub, t))
        except Exception as err:
            raise IslandFinderError(
                f"island finder failed on residual of size {sub.n}: {err}",
                tuple(remaining),
            ) from err
        if not local or local[0] < 0 or local[-1] >= sub.n:
            raise IslandFinderError(
                "island finder returned an invalid set", tuple(remaining)
            )
        island = tuple(remaining[v] for v in local)
        residual = set(remaining)
        island_set = set(island)
        for v in island:
            out = sum(1 for u in G.adj[v] if u in residual and u not in island_set)
            if out >= t:
                raise IslandFinderError(
                    f"finder returned a non-island: vertex {v} has {out} outside "
                    "neighbors in the residual graph",
                    tuple(remaining),
                )
        islands.append(island)
        remaining = [v for v in remaining if v not in island_set]
    return islands


def greedy_clustered_list_coloring(
    G: Graph, L: ListAssignment, t: int, island_finder: IslandFinder
) -> tuple[ClusteredColoring, IslandEliminationTrace]:
    """Island-driven greedy list coloring with clustering bounded by the
    largest island the finder returns."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if len(L.lists) != G.n:
        raise ValueError("list assignment size mismatch")
    if L.min_size < t:
        raise ValueError(f"lists must have at least t={t} colors")
    islands = _peel_islands(G, t, island_finder)
    colors: dict[int, int] = {}
    # color in reverse peel order; outside neighbors are already colored
    for island in reversed(islands):
        inset = set(island)
        for v in island:
            forbidden = {colors[u] for u in G.adj[v] if u in colors and u not in inset}
            choice = next(c for c in L.lists[v] if c not in forbidden)
            colors[v] = choice
    assignment = tuple(colors[v] for v in range(G.n))
    palette = max((c for lst in L.lists for c in lst), default=0) + 1 if G.n else t
    clustering = max(
        (len(c) for c in monochromatic_components(G, assignment)), default=0
    )
    trace = IslandEliminationTrace(
        tuple((isl, tuple(colors[v] for v in isl)) for isl in islands)
    )
    return (
        ClusteredColoring(assignment, palette, clustering),
        trace,
    )


def greedy_clustered_coloring(
    G: Graph, t: int, island_finder: IslandFinder
) -> tuple[ClusteredColoring, IslandEliminationTrace]:
    """Plain greedy coloring: uniform lists {0, ..., t-1}."""
    col, trace = greedy_clustered_list_coloring(
        G, ListAssignment.uniform(G.n, t), t, island_finder
    )
    return ClusteredColoring(col.colors, t, col.achieved_clustering), trace


def chi_C_bruteforce(G: Graph, C: int, cap: int = 14) -> int:
    """Exact minimum palette size admitting clustering C, by exhaustive
    canonical color assignments (first vertex fixed to color 0, colors
    introduced in ascending order)."""
    if G.n > cap:
        raise GraphTooLarge(f"n={G.n} exceeds brute-force cap {cap}")
    if G.n == 0:
        return 0

    def feasible(t: int) -> bool:
        colors = [-1] * G.n

        def rec(v: int, used: int) -> bool:
            if v == G.n:
                return True
            for c in range(min(used + 1, t)):
                colors[v] = c
                if not _mono_exceeds(G, colors, v, C) and rec(v + 1, max(used, c + 1)):
                    return True
            colors[v] = -1
            return False

        return rec(0, 0)

    t = 1
    while not feasible(t):
        t += 1
    return t


def greedy_palette_for_clustering(G: Graph, C: int, cap: int = 20) -> int:
    """Smallest t for which island-driven greedy (fed by the brute-force
    minimum-island finder) completes with all islands of size <= C."""
    def finder(g: Graph, t: int) -> Sequence[int]:
        size, witness = min_island_size_bruteforce(g, t, cap=cap)
        if size > C:
            raise IslandFinderError(
                f"minimum {t}-island has size {size} > C={C}", tuple(range(g.n))
            )
        return witness

    t = 1
    while True:
        try:
            greedy_clustered_coloring(G, t, finder)
            return t
        except IslandFinderError:
            t += 1


def two_part_coloring(
    G: Graph,
    partition: tuple[Sequence[int], Sequence[int]],
    t: int,
    island_finder: IslandFinder,
) -> ClusteredColoring:
    """Color the two parts with disjoint palettes 0..t-1 and t..2t-1, so
    monochromatic components never cross the partition."""
    part1, part2 = vset(partition[0]), vset(partition[1])
    if set(part1) & set(part2) or set(part1) | set(part2) != set(range(G.n)):
        raise ValueError("parts must partition V(G)")
    colors = [-1] * G.n
    clustering = 0
    for offset, part in ((0, part1), (t, part2)):
        if not part:
            continue
        sub, _ = induced_subgraph(G, part)
        col, _ = greedy_clustered_coloring(sub, t, island_finder)
        clustering = max(clustering, col.achieved_clustering)
        for local, c in enumerate(col.colors):
            colors[part[local]] = c + offset
    return ClusteredColoring(tuple(colors), 2 * t, clustering)


def adversarial_list(
    t: int, C: int, target: str = "fan"
) -> tuple[Graph, ListAssignment, int]:
    """Adversarial t-list assignment forcing a monochromatic component of
    size more than C on the fan I_{t-1} + P_m.

    The color universe S has (t-1)t colors; apexes receive disjoint
    t-subsets of S, and the path is a concatenation of blocks of t*C^2
    vertices, one block per t-subset T of S (colex order), all listed T.
    """
    if target == "complete_bipartite":
        raise NotImplementedError(
            "the bipartite case is unimplemented by design; only the fan "
            "construction is spelled out"
        )
    if target != "fan":
        raise ValueError(f"unknown target {target!r}")
    if t < 2:
        raise ValueError("the fan construction needs t >= 2")
    if C < 1:
        raise ValueError("C must be >= 1")
    universe = range((t - 1) * t)
    subsets = sorted(combinations(universe, t), key=lambda T: tuple(reversed(T)))
    block = t * C * C
    m = len(subsets) * block
    G = gen_fan(t - 1, m)
    lists: list[tuple[int, ...]] = []
    for T in subsets:
        lists.extend([T] * block)
    for a in range(t - 1):  # apex m+a gets colors {a*t, ..., a*t + t - 1}
        lists.append(tuple(range(a * t, (a + 1) * t)))
    return G, ListAssignment(tuple(lists), t), m


@dataclass(frozen=True)
class ListColoringVerdict:
    ok: bool  # True: every L-coloring has a monochromatic component > C
    counterexample: tuple[int, ...] | None = None


def verify_no_good_list_coloring(
    G: Graph, L: ListAssignment, C: int, cap: int = 2 * 10**6
) -> ListColoringVerdict:
    """Exhaustively confirm that every L-coloring of G has a monochromatic
    component with more than C vertices.

    Searches for a counterexample coloring; partial assignments whose
    monochromatic components already exceed C are pruned (they can only
    grow).
    """
    if len(L.lists) != G.n:
        raise ValueError("list assignment size mismatch")
    space = 1
    for lst in L.lists:
        space *= len(lst)
        if space > cap:
            raise GraphTooLarge(f"coloring space exceeds cap {cap}")
    colors = [-1] * G.n

    def rec(v: int) -> bool:  # True: a good coloring (clustering <= C) exists
        if v == G.n:
            return True
        for c in L.lists[v]:
            colors[v] = c
            if not _mono_exceeds(G, colors, v, C) and rec(v + 1):
                return True
        colors[v] = -1
        return False

    if rec(0):
        return ListColoringVerdict(False, counterexample=tuple(colors))
    return ListColoringVerdict(True)
