"""t-islands and t-enclaves: certification, the maximal-island peel,
brute-force minimum-island search, and separator-driven extraction in
sparse graphs.

A t-island is a non-empty vertex set whose members all have fewer than t
neighbors outside the set.  A t-enclave is a set A with e(A) < t|A|, where
e(A) counts edges with at least one end in A.

`peel` is the one primitive behind enclave shrinking and percolation: it
repeatedly removes the vertices of W with >= t neighbors outside the
current set, and what survives is the unique maximal t-island inside W
(empty if W holds none), whatever order the removals take.  Peeling a
t-enclave leaves a non-empty island, because each removal keeps the
enclave inequality.  By duality, V \\ closure(A) is the
maximal t-island inside V \\ A, so `percolation.percolate` is the same
peel run on the complement of the seeds.

The sparse extraction (`find_island_sparse`, `disjoint_islands`) applies
when |E| < (t - alpha)|V|: it shatters G with the BFS-level oracle within
epsilon = alpha/(2t), then shrinks t-enclave components of G - X to
islands of at most C vertices, C being the bound the shattering achieved,
which each call returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .graphs import Graph, GraphTooLarge, as_fraction, checked_vset, components_within
from .separators import ShatterReport, bfs_level_separator, shatter


class NotAnEnclave(ValueError):
    """The input set fails the enclave inequality e(A) < t|A|."""


@dataclass(frozen=True)
class IslandCertificate:
    members: tuple[int, ...]
    t: int


@dataclass(frozen=True)
class IslandVerdict:
    ok: bool
    certificate: IslandCertificate | None = None
    witness: int | None = None  # first vertex with >= t outside neighbors
    witness_outside_degree: int | None = None


@dataclass(frozen=True)
class SparseIslandParams:
    """Parameters of the sparse-graph island extraction: t and alpha only,
    frozen, so one object serves any number of graphs.

    epsilon = alpha/(2t) is the budget handed to `shatter`.  The component
    bound C that shattering achieves belongs to each run and is returned
    by it; delta(C) is the count promise computed from that C.
    """

    t: int
    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        if self.t < 1 or self.alpha <= 0:
            raise ValueError("need t >= 1 and alpha > 0")

    @property
    def epsilon(self) -> Fraction:
        return self.alpha / (2 * self.t)

    def delta(self, C: int) -> Fraction:
        return self.alpha / (2 * self.t * C)


def is_island(G: Graph, S: Iterable[int], t: int) -> IslandVerdict:
    """Certify S as a t-island or name the first offending vertex."""
    members = checked_vset(G, S)
    if not members:
        raise ValueError("island candidate must be non-empty")
    if t < 1:
        raise ValueError("t must be >= 1")
    inset = set(members)
    for v in members:
        d = sum(1 for u in G.adj[v] if u not in inset)
        if d >= t:
            return IslandVerdict(False, witness=v, witness_outside_degree=d)
    return IslandVerdict(True, certificate=IslandCertificate(members, t))


def incident_edge_count(G: Graph, A: Iterable[int]) -> int:
    """e(A): edges with at least one end in A, internal edges counted once."""
    inset = set(checked_vset(G, A))
    count = 0
    for v in inset:
        for u in G.adj[v]:
            if u not in inset or u > v:
                count += 1
    return count


def is_enclave(G: Graph, A: Iterable[int], t: int) -> bool:
    members = checked_vset(G, A)
    return bool(members) and incident_edge_count(G, members) < t * len(members)


def peel(
    G: Graph, W: Iterable[int], t: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Peel W down to the unique maximal t-island inside it.

    Round 1 is every vertex of W with >= t neighbors outside W; round s+1
    is every vertex whose outside degree reaches t while round s is
    removed.  Returns the rounds, each ascending, and the ascending
    survivors (empty when W holds no t-island).  One outside-degree
    counter per vertex of W: O(|W| + sum of deg v over W), plus sorting
    each round.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    members = checked_vset(G, W)
    outside = dict.fromkeys(members, 0)  # the vertices not yet removed
    for v in members:
        outside[v] = sum(1 for u in G.adj[v] if u not in outside)
    rounds: list[tuple[int, ...]] = []
    current = [v for v in members if outside[v] >= t]
    while current:
        rounds.append(tuple(current))
        for v in current:
            del outside[v]
        reached: list[int] = []
        for v in current:
            for u in G.adj[v]:
                if u in outside:
                    outside[u] += 1
                    if outside[u] == t:
                        reached.append(u)
        current = sorted(reached)
    return tuple(rounds), tuple(outside)


def shrink_enclave_to_island(G: Graph, A: Iterable[int], t: int) -> IslandCertificate:
    """Shrink a t-enclave to the maximal t-island inside it by `peel`;
    a set failing e(A) < t|A| is NotAnEnclave."""
    members = checked_vset(G, A)
    e = incident_edge_count(G, members)
    if not members or e >= t * len(members):
        raise NotAnEnclave(f"e(A)={e} >= t|A|={t * len(members)}")
    verdict = is_island(G, peel(G, members, t)[1], t)
    assert verdict.ok and verdict.certificate is not None
    return verdict.certificate


# The most vertices a brute-force island search takes on.
BRUTEFORCE_CAP = 20


def min_island_size_bruteforce(
    G: Graph, t: int, cap: int = BRUTEFORCE_CAP
) -> tuple[int, tuple[int, ...]]:
    """Exhaustive minimum t-island size with its lexicographically least
    witness among the minimum-size islands."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if G.n > cap:
        raise GraphTooLarge(f"n={G.n} exceeds brute-force cap {cap}")
    if G.n == 0:
        raise ValueError("empty graph has no islands")
    masks = G.neighbor_masks
    full = (1 << G.n) - 1
    for size in range(1, G.n + 1):
        for combo in combinations(range(G.n), size):
            mask = 0
            for v in combo:
                mask |= 1 << v
            out = full & ~mask
            if all((masks[v] & out).bit_count() < t for v in combo):
                return size, combo
    raise AssertionError("V(G) is always a t-island")  # pragma: no cover


def density_below(G: Graph, t: int, alpha) -> bool:
    """Exact check of |E(G)| < (t - alpha)|V(G)| via rational arithmetic."""
    return Fraction(G.m) < (t - as_fraction(alpha)) * G.n


class DensityPreconditionError(ValueError):
    """|E| < (t - alpha)|V| fails; the sparse extraction does not apply."""


@dataclass(frozen=True)
class DisjointIslandsReport:
    islands: tuple[IslandCertificate, ...]
    C: int
    delta: Fraction
    required: int  # ceil(delta * n)
    X: tuple[int, ...]


def _enclave_components(
    G: Graph, params: SparseIslandParams
) -> tuple[list[tuple[int, ...]], ShatterReport]:
    if not density_below(G, params.t, params.alpha):
        raise DensityPreconditionError(
            f"|E|={G.m} is not below (t - alpha)|V| for t={params.t}, alpha={params.alpha}"
        )
    report = shatter(G, params.epsilon, bfs_level_separator)
    rest = set(range(G.n)) - set(report.X)
    comps = components_within(G, rest)
    enclaves = [K for K in comps if is_enclave(G, K, params.t)]
    return enclaves, report


def find_island_sparse(
    G: Graph, params: SparseIslandParams
) -> tuple[IslandCertificate, int]:
    """Extract a certified t-island of size <= C from a sparse graph and
    return it with C.

    Shatters the graph with the BFS-level oracle within the
    epsilon = alpha/(2t) budget, scans the components of G - X in order of
    minimum vertex id, and shrinks the first t-enclave component to an
    island.  C is the bound that shattering achieved on this graph.
    """
    enclaves, report = _enclave_components(G, params)
    if not enclaves:
        raise AssertionError(
            "no enclave component; shatter failed its contract "
            f"(|X|={len(report.X)}, C={report.C})"
        )
    cert = shrink_enclave_to_island(G, enclaves[0], params.t)
    assert len(cert.members) <= report.C
    return cert, report.C


def disjoint_islands(G: Graph, params: SparseIslandParams) -> DisjointIslandsReport:
    """All enclave components of G - X shrunk to pairwise-disjoint islands.

    delta is recomputed from the achieved component bound, so the count
    promise is ceil(alpha/(2tC_achieved) * n).
    """
    enclaves, report = _enclave_components(G, params)
    certs = tuple(shrink_enclave_to_island(G, K, params.t) for K in enclaves)
    delta = params.delta(report.C)
    n = G.n
    required = -((-delta.numerator * n) // delta.denominator)  # ceil(delta*n)
    return DisjointIslandsReport(
        islands=certs, C=report.C, delta=delta, required=required, X=tuple(report.X)
    )
