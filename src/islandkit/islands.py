"""t-islands and t-enclaves: certification, greedy shrinking, brute-force
minimum-island search, and separator-driven extraction in sparse graphs.

A t-island is a non-empty vertex set whose members all have fewer than t
neighbors outside the set.  A t-enclave is a set A with e(A) < t|A|, where
e(A) counts edges with at least one end in A; every enclave contains an
island, found by repeatedly deleting a vertex with >= t outside neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .graphs import Graph, checked_vset, vset


class NotAnEnclave(ValueError):
    """The input set fails the enclave inequality e(A) < t|A|."""


class GraphTooLarge(ValueError):
    """Brute-force cap exceeded."""


def as_fraction(x) -> Fraction:
    """Exact rational from int/Fraction/float (floats via their repr)."""
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


@dataclass(frozen=True)
class IslandCertificate:
    members: tuple[int, ...]
    t: int
    outside_degrees: tuple[int, ...]  # aligned with members

    def to_json(self) -> dict:
        return {
            "set": list(self.members),
            "t": self.t,
            "outside_degrees": list(self.outside_degrees),
        }


@dataclass(frozen=True)
class IslandVerdict:
    ok: bool
    certificate: IslandCertificate | None = None
    witness: int | None = None  # first vertex with >= t outside neighbors
    witness_outside_degree: int | None = None


@dataclass(frozen=True)
class EnclaveCertificate:
    members: tuple[int, ...]
    t: int
    incident_edges: int

    def to_json(self) -> dict:
        return {
            "set": list(self.members),
            "t": self.t,
            "incident_edges": self.incident_edges,
        }


@dataclass
class SparseIslandParams:
    """Parameters of the sparse-graph island extraction.

    epsilon = alpha/(2t) is the separator budget handed to the shatterer;
    delta is recomputed from the achieved component bound C after the run.
    """

    t: int
    alpha: Fraction
    C: int | None = None

    def __post_init__(self):
        self.alpha = as_fraction(self.alpha)
        if self.t < 1 or self.alpha <= 0:
            raise ValueError("need t >= 1 and alpha > 0")

    @property
    def epsilon(self) -> Fraction:
        return self.alpha / (2 * self.t)

    def delta(self, C: int | None = None) -> Fraction:
        C = C if C is not None else self.C
        if C is None:
            raise ValueError("component bound C not known yet")
        return self.alpha / (2 * self.t * C)


def is_island(G: Graph, S: Iterable[int], t: int) -> IslandVerdict:
    """Certify S as a t-island or name the first offending vertex."""
    members = checked_vset(G, S)
    if not members:
        raise ValueError("island candidate must be non-empty")
    if t < 1:
        raise ValueError("t must be >= 1")
    inset = set(members)
    outside = []
    for v in members:
        d = sum(1 for u in G.adj[v] if u not in inset)
        if d >= t:
            return IslandVerdict(False, witness=v, witness_outside_degree=d)
        outside.append(d)
    return IslandVerdict(
        True, certificate=IslandCertificate(members, t, tuple(outside))
    )


def incident_edge_count(G: Graph, A: Iterable[int]) -> int:
    """e(A): edges with at least one end in A, internal edges counted once."""
    inset = set(A)
    count = 0
    for v in inset:
        for u in G.adj[v]:
            if u not in inset or u > v:
                count += 1
    return count


def enclave_certificate(G: Graph, A: Iterable[int], t: int) -> EnclaveCertificate:
    members = vset(A)
    e = incident_edge_count(G, members)
    if not members or e >= t * len(members):
        raise NotAnEnclave(f"e(A)={e} >= t|A|={t * len(members)}")
    return EnclaveCertificate(members, t, e)


def is_enclave(G: Graph, A: Iterable[int], t: int) -> bool:
    members = vset(A)
    return bool(members) and incident_edge_count(G, members) < t * len(members)


def shrink_enclave_to_island(G: Graph, A: Iterable[int], t: int) -> IslandCertificate:
    """Greedily shrink a t-enclave to a t-island contained in it.

    While some vertex of the current set has >= t neighbors outside it,
    delete the smallest such vertex; each deletion preserves the enclave
    inequality, so the loop ends at a non-empty island.
    """
    current = set(vset(A))
    e = incident_edge_count(G, current)
    if not current or e >= t * len(current):
        raise NotAnEnclave(f"e(A)={e} >= t|A|={t * len(current)}")
    while True:
        offender = None
        for v in sorted(current):
            if sum(1 for u in G.adj[v] if u not in current) >= t:
                offender = v
                break
        if offender is None:
            break
        current.remove(offender)
    verdict = is_island(G, current, t)
    assert verdict.ok and verdict.certificate is not None
    return verdict.certificate


def min_island_size_bruteforce(
    G: Graph, t: int, cap: int = 20
) -> tuple[int, tuple[int, ...]]:
    """Exhaustive minimum t-island size with its lexicographically least
    witness among the minimum-size islands."""
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


def max_island_in(G: Graph, W: Iterable[int], t: int) -> tuple[int, ...]:
    """The unique maximal t-island contained in W (possibly empty).

    Obtained by peeling vertices of W with >= t neighbors outside the
    current set; any t-island inside W survives the peeling.
    """
    current = set(vset(W))
    changed = True
    while changed and current:
        changed = False
        for v in sorted(current):
            if sum(1 for u in G.adj[v] if u not in current) >= t:
                current.remove(v)
                changed = True
    return tuple(sorted(current))


def density_below(G: Graph, t: int, alpha) -> bool:
    """Exact check of |E(G)| < (t - alpha)|V(G)| via rational arithmetic."""
    return Fraction(G.m) < (t - as_fraction(alpha)) * G.n


# A shatterer takes (G, epsilon) and returns an object with attributes
# X (vertex tuple), C (achieved component bound); see separators.ShatterReport.
Shatterer = Callable[[Graph, Fraction], "object"]


class DensityPreconditionError(ValueError):
    """|E| < (t - alpha)|V| fails; the sparse extraction does not apply."""


@dataclass(frozen=True)
class DisjointIslandsReport:
    islands: tuple[IslandCertificate, ...]
    C: int
    delta: Fraction
    required: int  # ceil(delta * n)
    X: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "islands": [c.to_json() for c in self.islands],
            "C": self.C,
            "delta": str(self.delta),
            "required": self.required,
            "cut": list(self.X),
        }


def _enclave_components(
    G: Graph, params: SparseIslandParams, shatterer: Shatterer
) -> tuple[list[tuple[int, ...]], "object"]:
    from .graphs import components_within

    if not density_below(G, params.t, params.alpha):
        raise DensityPreconditionError(
            f"|E|={G.m} is not below (t - alpha)|V| for t={params.t}, alpha={params.alpha}"
        )
    report = shatterer(G, params.epsilon)
    rest = set(range(G.n)) - set(report.X)
    comps = components_within(G, rest)
    enclaves = [K for K in comps if is_enclave(G, K, params.t)]
    return enclaves, report


def find_island_sparse(
    G: Graph, params: SparseIslandParams, shatterer: Shatterer
) -> IslandCertificate:
    """Extract a certified t-island of size <= C from a sparse graph.

    Shatters the graph within the epsilon = alpha/(2t) budget, scans the
    components of G - X in order of minimum vertex id, and shrinks the
    first t-enclave component to an island.
    """
    enclaves, report = _enclave_components(G, params, shatterer)
    if not enclaves:
        raise AssertionError(
            "no enclave component; shatterer failed its contract "
            f"(|X|={len(report.X)}, C={report.C})"
        )
    cert = shrink_enclave_to_island(G, enclaves[0], params.t)
    params.C = report.C
    assert len(cert.members) <= report.C
    return cert


def disjoint_islands(
    G: Graph, params: SparseIslandParams, shatterer: Shatterer
) -> DisjointIslandsReport:
    """All enclave components of G - X shrunk to pairwise-disjoint islands.

    delta is recomputed from the achieved component bound, so the count
    promise is ceil(alpha/(2tC_achieved) * n).
    """
    enclaves, report = _enclave_components(G, params, shatterer)
    certs = tuple(shrink_enclave_to_island(G, K, params.t) for K in enclaves)
    params.C = report.C
    delta = params.delta(report.C)
    n = G.n
    required = -((-delta.numerator * n) // delta.denominator)  # ceil(delta*n)
    return DisjointIslandsReport(
        islands=certs, C=report.C, delta=delta, required=required, X=tuple(report.X)
    )
