"""t-neighbor bootstrap percolation and its duality with t-islands.

A vertex activates once it has at least t active neighbors; the closure
is order-independent.  The vertices left inactive are exactly the
maximal t-island inside V \\ A, so `percolate` is `islands.peel` run on
the complement of the seeds, each peel round one activation step.  A set
therefore percolates iff no t-island avoids it, which duality_check
verifies exhaustively on small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .graphs import Graph, checked_vset, vset
from .islands import (
    GraphTooLarge,
    IslandCertificate,
    as_fraction,
    is_island,
    peel,
)


@dataclass(frozen=True)
class PercolationRun:
    final_active: tuple[int, ...]
    activation_order: tuple[tuple[int, int], ...]  # (vertex, step)


def percolate(G: Graph, A0, t: int) -> PercolationRun:
    """Run the activation process to its closure.

    Step s activates, in ascending order, every vertex that round s of
    `peel` removes from V \\ A0; the closure itself is schedule-independent,
    the recorded order is just one valid schedule.
    """
    seedset = set(checked_vset(G, A0))
    rounds, island = peel(G, [v for v in range(G.n) if v not in seedset], t)
    order = tuple((v, step) for step, newly in enumerate(rounds, 1) for v in newly)
    inactive = set(island)
    final = tuple(v for v in range(G.n) if v not in inactive)
    return PercolationRun(final, order)


def t_percolates(G: Graph, A0, t: int) -> bool:
    return len(percolate(G, A0, t).final_active) == G.n


def budget_for(epsilon, n: int) -> int:
    """Largest seed size allowed by 'at most epsilon * n', exactly."""
    eps = as_fraction(epsilon)
    return (eps.numerator * n) // eps.denominator  # floor


@dataclass(frozen=True)
class ResistanceReport:
    t: int
    epsilon: Fraction
    verdict: str  # "resistant" | "percolates" | "inconclusive"
    witness: tuple[int, ...] | None = None
    island_family: tuple[IslandCertificate, ...] | None = None
    budget: int | None = None


def resistance_exhaustive(
    G: Graph, t: int, epsilon, cap: int = 10**6
) -> ResistanceReport:
    """Test every seed set of size up to the epsilon budget.

    Returns the lexicographically least minimum-size percolating witness,
    or a resistance verdict if none percolates.
    """
    eps = as_fraction(epsilon)
    budget = budget_for(eps, G.n)
    total = sum(comb(G.n, s) for s in range(1, budget + 1))
    if total > cap:
        raise GraphTooLarge(f"{total} seed sets exceed cap {cap}")
    for size in range(1, budget + 1):
        for combo in combinations(range(G.n), size):
            if t_percolates(G, combo, t):
                return ResistanceReport(t, eps, "percolates", witness=combo, budget=budget)
    return ResistanceReport(t, eps, "resistant", budget=budget)


def resistance_via_islands(
    G: Graph, t: int, epsilon, island_family
) -> ResistanceReport:
    """Certify resistance from a family of pairwise-disjoint t-islands.

    More than budget-many disjoint islands force every small seed set to
    miss one of them, and a set that misses an island never percolates.
    The family is re-verified from scratch; a too-small family yields
    "inconclusive", not "percolates".
    """
    eps = as_fraction(epsilon)
    budget = budget_for(eps, G.n)
    certs: list[IslandCertificate] = []
    seen: set[int] = set()
    for item in island_family:
        members = item.members if isinstance(item, IslandCertificate) else vset(item)
        verdict = is_island(G, members, t)
        if not verdict.ok:
            raise ValueError(
                f"family member {members} is not a {t}-island (witness {verdict.witness})"
            )
        if seen & set(members):
            raise ValueError("island family is not pairwise disjoint")
        seen.update(members)
        certs.append(verdict.certificate)
    if len(certs) > budget:
        return ResistanceReport(
            t, eps, "resistant", island_family=tuple(certs), budget=budget
        )
    return ResistanceReport(
        t, eps, "inconclusive", island_family=tuple(certs), budget=budget
    )


@dataclass(frozen=True)
class DualityVerdict:
    ok: bool
    percolates: bool
    island_in_complement: tuple[int, ...] | None


def duality_check(G: Graph, A0, t: int, cap: int = 20) -> DualityVerdict:
    """Confirm: A0 t-percolates  iff  no t-island lies in V \\ A0.

    Three answers must agree: the percolation process, the linear `peel`
    of the complement (A0 percolates iff nothing survives it), and an
    exhaustive scan over all non-empty subsets of the complement, which
    is independent of both.
    """
    if G.n > cap:
        raise GraphTooLarge(f"n={G.n} exceeds brute-force cap {cap}")
    seeds = vset(A0)
    perc = t_percolates(G, seeds, t)
    seedset = set(seeds)
    complement = [v for v in range(G.n) if v not in seedset]
    peeled = not peel(G, complement, t)[1]
    masks = G.neighbor_masks
    full = (1 << G.n) - 1
    island: tuple[int, ...] | None = None
    k = len(complement)
    for sub in range(1, 1 << k):
        mask = 0
        vs = []
        for i in range(k):
            if sub >> i & 1:
                mask |= 1 << complement[i]
                vs.append(complement[i])
        out = full & ~mask
        if all((masks[v] & out).bit_count() < t for v in vs):
            island = tuple(vs)
            break
    return DualityVerdict(
        ok=perc == peeled == (island is None), percolates=perc, island_in_complement=island
    )
