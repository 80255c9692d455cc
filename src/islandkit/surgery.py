"""Path-decomposition surgery: tree-to-path conversion, linkedness,
appearance-universality, large interiors, extended bags, and the
island-or-minor extraction.

The constructions run on any input and report the order they achieve;
the quantitative guarantees of the underlying theory only kick in above
astronomically large thresholds (see ConstantSchedule), which desk-scale
runs report honestly instead of pretending to meet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from typing import Sequence

from .decomposition import (
    Linkage,
    PathDecomposition,
    TreeDecomposition,
    find_linkage,
    require_kind,
    restore_properness,
    treewidth_decomposition,
    validate_decomposition,
)
from .graphs import (
    Graph,
    MinorModel,
    Separation,
    gen_complete_bipartite,
    gen_fan,
    induced_subgraph,
    reach,
    verify_minor_model,
    vset,
)
from .islands import IslandCertificate, is_island


class AuditError(RuntimeError):
    """A decomposition failed one of the from-scratch audits."""


@dataclass(frozen=True)
class AuditVerdict:
    """Outcome of the appearance-universality or large-interiors audit."""

    ok: bool
    violation: str | None = None


@dataclass(frozen=True)
class TransformResult:
    decomposition: PathDecomposition
    # interval partition of input bags witnessing a coarsening, or None
    # when the transform is not a pure coarsening (tree input, bag splits)
    intervals: tuple[tuple[int, int], ...] | None


def coarsen_by_blocks(
    P: PathDecomposition, blocks: Sequence[tuple[int, int]]
) -> PathDecomposition:
    """Merge the bags of each [start, end] interval; blocks must tile the
    bag sequence in order."""
    expected = 0
    bags = []
    for start, end in blocks:
        if start != expected or end < start or end >= P.order:
            raise ValueError(f"blocks do not tile the path: {blocks}")
        merged: set[int] = set()
        for i in range(start, end + 1):
            merged.update(P.bags[i])
        bags.append(vset(merged))
        expected = end + 1
    if expected != P.order:
        raise ValueError(f"blocks do not tile the path: {blocks}")
    return PathDecomposition(tuple(bags))


def _cut_after(cuts: Sequence[int], order: int) -> list[tuple[int, int]]:
    """Blocks of bags 0..order-1 that end at each cut edge i (between bags
    i and i+1) and at the last bag; cuts ascend."""
    return list(zip([0] + [i + 1 for i in cuts], list(cuts) + [order - 1]))


def _compose_intervals(
    outer: Sequence[tuple[int, int]], inner: Sequence[tuple[int, int]]
) -> tuple[tuple[int, int], ...]:
    """Intervals of a coarsening of a coarsening, in input-bag indices."""
    return tuple((inner[a][0], inner[b][1]) for a, b in outer)


def verify_coarsening(
    P: PathDecomposition,
    result: PathDecomposition,
    intervals: Sequence[tuple[int, int]],
) -> None:
    """Reconstruct each output bag as the union of its interval of input
    bags; any mismatch is an audit failure."""
    if len(intervals) != result.order:
        raise AuditError("interval count does not match output order")
    for bag, (start, end) in zip(result.bags, intervals):
        union: set[int] = set()
        for i in range(start, end + 1):
            union.update(P.bags[i])
        if set(bag) != union:
            raise AuditError(f"bag {bag} is not the union of input bags {start}..{end}")


# ---------------------------------------------------------------------------
# tree -> path
# ---------------------------------------------------------------------------

def _tree_path_bags(
    T: TreeDecomposition, adj: list[list[int]], nodes: list[int]
) -> list[tuple[int, ...]]:
    if len(nodes) <= 1:  # none only for the empty graph's empty tree
        return [T.bags[z] for z in nodes]
    degrees = {z: len(adj[z]) for z in nodes}
    hub = max(nodes, key=lambda z: degrees[z])
    # a longest path: from the node farthest from a back to a, where a is
    # the node farthest from nodes[0]
    a = [*reach(adj, nodes[0], set(nodes))][-1]
    prev = reach(adj, a, set(nodes))
    spine = [[*prev][-1]]
    while spine[-1] != a:
        spine.append(prev[spine[-1]])

    def union(comp) -> tuple[int, ...]:
        return vset(set().union(*(T.bags[x] for x in comp)))

    # Branches of a tree are disjoint, so each walk below may consume one
    # shared set of unvisited nodes.
    if degrees[hub] >= len(spine):
        # star case: bags of the branches around the hub
        off_hub = set(nodes) - {hub}
        return [union([hub, *reach(adj, start, off_hub)]) for start in sorted(adj[hub])]
    off_spine = set(nodes).difference(spine)
    return [union(reach(adj, z, off_spine)) for z in spine]


def tree_to_path(G: Graph, T: TreeDecomposition) -> TransformResult:
    """Turn a tree decomposition into a proper path decomposition of
    adhesion at most the bag-size bound.

    High-degree node: one path bag per branch, each being the node's bag
    united with the branch's bags.  Otherwise: walk a longest path of the
    tree, folding each hanging subtree into the bag it hangs from.
    The achieved order is best-effort and reported, not promised.
    """
    require_kind(T, TreeDecomposition, "tree_to_path")
    verdict = validate_decomposition(G, T)
    if not verdict.ok:
        raise AuditError(f"invalid tree decomposition: {verdict.violation}")
    adj = T.adjacency()
    order = [*reach(adj, 0, set(range(T.order)))] if T.bags else []
    P, _ = restore_properness(PathDecomposition(tuple(_tree_path_bags(T, adj, order))))
    verdict = validate_decomposition(G, P)
    if not verdict.ok or not P.proper:
        raise AuditError(f"tree_to_path produced an invalid result: {verdict.violation}")
    return TransformResult(P, None)


# ---------------------------------------------------------------------------
# linkedness
# ---------------------------------------------------------------------------

def _bag_linkage(
    G: Graph, P: PathDecomposition, z: int
) -> Linkage | Separation:
    """Linkage (or a broken-bag separation) of the internal bag z, in
    original vertex ids."""
    left = P.boundary(z - 1, z)
    right = P.boundary(z, z + 1)
    if len(left) != len(right):
        raise AuditError(
            f"bag {z} has unequal boundaries ({len(left)} vs {len(right)})"
        )
    members = vset(P.bags[z])
    sub, relabel = induced_subgraph(G, members)
    res = find_linkage(sub, [relabel[v] for v in left], [relabel[v] for v in right])
    if isinstance(res, Linkage):
        return Linkage(tuple(tuple(members[v] for v in p) for p in res.paths))
    return Separation(
        vset(members[v] for v in res.left), vset(members[v] for v in res.right)
    )


def bag_linkages(
    G: Graph, P: PathDecomposition
) -> dict[int, Linkage | Separation]:
    """The Menger result of every internal bag: a linkage from its left
    boundary to its right boundary, or a separation of order below the
    boundary size.  This is the only max-flow call the surgery makes per
    bag; every other use of a bag's linkage reads this result."""
    return {z: _bag_linkage(G, P, z) for z in range(1, P.order - 1)}


def broken_bags(G: Graph, P: PathDecomposition) -> dict[int, Separation]:
    """Internal bags admitting a separation of order below the boundary
    size (Menger's obstruction to a linkage)."""
    return {
        z: res for z, res in bag_linkages(G, P).items() if isinstance(res, Separation)
    }


def _linkage_violation(
    G: Graph, P: PathDecomposition, z: int, res: Linkage | Separation
) -> str | None:
    """Why res is not a linkage of the internal bag z, or None.  Checked
    as a certificate in time linear in the paths: each path is nonempty,
    lies in the bag and steps along edges of G, the paths are pairwise
    disjoint, and they start at the left boundary and end at the right."""
    if not isinstance(res, Linkage):
        return f"bag {z} is broken"
    bag = set(P.bags[z])
    seen: set[int] = set()
    for path in res.paths:
        if not path:
            return f"linkage of bag {z} has an empty path"
        for i, v in enumerate(path):
            if v not in bag:
                return f"linkage of bag {z} leaves the bag at vertex {v}"
            if v in seen:
                return f"linkage of bag {z} visits vertex {v} twice"
            seen.add(v)
            if i and not G.has_edge(path[i - 1], v):
                return f"linkage of bag {z} steps along non-edge ({path[i - 1]},{v})"
    # the paths are disjoint, so equal sets mean one path per boundary vertex
    if vset(p[0] for p in res.paths) != P.boundary(z - 1, z):
        return f"linkage of bag {z} does not start at its left boundary"
    if vset(p[-1] for p in res.paths) != P.boundary(z, z + 1):
        return f"linkage of bag {z} does not end at its right boundary"
    return None


@dataclass(frozen=True)
class LinkedVerdict:
    ok: bool
    violation: str | None = None
    # internal bag -> its linkage, each checked by _linkage_violation (when ok)
    linkages: dict[int, Linkage] = field(default_factory=dict)


def _checked_linkages(
    G: Graph, P: PathDecomposition, linkages: dict[int, Linkage | Separation]
) -> LinkedVerdict:
    """Check the Menger result of every internal bag as a certificate."""
    for z in range(1, P.order - 1):
        violation = _linkage_violation(G, P, z, linkages[z])
        if violation is not None:
            return LinkedVerdict(False, violation)
    return LinkedVerdict(True, linkages=linkages)


def audit_linked(G: Graph, P: PathDecomposition) -> LinkedVerdict:
    """Every internal bag must carry a full boundary-to-boundary linkage.

    From scratch: each bag's linkage is found once (bag_linkages) and then
    checked as a certificate, never recomputed; an ok verdict carries the
    checked linkages for its callers to use.
    """
    for z in range(1, P.order - 1):
        left = P.boundary(z - 1, z)
        right = P.boundary(z, z + 1)
        if len(left) != len(right):
            return LinkedVerdict(
                False, f"bag {z} boundaries differ in size ({len(left)} vs {len(right)})"
            )
    return _checked_linkages(G, P, bag_linkages(G, P))


def _split_at_broken(
    P: PathDecomposition, broken: dict[int, Separation]
) -> PathDecomposition:
    """Split every broken bag along its separation and merge the stretches
    between consecutive broken bags; all new adjacent intersections are
    the (small) separation cuts, so the adhesion strictly drops."""
    bags: list[set[int]] = []
    start = 0
    for z in sorted(broken):
        stretch = set(broken[z].left)
        for i in range(start, z):
            stretch.update(P.bags[i])
        bags += [stretch, set(broken[z].right)]
        start = z + 1
    for i in range(start, P.order):  # the tail joins the last right side
        bags[-1].update(P.bags[i])
    return PathDecomposition(tuple(vset(b) for b in bags))


def make_linked(G: Graph, P: PathDecomposition) -> TransformResult:
    """Produce a proper linked path decomposition from a proper one.

    Follows the inductive recipe: drop to lower adhesion along the edges
    of small intersection when that preserves more order, otherwise make
    the adhesion uniform, split away broken bags (detected via Menger),
    or keep a window of consecutive unbroken bags.  Each bag's linkage is
    found once, by the Menger call that decides whether it is broken; the
    chosen result's linkages are then checked as certificates, not
    recomputed.  The achieved order is reported, never fabricated.
    """
    require_kind(P, PathDecomposition, "make_linked")
    verdict = validate_decomposition(G, P)
    if not verdict.ok:
        raise AuditError(f"invalid path decomposition: {verdict.violation}")
    P, _ = restore_properness(P)
    result, linkages = _make_linked_rec(G, P)
    final = _checked_linkages(G, result, linkages)
    if not final.ok:
        raise AuditError(f"make_linked failed its own audit: {final.violation}")
    return TransformResult(result, None)


def _make_linked_rec(
    G: Graph, P: PathDecomposition
) -> tuple[PathDecomposition, dict[int, Linkage | Separation]]:
    sizes = [len(set(P.bags[i]) & set(P.bags[i + 1])) for i in range(P.order - 1)]
    p = max(sizes, default=0)  # the adhesion
    if p == 0 or P.order <= 2:
        # every boundary is empty: each internal bag carries the empty linkage
        return P, {z: Linkage(()) for z in range(1, P.order - 1)}
    options: list[tuple[PathDecomposition, dict[int, Linkage | Separation]]] = []

    low = [i for i, size in enumerate(sizes) if size < p]
    if low:
        # option A: cut at the small-intersection edges -> adhesion <= p-1
        A, _ = restore_properness(coarsen_by_blocks(P, _cut_after(low, P.order)))
        options.append(_make_linked_rec(G, A))
        # option B: merge the small-intersection edges away -> uniform p
        high = [i for i, size in enumerate(sizes) if size == p]
        B, _ = restore_properness(coarsen_by_blocks(P, _cut_after(high, P.order)))
    else:
        B = P
    if B.order <= 2 or B.adhesion == 0:
        options.append(_make_linked_rec(G, B))  # linked vacuously
    else:
        linkages = bag_linkages(G, B)
        broken = {
            z: res for z, res in linkages.items() if isinstance(res, Separation)
        }
        if not broken:
            options.append((B, linkages))
        else:
            split = _split_at_broken(B, broken)
            split, _ = restore_properness(split)
            options.append(_make_linked_rec(G, split))
            # window: the first longest run of consecutive unbroken internal
            # bags, the bags before it merged into one and those after into one
            runs = [
                list(zs)
                for is_broken, zs in groupby(range(1, B.order - 1), lambda z: z in broken)
                if not is_broken
            ]
            if runs:
                # a vertex shared by a run bag and an outer block lies in
                # every bag between them, so W's internal bags are the run's
                # bags with their boundaries in B, W is as proper as B, and
                # each run bag keeps the linkage found above
                run = max(runs, key=len)
                cuts = range(run[0] - 1, run[-1] + 1)
                W = coarsen_by_blocks(B, _cut_after(cuts, B.order))
                options.append((W, {i: linkages[z] for i, z in enumerate(run, 1)}))
    return max(options, key=lambda opt: opt[0].order)


# ---------------------------------------------------------------------------
# appearance-universality and large interiors
# ---------------------------------------------------------------------------

def _vertex_runs(P: PathDecomposition) -> dict[int, tuple[int, int]]:
    runs: dict[int, tuple[int, int]] = {}
    for i, bag in enumerate(P.bags):
        for v in bag:
            if v in runs:
                runs[v] = (runs[v][0], i)
            else:
                runs[v] = (i, i)
    return runs


def audit_appearance_universal(P: PathDecomposition) -> AuditVerdict:
    for v, (a, b) in _vertex_runs(P).items():
        span = b - a + 1
        if span > 2 and span != P.order:
            return AuditVerdict(
                False, f"vertex {v} appears in {span} of {P.order} bags"
            )
    return AuditVerdict(True)


def make_appearance_universal(P: PathDecomposition) -> TransformResult:
    """Coarsen until every vertex appears in all bags or in at most two
    consecutive ones.

    Either peel a long-running vertex (restrict to its run, remove it,
    recurse, re-add it everywhere) or merge the path into blocks as long
    as the longest remaining run; the branch keeping more order wins.
    """
    require_kind(P, PathDecomposition, "make_appearance_universal")
    result, intervals = _appuniv_rec(P)
    verify_coarsening(P, result, intervals)
    verdict = audit_appearance_universal(result)
    if not verdict.ok:
        raise AuditError(f"appearance-universality audit failed: {verdict.violation}")
    return TransformResult(result, intervals)


def _appuniv_rec(
    P: PathDecomposition,
) -> tuple[PathDecomposition, tuple[tuple[int, int], ...]]:
    order = P.order
    identity = tuple((i, i) for i in range(order))
    if order <= 2:
        return P, identity
    runs = _vertex_runs(P)
    partial = {
        v: (a, b)
        for v, (a, b) in runs.items()
        if (b - a + 1) > 2 and (b - a + 1) != order
    }
    if not partial:
        return P, identity
    max_run = max(b - a + 1 for a, b in partial.values())
    options: list[tuple[PathDecomposition, tuple[tuple[int, int], ...]]] = []

    # block-merge branch: blocks of the longest run length
    blocks = _cut_after(range(max_run - 1, order - 1, max_run), order)
    merged = coarsen_by_blocks(P, blocks)
    options.append((merged, tuple(blocks)))

    # peel branch: restrict to the longest run, drop the vertex, recurse
    v, (a, b) = max(partial.items(), key=lambda kv: kv[1][1] - kv[1][0])
    blocks = _cut_after(range(a, b), order)
    restricted = coarsen_by_blocks(P, blocks)
    peeled = PathDecomposition(
        tuple(vset(set(bag) - {v}) for bag in restricted.bags)
    )
    sub_result, sub_intervals = _appuniv_rec(peeled)
    readded = PathDecomposition(
        tuple(vset(set(bag) | {v}) for bag in sub_result.bags)
    )
    options.append((readded, _compose_intervals(sub_intervals, blocks)))
    return max(options, key=lambda opt: opt[0].order)


def internal_vertices(P: PathDecomposition) -> dict[int, tuple[int, ...]]:
    """Vertices appearing in exactly one bag, grouped by their bag node."""
    out: dict[int, list[int]] = {i: [] for i in range(P.order)}
    for v, (a, b) in _vertex_runs(P).items():
        if a == b:
            out[a].append(v)
    return {i: tuple(sorted(vs)) for i, vs in out.items()}


def audit_large_interiors(G: Graph, P: PathDecomposition) -> AuditVerdict:
    """Every internal bag holds an internal vertex, and no internal vertex
    touches both exclusive sides of its bag's neighbors."""
    interiors = internal_vertices(P)
    for z in range(1, P.order - 1):
        if not interiors[z]:
            return AuditVerdict(False, f"internal bag {z} has no internal vertex")
        left_only = set(P.bags[z - 1]) - set(P.bags[z + 1])
        right_only = set(P.bags[z + 1]) - set(P.bags[z - 1])
        for v in interiors[z]:
            nbrs = set(G.adj[v])
            if nbrs & left_only and nbrs & right_only:
                return AuditVerdict(
                    False,
                    f"internal vertex {v} of bag {z} touches both exclusive sides",
                )
    return AuditVerdict(True)


def make_large_interiors(G: Graph, P: PathDecomposition) -> TransformResult:
    """Triple-merge coarsening of a proper appearance-universal path
    decomposition; the result has large interiors."""
    require_kind(P, PathDecomposition, "make_large_interiors")
    if not P.proper:
        raise AuditError("input decomposition is not proper")
    verdict = audit_appearance_universal(P)
    if not verdict.ok:
        raise AuditError(f"input is not appearance-universal: {verdict.violation}")
    blocks = [(s, min(s + 2, P.order - 1)) for s in range(0, P.order, 3)]
    result = coarsen_by_blocks(P, blocks)
    verify_coarsening(P, result, blocks)
    final = audit_large_interiors(G, result)
    if not final.ok:
        raise AuditError(f"large-interiors audit failed: {final.violation}")
    return TransformResult(result, tuple(blocks))


# ---------------------------------------------------------------------------
# extended bags and the island-or-minor extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtendedBag:
    node: int
    paths: tuple[tuple[int, ...], ...]  # linkage paths, original ids, by index
    left: tuple[int, ...]  # l(1..p) as original ids
    right: tuple[int, ...]  # r(1..p) as original ids


@dataclass(frozen=True)
class ExtendedBagsResult:
    bags: tuple[ExtendedBag, ...]
    global_paths: tuple[tuple[int, ...], ...]  # L_1..L_p stitched across bags


def extended_bags(G: Graph, P: PathDecomposition) -> ExtendedBagsResult:
    """Per-internal-bag linkages stitched into p global disjoint paths.

    Linkedness is audited once, and the stitched linkages are the audit's
    own, each already checked as a certificate: every path runs from its
    bag's left boundary to its right boundary.  Path indices are aligned
    across consecutive bags: the right endpoint of path i in one bag is
    the left endpoint of path i in the next.
    """
    verdict = audit_linked(G, P)
    if not verdict.ok:
        raise AuditError(f"decomposition is not linked: {verdict.violation}")
    if P.order <= 2:
        return ExtendedBagsResult((), ())
    out: list[ExtendedBag] = []
    # boundary vertex -> global path index; the paths are numbered in the
    # order of the first internal bag's sorted left boundary
    first = P.boundary(0, 1)
    index_of = {v: i for i, v in enumerate(first)}
    global_paths = [[v] for v in first]
    for z in range(1, P.order - 1):
        linkage = verdict.linkages[z].paths
        ordered: list[tuple[int, ...] | None] = [None] * len(linkage)
        for path in linkage:
            i = index_of.get(path[0])
            if i is None:
                raise AuditError(
                    f"linkage of bag {z} does not stitch at vertex {path[0]}"
                )
            ordered[i] = path
        oriented = [p for p in ordered if p is not None]
        if len(oriented) != len(ordered):
            raise AuditError(f"linkage of bag {z} does not stitch")
        index_of = {}
        for i, path in enumerate(oriented):
            index_of[path[-1]] = i
            global_paths[i].extend(path[1:])
        out.append(
            ExtendedBag(
                node=z,
                paths=tuple(oriented),
                left=tuple(p[0] for p in oriented),
                right=tuple(p[-1] for p in oriented),
            )
        )
    paths = tuple(tuple(p) for p in global_paths)
    seen: set[int] = set()
    for p in paths:
        if seen & set(p):
            raise AuditError("stitched global paths are not vertex-disjoint")
        seen.update(p)
    return ExtendedBagsResult(tuple(out), paths)


@dataclass(frozen=True)
class BagSignature:
    """(sigma_1..sigma_t, sigma_z): the global path indices (1-based) of
    the chosen non-internal neighbors, and the index of the path through
    the witness vertex (0 = not on any linkage path)."""

    sigma: tuple[int, ...]
    sigma_z: int


@dataclass(frozen=True)
class IslandOrMinorResult:
    kind: str  # "islands" | "minor" | "order_too_small"
    window: tuple[int, ...] = ()  # decomposition nodes of the island window
    certificates: tuple[IslandCertificate, ...] = ()
    minor_of: str | None = None  # "complete_bipartite" | "fan"
    model: MinorModel | None = None
    minor_host: Graph | None = None
    note: str | None = None


def island_or_minor(
    G: Graph, P: PathDecomposition, t: int, m: int, l: int
) -> IslandOrMinorResult:
    """Either l consecutive internal bags whose interiors are t-islands,
    or a verified K_{t,m} / I_{t-1}+P_m minor model, or an honest
    "order too small".

    The minor branch buckets non-island bags by their signature; a bucket
    of size m yields the minor by contracting global linkage paths.
    t, m and l must be at least 1.
    """
    require_kind(P, PathDecomposition, "island_or_minor")
    for name, value in (("t", t), ("m", m), ("l", l)):
        if value < 1:
            raise ValueError(f"island_or_minor needs {name} >= 1, got {name}={value}")
    verdict = validate_decomposition(G, P)
    if not verdict.ok:
        raise AuditError(f"invalid decomposition: {verdict.violation}")
    eb = extended_bags(G, P)  # the one linkedness audit
    iv = audit_large_interiors(G, P)
    if not iv.ok:
        raise AuditError(f"no large interiors: {iv.violation}")
    interiors = internal_vertices(P)
    internal = list(range(1, P.order - 1))
    flags: dict[int, object] = {}
    for z in internal:
        flags[z] = is_island(G, interiors[z], t)
    # island window scan
    run: list[int] = []
    for z in internal:
        if flags[z].ok:
            run.append(z)
            if len(run) >= l:
                certs = tuple(flags[x].certificate for x in run[-l:])
                return IslandOrMinorResult(
                    "islands", window=tuple(run[-l:]), certificates=certs
                )
        else:
            run = []
    bad = [z for z in internal if not flags[z].ok]
    if not bad:
        return IslandOrMinorResult(
            "order_too_small",
            note=f"only {len(internal)} internal bags, all islands, window l={l} not reached",
        )
    path_index = {
        v: i for i, path in enumerate(eb.global_paths) for v in path
    }
    buckets: dict[BagSignature, list[tuple[int, int, tuple[int, ...]]]] = {}
    for bag in eb.bags:
        z = bag.node
        if flags[z].ok:
            continue
        interior = set(interiors[z])
        candidates = [
            v
            for v in sorted(interior)
            if sum(1 for u in G.adj[v] if u not in interior) >= t
        ]
        vz = candidates[0]
        chosen = [u for u in G.adj[vz] if u not in interior][:t]
        sigma = []
        for u in chosen:
            j = path_index.get(u)
            if j is None:
                raise AuditError(
                    f"non-internal neighbor {u} of {vz} is not a linkage endpoint"
                )
            sigma.append(j + 1)
        if len(set(sigma)) != t:
            raise AuditError(
                f"signature of bag {z} not distinct: {sigma}; large interiors violated"
            )
        sigma_z = path_index.get(vz)
        sig = BagSignature(tuple(sigma), 0 if sigma_z is None else sigma_z + 1)
        buckets.setdefault(sig, []).append((z, vz, tuple(chosen)))
    best_sig = None
    for sig in sorted(buckets, key=lambda s: (-len(buckets[s]), s.sigma, s.sigma_z)):
        if len(buckets[sig]) >= m:
            best_sig = sig
            break
    if best_sig is None:
        sizes = {tuple(s.sigma) + (s.sigma_z,): len(v) for s, v in buckets.items()}
        return IslandOrMinorResult(
            "order_too_small",
            note=f"largest signature bucket below m={m}: {sizes}",
        )
    return _build_minor(G, eb, best_sig, buckets[best_sig], t, m)


def _build_minor(
    G: Graph,
    eb: ExtendedBagsResult,
    sig: BagSignature,
    members: list[tuple[int, int, tuple[int, ...]]],
    t: int,
    m: int,
) -> IslandOrMinorResult:
    paths = eb.global_paths
    used = [j - 1 for j in sig.sigma]  # 0-based global path indices
    if sig.sigma_z not in sig.sigma:
        # a in {0, t+1}: contract the t paths, witnesses become singletons
        members = members[:m]
        H = gen_complete_bipartite(t, m)
        branch: dict[int, tuple[int, ...]] = {}
        for i, j in enumerate(used):
            branch[i] = tuple(paths[j])
        for r, (_, vz, _) in enumerate(members):
            branch[t + r] = (vz,)
        model = MinorModel(branch)
        mv = verify_minor_model(G, H, model)
        if not mv.ok:
            raise AuditError(f"K_tm model failed verification: {mv.violation} ({mv.detail})")
        return IslandOrMinorResult(
            "minor", minor_of="complete_bipartite", model=model, minor_host=H
        )
    # a = 1: the witnesses sit on one of the chosen paths; contract its
    # stretches between them into the path of the fan
    spine = paths[sig.sigma_z - 1]
    pos = {v: i for i, v in enumerate(spine)}
    on_spine = sorted(pos[vz] for _, vz, _ in members)[:m]
    H = gen_fan(t - 1, m)
    branch = {}
    prev = 0
    for r, p in enumerate(on_spine):
        branch[r] = tuple(spine[prev : p + 1])
        prev = p + 1
    apexes = [j for j in used if j != sig.sigma_z - 1]
    for i, j in enumerate(apexes):
        branch[m + i] = tuple(paths[j])
    model = MinorModel(branch)
    mv = verify_minor_model(G, H, model)
    if not mv.ok:
        raise AuditError(f"fan model failed verification: {mv.violation} ({mv.detail})")
    return IslandOrMinorResult("minor", minor_of="fan", model=model, minor_host=H)


# ---------------------------------------------------------------------------
# constant schedule and the bounded-treewidth pipeline
# ---------------------------------------------------------------------------

def f_link(p: int, n: int) -> int:
    """Order that must survive the linkedness surgery at adhesion p to
    leave n bags: f(0, n) = n and
    f(p, n) = f(p-1, n) + (f(p-1, n) - 2) * (n - 1) - 1."""
    if p < 0 or n < 1:
        raise ValueError("need p >= 0 and n >= 1")
    value = n
    for _ in range(p):
        value = value + (value - 2) * (n - 1) - 1
    return value


@dataclass(frozen=True)
class ConstantSchedule:
    """The exact cascade of orders the theory demands, computed with big
    integers; the clustering constant C is kept symbolically because it
    cannot be materialized for any nontrivial parameters."""

    k: int
    n4: int
    n3: int
    n2: int
    n1: int
    log10_C: float

    @classmethod
    def from_params(cls, k: int, n4: int) -> "ConstantSchedule":
        if k < 1 or n4 < 1:
            raise ValueError("need k >= 1 and n4 >= 1")
        n3 = 3 * n4
        n2 = n3 ** (k + 2)
        n1 = f_link(k + 1, n2)
        log10_C = math.log10(k + 1) + n1 * math.log10(n1)
        return cls(k=k, n4=n4, n3=n3, n2=n2, n1=n1, log10_C=log10_C)

    def C_exceeds(self, x: int) -> bool:
        """Whether the clustering constant C = (k+1) * n1**n1 exceeds x."""
        if x < 1:
            return True
        return self.log10_C > math.log10(x) + 1e-9 or (
            self.n1 <= 4 and (self.k + 1) * self.n1**self.n1 > x
        )

    def describe(self) -> dict:
        return {
            "k": self.k,
            "n4": self.n4,
            "n3": self.n3,
            "n2": str(self.n2),
            "n1": str(self.n1) if self.n1 < 10**40 else f"~1e{len(str(self.n1)) - 1}",
            "log10_C": self.log10_C,
        }


@dataclass(frozen=True)
class BoundedTwResult:
    kind: str  # "island" | "minor" | "constants_not_met"
    island: IslandCertificate | None = None
    minor_of: str | None = None
    model: MinorModel | None = None
    minor_host: Graph | None = None
    report: dict = field(default_factory=dict)


def bounded_tw_island(
    G: Graph,
    k: int,
    S: Sequence[int],
    t: int,
    m: int,
    l: int | None = None,
    schedule: ConstantSchedule | None = None,
    decomposition: TreeDecomposition | None = None,
    _depth: int = 0,
) -> BoundedTwResult:
    """Full pipeline on a graph of treewidth < k+1: tree decomposition ->
    path -> linked -> appearance-universal -> large interiors ->
    island-or-minor, with a recursion step when every island in the
    window meets the forbidden set S.

    Returns a certified t-island disjoint from S, a verified minor model,
    or an honest constants report stating which stage fell short of the
    schedule's demands.
    """
    S = set(S)
    if l is None:
        l = 4 * k + 6
    if decomposition is None:
        decomposition = treewidth_decomposition(G, k)
    if decomposition.width > k:
        raise AuditError(
            f"decomposition width {decomposition.width} exceeds k={k}"
        )
    report: dict = {"n": G.n, "k": k, "t": t, "m": m, "l": l, "depth": _depth}
    if schedule is not None:
        report["schedule"] = schedule.describe()
    stage = tree_to_path(G, decomposition)
    report["path_order"] = stage.decomposition.order
    linked = make_linked(G, stage.decomposition)
    report["linked_order"] = linked.decomposition.order
    appuniv = make_appearance_universal(linked.decomposition)
    report["appearance_universal_order"] = appuniv.decomposition.order
    interiors = make_large_interiors(G, appuniv.decomposition)
    report["large_interiors_order"] = interiors.decomposition.order
    if schedule is not None:
        report["schedule_met"] = {
            "path_order >= n1": stage.decomposition.order >= schedule.n1,
            "linked_order >= n2": linked.decomposition.order >= schedule.n2,
            "large_interiors_order >= n4": interiors.decomposition.order >= schedule.n4,
        }
    result = island_or_minor(G, interiors.decomposition, t, m, l)
    if result.kind == "minor":
        return BoundedTwResult(
            "minor",
            minor_of=result.minor_of,
            model=result.model,
            minor_host=result.minor_host,
            report=report,
        )
    if result.kind == "islands":
        P = interiors.decomposition
        for cert in result.certificates:
            if not set(cert.members) & S:
                report["window"] = list(result.window)
                return BoundedTwResult("island", island=cert, report=report)
        # every island in the window meets S: cut the first half of the
        # window away and recurse on the remainder against the boundary
        if _depth >= 20:
            report["note"] = "recursion depth exhausted"
            return BoundedTwResult("constants_not_met", report=report)
        half = set(result.window[: max(1, len(result.window) // 2)])
        X: set[int] = set()
        for z in half:
            X.update(P.bags[z])
        Y: set[int] = set()
        for z in range(P.order):
            if z not in half:
                Y.update(P.bags[z])
        removed = X - Y
        if not removed:
            report["note"] = "recursion made no progress"
            return BoundedTwResult("constants_not_met", report=report)
        ys = vset(Y)
        sub, relabel = induced_subgraph(G, ys)
        S_sub = sorted(
            relabel[v] for v in ((S & Y) | (X & Y))
        )
        inner = bounded_tw_island(
            sub, k, S_sub, t, m, l=l, schedule=schedule, _depth=_depth + 1
        )
        report["recursed_on"] = len(Y)
        report["inner_report"] = inner.report
        if inner.kind == "island":
            members = vset(ys[v] for v in inner.island.members)
            check = is_island(G, members, t)
            if not check.ok:
                raise AuditError("recursed island failed re-certification in the host")
            if set(members) & S:
                raise AuditError("recursed island meets the forbidden set")
            return BoundedTwResult("island", island=check.certificate, report=report)
        if inner.kind == "minor":
            model = MinorModel(
                {
                    h: vset(ys[v] for v in bs)
                    for h, bs in inner.model.branch_sets.items()
                }
            )
            mv = verify_minor_model(G, inner.minor_host, model)
            if not mv.ok:
                raise AuditError(f"lifted minor model failed: {mv.violation}")
            return BoundedTwResult(
                "minor",
                minor_of=inner.minor_of,
                model=model,
                minor_host=inner.minor_host,
                report=report,
            )
        return BoundedTwResult("constants_not_met", report=report)
    report["note"] = result.note
    return BoundedTwResult("constants_not_met", report=report)
