"""make_linked, extended_bags and island_or_minor against reference copies
of the code that found every bag's linkage two or three times, and each
surgery stage's output against its own audit.  Results must be identical;
the only difference allowed is the number of max-flow calls."""

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from islandkit import surgery
from islandkit.decomposition import (
    Linkage,
    PathDecomposition,
    restore_properness,
    treewidth_decomposition,
    validate_decomposition,
)
from islandkit.graphs import (
    Graph,
    MinorModel,
    Separation,
    gen_complete_bipartite,
    gen_fan,
    gen_path,
    verify_minor_model,
    vset,
)
from islandkit.islands import is_island
from islandkit.surgery import (
    AuditError,
    BagSignature,
    IslandOrMinorResult,
    _bag_linkage,
    audit_appearance_universal,
    audit_large_interiors,
    audit_linked,
    coarsen_by_blocks,
    extended_bags,
    island_or_minor,
    make_appearance_universal,
    make_large_interiors,
    make_linked,
    tree_to_path,
    verify_coarsening,
)

from conftest import graphs, linkage_keys, random_bounded_degree_graph


# ---------------------------------------------------------------------------
# reference copies: linkedness re-derived by a fresh max-flow at every use
# ---------------------------------------------------------------------------

# the records reference_extended_bags returns; extended_bags itself returns
# only the global paths, which are compared with its .global_paths
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


def reference_broken_bags(G, P):
    out = {}
    for z in range(1, P.order - 1):
        res = _bag_linkage(G, P, z)
        if isinstance(res, Separation):
            out[z] = res
    return out


def reference_audit_linked(G, P):
    for z in range(1, P.order - 1):
        left = P.boundary(z - 1, z)
        right = P.boundary(z, z + 1)
        if len(left) != len(right):
            return False
        if isinstance(_bag_linkage(G, P, z), Separation):
            return False
    return True


def reference_split_at_broken(P, broken):
    zs = sorted(broken)
    bags = []
    start = 0
    for z in zs:
        sep = broken[z]
        current = set()
        for i in range(start, z):
            current.update(P.bags[i])
        current.update(sep.left)
        bags.append(current)
        current = set(sep.right)
        start = z + 1
        bags.append(current)
    tail = bags.pop()
    for i in range(start, P.order):
        tail.update(P.bags[i])
    bags.append(tail)
    return PathDecomposition(tuple(vset(b) for b in bags))


def reference_make_linked(G, P):
    assert validate_decomposition(G, P).ok
    P = restore_properness(P)
    result = reference_make_linked_rec(G, P)
    assert reference_audit_linked(G, result)
    return result


def reference_make_linked_rec(G, P):
    p = P.adhesion
    if p == 0 or P.order <= 2:
        return P
    options = []
    low = [
        i
        for i in range(P.order - 1)
        if len(set(P.bags[i]) & set(P.bags[i + 1])) < p
    ]
    if low:
        blocks = []
        start = 0
        for i in low:
            blocks.append((start, i))
            start = i + 1
        blocks.append((start, P.order - 1))
        A = coarsen_by_blocks(P, blocks)
        A = restore_properness(A)
        options.append(reference_make_linked_rec(G, A))
        blocks = []
        start = 0
        for i in range(P.order - 1):
            if i not in set(low):
                blocks.append((start, i))
                start = i + 1
        blocks.append((start, P.order - 1))
        B = coarsen_by_blocks(P, blocks)
        B = restore_properness(B)
    else:
        B = P
    if B.order <= 2 or B.adhesion == 0:
        options.append(B)
    else:
        broken = reference_broken_bags(G, B)
        if not broken:
            options.append(B)
        else:
            split = reference_split_at_broken(B, broken)
            split = restore_properness(split)
            options.append(reference_make_linked_rec(G, split))
            internal = list(range(1, B.order - 1))
            best_run = None
            run_start = None
            for z in internal + [None]:
                if z is not None and z not in broken:
                    if run_start is None:
                        run_start = z
                else:
                    if run_start is not None:
                        end = (z - 1) if z is not None else internal[-1]
                        if best_run is None or end - run_start > best_run[1] - best_run[0]:
                            best_run = (run_start, end)
                        run_start = None
            if best_run is not None:
                a, b = best_run
                blocks = []
                if a > 1:
                    blocks.append((0, a - 1))
                    blocks.extend((i, i) for i in range(a, b + 1))
                else:
                    blocks.extend((i, i) for i in range(0, b + 1))
                if b < B.order - 2:
                    blocks.append((b + 1, B.order - 1))
                else:
                    blocks.extend((i, i) for i in range(b + 1, B.order))
                W = coarsen_by_blocks(B, blocks)
                W = restore_properness(W)
                if reference_audit_linked(G, W):
                    options.append(W)
    return max(options, key=lambda opt: opt.order)


def reference_extended_bags(G, P):
    if not reference_audit_linked(G, P):
        raise AuditError("not linked")
    internal = list(range(1, P.order - 1))
    if not internal:
        return ExtendedBagsResult((), ())
    out = []
    index_of = {}
    global_paths = []
    for z in internal:
        res = _bag_linkage(G, P, z)
        assert isinstance(res, Linkage)
        left_boundary = set(P.boundary(z - 1, z))
        oriented = []
        for path in res.paths:
            if path[0] in left_boundary:
                oriented.append(path)
            else:
                oriented.append(tuple(reversed(path)))
        if z == internal[0]:
            oriented.sort(key=lambda p: p[0])
            for i, path in enumerate(oriented):
                index_of[path[-1]] = i
                global_paths.append(list(path))
        else:
            ordered = [None] * len(oriented)
            for path in oriented:
                i = index_of.get(path[0])
                if i is None:
                    raise AuditError("does not stitch")
                ordered[i] = path
            oriented = [p for p in ordered if p is not None]
            if len(oriented) != len(ordered):
                raise AuditError("does not stitch")
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
    seen = set()
    for p in paths:
        if seen & set(p):
            raise AuditError("not vertex-disjoint")
        seen.update(p)
    return ExtendedBagsResult(tuple(out), paths)


def reference_island_or_minor(G, P, t, m, l):
    if not validate_decomposition(G, P).ok:
        raise AuditError("invalid decomposition")
    if not reference_audit_linked(G, P):
        raise AuditError("not linked")
    if not audit_large_interiors(G, P).ok:
        raise AuditError("no large interiors")
    interiors = P.interiors
    internal = list(range(1, P.order - 1))
    flags = {z: is_island(G, interiors[z], t) for z in internal}
    run = []
    for z in internal:
        if flags[z].ok:
            run.append(z)
            if len(run) >= l:
                certs = tuple(flags[x].certificate for x in run[-l:])
                return IslandOrMinorResult("islands", window=tuple(run[-l:]), certificates=certs)
        else:
            run = []
    bad = [z for z in internal if not flags[z].ok]
    if not bad:
        return IslandOrMinorResult(
            "order_too_small",
            note=f"only {len(internal)} internal bags, all islands, window l={l} not reached",
        )
    eb = reference_extended_bags(G, P)
    path_index = {v: i for i, path in enumerate(eb.global_paths) for v in path}
    buckets = {}
    for bag in eb.bags:
        z = bag.node
        if flags[z].ok:
            continue
        interior = set(interiors[z])
        candidates = [
            v for v in sorted(interior) if sum(1 for u in G.adj[v] if u not in interior) >= t
        ]
        vz = candidates[0]
        chosen = [u for u in G.adj[vz] if u not in interior][:t]
        sigma = []
        for u in chosen:
            j = path_index.get(u)
            if j is None:
                raise AuditError("not a linkage endpoint")
            sigma.append(j + 1)
        if len(set(sigma)) != t:
            raise AuditError("signature not distinct")
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
            "order_too_small", note=f"largest signature bucket below m={m}: {sizes}"
        )
    members = buckets[best_sig][:m] if best_sig.sigma_z not in best_sig.sigma else buckets[best_sig]
    return reference_build_minor(G, eb, best_sig, members, t, m)


def reference_build_minor(G, eb, sig, members, t, m):
    paths = eb.global_paths
    used = [j - 1 for j in sig.sigma]
    if sig.sigma_z not in sig.sigma:
        members = members[:m]
        H = gen_complete_bipartite(t, m)
        branch = {i: tuple(paths[j]) for i, j in enumerate(used)}
        for r, (_, vz, _) in enumerate(members):
            branch[t + r] = (vz,)
        model = MinorModel(branch)
        if not verify_minor_model(G, H, model).ok:
            raise AuditError("K_tm model failed verification")
        return IslandOrMinorResult(
            "minor", minor_of="complete_bipartite", model=model, minor_host=H
        )
    spine = paths[sig.sigma_z - 1]
    pos = {v: i for i, v in enumerate(spine)}
    on_spine = sorted(
        ((pos[vz], z, vz, chosen) for (z, vz, chosen) in members), key=lambda x: x[0]
    )[:m]
    if len(on_spine) < m:
        return IslandOrMinorResult(
            "order_too_small", note=f"only {len(on_spine)} witnesses on the spine path"
        )
    H = gen_fan(t - 1, m)
    branch = {}
    prev = 0
    for r, (p, z, vz, chosen) in enumerate(on_spine):
        branch[r] = tuple(spine[prev : p + 1])
        prev = p + 1
    apexes = [j for j in used if j != sig.sigma_z - 1]
    for i, j in enumerate(apexes):
        branch[m + i] = tuple(paths[j])
    model = MinorModel(branch)
    if not verify_minor_model(G, H, model).ok:
        raise AuditError("fan model failed verification")
    return IslandOrMinorResult("minor", minor_of="fan", model=model, minor_host=H)


# ---------------------------------------------------------------------------
# inputs: graphs with their natural path decompositions, and min-fill trees
# ---------------------------------------------------------------------------

def ladder(k):
    edges = [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
    return Graph(2 * k, edges + [(i, k + i) for i in range(k)])


@st.composite
def natural_inputs(draw):
    """A path, ladder, fan or K_{t,r} with its natural path decomposition;
    optionally some vertices' runs are widened (still a decomposition, but
    bags may break) and the bags merged into random consecutive blocks."""
    kind = draw(st.sampled_from(["path", "ladder", "fan", "bipartite"]))
    if kind == "path":
        n = draw(st.integers(3, 40))
        G = gen_path(n)
        bags = [[i, i + 1] for i in range(n - 1)]
    elif kind == "ladder":
        k = draw(st.integers(3, 20))
        G = ladder(k)
        bags = [[i, k + i, i + 1, k + i + 1] for i in range(k - 1)]
    elif kind == "fan":
        apexes = draw(st.integers(1, 3))
        m = draw(st.integers(3, 30))
        G = gen_fan(apexes, m)
        bags = [[i, i + 1] + list(range(m, m + apexes)) for i in range(m - 1)]
    else:
        t = draw(st.integers(1, 3))
        r = draw(st.integers(3, 25))
        G = gen_complete_bipartite(t, r)
        bags = [list(range(t)) + [t + i] for i in range(r)]
    widen = st.tuples(st.integers(0, G.n - 1), st.integers(0, 40), st.integers(0, 40))
    for v, a, b in draw(st.lists(widen, max_size=3)):
        hits = [i for i, bag in enumerate(bags) if v in bag]
        lo, hi = min(hits[0], a % len(bags)), max(hits[-1], b % len(bags))
        for i in range(lo, hi + 1):
            if v not in bags[i]:
                bags[i].append(v)
    P = PathDecomposition(tuple(vset(bag) for bag in bags))
    if draw(st.booleans()):
        cuts = sorted(draw(st.sets(st.integers(0, P.order - 2))))
        starts = [0] + [c + 1 for c in cuts]
        P = coarsen_by_blocks(P, list(zip(starts, cuts + [P.order - 1])))
    return G, P


@st.composite
def min_fill_inputs(draw):
    """A bounded-degree or small dense graph through min-fill and then
    tree_to_path."""
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        G = random_bounded_degree_graph(rng, draw(st.integers(2, 40)), draw(st.integers(2, 4)))
    else:
        G = draw(graphs(max_n=9, min_n=2))
    P = tree_to_path(G, treewidth_decomposition(G))
    assert validate_decomposition(G, P).ok
    assert P.proper
    return G, P


@st.composite
def layout_inputs(draw):
    """The path decomposition of a random vertex order of a random graph:
    bag i holds the i-th vertex and every earlier vertex with a neighbour
    at position i or later.  Such bags are often broken."""
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        G = random_bounded_degree_graph(rng, draw(st.integers(3, 25)), draw(st.integers(3, 5)))
    else:
        G = draw(graphs(max_n=10, min_n=3))
    order = draw(st.permutations(range(G.n)))
    pos = {v: i for i, v in enumerate(order)}
    last = {v: max([pos[u] for u in G.adj[v]] + [pos[v]]) for v in range(G.n)}
    bags = [vset(u for u in order[: i + 1] if last[u] >= i) for i in range(G.n)]
    return G, PathDecomposition(tuple(bags))


def same_result(a, b):
    """IslandOrMinorResult equality; Graph has no value equality, so the
    minor host is compared by its adjacency."""
    def key(r):
        host = None if r.minor_host is None else (r.minor_host.n, r.minor_host.adj)
        return (r.kind, r.window, r.certificates, r.minor_of, r.model, r.note, host)

    return key(a) == key(b)


def outcome(f, *args):
    try:
        return f(*args)
    except AuditError:
        return AuditError


def check_chain(G, P, t, m, l):
    linked = make_linked(G, P)
    assert linked == reference_make_linked(G, P)
    assert validate_decomposition(G, linked).ok
    verdict = audit_linked(G, linked)
    assert verdict.ok and reference_audit_linked(G, linked)

    appuniv = make_appearance_universal(G, linked)
    witness, intervals = surgery._appuniv_rec(linked)
    assert witness == appuniv
    verify_coarsening(linked, appuniv, intervals)
    assert audit_appearance_universal(appuniv).ok

    Q = outcome(make_large_interiors, G, appuniv)
    if Q is AuditError:  # the input to this stage was not proper
        assert not appuniv.proper
        return
    triples = [(s, min(s + 2, appuniv.order - 1)) for s in range(0, appuniv.order, 3)]
    verify_coarsening(appuniv, Q, triples)
    assert audit_large_interiors(G, Q).ok

    paths = outcome(extended_bags, G, Q)
    eb = outcome(reference_extended_bags, G, Q)
    assert paths == (eb if eb is AuditError else eb.global_paths)

    new = outcome(island_or_minor, G, Q, t, m, l)
    old = outcome(reference_island_or_minor, G, Q, t, m, l)
    assert (new is AuditError) == (old is AuditError)
    if new is AuditError:
        return
    assert same_result(new, old)
    if new.kind == "minor":
        assert verify_minor_model(G, new.minor_host, new.model).ok
    for cert in new.certificates:
        assert is_island(G, cert.members, t).ok


params = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))


class TestSurgeryEquivalence:
    @given(natural_inputs(), params)
    @settings(max_examples=150, deadline=None)
    def test_natural_decompositions(self, inp, tml):
        check_chain(*inp, *tml)

    @given(min_fill_inputs(), params)
    @settings(max_examples=80, deadline=None)
    def test_min_fill_decompositions(self, inp, tml):
        check_chain(*inp, *tml)

    @given(layout_inputs(), params)
    @settings(max_examples=150, deadline=None)
    def test_vertex_order_decompositions(self, inp, tml):
        check_chain(*inp, *tml)

    @pytest.mark.parametrize(
        "G,P",
        [
            # a bag whose two boundary pairs meet only in vertex 2
            (
                Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (2, 4)]),
                PathDecomposition(((0, 1, 2), (0, 2, 3, 4), (3, 4))),
            ),
            # two equally long unbroken runs, and the window of the first
            # one beats the split: the tie-break decides the result
            (
                Graph(11, [(0, 1), (0, 6), (1, 2), (2, 3), (2, 7), (3, 4), (3, 9), (4, 5),
                           (5, 6), (5, 10), (6, 7), (7, 8), (8, 9), (9, 10)]),
                PathDecomposition(((5,), (5, 7), (5, 7, 9), (3, 5, 7, 9), (3, 4, 5, 7, 9),
                                   (3, 5, 7, 9, 10), (1, 3, 5, 7, 9), (1, 3, 5, 7, 8, 9),
                                   (1, 3, 5, 6, 7), (0, 1, 3, 6, 7), (1, 2, 3, 7))),
            ),
            (gen_fan(1, 40), PathDecomposition(tuple(vset([i, i + 1, 40]) for i in range(39)))),
            (
                gen_complete_bipartite(2, 30),
                PathDecomposition(tuple(vset([0, 1, r]) for r in range(2, 32))),
            ),
        ],
    )
    def test_fixed_inputs(self, G, P):
        for t, m, l in [(2, 3, 1), (2, 3, 3), (1, 2, 2)]:
            check_chain(G, P, t, m, l)


def test_window_reuses_the_run_linkages(monkeypatch):
    """The second fixed input above: its uniform-adhesion coarsening has
    five bags, of which internal bag 2 is broken, and make_linked keeps the
    window around bag 1, the first of the two unbroken runs.  The window's
    internal bag keeps the linkage found when bag 1 was checked, so no bag
    is looked up twice, and each bag_linkages call runs one max-flow per
    distinct relabelled bag."""
    G = Graph(11, [(0, 1), (0, 6), (1, 2), (2, 3), (2, 7), (3, 4), (3, 9), (4, 5),
                   (5, 6), (5, 10), (6, 7), (7, 8), (8, 9), (9, 10)])
    P = PathDecomposition(((5,), (5, 7), (5, 7, 9), (3, 5, 7, 9), (3, 4, 5, 7, 9),
                           (3, 5, 7, 9, 10), (1, 3, 5, 7, 9), (1, 3, 5, 7, 8, 9),
                           (1, 3, 5, 6, 7), (0, 1, 3, 6, 7), (1, 2, 3, 7)))
    flows = []  # (bag, left boundary, right boundary) of each bag looked up
    searched = []  # the decomposition of each bag_linkages call
    real_bag_linkage, real_find_linkage = surgery._bag_linkage, surgery.find_linkage
    real_bag_linkages = surgery.bag_linkages

    def bag_linkage(G, P, z, memo):
        flows.append((P.bags[z], P.boundary(z - 1, z), P.boundary(z, z + 1)))
        return real_bag_linkage(G, P, z, memo)

    def bag_linkages(G, P):
        searched.append(P)
        return real_bag_linkages(G, P)

    def find_linkage(*args):
        calls.append(1)
        return real_find_linkage(*args)

    calls = []
    monkeypatch.setattr(surgery, "_bag_linkage", bag_linkage)
    monkeypatch.setattr(surgery, "bag_linkages", bag_linkages)
    monkeypatch.setattr(surgery, "find_linkage", find_linkage)
    result = make_linked(G, P)
    monkeypatch.undo()
    assert result == reference_make_linked(G, P)
    assert result.bags[1] == (3, 5, 7, 9, 10)  # the window, not the split
    assert len(flows) == len(set(flows))
    assert len(calls) == sum(len(linkage_keys(G, B)) for B in searched)
