import itertools
import random
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from islandkit import decomposition
from islandkit.decomposition import (
    DecompositionParseError,
    DecompositionVerdict,
    Linkage,
    PathDecomposition,
    TreeDecomposition,
    _decomposition_from_order,
    _tree_violation,
    find_linkage,
    parse_decomposition,
    restore_properness,
    treewidth_decomposition,
    validate_decomposition,
    write_decomposition,
)
from islandkit.graphs import (
    Graph,
    GraphValidityError,
    Separation,
    checked_vset,
    gen_complete_bipartite,
    gen_cycle,
    gen_fan,
    gen_path,
    gen_triangulated_grid,
    induced_subgraph,
    vset,
)

from conftest import graphs, line_events, random_bounded_degree_graph, random_graph


def menger_bruteforce(G: Graph, A, B) -> int:
    """Minimum size of a vertex set whose removal disconnects A from B
    (vertices of A/B removable too); equals the max number of disjoint
    A-B paths."""
    A, B = set(A), set(B)

    def connected_after(removed: set) -> bool:
        live_A = A - removed
        live_B = B - removed
        if live_A & live_B:
            return True
        seen = set(live_A)
        stack = list(live_A)
        while stack:
            v = stack.pop()
            if v in live_B:
                return True
            for u in G.adj[v]:
                if u not in removed and u not in seen:
                    seen.add(u)
                    stack.append(u)
        return False

    for k in range(G.n + 1):
        for S in itertools.combinations(range(G.n), k):
            if not connected_after(set(S)):
                return k
    return G.n


class TestPathDecomposition:
    def test_properties(self):
        P = PathDecomposition(((0, 1), (1, 2), (2, 3)))
        assert P.order == 3
        assert P.width == 1
        assert P.adhesion == 1
        assert P.proper

    def test_validate_path_graph(self):
        G = gen_path(4)
        P = PathDecomposition(((0, 1), (1, 2), (2, 3)))
        assert validate_decomposition(G, P).ok

    def test_uncovered_edge_rejected(self):
        G = gen_cycle(4)
        P = PathDecomposition(((0, 1), (1, 2), (2, 3)))
        verdict = validate_decomposition(G, P)
        assert not verdict.ok

    def test_broken_trace_rejected(self):
        G = gen_path(4)
        P = PathDecomposition(((0, 1), (1, 2), (0, 2, 3)))
        assert not validate_decomposition(G, P).ok

    def test_roundtrip(self):
        P = PathDecomposition(((0, 1), (1, 2)))
        Q = parse_decomposition(write_decomposition(P))
        assert isinstance(Q, PathDecomposition)
        assert Q.bags == P.bags

    def test_tree_roundtrip(self):
        T = TreeDecomposition(((0, 1), (1, 2), (1, 3)), ((0, 1), (1, 2)))
        U = parse_decomposition(write_decomposition(T))
        assert isinstance(U, TreeDecomposition)
        assert U.bags == T.bags and U.edges == T.edges

    def test_restore_properness(self):
        P = PathDecomposition(((0, 1), (0, 1, 2), (2, 3)))
        Q, witness = restore_properness(P)
        assert Q.proper
        assert validate_decomposition(gen_path(4), Q).ok


def reference_restore_properness(P: PathDecomposition):
    """restore_properness as a restart loop: merge the leftmost pair of
    neighbour bags where either contains the other, then rescan from bag 0."""
    bags = [set(b) for b in P.bags]
    intervals = [[i, i] for i in range(len(bags))]
    changed = True
    while changed:
        changed = False
        for i in range(len(bags) - 1):
            a, b = bags[i], bags[i + 1]
            if a <= b or b <= a:
                bags[i] = a | b
                intervals[i] = [intervals[i][0], intervals[i + 1][1]]
                del bags[i + 1]
                del intervals[i + 1]
                changed = True
                break
    return (
        PathDecomposition(tuple(vset(b) for b in bags)),
        [tuple(iv) for iv in intervals],
    )


class TestRestoreProperness:
    # bags over four vertices: empty bags, equal neighbours and nested runs are common
    @example(PathDecomposition(()))
    @example(PathDecomposition(((0, 1),)))
    @example(PathDecomposition(((), (), ())))
    @example(PathDecomposition(((0, 1), (0, 1), (1, 2), (1, 2))))
    @example(PathDecomposition(((1,), (0, 1, 2), (1,), (2, 3), (0, 1, 2, 3))))
    @given(st.lists(st.frozensets(st.integers(0, 3)), max_size=12).map(
        lambda bags: PathDecomposition(tuple(vset(b) for b in bags))))
    @settings(max_examples=400, deadline=None)
    def test_matches_restart_loop(self, P):
        Q, intervals = restore_properness(P)
        assert (Q, intervals) == reference_restore_properness(P)
        assert Q.proper

    def test_long_chain_is_one_pass(self):
        # every bag contains the one before it: the restart loop rescans
        # from bag 0 after each of the n - 1 merges
        P = PathDecomposition(tuple(tuple(range(i + 1)) for i in range(3001)))
        events = line_events((decomposition,), restore_properness, P)
        assert restore_properness(P) == (PathDecomposition((tuple(range(3001)),)), [(0, 3000)])
        assert 0 < events <= 20 * P.order


def reference_validate(G: Graph, D) -> DecompositionVerdict:
    """validate_decomposition as it was before the vertex-to-bags index:
    every edge and every vertex tested against every bag."""
    bags = D.bags
    if not bags:
        return DecompositionVerdict(G.n == 0, None if G.n == 0 else "no bags")
    for i, bag in enumerate(bags):
        outside = [v for v in bag if not 0 <= v < G.n]
        if outside:
            return DecompositionVerdict(False, f"bag {i} names vertex {outside[0]} outside the graph")
    if isinstance(D, TreeDecomposition):
        violation = _tree_violation(len(bags), D.edges)
        if violation is not None:
            return DecompositionVerdict(False, violation)
    bag_sets = [set(b) for b in bags]
    for u, v in G.edges():
        if not any(u in b and v in b for b in bag_sets):
            return DecompositionVerdict(False, f"edge ({u},{v}) uncovered")
    if isinstance(D, PathDecomposition):
        for v in range(G.n):
            hits = [i for i, b in enumerate(bag_sets) if v in b]
            if not hits:
                return DecompositionVerdict(False, f"vertex {v} in no bag")
            if hits != list(range(hits[0], hits[-1] + 1)):
                return DecompositionVerdict(False, f"vertex {v} trace not consecutive")
        return DecompositionVerdict(True)
    adj = D.adjacency()
    for v in range(G.n):
        hits = {i for i, b in enumerate(bag_sets) if v in b}
        if not hits:
            return DecompositionVerdict(False, f"vertex {v} in no bag")
        seen = {min(hits)}
        queue = deque(seen)
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y in hits and y not in seen:
                    seen.add(y)
                    queue.append(y)
        if seen != hits:
            return DecompositionVerdict(False, f"vertex {v} trace not connected")
    return DecompositionVerdict(True)


@st.composite
def decompositions(draw, n: int):
    """Hand-built bags (unsorted, with repeats and stray ids) as a path or
    as a tree whose edges are usually, not always, a spanning tree."""
    k = draw(st.integers(min_value=0, max_value=6))
    ids = st.integers(min_value=0, max_value=n - 1) if draw(st.booleans()) else st.integers(-1, n)
    bags = tuple(tuple(draw(st.lists(ids, max_size=n + 2))) for _ in range(k))
    if draw(st.booleans()):
        return PathDecomposition(bags)
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, k)]
    if draw(st.integers(0, 3)) == 0:
        edges.append((draw(st.integers(-1, k)), draw(st.integers(-1, k))))
    return TreeDecomposition(bags, tuple(edges))


class TestValidateIndex:
    @given(graphs(max_n=6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_bag_scan(self, G, data):
        D = data.draw(decompositions(G.n))
        assert validate_decomposition(G, D) == reference_validate(G, D)

    def test_repeated_ids_in_a_bag_are_harmless(self):
        P = PathDecomposition(((1, 0, 1), (2, 1, 2, 2), (3, 2)))
        verdict = validate_decomposition(gen_path(4), P)
        assert verdict.ok and P.adhesion == 1


class TestFullDefinition:
    def test_cycle_of_tree_edges_rejected(self):
        T = parse_decomposition("tree 3\nedge 0 1\nedge 1 2\nedge 2 0\nbag 0 1\nbag 1 2\nbag 2\n")
        verdict = validate_decomposition(gen_path(3), T)
        assert not verdict.ok and "edges on 3 nodes" in verdict.violation

    def test_closed_cycle_with_right_count_rejected(self):
        T = TreeDecomposition(((0, 1), (1, 2), (2,), (2,)), ((0, 1), (1, 2), (2, 1)))
        verdict = validate_decomposition(gen_path(3), T)
        assert not verdict.ok and "cycle" in verdict.violation

    def test_forest_rejected(self):
        T = TreeDecomposition(((0, 1), (1, 2), (2,)), ((0, 1),))
        assert not validate_decomposition(gen_path(3), T).ok

    def test_tree_edge_out_of_range_rejected(self):
        T = TreeDecomposition(((0, 1), (1, 2)), ((0, -1),))
        verdict = validate_decomposition(gen_path(3), T)
        assert not verdict.ok and "out of range" in verdict.violation

    def test_bag_naming_missing_vertex_rejected(self):
        P = parse_decomposition("path 2\nbag 0 1\nbag 1 2 7\n")
        verdict = validate_decomposition(gen_path(3), P)
        assert not verdict.ok and "vertex 7" in verdict.violation

    def test_negative_bag_vertex_rejected(self):
        P = PathDecomposition(((-1, 0, 1), (1, 2)))
        assert not validate_decomposition(gen_path(3), P).ok

    @pytest.mark.parametrize(
        "text, line",
        [
            ("path\n", 1),
            ("path 1\nbag 0 x\n", 2),
            ("# header\ntree 2\nbag 0\nbag 1\nedge 0\n", 5),
            ("path 1\nblob 3\n", 2),
            ("tree 2\nbag 0\npath 1\nbag 1\n", 3),
            ("path 2\nbag 0\nedge 0 1\nbag 1\n", 3),
            ("edge 0 1\npath 2\nbag 0\nbag 1\n", 1),
            ("# header\npath -1\n", 2),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, line):
        with pytest.raises(DecompositionParseError, match=f"^line {line}: "):
            parse_decomposition(text)

    def test_min_fill_on_disconnected_graph_is_one_tree(self):
        G = Graph(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
        T = treewidth_decomposition(G)
        assert len(T.edges) == T.order - 1
        assert validate_decomposition(G, T).ok


class TestTreewidth:
    def test_path_width_one(self):
        T = treewidth_decomposition(gen_path(8))
        assert validate_decomposition(gen_path(8), T).ok
        assert T.width == 1

    def test_cycle_width_two(self):
        T = treewidth_decomposition(gen_cycle(7))
        assert validate_decomposition(gen_cycle(7), T).ok
        assert T.width == 2

    def test_fan_width_two(self):
        G = gen_fan(1, 10)
        T = treewidth_decomposition(G)
        assert validate_decomposition(G, T).ok
        assert T.width == 2

    @given(graphs(max_n=8, min_n=1))
    @settings(max_examples=40, deadline=None)
    def test_always_valid(self, G):
        T = treewidth_decomposition(G)
        assert validate_decomposition(G, T).ok


def reference_min_fill(G: Graph) -> TreeDecomposition:
    """The min-fill loop that rescored every alive vertex at every step."""
    if G.n == 0:
        return TreeDecomposition(((),), ())
    nbrs = [set(G.adj[v]) for v in range(G.n)]
    alive = set(range(G.n))
    order = []
    while alive:
        def fill(v):
            around = [u for u in nbrs[v] if u in alive]
            return (sum(1 for a, b in itertools.combinations(around, 2) if b not in nbrs[a]), v)

        v = min(alive, key=fill)
        around = [u for u in nbrs[v] if u in alive]
        for a, b in itertools.combinations(around, 2):
            nbrs[a].add(b)
            nbrs[b].add(a)
        alive.remove(v)
        order.append(v)
    return _decomposition_from_order(G, order)


def reference_treewidth(G: Graph, k) -> TreeDecomposition:
    """Min-fill, then the full scan of every ordering with no lower bound."""
    td = reference_min_fill(G)
    if k is None or td.width <= k or G.n > 11:
        return td
    best = td
    for perm in itertools.permutations(range(G.n)):
        cand = _decomposition_from_order(G, perm)
        if cand.width < best.width:
            best = cand
            if best.width <= k:
                return best
    return best


MIN_FILL_INPUTS = st.one_of(
    graphs(max_n=12, min_n=0),
    st.integers(1, 60).map(gen_path),
    st.integers(3, 60).map(gen_cycle),
    st.integers(1, 40).map(lambda m: gen_complete_bipartite(1, m)),
    st.builds(gen_triangulated_grid, st.integers(2, 6), st.integers(2, 20)),
    st.builds(
        lambda seed, n, d: random_bounded_degree_graph(random.Random(seed), n, d),
        st.integers(0, 2**16), st.integers(2, 120), st.integers(3, 6),
    ),
)


@pytest.fixture
def orderings(monkeypatch):
    """Every ordering treewidth_decomposition hands to _decomposition_from_order."""
    calls = []
    real = decomposition._decomposition_from_order

    def counted(G, order):
        calls.append(order)
        return real(G, order)

    monkeypatch.setattr(decomposition, "_decomposition_from_order", counted)
    return calls


class TestMinFillHeap:
    @given(MIN_FILL_INPUTS)
    @settings(max_examples=150, deadline=None)
    def test_matches_full_rescan(self, G):
        assert treewidth_decomposition(G) == reference_min_fill(G)

    # min-fill gives width 5 on this 3-degenerate graph of treewidth 4
    @example(Graph(7, [(0, 1), (0, 3), (0, 6), (1, 2), (1, 4), (1, 5), (2, 3), (2, 4),
                       (2, 5), (2, 6), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)]))
    @given(graphs(max_n=6, min_n=0))
    @settings(max_examples=40, deadline=None)
    def test_fallback_matches_full_scan(self, G):
        for k in range(G.n + 1):
            assert treewidth_decomposition(G, k) == reference_treewidth(G, k)

    def test_fallback_stops_at_the_degeneracy(self, orderings):
        # C11 is 2-degenerate and min-fill gives width 2: no ordering is
        # narrower, so the 11! scan for k=1 never starts
        G = gen_cycle(11)
        expected = treewidth_decomposition(G)
        orderings.clear()
        assert treewidth_decomposition(G, 1) == expected
        assert len(orderings) <= 1

    def test_fallback_scan_stops_when_it_reaches_the_degeneracy(self, orderings):
        # 2-degenerate, treewidth 2, min-fill width 3: for k=1 the full scan
        # would keep its first width-2 tree, which the k=2 scan returns
        G = Graph(8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (1, 6), (1, 7), (2, 7),
                      (3, 6), (4, 5), (5, 7)])
        assert treewidth_decomposition(G).width == 3
        orderings.clear()
        T = treewidth_decomposition(G, 1)
        assert T == reference_treewidth(G, 2) and T.width == 2
        assert len(orderings) < 40320

    def test_exact_fallback_on_eleven_vertices(self, orderings):
        # 3-degenerate, treewidth 4, min-fill width 5, vertex 1 isolated; the
        # lexicographically first width-4 order is about 4 million orders
        # into the 11! permutations
        G = Graph(11, [(0, 4), (0, 6), (0, 10), (2, 6), (2, 7), (2, 9), (3, 4), (3, 6),
                       (3, 7), (3, 8), (3, 9), (4, 7), (4, 9), (5, 8), (5, 9), (5, 10),
                       (6, 7), (6, 9), (7, 10)])
        assert treewidth_decomposition(G).width == 5
        expected = _decomposition_from_order(G, (1, 2, 4, 5, 6, 0, 3, 7, 8, 9, 10))
        for k in range(5):
            orderings.clear()
            T = treewidth_decomposition(G, k)
            assert T == expected and T.width == 4
            assert validate_decomposition(G, T).ok
            assert len(orderings) <= 2

    def test_is_linear_on_a_long_path(self):
        # rescoring every alive vertex at every step runs ~n^2 lines
        G = gen_path(400)
        events = line_events((decomposition,), treewidth_decomposition, G)
        assert 0 < events <= 40 * (G.n + G.m)


def reference_find_linkage(G: Graph, A, B) -> Linkage | Separation:
    """The dict-keyed augmenting-path kernel, kept as the reference.

    Either |A| vertex-disjoint A-B paths or a separation of order < |A|
    with A on one side and B on the other (Menger's dichotomy).

    A and B may intersect; shared vertices yield zero-length paths.
    """
    A, B = checked_vset(G, A), checked_vset(G, B)
    if len(A) != len(B):
        raise ValueError(f"|A|={len(A)} != |B|={len(B)}")
    n = G.n
    # node 2v = v_in, 2v+1 = v_out, source = 2n, sink = 2n+1;
    # only the in->out arcs have capacity 1, so the min cut is a vertex cut
    source, sink = 2 * n, 2 * n + 1
    big = n + 1
    cap: dict[tuple[int, int], int] = {}
    orig: dict[tuple[int, int], int] = {}
    succ: dict[int, list[int]] = {}

    def link(u: int, w: int, c: int) -> None:
        cap[(u, w)] = cap.get((u, w), 0) + c
        cap.setdefault((w, u), 0)
        orig[(u, w)] = orig.get((u, w), 0) + c
        succ.setdefault(u, []).append(w)
        succ.setdefault(w, []).append(u)

    for v in range(n):
        link(2 * v, 2 * v + 1, 1)
    for u, v in G.edges():
        link(2 * u + 1, 2 * v, big)
        link(2 * v + 1, 2 * u, big)
    for a in A:
        link(source, 2 * a, big)
    for b in B:
        link(2 * b + 1, sink, big)

    flow = 0
    while True:
        # BFS for an augmenting path
        prev = {source: source}
        queue = deque([source])
        while queue and sink not in prev:
            x = queue.popleft()
            for y in succ.get(x, ()):
                if y not in prev and cap.get((x, y), 0) > 0:
                    prev[y] = x
                    queue.append(y)
        if sink not in prev:
            break
        x = sink
        while x != source:
            p = prev[x]
            cap[(p, x)] -= 1
            cap[(x, p)] += 1
            x = p
        flow += 1

    if flow == len(A):
        # an arc carries flow iff its residual capacity dropped below the
        # original; unit vertex capacity makes the walk deterministic
        def flow_on(u: int, w: int) -> int:
            return orig.get((u, w), 0) - cap.get((u, w), 0)

        paths = []
        for a in A:
            assert flow_on(source, 2 * a) > 0
            path = [a]
            v = a
            while True:
                v_out = 2 * v + 1
                if flow_on(v_out, sink) > 0:
                    break
                nxt = next(
                    y for y in succ.get(v_out, ()) if flow_on(v_out, y) > 0
                )
                v = nxt // 2
                path.append(v)
            paths.append(tuple(path))
        return Linkage(tuple(paths))

    # min cut: residual-reachable set from source
    reach = {source}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in succ.get(x, ()):
            if y not in reach and cap.get((x, y), 0) > 0:
                reach.add(y)
                queue.append(y)
    cut = {v for v in range(n) if 2 * v in reach and 2 * v + 1 not in reach}
    left = {v for v in range(n) if 2 * v in reach or 2 * v + 1 in reach} | cut
    right = (set(range(n)) - left) | cut
    sep = Separation(vset(left), vset(right))
    sep.validate(G)
    assert sep.order < len(A)
    assert set(A) <= set(sep.left) and set(B) <= set(sep.right)
    return sep


def surgery_bags():
    """(name, bag subgraph, left boundary, right boundary) for every internal
    bag of small versions of the surgery-chains path decompositions."""
    k = 10
    ladder = Graph(2 * k, [(i, i + 1) for i in range(k - 1)]
                   + [(k + i, k + i + 1) for i in range(k - 1)]
                   + [(i, k + i) for i in range(k)])
    families = [
        ("fan1", gen_fan(1, 12), [[i, i + 1, 12] for i in range(11)]),
        ("fan3", gen_fan(3, 10), [[i, i + 1, 10, 11, 12] for i in range(9)]),
        ("tri5", gen_triangulated_grid(5, 10),
         [[i * 10 + j for i in range(5)] + [i * 10 + j + 1 for i in range(5)]
          for j in range(9)]),
        ("ladder", ladder, [[i, k + i, i + 1, k + i + 1] for i in range(k - 1)]),
    ]
    for name, G, bags in families:
        P = PathDecomposition(tuple(vset(b) for b in bags))
        for z in range(1, len(bags) - 1):
            sub, relabel = induced_subgraph(G, P.bags[z])
            yield (f"{name}/{z}", sub,
                   [relabel[v] for v in P.boundary(z - 1, z)],
                   [relabel[v] for v in P.boundary(z, z + 1)])


@st.composite
def linkage_instances(draw):
    """A graph on at most 10 vertices (sometimes two disjoint pieces) and
    equal-size, possibly overlapping, possibly empty A and B."""
    G = draw(graphs(max_n=10, min_n=0))
    if draw(st.booleans()):
        H = draw(graphs(max_n=5, min_n=0))
        G = Graph(G.n + H.n, list(G.edges()) + [(u + G.n, v + G.n) for u, v in H.edges()])
    k = draw(st.integers(min_value=0, max_value=G.n))
    A = draw(st.permutations(range(G.n)))[:k]
    B = draw(st.permutations(range(G.n)))[:k]
    return G, A, B


class TestLinkage:
    def test_disjoint_paths_on_ladder(self):
        # two parallel paths
        G = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (1, 4)])
        res = find_linkage(G, (0, 3), (2, 5))
        assert isinstance(res, Linkage)
        assert len(res.paths) == 2

    def test_star_bottleneck_returns_separation(self):
        G = Graph(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
        res = find_linkage(G, (0, 1), (2, 3))
        assert isinstance(res, Separation)
        assert res.order == 1
        assert res.cut == (4,)

    def test_shared_vertex_is_its_own_path(self):
        G = Graph(3, [(0, 1), (1, 2), (0, 2)])
        res = find_linkage(G, (0, 1), (1, 2))
        assert isinstance(res, Linkage)
        assert (1,) in res.paths

    def test_shared_vertex_bottleneck(self):
        res = find_linkage(gen_path(3), (0, 1), (1, 2))
        assert isinstance(res, Separation)
        assert res.order == 1

    @pytest.mark.parametrize("A, B, bad", [((-1,), (2,), -1), ((0,), (3,), 3)])
    def test_out_of_range_ends_are_named(self, A, B, bad):
        with pytest.raises(GraphValidityError, match=f"vertex {bad} out of range"):
            find_linkage(gen_path(3), A, B)

    def test_matches_menger_bruteforce(self, rng):
        for _ in range(25):
            G = random_graph(rng, 8, 0.35)
            A = vset(rng.sample(range(8), 2))
            B = vset(rng.sample(range(8), 2))
            res = find_linkage(G, A, B)
            menger = menger_bruteforce(G, A, B)
            if isinstance(res, Linkage):
                assert menger >= len(A)
                seen = set()
                for path in res.paths:
                    assert not seen & set(path)
                    seen.update(path)
            else:
                assert res.order == menger < len(A)

    def test_unequal_ends_are_an_error(self):
        with pytest.raises(ValueError, match=r"\|A\|=2 != \|B\|=1"):
            find_linkage(gen_path(3), (0, 1), (2,))

    @given(linkage_instances())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_kernel(self, inst):
        G, A, B = inst
        assert find_linkage(G, A, B) == reference_find_linkage(G, A, B)

    def test_matches_reference_kernel_on_surgery_bags(self):
        # the boundary pair of every bag, and every pair of equal-size ends
        # on the bags of at most five vertices
        seen = set()
        for name, sub, left, right in surgery_bags():
            pairs = [(left, right), (right, left)]
            if sub.n <= 5:
                pairs += [
                    (A, B)
                    for k in range(sub.n + 1)
                    for A in itertools.combinations(range(sub.n), k)
                    for B in itertools.combinations(range(sub.n), k)
                ]
            for A, B in pairs:
                res = find_linkage(sub, A, B)
                assert res == reference_find_linkage(sub, A, B), (name, A, B)
                seen.add(type(res))
        assert seen == {Linkage, Separation}

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_kernel_on_random_bag_ends(self, data):
        bags = list(surgery_bags())
        _, sub, _, _ = bags[data.draw(st.integers(0, len(bags) - 1))]
        k = data.draw(st.integers(0, sub.n))
        A = data.draw(st.permutations(range(sub.n)))[:k]
        B = data.draw(st.permutations(range(sub.n)))[:k]
        assert find_linkage(sub, A, B) == reference_find_linkage(sub, A, B)
