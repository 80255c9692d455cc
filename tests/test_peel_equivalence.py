"""The one peel primitive against reference copies of the code it
replaces: the rescanning maximal-island search, the one-at-a-time enclave
shrink and the full-scan percolation closure, plus the duality identity
V \\ closure(A) = maximal t-island in V \\ A checked by exhaustion, and
the per-colour-class monochromatic components against the old BFS."""

from hypothesis import given, settings
from hypothesis import strategies as st

from islandkit import islands, percolation
from islandkit.coloring import monochromatic_components
from islandkit.graphs import Graph, gen_path, vset
from islandkit.islands import is_enclave, is_island, peel, shrink_enclave_to_island
from islandkit.percolation import PercolationRun, percolate

from conftest import graphs, line_events


# ---------------------------------------------------------------------------
# reference copies
# ---------------------------------------------------------------------------

def reference_max_island_in(G: Graph, W, t: int) -> tuple[int, ...]:
    current = set(vset(W))
    changed = True
    while changed and current:
        changed = False
        for v in sorted(current):
            if sum(1 for u in G.adj[v] if u not in current) >= t:
                current.remove(v)
                changed = True
    return tuple(sorted(current))


def reference_shrink(G: Graph, A, t: int) -> tuple[int, ...]:
    current = set(vset(A))
    while True:
        offender = None
        for v in sorted(current):
            if sum(1 for u in G.adj[v] if u not in current) >= t:
                offender = v
                break
        if offender is None:
            break
        current.remove(offender)
    return tuple(sorted(current))


def reference_percolate(G: Graph, A0, t: int) -> PercolationRun:
    seeds = vset(A0)
    active = set(seeds)
    count = [0] * G.n
    frontier = list(seeds)
    order = []
    step = 0
    while frontier:
        step += 1
        newly = []
        for v in frontier:
            for u in G.adj[v]:
                if u in active:
                    continue
                count[u] += 1
        for u in range(G.n):
            if u not in active and count[u] >= t:
                newly.append(u)
        for u in newly:
            active.add(u)
            order.append((u, step))
        frontier = newly
    return PercolationRun(t, seeds, tuple(sorted(active)), tuple(order))


def reference_monochromatic_components(G: Graph, colors):
    comps = []
    seen = set()
    for s in range(G.n):
        if s in seen:
            continue
        seen.add(s)
        comp = [s]
        stack = [s]
        while stack:
            v = stack.pop()
            for u in G.adj[v]:
                if u not in seen and colors[u] == colors[v]:
                    seen.add(u)
                    comp.append(u)
                    stack.append(u)
        comps.append(tuple(sorted(comp)))
    return comps


def exhaustive_max_island_in(G: Graph, W, t: int) -> tuple[int, ...]:
    """Union of every t-island inside W; a union of t-islands is one."""
    W = vset(W)
    masks = G.neighbor_masks
    full = (1 << G.n) - 1
    union = 0
    for sub in range(1, 1 << len(W)):
        vs = [W[i] for i in range(len(W)) if sub >> i & 1]
        mask = sum(1 << v for v in vs)
        if all((masks[v] & full & ~mask).bit_count() < t for v in vs):
            union |= mask
    return tuple(v for v in range(G.n) if union >> v & 1)


def subsets(G: Graph, data) -> set[int]:
    return data.draw(st.sets(st.integers(min_value=0, max_value=G.n - 1)))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

class TestPeelEquivalence:
    @given(graphs(max_n=10), st.integers(min_value=1, max_value=4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_survivors_are_the_maximal_island(self, G, t, data):
        W = subsets(G, data)
        rounds, survivors = peel(G, W, t)
        assert survivors == reference_max_island_in(G, W, t)
        removed = [v for r in rounds for v in r]
        assert all(r and list(r) == sorted(r) for r in rounds)
        assert sorted(removed + list(survivors)) == sorted(W)

    @given(graphs(max_n=10), st.integers(min_value=1, max_value=4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_shrink_matches_one_at_a_time(self, G, t, data):
        A = subsets(G, data)
        if not is_enclave(G, A, t):
            return
        cert = shrink_enclave_to_island(G, A, t)
        assert cert.members == reference_shrink(G, A, t)
        assert cert == is_island(G, cert.members, t).certificate

    @given(graphs(max_n=10), st.integers(min_value=1, max_value=4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_percolate_matches_full_scan(self, G, t, data):
        A = subsets(G, data)
        assert percolate(G, A, t) == reference_percolate(G, A, t)

    @given(graphs(max_n=10), st.integers(min_value=1, max_value=3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_duality_identity(self, G, t, data):
        A = subsets(G, data)
        complement = [v for v in range(G.n) if v not in A]
        closure = set(percolate(G, A, t).final_active)
        inactive = tuple(v for v in range(G.n) if v not in closure)
        assert inactive == exhaustive_max_island_in(G, complement, t)
        assert inactive == peel(G, complement, t)[1]

    @given(graphs(max_n=10), st.data())
    @settings(max_examples=100, deadline=None)
    def test_monochromatic_components_match_bfs(self, G, data):
        colors = data.draw(
            st.lists(st.integers(min_value=0, max_value=2), min_size=G.n, max_size=G.n)
        )
        assert monochromatic_components(G, colors) == reference_monochromatic_components(
            G, colors
        )


# ---------------------------------------------------------------------------
# cost: line events in the peel's modules, not wall-clock time
# ---------------------------------------------------------------------------

class TestPeelCost:
    # a path seeded at one end activates one vertex per round, 399 rounds;
    # a closure that rescans every vertex each round runs ~n^2 lines
    G = gen_path(400)
    BOUND = 40 * (G.n + G.m)

    def test_percolate_is_linear_on_a_long_chain(self):
        events = line_events((islands, percolation), percolate, self.G, [0], 1)
        assert 0 < events <= self.BOUND

    def test_peel_is_linear_on_a_long_chain(self):
        assert len(peel(self.G, range(1, 400), 1)[0]) == 399
        events = line_events((islands, percolation), peel, self.G, range(1, 400), 1)
        assert 0 < events <= self.BOUND
