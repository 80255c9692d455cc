"""The one breadth-first search, graphs.reach, against reference copies of
the hand-written walks it replaces: the deque BFS of components_within and
the BFS order, double sweep, star branches and spine subtrees of
tree_to_path.  Results must be identical."""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from islandkit.decomposition import (
    PathDecomposition,
    TreeDecomposition,
    restore_properness,
    validate_decomposition,
)
from islandkit.graphs import Graph, components_within, reach, vset
from islandkit.surgery import _tree_path_bags, tree_to_path

from conftest import graphs


# ---------------------------------------------------------------------------
# reference copies
# ---------------------------------------------------------------------------

def reference_components_within(G, S):
    inset = set(S)
    seen = set()
    out = []
    for s in sorted(inset):
        if s in seen:
            continue
        seen.add(s)
        comp = [s]
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in G.adj[v]:
                if u in inset and u not in seen:
                    seen.add(u)
                    comp.append(u)
                    queue.append(u)
        out.append(tuple(sorted(comp)))
    return out


def reference_tree_path_bags(T, adj, nodes):
    if len(nodes) <= 1:
        return [T.bags[z] for z in nodes]
    degrees = {z: len(adj[z]) for z in nodes}
    hub = max(nodes, key=lambda z: degrees[z])

    def far(start):
        prev = {start: start}
        order = [start]
        for x in order:
            for y in adj[x]:
                if y not in prev:
                    prev[y] = x
                    order.append(y)
        return order[-1], prev

    a, _ = far(nodes[0])
    b, prev = far(a)
    spine = [b]
    while spine[-1] != a:
        spine.append(prev[spine[-1]])
    if degrees[hub] >= len(spine):
        branches = []
        seen = set()
        for start in sorted(adj[hub]):
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            for x in comp:
                for y in adj[x]:
                    if y != hub and y not in seen:
                        seen.add(y)
                        comp.append(y)
            branches.append(comp)
        bags = []
        for comp in branches:
            merged = set(T.bags[hub])
            for x in comp:
                merged.update(T.bags[x])
            bags.append(vset(merged))
        return bags
    spine_set = set(spine)
    bags = []
    for z in spine:
        comp = [z]
        seen = {z}
        for x in comp:
            for y in adj[x]:
                if y not in seen and y not in spine_set:
                    seen.add(y)
                    comp.append(y)
        merged = set()
        for x in comp:
            merged.update(T.bags[x])
        bags.append(vset(merged))
    return bags


def reference_bfs_order(T, adj):
    order = [0] if T.bags else []
    seen = set(order)
    for x in order:
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                order.append(y)
    return order


def reference_tree_to_path(G, T):
    adj = T.adjacency()
    bags = reference_tree_path_bags(T, adj, reference_bfs_order(T, adj))
    return restore_properness(PathDecomposition(tuple(bags)))


# ---------------------------------------------------------------------------
# random trees and decompositions over them
# ---------------------------------------------------------------------------

@st.composite
def trees(draw):
    """(k, edges) of a tree on k nodes: random, star, caterpillar or double
    star (two hubs of equal degree), relabelled, with the edge list shuffled
    and some edge ends flipped."""
    k = draw(st.integers(min_value=1, max_value=14))
    shape = draw(st.sampled_from(["random", "star", "caterpillar", "double_star"]))
    if shape == "random":
        edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, k)]
    elif shape == "star":
        edges = [(0, i) for i in range(1, k)]
    elif shape == "caterpillar":
        spine = draw(st.integers(1, k))
        edges = [(i - 1, i) for i in range(1, spine)]
        edges += [(draw(st.integers(0, spine - 1)), i) for i in range(spine, k)]
    else:
        edges = [(0, 1)] if k > 1 else []
        edges += [(i % 2, i) for i in range(2, k)]
    label = draw(st.permutations(range(k)))
    edges = draw(st.permutations([(label[a], label[b]) for a, b in edges]))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return k, [(b, a) if f else (a, b) for (a, b), f in zip(edges, flips)]


@st.composite
def tree_decompositions(draw):
    """A graph and a valid tree decomposition of it over a random tree.
    Vertex x < k sits at tree node x and in the bag of the far end of each
    tree edge listed from x; each further vertex occupies a BFS prefix of
    the tree from one node and is adjacent to that node's vertex."""
    k, edges = draw(trees())
    bags = [{x} for x in range(k)]
    g_edges = []
    for a, b in edges:
        bags[b].add(a)
        g_edges.append((a, b))
    adj = [[] for _ in range(k)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    n = k
    for node, size in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(1, k)), max_size=6)):
        prefix = [node]
        for x in prefix:
            prefix.extend([y for y in adj[x] if y not in prefix])
        for x in prefix[:size]:
            bags[x].add(n)
        g_edges.append((n, node))
        n += 1
    return Graph(n, g_edges), TreeDecomposition(tuple(vset(b) for b in bags), tuple(edges))


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

class TestReach:
    @given(graphs(max_n=10), st.data())
    @settings(max_examples=300, deadline=None)
    def test_components_within_matches_deque_bfs(self, G, data):
        S = data.draw(st.lists(st.integers(0, G.n - 1), max_size=2 * G.n))
        assert components_within(G, S) == reference_components_within(G, S)

    @given(graphs(max_n=10), st.data())
    @settings(max_examples=300, deadline=None)
    def test_removes_exactly_the_component_of_start(self, G, data):
        start = data.draw(st.integers(0, G.n - 1))
        unvisited = set(data.draw(st.lists(st.integers(0, G.n - 1), max_size=G.n)))
        before = set(unvisited)
        parent = reach(G.adj, start, unvisited)
        comp = next(c for c in reference_components_within(G, before | {start}) if start in c)
        assert set(parent) == set(comp)
        assert unvisited == before - set(comp)
        order = list(parent)
        assert order[0] == start and parent[start] == -1
        for i, v in enumerate(order[1:], start=1):
            assert G.has_edge(parent[v], v)
            assert order.index(parent[v]) < i


class TestTreeToPath:
    @given(tree_decompositions())
    @settings(max_examples=300, deadline=None)
    def test_matches_hand_written_walks(self, GT):
        G, T = GT
        assert validate_decomposition(G, T).ok
        adj = T.adjacency()
        order = reference_bfs_order(T, adj)
        assert _tree_path_bags(T, adj, order) == reference_tree_path_bags(T, adj, order)
        assert tree_to_path(G, T) == reference_tree_to_path(G, T)
