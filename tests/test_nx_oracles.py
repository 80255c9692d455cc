"""Graph-layer identities checked against networkx as an independent oracle.

`components_within` must give networkx's connected components of G[S],
and the tree check of `validate_decomposition` must accept exactly the
edge lists that `networkx.is_tree` calls a tree.  networkx is imported at
module top: without it this module fails to collect instead of skipping.
"""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from islandkit.decomposition import TreeDecomposition, validate_decomposition
from islandkit.graphs import components_within

from conftest import graphs


def nx_graph(G) -> nx.Graph:
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges())
    return H


@st.composite
def graphs_and_subsets(draw):
    G = draw(graphs(max_n=12, min_n=0))
    S = draw(st.sets(st.integers(0, G.n - 1))) if G.n else set()
    return G, S


@st.composite
def tree_edge_lists(draw):
    """k >= 1 decomposition nodes and a list of edges among them: half the
    time a random tree, perhaps with one edge replaced, else any list,
    repeats and loops included."""
    k = draw(st.integers(1, 8))
    node = st.integers(0, k - 1)
    if draw(st.booleans()):
        perm = draw(st.permutations(range(k)))
        edges = [(perm[draw(st.integers(0, i - 1))], perm[i]) for i in range(1, k)]
        if edges and draw(st.booleans()):
            edges[draw(st.integers(0, len(edges) - 1))] = (draw(node), draw(node))
    else:
        edges = draw(st.lists(st.tuples(node, node), max_size=k + 1))
    return k, edges


class TestNetworkxOracles:
    @given(graphs_and_subsets())
    @settings(max_examples=300, deadline=None)
    def test_components_within_matches_networkx(self, inst):
        G, S = inst
        expected = sorted(
            tuple(sorted(c)) for c in nx.connected_components(nx_graph(G).subgraph(S))
        )
        assert components_within(G, S) == expected

    @given(graphs(max_n=5, min_n=0), tree_edge_lists())
    @settings(max_examples=300, deadline=None)
    def test_tree_check_matches_networkx(self, G, inst):
        # every bag holds all of V, so only the tree can make D invalid;
        # a MultiGraph keeps a repeated edge, which is a cycle
        k, edges = inst
        D = TreeDecomposition((tuple(range(G.n)),) * k, tuple(edges))
        T = nx.MultiGraph()
        T.add_nodes_from(range(k))
        T.add_edges_from(edges)
        assert validate_decomposition(G, D).ok == nx.is_tree(T)
