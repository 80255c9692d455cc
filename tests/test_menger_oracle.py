"""Menger's theorem for find_linkage, checked against networkx's max-flow.

The flow network is built here from the definition, not from
find_linkage's arcs: v_in -> v_out with capacity 1, and uncapacitated
arcs u_out -> v_in for every edge, source -> a_in for a in A and
b_out -> sink for b in B.  Its maximum flow is the largest number of
vertex-disjoint A-B paths and the order of the smallest A-B separator.
networkx is imported at module top: without it this module fails to
collect instead of skipping.
"""

import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from islandkit.decomposition import Linkage, find_linkage
from islandkit.graphs import Graph, Separation

from conftest import graphs, random_graph


def menger_flow(G: Graph, A, B) -> int:
    D = nx.DiGraph()
    D.add_nodes_from(["source", "sink"])
    for v in range(G.n):
        D.add_edge(("in", v), ("out", v), capacity=1)
    for u, v in G.edges():
        D.add_edge(("out", u), ("in", v))
        D.add_edge(("out", v), ("in", u))
    for a in A:
        D.add_edge("source", ("in", a))
    for b in B:
        D.add_edge(("out", b), "sink")
    return nx.maximum_flow_value(D, "source", "sink")


def check_dichotomy(G: Graph, A, B) -> Linkage | Separation:
    flow = menger_flow(G, A, B)
    res = find_linkage(G, A, B)
    if isinstance(res, Linkage):
        assert flow == len(A)
        return res
    assert isinstance(res, Separation)
    assert res.order == flow < len(A)
    # the cut meets every A-B path of G
    H = nx.Graph(list(G.edges()))
    H.add_nodes_from(range(G.n))
    H.remove_nodes_from(res.cut)
    assert not any(
        nx.has_path(H, a, b) for a in set(A) - set(res.cut) for b in set(B) - set(res.cut)
    )
    return res


@st.composite
def instances(draw):
    """A graph on at most 12 vertices and equal-size, possibly
    overlapping, possibly empty A and B."""
    G = draw(graphs(max_n=12, min_n=0))
    k = draw(st.integers(min_value=0, max_value=G.n))
    A = draw(st.permutations(range(G.n)))[:k]
    B = draw(st.permutations(range(G.n)))[:k]
    return G, A, B


class TestMengerOracle:
    @given(instances())
    @settings(max_examples=300, deadline=None)
    def test_linkage_exactly_when_the_flow_is_full(self, inst):
        check_dichotomy(*inst)

    def test_random_densities(self):
        # hypothesis draws each edge with probability about 1/2; sparse
        # graphs are where the separations are
        rng = random.Random(12)
        kinds = set()
        for _ in range(400):
            n = rng.randint(2, 12)
            G = random_graph(rng, n, rng.choice([0.15, 0.25, 0.4]))
            k = rng.randint(1, n)
            A, B = rng.sample(range(n), k), rng.sample(range(n), k)
            kinds.add(type(check_dichotomy(G, A, B)))
        assert kinds == {Linkage, Separation}
