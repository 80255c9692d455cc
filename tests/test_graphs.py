import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from islandkit.graphs import (
    Graph,
    GraphParseError,
    GraphValidityError,
    MinorModel,
    Separation,
    gen_complete_bipartite,
    gen_cycle,
    gen_fan,
    gen_hex_grid,
    gen_outerplanar_gadget,
    gen_path,
    gen_triangulated_grid,
    girth,
    checked_vset,
    induced_subgraph,
    parse_graph,
    verify_minor_model,
    write_graph,
)

from conftest import graphs


class TestParsing:
    def test_header_detected(self):
        G = parse_graph("3 2\n0 1\n1 2\n")
        assert (G.n, G.m) == (3, 2)

    def test_headerless_edge_list(self):
        G = parse_graph("0 1\n1 2\n")
        assert (G.n, G.m) == (3, 2)

    def test_comments_and_blank_lines_skipped(self):
        G = parse_graph("# c\n\n0 1\n")
        assert (G.n, G.m) == (2, 1)

    def test_loop_rejected(self):
        with pytest.raises((GraphParseError, GraphValidityError)):
            parse_graph("0 0\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises((GraphParseError, GraphValidityError)):
            parse_graph("0 1\n1 0\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("# c\n\n0 0\n", "line 3: loop at vertex 0"),
            ("0 1  # first\n\n1 0\n", "line 3: duplicate edge"),
            ("# c\n3 2\n0 1\n0 1\n", "line 4: duplicate edge"),
        ],
    )
    def test_validity_errors_name_their_line(self, text, message):
        with pytest.raises(GraphValidityError, match=message):
            parse_graph(text)

    def test_inconsistent_header_is_an_edge(self):
        G = parse_graph("3 5\n0 1\n")
        assert (G.n, G.m) == (6, 2)
        assert G.adj[5] == (3,)

    @given(graphs(max_n=8, min_n=0))
    @example(Graph(0, []))
    @settings(max_examples=60, deadline=None)
    def test_write_parse_roundtrip(self, G):
        H = parse_graph(write_graph(G))
        assert H.n == G.n and H.adj == G.adj
        assert H.m == G.m
        H.validate()


def _reference_induced(G, S):
    """The subgraph on S through the checked constructor."""
    members = sorted(set(S))
    relabel = {v: i for i, v in enumerate(members)}
    edges = [(relabel[u], relabel[v]) for u, v in G.edges() if u in relabel and v in relabel]
    return Graph(len(members), edges), relabel


@st.composite
def graphs_and_subsets(draw):
    """Small random graphs, and fans whose apexes have degree above |S|."""
    if draw(st.booleans()):
        G = draw(graphs(max_n=10))
    else:
        G = gen_fan(draw(st.integers(0, 3)), draw(st.integers(1, 30)))
    S = draw(st.lists(st.integers(0, G.n - 1), max_size=G.n))
    return G, S


class TestInducedSubgraph:
    @given(graphs_and_subsets())
    @settings(max_examples=150, deadline=None)
    def test_matches_checked_constructor(self, case):
        G, S = case
        H, relabel = induced_subgraph(G, S)
        ref, ref_relabel = _reference_induced(G, S)
        assert relabel == ref_relabel
        assert (H.n, H.m, H.adj) == (ref.n, ref.m, ref.adj)
        H.validate()

    def test_high_degree_member_is_probed(self):
        G = gen_fan(1, 30)  # apex 30 has degree 30
        H, relabel = induced_subgraph(G, [30, 5, 6, 20])
        assert relabel == {5: 0, 6: 1, 20: 2, 30: 3}
        assert H.adj == ((1, 3), (0, 3), (3,), (0, 1, 2))
        assert H.m == 4
        H.validate()


class TestGenerators:
    def test_fan_counts(self):
        G = gen_fan(1, 3)
        assert (G.n, G.m) == (4, 5)

    def test_complete_bipartite_counts(self):
        G = gen_complete_bipartite(2, 3)
        assert (G.n, G.m) == (5, 6)

    def test_triangulated_grid_counts(self):
        G = gen_triangulated_grid(10, 10)
        # 2*10*10 axis edges + 81 diagonals... computed directly:
        r = c = 10
        expected = r * (c - 1) + c * (r - 1) + (r - 1) * (c - 1)
        assert (G.n, G.m) == (100, expected)

    def test_hex_grid_girth_and_degree(self):
        G = gen_hex_grid(3, 4)
        assert girth(G) == 6
        assert max(G.degree(v) for v in G.vertices()) <= 3

    def test_outerplanar_gadget_counts(self):
        for C in (1, 2, 3):
            G = gen_outerplanar_gadget(C)
            assert G.n == 3 * (C + 1)
            assert G.m == 3 * C + 3 * (C + 1)

    @given(graphs(max_n=7))
    @settings(max_examples=40, deadline=None)
    def test_girth_matches_exhaustive_cycle_search(self, G):
        best = None
        for k in range(3, G.n + 1):
            for cyc in itertools.permutations(range(G.n), k):
                if cyc[0] != min(cyc):
                    continue
                if all(
                    G.has_edge(cyc[i], cyc[(i + 1) % k]) for i in range(k)
                ):
                    best = k
                    break
            if best:
                break
        assert girth(G) == best

    def test_cycle_and_path(self):
        assert gen_cycle(5).m == 5
        assert gen_path(5).m == 4
        assert girth(gen_path(9)) is None


class TestSeparation:
    def test_cut_and_order(self):
        G = gen_path(3)
        sep = Separation((0, 1), (1, 2))
        assert sep.cut == (1,)
        assert sep.order == 1
        sep.validate(G)

    def test_crossing_edge_rejected(self):
        G = gen_path(3)
        with pytest.raises(GraphValidityError):
            Separation((0, 1), (1, 2)).validate(Graph(3, [(0, 1), (1, 2), (0, 2)]))


class TestMinorModel:
    def test_triangle_minor_of_c6(self):
        G = gen_cycle(6)
        model = MinorModel({0: (0, 1), 1: (2, 3), 2: (4, 5)})
        assert verify_minor_model(G, gen_cycle(3), model).ok

    def test_disconnected_branch_set_rejected(self):
        G = gen_cycle(6)
        model = MinorModel({0: (0, 3), 1: (1, 2), 2: (4, 5)})
        verdict = verify_minor_model(G, gen_cycle(3), model)
        assert not verdict.ok and "connected" in verdict.violation

    def test_missing_edge_rejected(self):
        G = gen_path(4)
        model = MinorModel({0: (0,), 1: (1,), 2: (3,)})
        verdict = verify_minor_model(G, gen_cycle(3), model)
        assert not verdict.ok

    def test_overlapping_branch_sets_rejected(self):
        G = gen_cycle(6)
        model = MinorModel({0: (0, 1), 1: (1, 2), 2: (4, 5)})
        assert not verify_minor_model(G, gen_cycle(3), model).ok


class TestVertexIds:
    def test_in_range_ids_are_normalised(self):
        assert checked_vset(gen_path(3), [2, 0, 2]) == (0, 2)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_id_is_named(self, bad):
        with pytest.raises(GraphValidityError, match=f"vertex {bad} out of range"):
            checked_vset(gen_path(3), [0, bad])
