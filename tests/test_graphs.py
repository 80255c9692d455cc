import re
import tracemalloc

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from islandkit import graphs as graphs_module
from islandkit.graphs import (
    Graph,
    GraphParseError,
    GraphTooLarge,
    GraphValidityError,
    MinorModel,
    Separation,
    _parse_lines,
    bfs_levels,
    components_within,
    gen_complete_bipartite,
    gen_cycle,
    gen_fan,
    gen_hex_grid,
    gen_outerplanar_gadget,
    gen_path,
    gen_triangulated_grid,
    checked_vset,
    induced_subgraph,
    int_token,
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

    @pytest.mark.parametrize("token", ["1_0", "+3", "\u0663", "1.0", "-", ""])
    def test_ids_are_ascii_digits(self, token):
        with pytest.raises(ValueError, match="not an integer token"):
            int_token(token)
        with pytest.raises(GraphParseError, match="^line 2: expected two integers"):
            parse_graph(f"0 1\n{token} 2\n")

    def test_negative_id_is_named(self):
        assert int_token("-3") == -3
        with pytest.raises(GraphParseError, match="^line 1: negative vertex id$"):
            parse_graph("-3 2\n")

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

    @given(graphs(max_n=8), st.booleans(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_shuffled_edge_list_parses_to_the_graph(self, G, header, data):
        # parse_graph builds rows that Graph.validate accepts, so loading a
        # file need not re-validate it
        edges = data.draw(st.permutations(list(G.edges())))
        flips = data.draw(st.lists(st.booleans(), min_size=G.m, max_size=G.m))
        edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]
        lines = [f"{u} {v}" for u, v in edges]
        if header:
            lines.insert(0, f"{G.n} {G.m}")
            n = G.n
        else:
            n = 1 + max((max(e) for e in edges), default=-1)
            # a first edge that reads as a consistent header is taken as one
            assume(not edges or not (
                edges[0][0] >= 1
                and edges[0][1] == len(edges) - 1
                and all(max(e) < edges[0][0] for e in edges[1:])
            ))
        H = parse_graph("\n".join(lines) + "\n")
        H.validate()
        expected = Graph(n, edges)
        assert (H.n, H.adj, H.m) == (expected.n, expected.adj, expected.m)


def _outcome(parse, text):
    """(n, adj, m) of the parsed graph, or the error's type and message."""
    try:
        G = parse(text)
    except Exception as err:
        return type(err), str(err)
    return G.n, G.adj, G.m


@st.composite
def edge_list_texts(draw):
    """Shuffled, flipped edge lists of small graphs, with or without a
    comment, a header and a final newline, some with a loop or a
    duplicate edge injected."""
    G = draw(graphs(max_n=8, min_n=0))
    edges = draw(st.permutations(list(G.edges())))
    flips = draw(st.lists(st.booleans(), min_size=G.m, max_size=G.m))
    lines = [f"{v} {u}" if flip else f"{u} {v}" for (u, v), flip in zip(edges, flips)]
    if draw(st.booleans()):
        v = draw(st.integers(0, 9))
        lines.insert(draw(st.integers(0, len(lines))), f"{v} {v}")
    if lines and draw(st.booleans()):
        u, v = draw(st.sampled_from(lines)).split()
        lines.insert(draw(st.integers(0, len(lines))), f"{v} {u}")
    if draw(st.booleans()):
        lines.insert(0, f"{G.n} {len(lines)}")
    if draw(st.booleans()):
        lines.insert(0, "# generated-by islandkit")
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _short_ids(text):
    """text with every run of digits cut to two characters: both parsers
    allocate one row per id up to the largest."""
    return re.sub("[0-9\u0663]{3,}", lambda run: run.group()[:2], text)


# int() reads "+3", "1_0" and "\u0663" (ARABIC-INDIC DIGIT THREE); a
# vertex id is ASCII digits only, so both parsers reject all three
_PLAIN_ALPHABET = [*"0123456789", " ", "\n", "#"]
_ALPHABET = _PLAIN_ALPHABET + ["\t", "\r\n", "-", "+", "_", "\u0663"]


class TestParserEquivalence:
    """parse_graph reads plain documents in one pass and hands the rest to
    _parse_lines; the two must agree on every text."""

    @given(edge_list_texts())
    @settings(max_examples=200, deadline=None)
    def test_edge_lists(self, text):
        assert _outcome(parse_graph, text) == _outcome(_parse_lines, text)

    @given(
        st.one_of(
            st.lists(st.sampled_from(_PLAIN_ALPHABET), max_size=40),
            st.lists(st.sampled_from(_ALPHABET), max_size=40),
        ).map("".join).map(_short_ids)
    )
    @example("1\n2 3 4\n")  # one space per line on average, not on each
    @example("1 \n34")
    @example("# c\r0 1\n")  # splitlines ends the comment at the \r
    @example("# c\x0b0 1\n")
    @example("0 1\n\n")
    @example("3 2\n0 1\n1 2")
    @example("1 " + "0" * 4999 + "2\n")  # beyond int()'s default digit limit
    @settings(max_examples=400, deadline=None)
    def test_texts_over_the_alphabet(self, text):
        assert _outcome(parse_graph, text) == _outcome(_parse_lines, text)


class TestPlainFastPath:
    @pytest.fixture
    def no_line_parser(self, monkeypatch):
        def refuse(text):
            raise AssertionError("fell back to the line parser")

        monkeypatch.setattr(graphs_module, "_parse_lines", refuse)

    @pytest.mark.parametrize("G", [Graph(0, []), gen_path(1), gen_triangulated_grid(4, 5)])
    def test_write_graph_output_is_plain(self, no_line_parser, G):
        H = parse_graph(write_graph(G))
        assert (H.n, H.adj, H.m) == (G.n, G.adj, G.m)

    def test_header_and_edges_are_plain(self, no_line_parser):
        G = gen_triangulated_grid(6, 7)
        lines = [f"{v} {u}" for u, v in G.edges()][::-1]
        H = parse_graph(f"{G.n} {G.m}\n" + "\n".join(lines))
        assert (H.n, H.adj, H.m) == (G.n, G.adj, G.m)

    def test_peak_memory_below_the_line_parser(self):
        text = write_graph(gen_triangulated_grid(100, 100))
        assert text.count("\n") > 29_000
        peaks = []
        for parse in (parse_graph, _parse_lines):
            tracemalloc.start()
            try:
                parse(text)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 0.6 * peaks[1], peaks


class TestVertexCap:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1000000", "line 1: vertex id 1000000 >= MAX_VERTICES=1000000"),
            ("# h\n2000000 0\n", "line 2: header n=2000000 > MAX_VERTICES=1000000"),
        ],
    )
    def test_too_many_vertices_fail_by_line_before_allocating(self, text, message):
        tracemalloc.start()
        try:
            with pytest.raises(GraphTooLarge, match=f"^{re.escape(message)}$"):
                parse_graph(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    @pytest.mark.parametrize("parse", [parse_graph, _parse_lines])
    def test_cap_is_inclusive_for_n_and_exclusive_for_ids(self, monkeypatch, parse):
        monkeypatch.setattr(graphs_module, "MAX_VERTICES", 5)
        assert parse("0 4\n").n == 5
        assert parse("5 1\n0 1\n").n == 5
        for text, message in [
            ("0 5\n", "line 1: vertex id 5 "),
            ("6 1\n0 1\n", "line 1: header n=6 "),
            ("# c\n1 2\n7 0\n", "line 3: vertex id 7 "),
        ]:
            with pytest.raises(GraphTooLarge, match=f"^{message}"):
                parse(text)


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
        assert nx.girth(nx.Graph(list(G.edges()))) == 6
        assert max(G.degree(v) for v in G.vertices()) <= 3

    def test_outerplanar_gadget_counts(self):
        for C in (1, 2, 3):
            G = gen_outerplanar_gadget(C)
            assert G.n == 3 * (C + 1)
            assert G.m == 3 * C + 3 * (C + 1)

    def test_cycle_and_path(self):
        assert gen_cycle(5).m == 5
        assert gen_path(5).m == 4


class TestValidate:
    """Graph.validate, the oracle the parser is tested against, on rows
    that Graph._from_adj takes unchecked."""

    @pytest.mark.parametrize(
        "adj, m, message",
        [
            (((2, 1), (0,), (0,)), 2, "row 0 not sorted/simple"),
            (((1, 1), (0, 0)), 1, "row 0 not sorted/simple"),
            (((0, 1), (0,)), 1, "loop at 0"),
            (((1,), ()), 1, r"asymmetric edge \(0,1\)"),
            (((1,), (0,)), 2, "edge count cache inconsistent"),
        ],
        ids=["unsorted-row", "repeated-neighbour", "loop", "asymmetric-edge", "wrong-m"],
    )
    def test_bad_graph_rejected(self, adj, m, message):
        with pytest.raises(GraphValidityError, match=message):
            Graph._from_adj(adj, m).validate()


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
    def test_bfs_of_no_vertices_is_named(self):
        # min() of the empty set once raised a bare ValueError
        with pytest.raises(GraphValidityError, match="BFS vertex set must be non-empty"):
            bfs_levels(gen_path(3), [])

    def test_in_range_ids_are_normalised(self):
        assert checked_vset(gen_path(3), [2, 0, 2]) == (0, 2)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_id_is_named(self, bad):
        with pytest.raises(GraphValidityError, match=f"vertex {bad} out of range"):
            checked_vset(gen_path(3), [0, bad])

    @pytest.mark.parametrize(
        "helper, ids, bad",
        [
            (components_within, [-1, 2], -1),
            (bfs_levels, [-1, 0], -1),
            (components_within, [0, 3], 3),
            (bfs_levels, [0, 3], 3),
        ],
        ids=["components-negative", "bfs-negative", "components-n", "bfs-n"],
    )
    def test_traversals_name_a_bad_id(self, helper, ids, bad):
        # -1 once indexed G.adj from the end and came back as a vertex
        with pytest.raises(GraphValidityError, match=f"vertex {bad} out of range"):
            helper(gen_path(3), ids)
