import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from islandkit import separators
from islandkit.graphs import (
    Graph,
    GraphValidityError,
    components_within,
    gen_complete_bipartite,
    gen_cycle,
    gen_path,
    gen_triangulated_grid,
)
from islandkit.separators import (
    SeparatorContractError,
    ShatterBudgetError,
    _cut_node,
    bfs_level_separator,
    brute_force_separator,
    shatter,
    verify_shatter,
)

from conftest import graphs, random_bounded_degree_graph
from test_separators_equivalence import (
    reference_balanced_split,
    reference_bfs_level_separator,
    reference_shatter,
)


def whole(G):
    return tuple(range(G.n))


class TestBruteForceSeparator:
    def test_path_middle(self):
        assert brute_force_separator(gen_path(3), whole(gen_path(3))) == (1,)

    def test_c6_order_two(self):
        assert len(brute_force_separator(gen_cycle(6), whole(gen_cycle(6)))) == 2

    def test_k4_order(self):
        K4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        # minimum order over balanced cuts, by exhaustion
        assert len(brute_force_separator(K4, whole(K4))) == 2

    @given(graphs(max_n=8, min_n=2))
    @settings(max_examples=40, deadline=None)
    def test_output_is_balanced_separation(self, G):
        cut = brute_force_separator(G, whole(G))
        parts = components_within(G, set(range(G.n)).difference(cut))
        assert all(3 * len(part) <= 2 * G.n for part in parts)


class TestBfsSeparator:
    def test_path_separator_small(self):
        assert len(bfs_level_separator(gen_path(99), whole(gen_path(99)))) == 1

    def test_grid_separator_valid(self):
        G = gen_triangulated_grid(8, 8)
        cut = bfs_level_separator(G, whole(G))
        parts = components_within(G, set(range(G.n)).difference(cut))
        assert 0 < len(cut) < G.n
        assert all(3 * len(part) <= 2 * G.n for part in parts)

    def test_disconnected_subset_is_rejected(self):
        with pytest.raises(GraphValidityError, match="connected vertex set"):
            bfs_level_separator(gen_path(9), (0, 1, 5))


class TestOraclesCheckIds:
    """A negative id would otherwise index G.adj from the end."""

    @pytest.mark.parametrize("oracle", [bfs_level_separator, brute_force_separator])
    @pytest.mark.parametrize("bad", [-1, 5])
    def test_bad_id_is_named(self, oracle, bad):
        with pytest.raises(GraphValidityError, match=f"vertex {bad} out of range for n=5"):
            oracle(gen_path(5), (0, 1, bad))


class TestBalancedSplitLemma:
    """Parts summing to at most n split into two groups of at most 2n/3
    each exactly when the largest part is at most 2n/3: the balance check
    of a cut reads the largest part alone."""

    @given(st.lists(st.integers(0, 60), max_size=16), st.integers(0, 40))
    @settings(max_examples=300, deadline=None)
    def test_exact_split_exists_iff_largest_part_fits(self, sizes, extra):
        n = sum(sizes) + extra
        assert (reference_balanced_split(sizes, n) is None) == (3 * max(sizes, default=0) > 2 * n)

    @given(st.lists(st.integers(0, 60), min_size=17, max_size=40), st.integers(0, 40))
    @settings(max_examples=100, deadline=None)
    def test_greedy_split_exists_iff_largest_part_fits(self, sizes, extra):
        n = sum(sizes) + extra
        assert (reference_balanced_split(sizes, n) is None) == (3 * max(sizes) > 2 * n)


class TestShatter:
    def test_path_within_budget(self):
        G = gen_path(100)
        report = shatter(G, 0.1, bfs_level_separator)
        verify_shatter(G, report.X, report.C, 0.1)
        assert len(report.X) <= 10

    def test_ranks_strictly_decrease(self):
        G = gen_triangulated_grid(15, 15)
        report = shatter(G, 0.2, bfs_level_separator)
        nodes = {tn.node: tn for tn in report.tree_trace}
        for tn in report.tree_trace:
            if tn.parent != -1:
                assert tn.rank < nodes[tn.parent].rank

    def test_audit_rejects_bad_report(self):
        G = gen_path(10)
        with pytest.raises(ShatterBudgetError):
            verify_shatter(G, (0, 1, 2, 3, 4), 5, 0.1)

    @pytest.mark.parametrize("bad", [99, -1])
    def test_audit_names_a_vertex_outside_the_graph(self, bad):
        with pytest.raises(GraphValidityError, match=f"vertex {bad} out of range for n=3"):
            verify_shatter(gen_path(3), [bad], 3, 1)

    def test_component_bound_honored(self):
        G = gen_triangulated_grid(12, 12)
        report = shatter(G, 0.25, bfs_level_separator)
        remaining = set(range(G.n)) - set(report.X)
        from islandkit.graphs import components_within

        assert all(len(c) <= report.C for c in components_within(G, remaining))

    def test_bounded_degree_random_graphs(self, rng):
        for n in (50, 200, 500):
            G = random_bounded_degree_graph(rng, n, 4)
            report = shatter(G, 0.2, bfs_level_separator)
            verify_shatter(G, report.X, report.C, 0.2)


class TestWorkCounts:
    """Call counts pin the complexity without wall-clock asserts."""

    def _count(self, monkeypatch, name):
        calls = []
        real = getattr(separators, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(separators, name, counted)
        return calls

    def test_one_components_pass_per_separator_call(self, monkeypatch):
        passes = self._count(monkeypatch, "components_within")
        cuts = self._count(monkeypatch, "bfs_level_separator")
        G = gen_triangulated_grid(20, 20)
        shatter(G, 0.3, separators.bfs_level_separator)
        # one pass per expanded node, plus the roots and the verification
        assert len(cuts) > 1
        assert len(passes) == len(cuts) + 2

    @pytest.mark.parametrize(
        "G",
        [gen_triangulated_grid(20, 20), gen_path(300), gen_complete_bipartite(1, 40)],
        ids=["grid", "path", "star"],
    )
    def test_one_split_per_separator_call(self, monkeypatch, G):
        calls = self._count(monkeypatch, "components_within")
        cut, parts = _cut_node(G, whole(G), bfs_level_separator)
        # the oracle makes no components pass; the node's check makes one
        assert len(calls) == 1
        assert cut == reference_bfs_level_separator(G).cut
        assert parts == components_within(G, set(range(G.n)).difference(cut))

    def test_shatter_verifies_once(self, monkeypatch, rng):
        calls = self._count(monkeypatch, "verify_shatter")
        G = random_bounded_degree_graph(rng, 500, 4)
        report = shatter(G, 0.05, bfs_level_separator)
        # the first candidate misses the budget, so several were weighed
        assert report.C > math.ceil(math.sqrt(G.n))
        assert len(calls) == 1

    def test_shatter_cuts_only_the_nodes_its_bound_reads(self, monkeypatch):
        calls = self._count(monkeypatch, "bfs_level_separator")
        G = gen_triangulated_grid(40, 40)  # c0 = 40; C = 1280 is the least meeting the budget
        eps = Fraction(3, 80)
        report = shatter(G, eps, separators.bfs_level_separator)
        assert report.C == 1280
        assert len(calls) <= 2  # a tree built down to c0 would make 44 calls
        assert (report.X, report.C, report.tree_trace) == reference_shatter(
            G, eps, reference_bfs_level_separator
        )

    def test_shatter_at_the_smallest_bound_cuts_every_node(self, monkeypatch):
        calls = self._count(monkeypatch, "bfs_level_separator")
        G = gen_path(2000)
        report = shatter(G, 0.15, separators.bfs_level_separator)
        assert report.C == math.ceil(math.sqrt(G.n))
        assert len(calls) == 63

    def test_unbalanced_root_is_a_contract_error(self):
        G = gen_path(100)

        def lopsided(g, subset):  # cut vertex 0 alone, everything else in one part
            return (0,)

        message = r"unbalanced separation at the node of size 100 with smallest vertex 0"
        with pytest.raises(SeparatorContractError, match=message):
            shatter(G, 0.1, lopsided)


class TestContractErrors:
    """_cut_node names each way an oracle's cut can break the contract."""

    @pytest.mark.parametrize(
        "cut, message",
        [
            ((5, 50), "oracle cut vertices outside the node of size 10 with smallest vertex 0"),
            ((-1,), "oracle cut vertices outside the node"),
            ((), "empty cut for a connected subgraph at the node of size 10"),
            ((0,), "unbalanced separation at the node of size 10"),
        ],
        ids=["outside", "negative", "empty", "unbalanced"],
    )
    def test_bad_cut_is_named(self, cut, message):
        G = gen_path(100)
        with pytest.raises(SeparatorContractError, match=message):
            _cut_node(G, tuple(range(10)), lambda g, subset: cut)

    def test_balanced_cut_passes(self):
        G = gen_path(100)
        cut, parts = _cut_node(G, tuple(range(10)), lambda g, subset: (6, 3))
        assert cut == (3, 6)
        assert parts == [(0, 1, 2), (4, 5), (7, 8, 9)]
