import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from islandkit import separators
from islandkit.graphs import (
    Graph,
    gen_complete_bipartite,
    gen_cycle,
    gen_path,
    gen_triangulated_grid,
)
from islandkit.separators import (
    SeparatorBudget,
    SeparatorContractError,
    ShatterBudgetError,
    _balanced_split,
    bfs_level_separator,
    brute_force_separator,
    default_shatterer,
    shatter,
    verify_shatter,
)

from conftest import graphs, random_bounded_degree_graph


class TestBruteForceSeparator:
    def test_path_middle(self):
        sep = brute_force_separator(gen_path(3))
        assert sep.cut == (1,)

    def test_c6_order_two(self):
        sep = brute_force_separator(gen_cycle(6))
        assert sep.order == 2

    def test_k4_order(self):
        K4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        sep = brute_force_separator(K4)
        # minimum order over balanced separations, by exhaustion
        assert sep.order == 2

    @given(graphs(max_n=8, min_n=2))
    @settings(max_examples=40, deadline=None)
    def test_output_is_balanced_separation(self, G):
        sep = brute_force_separator(G)
        sep.validate(G)
        bound = 2 * G.n / 3
        assert len(set(sep.left) - set(sep.right)) <= bound
        assert len(set(sep.right) - set(sep.left)) <= bound


class TestBfsSeparator:
    def test_path_separator_small(self):
        sep = bfs_level_separator(gen_path(99))
        sep.validate(gen_path(99))
        assert sep.order == 1

    def test_grid_separator_valid(self):
        G = gen_triangulated_grid(8, 8)
        sep = bfs_level_separator(G)
        sep.validate(G)
        assert 0 < sep.order < G.n


class TestBalancedSplitLemma:
    """Parts summing to at most n split into two groups of at most 2n/3
    each exactly when the largest part is at most 2n/3."""

    @given(st.lists(st.integers(0, 60), max_size=16), st.integers(0, 40))
    @settings(max_examples=300, deadline=None)
    def test_exact_split_exists_iff_largest_part_fits(self, sizes, extra):
        n = sum(sizes) + extra
        assert (_balanced_split(sizes, n) is None) == (3 * max(sizes, default=0) > 2 * n)

    @given(st.lists(st.integers(0, 60), min_size=17, max_size=40), st.integers(0, 40))
    @settings(max_examples=100, deadline=None)
    def test_greedy_split_exists_iff_largest_part_fits(self, sizes, extra):
        n = sum(sizes) + extra
        assert (_balanced_split(sizes, n) is None) == (3 * max(sizes) > 2 * n)


class TestBudget:
    def test_sqrt_budget_is_sublinear(self):
        budget = SeparatorBudget("sqrt", 2)
        assert budget.is_significantly_sublinear()
        assert budget.f(100) == 20

    def test_component_bound_decreases_with_epsilon(self):
        budget = SeparatorBudget("sqrt", 1)
        assert budget.component_bound(0.5) <= budget.component_bound(0.05)

    @pytest.mark.parametrize(
        "family, coeff, message",
        [
            ("bogus", 1.0, "unknown budget family 'bogus'"),
            ("sqrt", 0, "positive and finite"),
            ("constant", -1.5, "positive and finite"),
            ("n_over_log2", math.nan, "positive and finite"),
            ("sqrt", math.inf, "positive and finite"),
        ],
    )
    def test_bad_budget_rejected_at_construction(self, family, coeff, message):
        with pytest.raises(ValueError, match=message):
            SeparatorBudget(family, coeff)


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

    def test_component_bound_honored(self):
        G = gen_triangulated_grid(12, 12)
        report = shatter(G, 0.25, bfs_level_separator)
        remaining = set(range(G.n)) - set(report.X)
        from islandkit.graphs import components_within

        assert all(len(c) <= report.C for c in components_within(G, remaining))

    def test_unmeetable_budget_fails_honestly(self):
        # a constant-1 separator budget is a promise K_{8,8} cannot keep
        G = gen_complete_bipartite(8, 8)
        budget = SeparatorBudget("constant", 1)
        with pytest.raises((ShatterBudgetError, SeparatorContractError)):
            shatter(G, 0.9, bfs_level_separator, budget=budget)

    def test_bounded_degree_random_graphs(self, rng):
        for n in (50, 200, 500):
            G = random_bounded_degree_graph(rng, n, 4)
            report = default_shatterer(G, 0.2)
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
        calls = self._count(monkeypatch, "components_within")
        G = gen_triangulated_grid(20, 20)  # 39 BFS levels
        bfs_level_separator(G)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "G",
        [gen_triangulated_grid(20, 20), gen_path(300), gen_complete_bipartite(1, 40)],
        ids=["grid", "path", "star"],
    )
    def test_one_split_per_separator_call(self, monkeypatch, G):
        calls = self._count(monkeypatch, "_balanced_split")
        sep = bfs_level_separator(G)
        sep.validate(G)
        assert len(calls) == 1

    def test_shatter_verifies_once(self, monkeypatch, rng):
        calls = self._count(monkeypatch, "verify_shatter")
        G = random_bounded_degree_graph(rng, 500, 4)
        report = shatter(G, 0.05, bfs_level_separator)
        # the first candidate misses the budget, so several were weighed
        assert report.C > math.ceil(math.sqrt(G.n))
        assert len(calls) == 1
