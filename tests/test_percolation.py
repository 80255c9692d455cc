import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from islandkit import percolation
from islandkit.graphs import GraphValidityError, gen_complete_bipartite, gen_cycle, gen_path
from islandkit.islands import is_island
from islandkit.percolation import (
    budget_for,
    duality_check,
    percolate,
    resistance_exhaustive,
    resistance_via_islands,
    t_percolates,
)

from conftest import graphs, random_graph


class TestPercolate:
    def test_k23_seeds_left_side(self):
        G = gen_complete_bipartite(2, 3)
        run = percolate(G, (0, 1), 2)
        assert len(run.final_active) == 5

    def test_path_interval_fills(self):
        G = gen_path(4)
        run = percolate(G, (0, 2), 2)
        assert set(run.final_active) == {0, 1, 2}

    def test_activations_are_justified(self):
        # every non-seed activation had >= t neighbors active strictly earlier
        G = gen_cycle(8)
        seeds = (0, 1, 4, 5)
        t = 1
        run = percolate(G, seeds, t)
        steps = {v: s for v, s in run.activation_order}
        for v, s in run.activation_order:
            earlier = sum(
                1
                for u in G.adj[v]
                if u in seeds or (u in steps and steps[u] < s)
            )
            assert earlier >= t

    @given(graphs(max_n=8), st.integers(min_value=1, max_value=3), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_order_independence(self, G, t, rnd):
        """The closure is a fixed point: any activation schedule lands on
        the same final set."""
        seeds = tuple(v for v in G.vertices() if v % 3 == 0)
        expected = set(percolate(G, seeds, t).final_active)
        active = set(seeds)
        frontier = True
        while frontier:
            candidates = [
                v
                for v in G.vertices()
                if v not in active
                and sum(1 for u in G.adj[v] if u in active) >= t
            ]
            frontier = bool(candidates)
            if candidates:
                active.add(rnd.choice(candidates))
        assert active == expected


    def test_negative_seed_rejected(self):
        # -1 once indexed the last vertex and reported 4 active of 3
        with pytest.raises(GraphValidityError, match="vertex -1"):
            percolate(gen_path(3), [-1], 1)

    def test_seed_past_the_end_rejected(self):
        with pytest.raises(GraphValidityError, match="vertex 3"):
            percolate(gen_path(3), [0, 3], 1)


class TestBudget:
    def test_budget_is_floor(self):
        assert budget_for(0.34, 6) == 2
        assert budget_for(0.5, 5) == 2
        assert budget_for(1, 7) == 7


class TestResistance:
    def test_exhaustive_on_cycle(self):
        G = gen_cycle(6)
        report = resistance_exhaustive(G, 2, 0.34)
        assert report.verdict == "resistant"

    def test_exhaustive_finds_witness(self):
        G = gen_path(3)
        report = resistance_exhaustive(G, 1, 0.34)
        assert report.verdict == "percolates"
        assert t_percolates(G, report.witness, 1)

    def test_via_islands_certifies(self):
        # 3 disjoint copies of an edge: each edge is a 2-island
        from islandkit.graphs import Graph

        G = Graph(6, [(0, 1), (2, 3), (4, 5)])
        family = [is_island(G, (2 * i, 2 * i + 1), 2).certificate for i in range(3)]
        report = resistance_via_islands(G, 2, 0.34, family)
        assert report.verdict == "resistant"

    def test_via_islands_small_family_inconclusive(self):
        G = gen_cycle(9)
        family = [is_island(G, (0, 1, 2), 2).certificate]
        report = resistance_via_islands(G, 2, 0.34, family)
        assert report.verdict == "inconclusive"

    def test_agreement_on_random_graphs(self, rng):
        for _ in range(15):
            G = random_graph(rng, 8, 0.3)
            exhaustive = resistance_exhaustive(G, 2, 0.3)
            if exhaustive.verdict == "resistant":
                # any sufficiently large verified disjoint family must agree
                assert not t_percolates(G, (), 2) or G.n == 0


class TestDuality:
    def test_path_example(self):
        G = gen_path(4)
        verdict = duality_check(G, (0, 2), 2)
        assert verdict.ok
        assert not verdict.percolates
        assert verdict.island_in_complement is not None

    @given(graphs(max_n=9), st.integers(min_value=1, max_value=3), st.data())
    @settings(max_examples=80, deadline=None)
    def test_duality_random(self, G, t, data):
        seeds = data.draw(
            st.lists(st.integers(min_value=0, max_value=G.n - 1), unique=True)
        )
        verdict = duality_check(G, tuple(seeds), t)
        assert verdict.ok

    def test_a_disagreeing_peel_fails_the_check(self, monkeypatch):
        # the process and the exhaustive scan agree; only the peel lies
        G, seeds, t = gen_path(4), (0,), 1
        truth = t_percolates(G, seeds, t)
        assert truth and duality_check(G, seeds, t).ok
        monkeypatch.setattr(percolation, "t_percolates", lambda G, A0, t: truth)
        monkeypatch.setattr(percolation, "peel", lambda G, W, t: ((), (max(W),)))
        verdict = duality_check(G, seeds, t)
        assert verdict.percolates and verdict.island_in_complement is None
        assert not verdict.ok
