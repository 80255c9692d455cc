import math
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings

from islandkit.graphs import (
    GraphValidityError,
    gen_complete_bipartite,
    gen_path,
    gen_triangulated_grid,
)
from islandkit.islands import (
    DensityPreconditionError,
    GraphTooLarge,
    IslandCertificate,
    NotAnEnclave,
    SparseIslandParams,
    density_below,
    disjoint_islands,
    find_island_sparse,
    incident_edge_count,
    is_enclave,
    is_island,
    min_island_size_bruteforce,
    shrink_enclave_to_island,
)
from islandkit.separators import bfs_level_separator, shatter

from conftest import graphs, random_graph


class TestIsIsland:
    def test_whole_graph_is_always_an_island(self):
        G = gen_path(5)
        assert is_island(G, range(5), 1).ok

    def test_witness_on_failure(self):
        G = gen_complete_bipartite(2, 3)
        verdict = is_island(G, [2], 2)
        assert not verdict.ok
        assert verdict.witness == 2
        assert verdict.witness_outside_degree == 2

    def test_certificate_records_members_and_t(self):
        G = gen_path(4)
        assert is_island(G, [2, 1], 2).certificate == IslandCertificate((1, 2), 2)

    @given(graphs(max_n=8))
    @settings(max_examples=50, deadline=None)
    def test_island_definition_pointwise(self, G):
        S = [v for v in range(G.n) if v % 2 == 0]
        verdict = is_island(G, S, 2)
        expected = all(
            sum(1 for u in G.adj[v] if u not in set(S)) < 2 for v in S
        )
        assert verdict.ok == expected


    def test_negative_member_rejected(self):
        # -1 once passed as the last vertex, so V plus -1 was "an island"
        with pytest.raises(GraphValidityError, match="vertex -1"):
            is_island(gen_path(3), [-1, 0, 1, 2], 1)


class TestEnclaves:
    def test_edge_count(self):
        G = gen_path(4)
        assert incident_edge_count(G, [1, 2]) == 3

    def test_enclave_shrinks_to_island(self):
        G = gen_complete_bipartite(2, 3)
        assert is_enclave(G, range(5), 2)
        cert = shrink_enclave_to_island(G, range(5), 2)
        assert is_island(G, cert.members, 2).ok

    def test_not_an_enclave_raises(self):
        G = gen_complete_bipartite(3, 3)
        with pytest.raises(NotAnEnclave):
            shrink_enclave_to_island(G, [0, 3], 1)

    @given(graphs(max_n=8, min_n=2))
    @settings(max_examples=60, deadline=None)
    def test_shrink_yields_island_subset(self, G):
        t = 2
        A = tuple(range(G.n))
        if not is_enclave(G, A, t):
            return
        cert = shrink_enclave_to_island(G, A, t)
        assert set(cert.members) <= set(A)
        assert cert.members  # enclaves never shrink to nothing
        assert is_island(G, cert.members, t).ok

    def test_negative_id_rejected_by_incident_edge_count(self):
        # -1 once indexed the last vertex and counted its edge
        with pytest.raises(GraphValidityError, match="vertex -1"):
            incident_edge_count(gen_path(3), [-1])

    def test_negative_id_rejected_by_shrink_enclave_to_island(self):
        # -1 once appeared in the enclave's member set
        with pytest.raises(GraphValidityError, match="vertex -1"):
            shrink_enclave_to_island(gen_path(3), [-1, 0], 2)

    def test_out_of_range_id_rejected_by_is_enclave(self):
        with pytest.raises(GraphValidityError, match="vertex -1"):
            is_enclave(gen_path(3), [-1, 0], 2)
        with pytest.raises(GraphValidityError, match="vertex 3"):
            is_enclave(gen_path(3), [0, 3], 2)


class TestBruteForce:
    def test_k23_min_2_island(self):
        size, witness = min_island_size_bruteforce(gen_complete_bipartite(2, 3), 2)
        assert size == 3
        assert is_island(gen_complete_bipartite(2, 3), witness, 2).ok

    def test_t_above_max_degree(self):
        size, witness = min_island_size_bruteforce(gen_complete_bipartite(2, 3), 9)
        assert size == 1 and witness == (0,)

    def test_cap_enforced(self):
        with pytest.raises(GraphTooLarge):
            min_island_size_bruteforce(gen_path(30), 2, cap=20)

    def test_t_below_one_rejected(self):
        with pytest.raises(ValueError, match="t must be >= 1"):
            min_island_size_bruteforce(gen_path(3), 0)


class TestSparsePipeline:
    def test_density_precondition(self):
        assert density_below(gen_triangulated_grid(8, 8), 4, Fraction(3, 10))
        assert not density_below(gen_complete_bipartite(5, 5), 2, Fraction(1, 4))

    def test_dense_input_rejected(self):
        params = SparseIslandParams(t=2, alpha=0.25)
        with pytest.raises(DensityPreconditionError):
            find_island_sparse(gen_complete_bipartite(5, 5), params)

    def test_grid_island_certified(self):
        G = gen_triangulated_grid(12, 12)
        params = SparseIslandParams(t=4, alpha=0.3)
        cert, C = find_island_sparse(G, params)
        assert is_island(G, cert.members, 4).ok
        assert len(cert.members) <= C

    def test_reused_params_return_each_graphs_own_C(self):
        params = SparseIslandParams(t=4, alpha=0.3)
        bounds = []
        for G in (gen_triangulated_grid(12, 12), gen_triangulated_grid(4, 4)):
            cert, C = find_island_sparse(G, params)
            assert C == shatter(G, params.epsilon, bfs_level_separator).C
            assert len(cert.members) <= C
            bounds.append(C)
        assert bounds[0] != bounds[1]  # a stale C would carry over

    def test_params_are_frozen(self):
        params = SparseIslandParams(t=4, alpha=0.3)
        assert params.alpha == Fraction(3, 10)
        with pytest.raises(FrozenInstanceError):
            params.t = 5
        with pytest.raises(FrozenInstanceError):
            params.C = 7

    def test_disjoint_islands_report(self):
        G = gen_triangulated_grid(20, 20)
        params = SparseIslandParams(t=4, alpha=0.3)
        report = disjoint_islands(G, params)
        seen = set()
        for cert in report.islands:
            assert is_island(G, cert.members, 4).ok
            assert not seen & set(cert.members)
            seen.update(cert.members)
        assert len(report.islands) >= report.required
        assert report.required == math.ceil(report.delta * G.n)

    def test_delta_formula(self):
        params = SparseIslandParams(t=4, alpha=0.3)
        assert params.epsilon == Fraction(3, 80)
        assert params.delta(100) == Fraction(3, 80) / 100

    def test_random_sparse_graphs_yield_verified_islands(self, rng):
        for _ in range(10):
            G = random_graph(rng, 40, 0.05)
            params = SparseIslandParams(t=3, alpha=0.5)
            if not density_below(G, 3, params.alpha):
                continue
            cert, _ = find_island_sparse(G, params)
            assert is_island(G, cert.members, 3).ok
