import pytest
from hypothesis import given, settings

from islandkit.coloring import (
    ClusteredColoring,
    IslandFinderError,
    ListAssignment,
    adversarial_list,
    chi_C_bruteforce,
    greedy_clustered_coloring,
    greedy_clustered_list_coloring,
    greedy_palette_for_clustering,
    monochromatic_components,
    verify_coloring,
    verify_no_good_list_coloring,
)
from islandkit.graphs import (
    Graph,
    gen_complete_bipartite,
    gen_cycle,
    gen_path,
    gen_triangulated_grid,
)
from islandkit.islands import min_island_size_bruteforce

from conftest import graphs


def brute_finder(g: Graph, t: int):
    _, witness = min_island_size_bruteforce(g, t, cap=25)
    return witness


class TestMonochromatic:
    def test_components_split_by_color(self):
        G = gen_path(4)
        comps = monochromatic_components(G, [0, 0, 1, 1])
        assert sorted(comps) == [(0, 1), (2, 3)]

    def test_verify_coloring_bound(self):
        G = gen_path(4)
        col, _ = greedy_clustered_coloring(G, 2, brute_finder)
        assert verify_coloring(G, col, col.achieved_clustering).ok
        assert not verify_coloring(G, col, 0).ok

    @pytest.mark.parametrize("colors", [(0, 0, 1), (0, 0, 1, 1, 2)], ids=["short", "long"])
    def test_colour_count_must_be_n(self, colors):
        # a short tuple once raised a bare IndexError, a long one was accepted
        G = gen_path(4)
        message = f"{len(colors)} colours for a graph on n=4 vertices"
        with pytest.raises(ValueError, match=message):
            monochromatic_components(G, colors)
        with pytest.raises(ValueError, match=message):
            verify_coloring(G, ClusteredColoring(colors, 3, 2), 2)


class TestGreedy:
    def test_path_two_colors(self):
        G = gen_path(9)
        col, trace = greedy_clustered_coloring(G, 2, brute_finder)
        assert col.achieved_clustering <= trace.max_island_size

    def test_grid_four_colors(self):
        G = gen_triangulated_grid(5, 5)
        col, trace = greedy_clustered_coloring(G, 4, brute_finder)
        assert verify_coloring(G, col, trace.max_island_size).ok

    def test_mono_components_stay_inside_islands(self):
        # the peeled island never merges with outside same-color vertices
        G = gen_cycle(12)
        col, trace = greedy_clustered_coloring(G, 2, brute_finder)
        island_sets = [set(s) for s, _ in trace.steps]
        for comp in monochromatic_components(G, [col.colors[v] for v in range(G.n)]):
            assert any(set(comp) <= s for s in island_sets)

    def test_short_lists_rejected(self):
        G = gen_path(3)
        with pytest.raises(ValueError):
            greedy_clustered_list_coloring(
                G, ListAssignment(((0,), (0,), (0,)), 1), 2, brute_finder
            )

    @given(graphs(max_n=8, min_n=1))
    @settings(max_examples=40, deadline=None)
    def test_greedy_output_always_verifies(self, G):
        col, trace = greedy_clustered_coloring(G, 2, brute_finder)
        assert verify_coloring(G, col, trace.max_island_size).ok

    @pytest.mark.parametrize("t", [0, -1])
    def test_t_below_one_rejected_before_the_finder(self, t):
        def finder(g, t):
            raise AssertionError("finder called")

        G = gen_complete_bipartite(2, 3)
        with pytest.raises(ValueError, match=r"^t must be >= 1$"):
            greedy_clustered_coloring(G, t, finder)
        with pytest.raises(ValueError, match=r"^t must be >= 1$"):
            greedy_clustered_list_coloring(
                G, ListAssignment(((0, 1),) * G.n, 2), t, finder
            )

    def test_negative_finder_id_rejected(self):
        # -1 would otherwise index the last vertex of the residual
        with pytest.raises(IslandFinderError, match="invalid set"):
            greedy_clustered_coloring(gen_cycle(5), 2, lambda g, t: [-1])

    def test_non_island_names_the_original_vertex(self):
        # residual 1..4 after vertex 0 is peeled; local id 1 is vertex 2
        def finder(g, t):
            return [0] if g.n == 5 else [1]

        with pytest.raises(IslandFinderError, match="vertex 2 has 2 outside neighbors"):
            greedy_clustered_coloring(gen_path(5), 2, finder)


class TestOracle:
    def test_k4_needs_four_colors_at_clustering_one(self):
        K4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert chi_C_bruteforce(K4, 1) == 4

    def test_path_two_colors_suffice(self):
        assert chi_C_bruteforce(gen_path(5), 2) == 2

    def test_everything_one_color_when_clustering_allows(self):
        assert chi_C_bruteforce(gen_path(5), 5) == 1

    def test_greedy_palette_at_least_oracle(self):
        G = gen_cycle(7)
        t = greedy_palette_for_clustering(G, 2)
        assert chi_C_bruteforce(G, 2) <= t


class TestAdversarial:
    def test_instance_shape(self):
        G, L, m = adversarial_list(2, 1)
        assert G.n == m + 1  # path blocks plus one apex
        assert all(len(lst) == 2 for lst in L.lists)

    def test_2_1_has_no_good_coloring(self):
        G, L, _ = adversarial_list(2, 1)
        assert verify_no_good_list_coloring(G, L, 1).ok

    def test_counterexample_surfaces_when_lists_are_generous(self):
        G = gen_path(2)
        L = ListAssignment(((0, 1), (0, 1)), 2)
        verdict = verify_no_good_list_coloring(G, L, 1)
        assert not verdict.ok
        assert verdict.counterexample is not None

    def test_bipartite_target_out_of_scope(self):
        with pytest.raises(NotImplementedError):
            adversarial_list(2, 1, target="complete_bipartite")
