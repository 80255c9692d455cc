"""Desk-scale acceptance checks: exact brute-force reproductions of the
constructive results plus property audits on every pipeline output."""

import itertools
import random

from islandkit.coloring import (
    adversarial_list,
    chi_C_bruteforce,
    greedy_clustered_coloring,
    greedy_palette_for_clustering,
    verify_coloring,
    verify_no_good_list_coloring,
)
from islandkit.decomposition import PathDecomposition, treewidth_decomposition
from islandkit.graphs import (
    Graph,
    gen_complete_bipartite,
    gen_fan,
    gen_hex_grid,
    gen_outerplanar_gadget,
    gen_path,
    gen_triangulated_grid,
    verify_minor_model,
    vset,
)
from islandkit.islands import (
    SparseIslandParams,
    disjoint_islands,
    find_island_sparse,
    is_island,
    min_island_size_bruteforce,
)
from islandkit.percolation import duality_check
from islandkit.separators import shatter, bfs_level_separator, verify_shatter
from islandkit.surgery import (
    island_or_minor,
    make_appearance_universal,
    make_large_interiors,
    make_linked,
    tree_to_path,
)

from conftest import random_bounded_degree_graph, random_graph


def sparse_finder(alpha):
    def finder(g, t):
        params = SparseIslandParams(t=t, alpha=alpha)
        return find_island_sparse(g, params)[0].members

    return finder


def test_criterion_01_duality_suite():
    rng = random.Random(1)
    checked = 0
    while checked < 500:
        n = rng.randint(1, 11)
        G = random_graph(rng, n, rng.uniform(0.1, 0.7))
        t = rng.randint(1, 3)
        seeds = tuple(v for v in range(n) if rng.random() < 0.4)
        verdict = duality_check(G, seeds, t)
        assert verdict.ok, (n, t, seeds)
        checked += 1


def test_criterion_02_surface_bound_upper_half():
    for dim in (10, 20, 30, 40, 50):
        G = gen_triangulated_grid(dim, dim)
        params = SparseIslandParams(t=4, alpha=0.3)
        cert, C = find_island_sparse(G, params)
        assert is_island(G, cert.members, 4).ok
        assert len(cert.members) <= C
    G = gen_triangulated_grid(50, 50)
    col, trace = greedy_clustered_coloring(G, 4, sparse_finder(0.3))
    assert verify_coloring(G, col, col.achieved_clustering).ok
    assert col.achieved_clustering <= trace.max_island_size


def test_criterion_03_girth_bound():
    for r, c in ((5, 5), (10, 12), (21, 21)):  # up to 946 vertices
        G = gen_hex_grid(r, c)
        assert G.n <= 1000
        params = SparseIslandParams(t=2, alpha=0.25)
        cert, C = find_island_sparse(G, params)
        assert is_island(G, cert.members, 2).ok
        assert len(cert.members) <= C
        col, trace = greedy_clustered_coloring(G, 2, sparse_finder(0.25))
        assert verify_coloring(G, col, trace.max_island_size).ok


def test_criterion_04_lower_bound_gadgets():
    for m in range(2, 9):
        size, _ = min_island_size_bruteforce(gen_complete_bipartite(2, m), 2)
        assert size == m
    fan_sizes = []
    for m in range(2, 11):
        size, _ = min_island_size_bruteforce(gen_fan(1, m), 2)
        fan_sizes.append(size)
        assert size == m  # grows without bound as m does
    assert fan_sizes == sorted(set(fan_sizes))


def test_criterion_05_adversarial_lists():
    for t, C in ((2, 1), (2, 2)):
        G, L, _ = adversarial_list(t, C)
        assert verify_no_good_list_coloring(G, L, C).ok


def test_criterion_06_outerplanar_separation():
    for C in (1, 2):
        G = gen_outerplanar_gadget(C)
        for k in range(1, G.n + 1):
            for S in itertools.combinations(range(G.n), k):
                if not is_island(G, S, 2).ok:
                    continue
                inside = set(S)
                max_deg = max(
                    sum(1 for u in G.adj[v] if u in inside) for v in S
                )
                assert max_deg > C, (C, S)


def test_criterion_07_shattering():
    rng = random.Random(7)
    corpus = [
        gen_path(2000),
        gen_triangulated_grid(40, 50),
        random_bounded_degree_graph(rng, 2000, 4),
        random_bounded_degree_graph(rng, 1500, 5),
    ]
    for G in corpus:
        report = shatter(G, 0.15, bfs_level_separator)
        verify_shatter(G, report.X, report.C, 0.15)
        nodes = {tn.node: tn for tn in report.tree_trace}
        for tn in report.tree_trace:
            if tn.parent != -1:
                assert tn.rank < nodes[tn.parent].rank


def test_criterion_08_disjoint_islands_count():
    for dim in (15, 25, 40):
        G = gen_triangulated_grid(dim, dim)
        params = SparseIslandParams(t=4, alpha=0.3)
        report = disjoint_islands(G, params)
        assert len(report.islands) >= report.required
        seen = set()
        for cert in report.islands:
            assert is_island(G, cert.members, 4).ok
            assert not seen & set(cert.members)
            seen.update(cert.members)


def test_criterion_09_decomposition_surgery_audits():
    corpus = []
    for n in range(10, 24):  # 14 paths
        G = gen_path(n)
        corpus.append((G, PathDecomposition(tuple(vset([i, i + 1]) for i in range(n - 1)))))
    for k in range(5, 18):  # 13 ladders
        edges = (
            [(i, i + 1) for i in range(k - 1)]
            + [(k + i, k + i + 1) for i in range(k - 1)]
            + [(i, k + i) for i in range(k)]
        )
        G = Graph(2 * k, edges)
        corpus.append(
            (G, PathDecomposition(tuple(vset([i, k + i, i + 1, k + i + 1]) for i in range(k - 1))))
        )
    for m in range(10, 25):  # 15 fans
        G = gen_fan(1, m)
        corpus.append((G, PathDecomposition(tuple(vset([i, i + 1, m]) for i in range(m - 1)))))
    for spine in range(5, 15):  # 10 caterpillars
        edges = [(i, i + 1) for i in range(spine - 1)] + [
            (i, spine + i) for i in range(spine)
        ]
        G = Graph(2 * spine, edges)
        corpus.append((G, tree_to_path(G, treewidth_decomposition(G)).decomposition))
    assert len(corpus) >= 50
    outcomes = {"islands": 0, "minor": 0, "order_too_small": 0}
    for G, P in corpus:
        linked = make_linked(G, P).decomposition  # audited internally
        appuniv = make_appearance_universal(G, linked).decomposition
        li = make_large_interiors(G, appuniv).decomposition  # audited internally
        result = island_or_minor(G, li, t=2, m=2, l=1)
        outcomes[result.kind] += 1
        if result.kind == "islands":
            for cert in result.certificates:
                assert is_island(G, cert.members, 2).ok
        elif result.kind == "minor":
            assert verify_minor_model(G, result.minor_host, result.model).ok
    assert outcomes["islands"] > 0 and outcomes["minor"] > 0


def test_criterion_10_greedy_vs_oracle():
    rng = random.Random(10)
    C = 2
    for _ in range(300):
        n = rng.randint(1, 9)
        G = random_graph(rng, n, rng.uniform(0.1, 0.6))
        t_greedy = greedy_palette_for_clustering(G, C)
        assert chi_C_bruteforce(G, C) <= t_greedy
        col, trace = greedy_clustered_coloring(
            G,
            t_greedy,
            lambda g, t: min_island_size_bruteforce(g, t, cap=20)[1],
        )
        assert verify_coloring(G, col, trace.max_island_size).ok
