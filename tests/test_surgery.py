import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from islandkit import surgery
from islandkit.decomposition import (
    Linkage,
    PathDecomposition,
    TreeDecomposition,
    find_linkage,
    restore_properness,
    treewidth_decomposition,
    validate_decomposition,
)
from islandkit.graphs import (
    Graph,
    Separation,
    gen_complete_bipartite,
    gen_fan,
    gen_path,
    gen_triangulated_grid,
    induced_subgraph,
    vset,
    verify_minor_model,
)
from islandkit.islands import is_island

from conftest import linkage_keys, random_bounded_degree_graph
from islandkit.surgery import (
    AuditError,
    _linkage_violation,
    audit_appearance_universal,
    audit_large_interiors,
    audit_linked,
    bag_linkages,
    coarsen_by_blocks,
    extended_bags,
    island_or_minor,
    make_appearance_universal,
    make_large_interiors,
    make_linked,
    tree_to_path,
    verify_coarsening,
)


def ladder(k: int) -> Graph:
    """Two parallel paths of length k with rungs."""
    edges = []
    for i in range(k - 1):
        edges.append((i, i + 1))
        edges.append((k + i, k + i + 1))
    for i in range(k):
        edges.append((i, k + i))
    return Graph(2 * k, edges)


def ladder_decomposition(k: int) -> PathDecomposition:
    return PathDecomposition(
        tuple(vset([i, k + i, i + 1, k + i + 1]) for i in range(k - 1))
    )


def caterpillar(spine: int) -> Graph:
    """Path with one leg per spine vertex; leaves get the high ids."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + i) for i in range(spine)]
    return Graph(2 * spine, edges)


def fan_decomposition(m: int, apex: int) -> PathDecomposition:
    return PathDecomposition(tuple(vset([i, i + 1, apex]) for i in range(m - 1)))


class TestTreeToPath:
    def test_path_graph_passthrough(self):
        G = gen_path(8)
        T = treewidth_decomposition(G)
        result = tree_to_path(G, T)
        assert validate_decomposition(G, result.decomposition).ok
        assert result.decomposition.proper

    def test_star_tree(self):
        # star graph: decomposition tree is itself a star
        G = Graph(7, [(0, i) for i in range(1, 7)])
        T = treewidth_decomposition(G)
        result = tree_to_path(G, T)
        assert validate_decomposition(G, result.decomposition).ok

    def test_empty_graph(self):
        result = tree_to_path(Graph(0, []), TreeDecomposition((), ()))
        assert result.decomposition.order == 0

    def test_disconnected_graph(self):
        G = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        T = treewidth_decomposition(G)
        result = tree_to_path(G, T)
        assert validate_decomposition(G, result.decomposition).ok


class TestDecompositionKind:
    """A stage given the other kind of decomposition names itself."""

    TREE = treewidth_decomposition(gen_path(4))
    PATH = PathDecomposition(((0, 1), (1, 2), (2, 3)))

    @pytest.mark.parametrize(
        "stage, run",
        [
            ("tree_to_path", lambda G, T, P: tree_to_path(G, P)),
            ("make_linked", lambda G, T, P: make_linked(G, T)),
            ("make_appearance_universal", lambda G, T, P: make_appearance_universal(G, T)),
            ("make_large_interiors", lambda G, T, P: make_large_interiors(G, T)),
            ("island_or_minor", lambda G, T, P: island_or_minor(G, T, 2, 2, 1)),
            ("restore_properness", lambda G, T, P: restore_properness(T)),
        ],
    )
    def test_wrong_kind_is_a_named_error(self, stage, run, validations):
        want, got = ("PathDecomposition", "TreeDecomposition")
        if stage == "tree_to_path":
            want, got = got, want
        with pytest.raises(TypeError, match=f"^{stage} needs a {want}, got a {got}$"):
            run(gen_path(4), self.TREE, self.PATH)
        assert validations == []  # the kind is checked before any validation


class TestCoarsening:
    def test_witness_verifies(self):
        P = PathDecomposition(((0, 1), (1, 2), (2, 3), (3, 4)))
        Q = coarsen_by_blocks(P, [(0, 1), (2, 3)])
        verify_coarsening(P, Q, [(0, 1), (2, 3)])
        assert Q.bags == ((0, 1, 2), (2, 3, 4))

    def test_bad_witness_rejected(self):
        P = PathDecomposition(((0, 1), (1, 2), (2, 3), (3, 4)))
        Q = coarsen_by_blocks(P, [(0, 1), (2, 3)])
        with pytest.raises(AuditError):
            verify_coarsening(P, Q, [(0, 2), (3, 3)])

    def test_blocks_must_tile(self):
        P = PathDecomposition(((0, 1), (1, 2)))
        with pytest.raises(ValueError):
            coarsen_by_blocks(P, [(0, 0)])


class TestMakeLinked:
    def test_ladder_already_linked(self):
        G = ladder(8)
        P = ladder_decomposition(8)
        assert audit_linked(G, P).ok
        result = make_linked(G, P)
        assert result.decomposition.order == P.order

    def test_broken_bag_detected(self):
        # a bag whose boundary pairs are separated by a single cut vertex
        G = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (2, 4)])
        P = PathDecomposition(((0, 1, 2), (0, 2, 3, 4), (3, 4)))
        broken = {
            z for z, res in bag_linkages(G, P).items() if isinstance(res, Separation)
        }
        assert 1 in broken or audit_linked(G, P).ok

    def test_fan_decomposition_linked(self):
        G = gen_fan(1, 20)
        result = make_linked(G, fan_decomposition(20, 20))
        assert audit_linked(G, result.decomposition).ok
        assert result.decomposition.order >= 10

    def test_caterpillar(self):
        G = caterpillar(10)
        T = treewidth_decomposition(G)
        P = tree_to_path(G, T).decomposition
        result = make_linked(G, P)
        assert audit_linked(G, result.decomposition).ok
        assert validate_decomposition(G, result.decomposition).ok


class TestAppearanceUniversal:
    def test_fan_apex_becomes_universal(self):
        P = fan_decomposition(20, 20)
        result = make_appearance_universal(gen_fan(1, 20), P)
        assert audit_appearance_universal(result.decomposition).ok
        assert result.intervals is not None
        verify_coarsening(P, result.decomposition, result.intervals)

    def test_long_run_vertex_peeled(self):
        # vertex 9 runs through the middle five bags
        bags = [vset([i, i + 1]) for i in range(8)]
        bags = [
            vset(set(b) | {9}) if 2 <= i <= 6 else b for i, b in enumerate(bags)
        ]
        P = PathDecomposition(tuple(bags))
        result = make_appearance_universal(Graph(10, []), P)
        assert audit_appearance_universal(result.decomposition).ok
        verify_coarsening(P, result.decomposition, result.intervals)

    def test_idempotent_on_clean_input(self):
        P = PathDecomposition(((0, 1), (1, 2), (2, 3)))
        result = make_appearance_universal(gen_path(4), P)
        assert result.decomposition.bags == P.bags


class TestLargeInteriors:
    def test_triple_merge(self):
        G = gen_path(10)
        P = PathDecomposition(tuple(vset([i, i + 1]) for i in range(9)))
        result = make_large_interiors(G, P)
        assert audit_large_interiors(G, result.decomposition).ok
        assert result.decomposition.order == 3

    def test_requires_appearance_universal(self):
        bags = [vset([i, i + 1]) for i in range(8)]
        bags = [
            vset(set(b) | {9}) if 2 <= i <= 6 else b for i, b in enumerate(bags)
        ]
        P = PathDecomposition(tuple(bags))
        with pytest.raises(AuditError):
            make_large_interiors(Graph(10, []), P)

    def test_improper_input_names_the_stage(self):
        P = PathDecomposition(((0, 1), (1, 2), (2, 3), (2, 3)))
        with pytest.raises(
            AuditError, match="^make_large_interiors: input decomposition is not proper$"
        ):
            make_large_interiors(gen_path(4), P)

    def test_not_appearance_universal_names_the_stage(self):
        bags = [vset([i, i + 1]) for i in range(8)]
        bags = [
            vset(set(b) | {9}) if 2 <= i <= 6 else b for i, b in enumerate(bags)
        ]
        P = PathDecomposition(tuple(bags))
        assert P.proper
        violation = audit_appearance_universal(P).violation
        with pytest.raises(AuditError) as err:
            make_large_interiors(Graph(10, []), P)
        assert str(err.value) == (
            f"make_large_interiors: input is not appearance-universal: {violation}"
        )

    def test_internal_vertices_found(self):
        G = gen_fan(1, 12)
        P = fan_decomposition(12, 12)
        result = make_large_interiors(G, P)
        interiors = result.decomposition.interiors
        for z in range(1, result.decomposition.order - 1):
            assert interiors[z]


class TestExtendedBags:
    def test_fan_global_paths(self):
        G = gen_fan(1, 12)
        P = make_large_interiors(G, fan_decomposition(12, 12)).decomposition
        paths = extended_bags(G, P)
        assert len(paths) == 2
        flat = [v for p in paths for v in p]
        assert len(flat) == len(set(flat))

    def test_unlinked_input_rejected(self):
        G = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (2, 4)])
        P = PathDecomposition(((0, 1, 2), (0, 2, 3, 4), (3, 4)))
        if not audit_linked(G, P).ok:
            with pytest.raises(AuditError):
                extended_bags(G, P)

    def test_endpoints_align_across_bags(self):
        G = gen_complete_bipartite(2, 20)
        P = PathDecomposition(tuple(vset([0, 1, r]) for r in range(2, 22)))
        li = make_large_interiors(G, P).decomposition
        paths = extended_bags(G, li)
        # path i leaves each internal bag where it enters the next: one
        # vertex on every boundary, and the paths hold the boundaries
        for boundary in li.boundaries:
            assert sorted(len(set(p) & set(boundary)) for p in paths) == [1] * len(boundary)


class TestIslandOrMinor:
    def test_fan_yields_fan_minor(self):
        G = gen_fan(1, 40)
        P = make_large_interiors(G, fan_decomposition(40, 40)).decomposition
        result = island_or_minor(G, P, t=2, m=3, l=3)
        assert result.kind == "minor"
        assert result.minor_of == "fan"
        assert verify_minor_model(G, result.minor_host, result.model).ok

    def test_bipartite_yields_bipartite_minor(self):
        G = gen_complete_bipartite(2, 30)
        P = PathDecomposition(tuple(vset([0, 1, r]) for r in range(2, 32)))
        li = make_large_interiors(G, P).decomposition
        result = island_or_minor(G, li, t=2, m=3, l=3)
        assert result.kind == "minor"
        assert result.minor_of == "complete_bipartite"
        assert verify_minor_model(G, result.minor_host, result.model).ok

    def test_path_yields_islands(self):
        G = gen_path(40)
        P = PathDecomposition(tuple(vset([i, i + 1]) for i in range(39)))
        li = make_large_interiors(G, P).decomposition
        result = island_or_minor(G, li, t=2, m=3, l=2)
        assert result.kind == "islands"
        for cert in result.certificates:
            assert is_island(G, cert.members, 2).ok

    @pytest.mark.parametrize(
        "name,t,m,l", [("t", 0, 3, 2), ("m", 2, 0, 2), ("l", 2, 3, 0), ("l", 2, 3, -1)]
    )
    def test_parameters_below_one_rejected(self, name, t, m, l):
        G = gen_path(12)
        P = PathDecomposition(tuple(vset([i, i + 1]) for i in range(11)))
        li = make_large_interiors(G, P).decomposition
        with pytest.raises(ValueError, match=f"needs {name} >= 1"):
            island_or_minor(G, li, t=t, m=m, l=l)

    def test_short_input_honest_negative(self):
        G = gen_path(6)
        P = PathDecomposition(tuple(vset([i, i + 1]) for i in range(5)))
        li = make_large_interiors(G, P).decomposition
        result = island_or_minor(G, li, t=2, m=5, l=5)
        assert result.kind == "order_too_small"
        assert result.note


class TestLinkageCertificate:
    """Every way a linkage of the middle bag of a triple-merged 10-ladder
    can be wrong is rejected, with the reason named.  The bag holds
    columns 3..6; its paths are (3,4,5,6) and (13,14,15,16)."""

    G = ladder(10)
    P = coarsen_by_blocks(ladder_decomposition(10), [(0, 2), (3, 5), (6, 8)])
    GOOD = ((3, 4, 5, 6), (13, 14, 15, 16))

    BAD = [
        ("vertex dropped inside", ((3, 5, 6), (13, 14, 15, 16)), "non-edge (3,5)"),
        ("vertex dropped at the end", ((3, 4, 5), (13, 14, 15, 16)), "does not end"),
        ("non-edge step", ((3, 5, 4, 6), (13, 14, 15, 16)), "non-edge (3,5)"),
        ("vertex outside the bag", ((2, 3, 4, 5, 6), (13, 14, 15, 16)), "bag at vertex 2"),
        ("paths share a vertex", ((3, 4, 5, 6), (13, 14, 4, 5, 15, 16)), "visits vertex 4 twice"),
        ("endpoints swapped", ((6, 5, 4, 3), (13, 14, 15, 16)), "does not start"),
        ("path missing", ((13, 14, 15, 16),), "does not start"),
        ("empty path", ((3, 4, 5, 6), (13, 14, 15, 16), ()), "empty path"),
    ]

    def test_good_linkage_accepted(self):
        assert self.P.bags[1] == (3, 4, 5, 6, 13, 14, 15, 16)
        assert _linkage_violation(self.G, self.P, 1, Linkage(self.GOOD)) is None
        assert audit_linked(self.G, self.P).linkages[1] == Linkage(self.GOOD)

    @pytest.mark.parametrize("case,paths,reason", BAD, ids=[c[0] for c in BAD])
    def test_violation_named(self, case, paths, reason):
        assert reason in _linkage_violation(self.G, self.P, 1, Linkage(paths))

    def test_separation_is_broken(self):
        sep = Separation((3, 4, 13, 14), (4, 5, 6, 14, 15, 16))
        assert _linkage_violation(self.G, self.P, 1, sep) == "bag 1 is broken"

    @pytest.mark.parametrize(
        "forged",
        [Linkage(paths) for _, paths, _ in BAD]
        + [Separation((3, 4, 13, 14), (4, 5, 6, 14, 15, 16))],
    )
    def test_audit_rejects_forged_menger_result(self, monkeypatch, forged):
        real = surgery._bag_linkage
        monkeypatch.setattr(
            surgery, "_bag_linkage",
            lambda G, P, z, memo: forged if z == 1 else real(G, P, z, memo),
        )
        verdict = audit_linked(self.G, self.P)
        assert not verdict.ok
        assert verdict.violation == _linkage_violation(self.G, self.P, 1, forged)
        with pytest.raises(AuditError):
            extended_bags(self.G, self.P)

    def test_make_linked_rejects_forged_menger_result(self, monkeypatch):
        G, P = ladder(8), ladder_decomposition(8)
        real = surgery._bag_linkage
        forged = Linkage(((2, 3), (11,)))  # bag 2 is {2, 3, 10, 11}
        monkeypatch.setattr(
            surgery, "_bag_linkage",
            lambda G, P, z, memo: forged if z == 2 else real(G, P, z, memo),
        )
        with pytest.raises(AuditError, match="failed its own audit"):
            make_linked(G, P)

    def test_bag_linkages_one_result_per_internal_bag(self):
        results = bag_linkages(self.G, self.P)
        assert results == {1: Linkage(self.GOOD)}


class TestOneLinkagePerBag:
    """Each decomposition runs one max-flow per distinct relabelled bag."""

    def _count(self, monkeypatch):
        calls = []
        real = surgery.find_linkage

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(surgery, "find_linkage", counted)
        return calls

    def test_make_linked_on_linked_ladder(self, monkeypatch):
        G, P = ladder(8), ladder_decomposition(8)
        calls = self._count(monkeypatch)
        result = make_linked(G, P)
        assert result.decomposition == P
        assert len(calls) == len(linkage_keys(G, P)) == 1  # every bag has one shape

    @pytest.mark.parametrize("kind", ["fan", "path"])
    def test_island_or_minor(self, monkeypatch, kind):
        if kind == "fan":
            G, P = gen_fan(1, 40), fan_decomposition(40, 40)
        else:
            G = gen_path(40)
            P = PathDecomposition(tuple(vset([i, i + 1]) for i in range(39)))
        li = make_large_interiors(G, P).decomposition
        calls = self._count(monkeypatch)
        result = island_or_minor(G, li, t=2, m=3, l=2)
        assert result.kind == ("minor" if kind == "fan" else "islands")
        assert len(calls) == len(linkage_keys(G, li)) < li.order - 2


class TestOneCopyPerFlow:
    """bag_linkages keys its memo on each bag's relabelled rows and copies a
    bag into a Graph only for a flow it runs."""

    @pytest.mark.parametrize("kind", ["fan", "ladder"])
    def test_copies_equal_flows(self, monkeypatch, kind):
        if kind == "fan":
            G, P = gen_fan(1, 40), fan_decomposition(40, 40)
        else:
            G, P = ladder(20), ladder_decomposition(20)
        calls = {"induced_subgraph": 0, "find_linkage": 0}
        for name in calls:
            real = getattr(surgery, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(surgery, name, counted)
        assert bag_linkages(G, P) == reference_bag_linkages(G, P)
        assert calls["induced_subgraph"] == calls["find_linkage"] == len(linkage_keys(G, P))
        assert calls["find_linkage"] < P.order - 2


def reference_bag_linkages(G: Graph, P: PathDecomposition) -> dict:
    """One find_linkage call per internal bag, mapped back to G's ids."""
    out = {}
    for z in range(1, P.order - 1):
        members = vset(P.bags[z])
        sub, relabel = induced_subgraph(G, members)
        res = find_linkage(
            sub,
            [relabel[v] for v in P.boundary(z - 1, z)],
            [relabel[v] for v in P.boundary(z, z + 1)],
        )
        if isinstance(res, Linkage):
            out[z] = Linkage(tuple(tuple(members[v] for v in p) for p in res.paths))
        else:
            out[z] = Separation(
                vset(members[v] for v in res.left), vset(members[v] for v in res.right)
            )
    return out


def strip_decomposition(r: int, c: int) -> PathDecomposition:
    """Bags of two consecutive columns of gen_triangulated_grid(r, c)."""
    return PathDecomposition(
        tuple(vset([i * c + k for i in range(r)] + [i * c + k + 1 for i in range(r)])
              for k in range(c - 1))
    )


REPEATED_SHAPES = st.one_of(
    st.integers(4, 40).map(lambda m: (gen_fan(1, m), fan_decomposition(m, m))),
    st.integers(4, 40).map(lambda k: (ladder(k), ladder_decomposition(k))),
    st.builds(
        lambda r, c: (gen_triangulated_grid(r, c), strip_decomposition(r, c)),
        st.integers(2, 5), st.integers(4, 30),
    ),
)


class TestBagLinkageMemo:
    """bag_linkages keeps its memo for one call: it returns what one flow
    per bag returns, runs one flow per distinct relabelled bag, and runs
    them all again on the next call."""

    def check(self, G: Graph, P: PathDecomposition) -> None:
        expected = reference_bag_linkages(G, P)
        for _ in range(2):
            calls = []
            real = surgery.find_linkage
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(surgery, "find_linkage", lambda *a: calls.append(1) or real(*a))
                assert bag_linkages(G, P) == expected
            assert len(calls) == len(linkage_keys(G, P))

    @given(REPEATED_SHAPES)
    @settings(max_examples=60, deadline=None)
    def test_repeated_shapes(self, case):
        G, P = case
        self.check(G, P)
        assert len(linkage_keys(G, P)) == 1  # every internal bag has one shape

    @given(st.integers(0, 2**16), st.integers(4, 60), st.integers(3, 5))
    @settings(max_examples=40, deadline=None)
    def test_min_fill_decompositions(self, seed, n, d):
        # every decomposition make_linked hands to bag_linkages
        G = random_bounded_degree_graph(random.Random(seed), n, d)
        seen = []
        real = surgery.bag_linkages
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(surgery, "bag_linkages", lambda G, P: seen.append(P) or real(G, P))
            make_linked(G, tree_to_path(G, treewidth_decomposition(G)).decomposition)
        for P in seen:
            self.check(G, P)
