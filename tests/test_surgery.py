import pytest

from islandkit import surgery
from islandkit.decomposition import (
    Linkage,
    PathDecomposition,
    TreeDecomposition,
    restore_properness,
    treewidth_decomposition,
    validate_decomposition,
)
from islandkit.graphs import (
    Graph,
    Separation,
    gen_complete_bipartite,
    gen_cycle,
    gen_fan,
    gen_path,
    vset,
    verify_minor_model,
)
from islandkit.islands import is_island
from islandkit.surgery import (
    AuditError,
    BoundedTwResult,
    _linkage_violation,
    ConstantSchedule,
    audit_appearance_universal,
    audit_large_interiors,
    audit_linked,
    bag_linkages,
    bounded_tw_island,
    broken_bags,
    coarsen_by_blocks,
    extended_bags,
    f_link,
    internal_vertices,
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


class TestFLink:
    def test_base_case(self):
        assert f_link(0, 7) == 7

    def test_recursion_values(self):
        assert f_link(1, 3) == 4
        assert f_link(2, 3) == 7

    def test_monotone_in_both_arguments(self):
        assert f_link(3, 5) < f_link(4, 5) and f_link(3, 5) < f_link(3, 6)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            f_link(-1, 3)


class TestConstantSchedule:
    def test_cascade_values(self):
        sch = ConstantSchedule.from_params(1, 2)
        assert sch.n3 == 6
        assert sch.n2 == 6**3
        assert sch.n1 == f_link(2, 216)

    def test_C_is_astronomical(self):
        sch = ConstantSchedule.from_params(2, 5)
        assert sch.C_exceeds(10**1000)

    def test_tiny_schedule_comparable(self):
        sch = ConstantSchedule.from_params(1, 1)
        # C = 2 * n1**n1 with small n1: still exactly comparable
        assert sch.C_exceeds(1)


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
            ("make_appearance_universal", lambda G, T, P: make_appearance_universal(T)),
            ("make_large_interiors", lambda G, T, P: make_large_interiors(G, T)),
            ("island_or_minor", lambda G, T, P: island_or_minor(G, T, 2, 2, 1)),
            ("restore_properness", lambda G, T, P: restore_properness(T)),
        ],
    )
    def test_wrong_kind_is_a_named_error(self, stage, run):
        want, got = ("PathDecomposition", "TreeDecomposition")
        if stage == "tree_to_path":
            want, got = got, want
        with pytest.raises(TypeError, match=f"^{stage} needs a {want}, got a {got}$"):
            run(gen_path(4), self.TREE, self.PATH)


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
        bb = broken_bags(G, P)
        assert 1 in bb or audit_linked(G, P).ok

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
        result = make_appearance_universal(P)
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
        result = make_appearance_universal(P)
        assert audit_appearance_universal(result.decomposition).ok
        verify_coarsening(P, result.decomposition, result.intervals)

    def test_idempotent_on_clean_input(self):
        P = PathDecomposition(((0, 1), (1, 2), (2, 3)))
        result = make_appearance_universal(P)
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

    def test_internal_vertices_found(self):
        G = gen_fan(1, 12)
        P = fan_decomposition(12, 12)
        result = make_large_interiors(G, P)
        interiors = internal_vertices(result.decomposition)
        for z in range(1, result.decomposition.order - 1):
            assert interiors[z]


class TestExtendedBags:
    def test_fan_global_paths(self):
        G = gen_fan(1, 12)
        P = make_large_interiors(G, fan_decomposition(12, 12)).decomposition
        eb = extended_bags(G, P)
        assert len(eb.global_paths) == 2
        flat = [v for p in eb.global_paths for v in p]
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
        eb = extended_bags(G, li)
        for prev, cur in zip(eb.bags, eb.bags[1:]):
            assert prev.right == cur.left


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


class TestBoundedTwPipeline:
    def test_path_gives_island(self):
        G = gen_path(60)
        result = bounded_tw_island(G, k=1, S=[], t=2, m=3, l=2)
        assert result.kind == "island"
        assert is_island(G, result.island.members, 2).ok

    def test_forbidden_set_respected(self):
        G = gen_path(60)
        result = bounded_tw_island(G, k=1, S=list(range(30)), t=2, m=3, l=2)
        assert result.kind == "island"
        assert not set(result.island.members) & set(range(30))

    def test_fan_gives_minor(self):
        G = gen_fan(1, 40)
        result = bounded_tw_island(G, k=2, S=[], t=2, m=3)
        assert result.kind == "minor"
        assert verify_minor_model(G, result.minor_host, result.model).ok

    def test_constants_report_is_honest(self):
        G = gen_cycle(12)
        sch = ConstantSchedule.from_params(2, 5)
        result = bounded_tw_island(G, k=2, S=[], t=2, m=50, l=50, schedule=sch)
        assert result.kind == "constants_not_met"
        met = result.report["schedule_met"]
        assert not met["path_order >= n1"]

    def test_report_always_records_stage_orders(self):
        G = gen_path(30)
        result = bounded_tw_island(G, k=1, S=[], t=2, m=3, l=2)
        for key in ("path_order", "linked_order", "large_interiors_order"):
            assert key in result.report


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
            surgery, "_bag_linkage", lambda G, P, z: forged if z == 1 else real(G, P, z)
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
            surgery, "_bag_linkage", lambda G, P, z: forged if z == 2 else real(G, P, z)
        )
        with pytest.raises(AuditError, match="failed its own audit"):
            make_linked(G, P)

    def test_bag_linkages_one_result_per_internal_bag(self):
        results = bag_linkages(self.G, self.P)
        assert results == {1: Linkage(self.GOOD)}


class TestOneLinkagePerBag:
    """Each bag's Menger linkage is found once per decomposition."""

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
        assert len(calls) == P.order - 2

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
        assert len(calls) == li.order - 2
