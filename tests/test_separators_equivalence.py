"""The union-find separator sweep, the subset oracles and the
build-once shatter tree against reference copies of the per-level,
per-candidate, per-subgraph-copy code they replace.  Every result must
be identical."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from islandkit.graphs import (
    Graph,
    Separation,
    bfs_levels,
    components_within,
    gen_complete_bipartite,
    gen_path,
    gen_triangulated_grid,
    induced_subgraph,
    vset,
)
from islandkit.islands import GraphTooLarge
from islandkit.separators import (
    BALANCE_DEN,
    BALANCE_NUM,
    DOUBLINGS,
    SeparatorContractError,
    ShatterBudgetError,
    TraceNode,
    _rank,
    _shatter_tree,
    _truncate,
    bfs_level_separator,
    brute_force_separator,
    shatter,
    verify_shatter,
)

from conftest import random_bounded_degree_graph


# ---------------------------------------------------------------------------
# reference copies: one components pass per BFS level, one recursion per C
# ---------------------------------------------------------------------------

def reference_balanced_split(sizes, n_total):
    limit = BALANCE_NUM * n_total
    idx = sorted(range(len(sizes)), key=lambda i: -sizes[i])
    if len(sizes) <= 16:
        for r in range(len(sizes) + 1):
            for group in combinations(range(len(sizes)), r):
                a = sum(sizes[i] for i in group)
                b = sum(sizes) - a
                if BALANCE_DEN * a <= limit and BALANCE_DEN * b <= limit:
                    return (list(group), [i for i in range(len(sizes)) if i not in group])
        return None
    g1, g2 = [], []
    s1 = s2 = 0
    for i in idx:
        if s1 <= s2:
            g1.append(i)
            s1 += sizes[i]
        else:
            g2.append(i)
            s2 += sizes[i]
    if BALANCE_DEN * s1 <= limit and BALANCE_DEN * s2 <= limit:
        return g1, g2
    return None


def reference_bfs_level_separator(G):
    levels = bfs_levels(G, range(G.n))
    best = None
    for idx, level in enumerate(levels):
        rest = [v for v in range(G.n) if v not in set(level)]
        comps = components_within(G, rest)
        split = reference_balanced_split([len(c) for c in comps], G.n)
        if split is None:
            continue
        g1, g2 = split
        side1 = [v for i in g1 for v in comps[i]]
        side2 = [v for i in g2 for v in comps[i]]
        sep = Separation(vset(side1 + list(level)), vset(side2 + list(level)))
        key = (len(level), idx)
        if best is None or key < best[:2]:
            best = (len(level), idx, sep)
    return best[2]


def reference_shatter_once(G, C, oracle):
    X, trace = set(), []
    counter = 0
    stack = [(comp, -1) for comp in reversed(components_within(G, range(G.n)))]
    while stack:
        subset, parent = stack.pop()
        node_id = counter
        counter += 1
        size = len(subset)
        if size <= C:
            trace.append(TraceNode(node_id, parent, size, 0, _rank(size)))
            continue
        sub, relabel = induced_subgraph(G, subset)
        back = {new: old for old, new in relabel.items()}
        cut = {back[v] for v in oracle(sub).cut}
        X.update(cut)
        trace.append(TraceNode(node_id, parent, size, len(cut), _rank(size)))
        for comp in reversed(components_within(G, set(subset) - cut)):
            stack.append((comp, node_id))
    return X, trace


def reference_shatter(G, epsilon, oracle):
    eps = Fraction(str(epsilon))
    c = max(2, math.ceil(math.sqrt(G.n)))
    for _ in range(20):
        if c >= G.n:
            trace = [
                TraceNode(i, -1, len(comp), 0, _rank(len(comp)))
                for i, comp in enumerate(components_within(G, range(G.n)))
            ]
            return (), c, tuple(trace)
        X, trace = reference_shatter_once(G, c, oracle)
        try:
            verify_shatter(G, X, c, eps)
        except ShatterBudgetError:
            c *= 2
            continue
        return tuple(sorted(X)), c, tuple(trace)
    raise ShatterBudgetError("no candidate")


def reference_brute_force_separator(G: Graph, max_order: int | None = None) -> Separation:
    """Minimum-order balanced separation of a tiny graph by exhaustion.

    Separations with both strict sides non-empty are preferred; if none
    exists at any order (e.g. complete graphs), empty strict sides are
    allowed.  Ties break lexicographically on the cut set.
    """
    n = G.n
    if n > 16:
        raise GraphTooLarge(f"n={n} exceeds brute-force separator cap 16")
    cap = n if max_order is None else min(max_order, n)

    def search(require_nonempty: bool) -> Separation | None:
        for k in range(cap + 1):
            for cut in combinations(range(n), k):
                rest = [v for v in range(n) if v not in set(cut)]
                comps = components_within(G, rest)
                sizes = [len(c) for c in comps]
                split = reference_balanced_split(sizes, n)
                if split is None:
                    continue
                g1, g2 = split
                side1 = sorted(v for i in g1 for v in comps[i])
                side2 = sorted(v for i in g2 for v in comps[i])
                if require_nonempty and (not side1 or not side2):
                    # try the exhaustive alternative groupings before giving up
                    found = None
                    for r in range(1, len(comps)):
                        for group in combinations(range(len(comps)), r):
                            a = sum(sizes[i] for i in group)
                            b = sum(sizes) - a
                            if (
                                BALANCE_DEN * a <= BALANCE_NUM * n
                                and BALANCE_DEN * b <= BALANCE_NUM * n
                            ):
                                found = group
                                break
                        if found:
                            break
                    if not found:
                        continue
                    side1 = sorted(v for i in found for v in comps[i])
                    side2 = sorted(
                        v for i in range(len(comps)) if i not in set(found) for v in comps[i]
                    )
                sep = Separation(vset(side1 + list(cut)), vset(side2 + list(cut)))
                sep.validate(G)
                return sep
        return None

    sep = search(require_nonempty=True)
    if sep is None:
        sep = search(require_nonempty=False)
    if sep is None:
        raise SeparatorContractError("no balanced separation within order cap")
    return sep


# ---------------------------------------------------------------------------
# connected inputs: paths, triangulated grids, bounded degree, stars
# ---------------------------------------------------------------------------

@st.composite
def connected_graphs(draw, max_n: int = 150):
    kind = draw(st.sampled_from(["path", "grid", "bounded", "star", "dense"]))
    if kind == "path":
        return gen_path(draw(st.integers(1, max_n)))
    if kind == "grid":
        r = draw(st.integers(2, 12))
        return gen_triangulated_grid(r, draw(st.integers(2, max(2, max_n // r))))
    if kind == "bounded":
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        n = draw(st.integers(2, max_n))
        return random_bounded_degree_graph(rng, n, draw(st.integers(3, 5)))
    if kind == "star":
        # centre 0: removing level 0 leaves more than 16 components
        return gen_complete_bipartite(draw(st.integers(1, 2)), draw(st.integers(1, 40)))
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 2, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    path = [(i, i + 1) for i in range(n - 1)]
    return Graph(n, path + [e for e, k in zip(pairs, keep) if k])


@st.composite
def tiny_graphs(draw):
    """At most 8 vertices: a random edge set (often disconnected), a
    complete graph or an edgeless one."""
    n = draw(st.integers(0, 8))
    pairs = list(combinations(range(n), 2))
    kind = draw(st.sampled_from(["random", "complete", "edgeless"]))
    if kind == "random":
        pairs = [e for e in pairs if draw(st.booleans())]
    return Graph(n, pairs if kind != "edgeless" else [])


@given(tiny_graphs())
@settings(max_examples=200, deadline=None)
def test_brute_force_separator_matches_reference(G):
    """The single fallback grouping against the search over all groupings."""
    assert brute_force_separator(G, range(G.n)) == reference_brute_force_separator(G).cut


@given(connected_graphs())
@settings(max_examples=150, deadline=None)
def test_bfs_level_separator_matches_reference(G):
    assert bfs_level_separator(G, range(G.n)) == reference_bfs_level_separator(G).cut


@st.composite
def connected_subsets(draw, max_size: int):
    """A random graph, often disconnected, and a connected vertex subset
    of it with at most max_size vertices, grown from a random vertex."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 60))
    if draw(st.booleans()):
        G = random_bounded_degree_graph(rng, n, draw(st.integers(3, 5)))
    else:
        p = draw(st.sampled_from([0.05, 0.1, 0.3, 0.6]))
        G = Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])
    S = {rng.randrange(n)}
    frontier = {u for v in S for u in G.adj[v]}
    target = draw(st.integers(1, max_size))
    while frontier and len(S) < target:
        v = rng.choice(sorted(frontier))
        S.add(v)
        frontier.update(G.adj[v])
        frontier.difference_update(S)
    return G, vset(S)


@pytest.mark.parametrize(
    "oracle, reference, max_size",
    [
        (bfs_level_separator, reference_bfs_level_separator, 60),
        (brute_force_separator, reference_brute_force_separator, 8),
    ],
    ids=["bfs", "brute"],
)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_subset_cut_matches_reference_on_the_copy(oracle, reference, max_size, data):
    """An oracle's cut of (G, S) is the reference oracle's cut of the
    relabelled copy G[S], mapped back to G's ids."""
    G, S = data.draw(connected_subsets(max_size))
    sub, relabel = induced_subgraph(G, S)
    back = {new: old for old, new in relabel.items()}
    assert tuple(oracle(G, S)) == tuple(back[v] for v in reference(sub).cut)


@given(connected_graphs(max_n=200))
@settings(max_examples=60, deadline=None)
def test_truncated_tree_equals_fresh_recursion(G):
    c0 = max(2, math.ceil(math.sqrt(G.n)))
    _, tree = _shatter_tree(G, [c0], G.n, bfs_level_separator)
    for C in (c0 << i for i in range(DOUBLINGS)):
        X, trace = _truncate(tree, C)
        ref_X, ref_trace = reference_shatter_once(G, C, reference_bfs_level_separator)
        assert X == ref_X
        assert trace == ref_trace
        assert len(X) == sum(len(cut) for _, size, cut in tree if size > C)
        if C >= G.n:
            break


@given(connected_graphs(max_n=200), st.sampled_from([0.05, 0.1, 0.2, 0.3]))
@settings(max_examples=60, deadline=None)
def test_shatter_matches_per_candidate_retries(G, epsilon):
    report = shatter(G, epsilon, bfs_level_separator)
    assert (report.X, report.C, report.tree_trace) == reference_shatter(
        G, epsilon, reference_bfs_level_separator
    )
