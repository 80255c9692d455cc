"""Balanced-separator oracles and the recursive shattering construction.

shatter() removes a small vertex set X so that every component of G - X
has at most C vertices, following the Lipton-Tarjan style recursion: cut,
recurse on components, stop at size C.  The rank bookkeeping (log base
3/2 of subgraph sizes) is recorded in the trace and strictly decreases
along every root-leaf path because separations are 2/3-balanced.

Cost: the BFS-level oracle answers each call with one union-find sweep
over the levels, O((n+m)*alpha(n)).  shatter() grows one recursion tree,
largest node first, while it weighs the candidate bounds C from the
largest down.  A node's cut depends only on its vertex set, so the tree
at a bound C is that tree cut off at nodes of size <= C, and |X(C)| never
grows with C; the first candidate over the epsilon budget ends the
search.  The oracle runs on the nodes of size > C for the chosen C, plus
at most one partly expanded candidate level below it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

from .graphs import (
    Graph,
    GraphValidityError,
    Separation,
    bfs_levels,
    components_within,
    induced_subgraph,
    vset,
)
from .islands import GraphTooLarge, as_fraction

BALANCE_NUM, BALANCE_DEN = 2, 3  # the fixed 2/3 balance constant


class SeparatorContractError(RuntimeError):
    """An oracle returned an unbalanced or over-budget separation."""


class ShatterBudgetError(RuntimeError):
    """No component bound in the candidate schedule met the epsilon budget."""


@dataclass(frozen=True)
class SeparatorBudget:
    """A named non-decreasing order bound f for balanced separators.

    Families: "constant" (f = c), "sqrt" (f = c*sqrt(n)) and
    "n_over_log2" (f = c*n/log^2 n).  The last two are significantly
    sublinear: the sum of f((3/2)^i)/(3/2)^i converges.
    """

    family: str
    coeff: float = 1.0

    def __post_init__(self):
        if self.family not in ("constant", "sqrt", "n_over_log2"):
            raise ValueError(f"unknown budget family {self.family!r}")
        if not 0 < self.coeff < math.inf:
            raise ValueError(f"budget coefficient must be positive and finite, got {self.coeff}")

    def f(self, n: int) -> int:
        if n <= 1 or self.family == "constant":
            return math.ceil(self.coeff)
        if self.family == "sqrt":
            return math.ceil(self.coeff * math.sqrt(n))
        return math.ceil(self.coeff * n / math.log(n) ** 2)

    def tail_sum(self, i0: int) -> float:
        """Upper bound on sum_{i >= i0} f((3/2)^i)/(3/2)^i."""
        if self.family == "constant":  # geometric with ratio 1/1.5
            return self.coeff / 1.5**i0 / (1 - 1 / 1.5)
        if self.family == "sqrt":  # geometric with ratio 1/sqrt(1.5)
            return self.coeff / math.sqrt(1.5**i0) / (1 - 1 / math.sqrt(1.5))
        # quadratic decay: sum_{i>=i0} c/(i ln 1.5)^2 <= c/ln(1.5)^2 * 1/(i0-1)
        i0 = max(i0, 2)
        return self.coeff / math.log(1.5) ** 2 / (i0 - 1)

    def is_significantly_sublinear(self) -> bool:
        return self.tail_sum(2) < math.inf

    def component_bound(self, epsilon) -> int:
        """C = ceil((3/2)^i0) for the least i0 whose tail sum drops below
        (2/3) * epsilon, mirroring the shattering proof."""
        eps = float(as_fraction(epsilon))
        target = eps * BALANCE_NUM / BALANCE_DEN
        i0 = 0
        while self.tail_sum(i0) > target:
            i0 += 1
            if i0 > 10_000:
                raise ShatterBudgetError("budget family tail sum converges too slowly")
        return math.ceil(1.5**i0)


def _balanced_split(sizes: list[int], n_total: int) -> tuple[list[int], list[int]] | None:
    """Split component indices into two groups, each of total size at most
    (2/3) n_total.  Exact subset-sum for few components, greedy otherwise;
    when sum(sizes) <= n_total both find a split exactly when the largest
    part is at most (2/3) n_total."""
    limit = BALANCE_NUM * n_total  # compare 3*size <= 2*n
    if BALANCE_DEN * max(sizes, default=0) > limit:
        return None  # the group holding the largest part is too big
    k = len(sizes)
    if k <= 16:
        total = sum(sizes)
        for r in range(k + 1):
            for group, a in zip(combinations(range(k), r), map(sum, combinations(sizes, r))):
                if BALANCE_DEN * a <= limit and BALANCE_DEN * (total - a) <= limit:
                    chosen = set(group)
                    return list(group), [i for i in range(k) if i not in chosen]
        return None
    g1: list[int] = []
    g2: list[int] = []
    s1 = s2 = 0
    for i in sorted(range(k), key=lambda i: -sizes[i]):
        if s1 <= s2:
            g1.append(i)
            s1 += sizes[i]
        else:
            g2.append(i)
            s2 += sizes[i]
    if BALANCE_DEN * s1 <= limit and BALANCE_DEN * s2 <= limit:
        return g1, g2
    return None


def brute_force_separator(G: Graph) -> Separation:
    """Minimum-order balanced separation of a tiny graph by exhaustion.

    Separations with both strict sides non-empty are preferred; if none
    exists at any order (e.g. complete graphs), empty strict sides are
    allowed.  Ties break lexicographically on the cut set.
    """
    n = G.n
    if n > 16:
        raise GraphTooLarge(f"n={n} exceeds brute-force separator cap 16")

    def search(require_nonempty: bool) -> Separation | None:
        for k in range(n + 1):
            for cut in combinations(range(n), k):
                rest = [v for v in range(n) if v not in set(cut)]
                comps = components_within(G, rest)
                split = _balanced_split([len(c) for c in comps], n)
                if split is None:
                    continue
                g1, g2 = split
                if require_nonempty and not g1:
                    # an empty first group means all parts fit on one side,
                    # so any non-empty proper grouping balances too
                    if len(comps) < 2:
                        continue
                    g1, g2 = [0], list(range(1, len(comps)))
                side1 = [v for i in g1 for v in comps[i]]
                side2 = [v for i in g2 for v in comps[i]]
                sep = Separation(vset(side1 + list(cut)), vset(side2 + list(cut)))
                sep.validate(G)
                return sep
        return None

    sep = search(require_nonempty=True) or search(require_nonempty=False)
    assert sep is not None  # cutting every vertex leaves no parts, a trivial split
    return sep


def bfs_level_separator(G: Graph) -> Separation:
    """Heuristic: remove the smallest BFS level (root 0) whose removal
    leaves components that split into two 2/3-balanced groups; ties go to
    the level nearest the root.

    Parts summing to at most n split into two groups of at most 2n/3 each
    exactly when the largest part is at most 2n/3 (a part of at least n/3
    goes alone; smaller parts fill one group up to n/3), so a level is
    decided by its largest component alone.  One union-find sweep adds the
    levels from the deepest to the root, O((n+m)*alpha(n)) in all.  Just
    before level i is added the structure holds G[levels > i], whose
    components each touch level i+1; the only other component of
    G - level(i) is G[levels < i], which contains vertex 0.  The split
    itself is computed once, for the winning level.
    """
    if G.n == 0:
        raise GraphValidityError("empty graph")
    levels = bfs_levels(G, 0)
    n = G.n
    if sum(len(l) for l in levels) != n:
        raise GraphValidityError("bfs_level_separator requires a connected graph")
    parent = list(range(n))
    size = [1] * n
    added = [False] * n

    def find(v: int) -> int:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    limit = BALANCE_NUM * n  # a part of size s fits when 3*s <= 2*n
    best: tuple[int, int] | None = None  # (|level|, index)
    deeper = 0  # vertices in levels deeper than idx
    for idx in range(len(levels) - 1, -1, -1):
        level = levels[idx]
        above = n - deeper - len(level)
        if (best is None or len(level) <= best[0]) and BALANCE_DEN * above <= limit:
            nxt = levels[idx + 1] if idx + 1 < len(levels) else ()
            if BALANCE_DEN * max((size[find(v)] for v in nxt), default=0) <= limit:
                best = (len(level), idx)
        for v in level:
            added[v] = True
        for v in level:
            for u in G.adj[v]:
                if added[u]:
                    ru, rv = find(u), find(v)
                    if ru != rv:
                        if size[ru] < size[rv]:
                            ru, rv = rv, ru
                        parent[rv] = ru
                        size[ru] += size[rv]
        deeper += len(level)
    assert best is not None  # the first level taking the prefix past n/3 balances
    level = levels[best[1]]
    inlevel = set(level)
    comps = components_within(G, [v for v in range(n) if v not in inlevel])
    g1, g2 = _balanced_split([len(c) for c in comps], n)  # the largest part fits
    side1 = [v for i in g1 for v in comps[i]]
    side2 = [v for i in g2 for v in comps[i]]
    return Separation(vset(side1 + list(level)), vset(side2 + list(level)))


@dataclass(frozen=True)
class TraceNode:
    node: int
    parent: int  # -1 for roots
    size: int
    separator_size: int  # 0 for leaves
    rank: int


@dataclass(frozen=True)
class ShatterReport:
    X: tuple[int, ...]
    C: int
    tree_trace: tuple[TraceNode, ...]


SeparatorOracle = Callable[[Graph], Separation]


def _rank(size: int) -> int:
    return math.floor(math.log(size) / math.log(1.5)) if size >= 1 else 0


# one recursion-tree node in discovery order: (parent index or -1, size, cut);
# the cut stays empty until the node is expanded
_TreeNode = tuple[int, int, tuple[int, ...]]


def _cut_node(
    G: Graph, subset: tuple[int, ...], oracle: SeparatorOracle, budget: SeparatorBudget | None
) -> tuple[int, ...]:
    """The oracle's cut of G[subset] (a connected, sorted subset) in G's
    numbering, after checking the separation it returned."""
    sub, _ = induced_subgraph(G, subset)
    sep = oracle(sub)
    sep.validate(sub)
    cut_local = sep.cut
    size = len(subset)
    node = f"the node of size {size} with smallest vertex {subset[0]}"
    strict_left = len(set(sep.left) - set(sep.right))
    strict_right = len(set(sep.right) - set(sep.left))
    if BALANCE_DEN * strict_left > BALANCE_NUM * size or (
        BALANCE_DEN * strict_right > BALANCE_NUM * size
    ):
        raise SeparatorContractError(f"oracle returned unbalanced separation at {node}")
    if budget is not None and len(cut_local) > budget.f(size):
        raise SeparatorContractError(
            f"oracle exceeded budget f({size})={budget.f(size)} at {node}"
        )
    if not cut_local:
        raise SeparatorContractError(
            f"oracle returned an empty cut for a connected subgraph at {node}"
        )
    return tuple(subset[v] for v in cut_local)  # sub numbers the sorted subset 0..size-1


def _shatter_tree(
    G: Graph,
    candidates: list[int],
    allowed: Fraction,
    oracle: SeparatorOracle,
    budget: SeparatorBudget | None,
) -> tuple[int, list[_TreeNode]]:
    """Choose C among the ascending candidates, growing the recursion tree
    only as far as that needs; returns C and the tree in discovery order.

    Unexpanded nodes wait in a heap, largest first; a cut node's children
    are the components it leaves, discovered in order of minimum vertex.
    For each candidate from the largest down, nodes of size > C are cut
    while the running cut total |X(C)| stays within `allowed`.  The first
    candidate over it ends the walk, even part way through its nodes, and
    the one before is chosen (shatter() says why this is exact).  The
    largest candidate is expanded in full and chosen even if it fails, so
    verification reports its X."""
    tree: list[_TreeNode] = []
    heap: list[tuple[int, int, tuple[int, ...]]] = []  # (-size, tree index, subset)

    def discover(subset: tuple[int, ...], parent: int) -> None:
        heapq.heappush(heap, (-len(subset), len(tree), subset))
        tree.append((parent, len(subset), ()))

    for comp in components_within(G, range(G.n)):
        discover(comp, -1)
    largest = chosen = candidates[-1]
    total = 0
    for C in reversed(candidates):
        while heap and -heap[0][0] > C and (total <= allowed or C == largest):
            _, node, subset = heapq.heappop(heap)
            cut = _cut_node(G, subset, oracle, budget)
            tree[node] = (tree[node][0], len(subset), cut)
            total += len(cut)
            for comp in components_within(G, set(subset).difference(cut)):
                discover(comp, node)
        if total > allowed:
            break
        chosen = C
    return chosen, tree


def _truncate(tree: list[_TreeNode], C: int) -> tuple[set[int], list[TraceNode]]:
    """X and the pre-order trace of the tree cut off at nodes of size <= C;
    every node of size > C must be expanded.  Sizes strictly drop along
    every root-leaf path and sibling cuts are disjoint, so X is the
    disjoint union of the cuts at nodes of size > C."""
    children: list[list[int]] = [[] for _ in tree]
    roots: list[int] = []
    for node, (parent, _, _) in enumerate(tree):
        (children[parent] if parent != -1 else roots).append(node)
    X: set[int] = set()
    trace: list[TraceNode] = []
    stack = [(node, -1) for node in reversed(roots)]  # (tree index, parent's trace id)
    while stack:
        node, parent_id = stack.pop()
        _, size, cut = tree[node]
        node_id = len(trace)
        if size <= C:
            cut = ()  # a leaf at bound C, whether or not it was expanded
        else:
            stack.extend((child, node_id) for child in reversed(children[node]))
        X.update(cut)
        trace.append(TraceNode(node_id, parent_id, size, len(cut), _rank(size)))
    return X, trace


def verify_shatter(G: Graph, X, C: int, epsilon) -> None:
    """Re-check the shatter post-conditions from scratch."""
    eps = as_fraction(epsilon)
    Xs = set(X)
    if Fraction(len(Xs)) > eps * G.n:
        raise ShatterBudgetError(f"|X|={len(Xs)} exceeds epsilon*n={eps * G.n}")
    for comp in components_within(G, set(range(G.n)) - Xs):
        if len(comp) > C:
            raise ShatterBudgetError(f"component of size {len(comp)} exceeds C={C}")


DOUBLINGS = 20  # length of the budget-free candidate schedule c0, 2c0, 4c0, ...


def shatter(
    G: Graph,
    epsilon,
    oracle: SeparatorOracle,
    budget: SeparatorBudget | None = None,
) -> ShatterReport:
    """Remove X with |X| <= epsilon*n so all components of G - X have <= C
    vertices.

    With a provable budget, C comes from the budget's tail sum (as in the
    proof) and any oracle violation is an error.  Without one, C is the
    first of c0 = max(2, ceil(sqrt n)), 2c0, 4c0, ... that meets the
    epsilon budget.

    The oracle is deterministic, so a node's cut and children depend only
    on its vertex set, and the tree at bound C is one tree cut off at nodes
    of size <= C.  |X(C)|, the total cut over nodes of size > C, therefore
    never grows with C: the candidates are weighed from the largest down,
    expanding the largest unexpanded node first, and the first candidate
    over budget ends the search.  Only the nodes of size > C, plus part of
    the next smaller candidate's nodes, are ever cut.  The chosen result is
    verified once.
    """
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    if G.n == 0:
        return ShatterReport((), 0, ())
    if budget is not None:
        candidates = [budget.component_bound(eps)]
    else:
        c0 = max(2, math.ceil(math.sqrt(G.n)))
        candidates = [c0 << i for i in range(DOUBLINGS)]
    C, tree = _shatter_tree(G, candidates, eps * G.n, oracle, budget)
    X_set, trace = _truncate(tree, C)
    try:
        verify_shatter(G, X_set, C, eps)
    except ShatterBudgetError as err:
        raise ShatterBudgetError(
            f"no component bound met the epsilon budget after {len(candidates)} tries: {err}"
        ) from None
    return ShatterReport(tuple(sorted(X_set)), C, tuple(trace))


def default_shatterer(G: Graph, epsilon) -> ShatterReport:
    """BFS-level oracle with adaptive component bound; the standard choice
    for the sparse island extraction."""
    return shatter(G, epsilon, bfs_level_separator)
