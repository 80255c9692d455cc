"""Balanced-separator oracles and the recursive shattering construction.

shatter() removes a small vertex set X so that every component of G - X
has at most C vertices, following the Lipton-Tarjan style recursion: cut,
recurse on components, stop at size C.  The rank bookkeeping (log base
3/2 of subgraph sizes) is recorded in the trace and strictly decreases
along every root-leaf path because separations are 2/3-balanced.

Cost: an oracle cuts a vertex subset S of G in place, with no subgraph
copy; the BFS-level oracle answers each call with one union-find sweep
over the levels of G[S], O((|S|+m)*alpha(|S|)), m counting the edges at
S.  Each expanded node then costs one components pass over S - cut,
which both checks the cut and yields the node's children.  shatter()
grows one recursion tree, largest node first, while it weighs the
candidate bounds C from the largest down.  A node's cut depends only on
its vertex set, so the tree at a bound C is that tree cut off at nodes of
size <= C, and |X(C)| never grows with C; the first candidate over the
epsilon budget ends the search.  The oracle runs on the nodes of size > C
for the chosen C, plus at most one partly expanded candidate level below
it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable

from .graphs import (
    Graph,
    GraphTooLarge,
    GraphValidityError,
    as_fraction,
    bfs_levels,
    checked_vset,
    components_within,
    vset,
)

BALANCE_NUM, BALANCE_DEN = 2, 3  # the fixed 2/3 balance constant


class SeparatorContractError(RuntimeError):
    """An oracle's cut left its subset, was empty or was unbalanced."""


class ShatterBudgetError(RuntimeError):
    """No component bound in the candidate schedule met the epsilon budget."""


def _fits(part: int, n: int) -> bool:
    """Whether a part of this size is 2/3-balanced in n vertices."""
    return BALANCE_DEN * part <= BALANCE_NUM * n


def brute_force_separator(G: Graph, S: Iterable[int]) -> tuple[int, ...]:
    """Minimum-order balanced cut of a tiny vertex subset S by exhaustion.

    Cuts that leave at least two parts are preferred; if none exists at
    any order (e.g. complete graphs), a cut leaving fewer parts is
    allowed.  Ties break lexicographically on the cut.
    """
    S = checked_vset(G, S)
    n = len(S)
    if n > 16:
        raise GraphTooLarge(f"|S|={n} exceeds brute-force separator cap 16")
    fallback = None  # cutting all of S leaves no parts, so one is always found
    for k in range(n + 1):
        for cut in combinations(S, k):
            parts = components_within(G, set(S).difference(cut))
            if _fits(max(map(len, parts), default=0), n):
                if len(parts) >= 2:
                    return cut
                if fallback is None:
                    fallback = cut
    return fallback


def bfs_level_separator(G: Graph, S: Iterable[int]) -> tuple[int, ...]:
    """Heuristic: cut the smallest BFS level of G[S] (root min S) whose
    removal leaves no part larger than 2|S|/3; ties go to the level
    nearest the root.

    One union-find sweep adds the levels from the deepest to the root,
    O((|S|+m)*alpha(|S|)) in all, m counting the edges at S.  Just before
    level i is added the structure holds G[levels > i], whose components
    each touch level i+1; the only other part of G[S] - level(i) is
    G[levels < i], which contains the root.
    """
    S = checked_vset(G, S)
    if not S:
        raise GraphValidityError("empty vertex set")
    levels = bfs_levels(G, S)
    n = len(S)
    if sum(len(l) for l in levels) != n:
        raise GraphValidityError("bfs_level_separator requires a connected vertex set")
    parent = {v: v for v in S}
    size = dict.fromkeys(S, 1)
    added: set[int] = set()

    def find(v: int) -> int:
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    best: tuple[int, int] | None = None  # (|level|, index)
    deeper = 0  # vertices in levels deeper than idx
    for idx in range(len(levels) - 1, -1, -1):
        level = levels[idx]
        above = n - deeper - len(level)
        if (best is None or len(level) <= best[0]) and _fits(above, n):
            nxt = levels[idx + 1] if idx + 1 < len(levels) else ()
            if _fits(max((size[find(v)] for v in nxt), default=0), n):
                best = (len(level), idx)
        added.update(level)
        for v in level:
            for u in G.adj[v]:
                if u in added:
                    ru, rv = find(u), find(v)
                    if ru != rv:
                        if size[ru] < size[rv]:
                            ru, rv = rv, ru
                        parent[rv] = ru
                        size[ru] += size[rv]
        deeper += len(level)
    assert best is not None  # the first level taking the prefix past n/3 balances
    return levels[best[1]]


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


# oracle(G, S) for a connected, sorted vertex subset S returns a cut in
# G's ids: a non-empty set of vertices of S leaving no part of G[S] - cut
# with more than 2|S|/3 vertices
SeparatorOracle = Callable[[Graph, tuple[int, ...]], Iterable[int]]


def _rank(size: int) -> int:
    return math.floor(math.log(size) / math.log(1.5)) if size >= 1 else 0


# one recursion-tree node in discovery order: (parent index or -1, size, cut);
# the cut stays empty until the node is expanded
_TreeNode = tuple[int, int, tuple[int, ...]]


def _cut_node(
    G: Graph, subset: tuple[int, ...], oracle: SeparatorOracle
) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The oracle's cut of a connected, sorted subset and the parts of
    G[subset] - cut, after checking the cut on those parts: it lies in the
    subset, is non-empty, and no part exceeds 2/3 of the subset.  Parts
    summing to at most n split into two groups of at most 2n/3 each exactly
    when the largest part is at most 2n/3 (a part of at least n/3 goes
    alone; smaller parts fill one group up to n/3), so that is the whole
    balance condition."""
    cut = vset(oracle(G, subset))
    rest = set(subset).difference(cut)
    size = len(subset)
    node = f"the node of size {size} with smallest vertex {subset[0]}"
    if len(rest) + len(cut) != size:
        raise SeparatorContractError(f"oracle cut vertices outside {node}")
    if not cut:
        raise SeparatorContractError(
            f"oracle returned an empty cut for a connected subgraph at {node}"
        )
    parts = components_within(G, rest)
    if not _fits(max(map(len, parts), default=0), size):
        raise SeparatorContractError(f"oracle returned unbalanced separation at {node}")
    return cut, parts


def _shatter_tree(
    G: Graph,
    candidates: list[int],
    allowed: Fraction,
    oracle: SeparatorOracle,
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
            cut, parts = _cut_node(G, subset, oracle)
            tree[node] = (tree[node][0], len(subset), cut)
            total += len(cut)
            for comp in parts:
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
    Xs = checked_vset(G, X)
    if Fraction(len(Xs)) > eps * G.n:
        raise ShatterBudgetError(f"|X|={len(Xs)} exceeds epsilon*n={eps * G.n}")
    for comp in components_within(G, set(range(G.n)).difference(Xs)):
        if len(comp) > C:
            raise ShatterBudgetError(f"component of size {len(comp)} exceeds C={C}")


DOUBLINGS = 20  # length of the candidate schedule c0, 2c0, 4c0, ...


def shatter(G: Graph, epsilon, oracle: SeparatorOracle) -> ShatterReport:
    """Remove X with |X| <= epsilon*n so all components of G - X have <= C
    vertices.

    C is the first of c0 = max(2, ceil(sqrt n)), 2c0, 4c0, ... that meets
    the epsilon budget; an oracle cut that breaks its contract is an error.

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
    c0 = max(2, math.ceil(math.sqrt(G.n)))
    candidates = [c0 << i for i in range(DOUBLINGS)]
    C, tree = _shatter_tree(G, candidates, eps * G.n, oracle)
    X_set, trace = _truncate(tree, C)
    try:
        verify_shatter(G, X_set, C, eps)
    except ShatterBudgetError as err:
        raise ShatterBudgetError(
            f"no component bound met the epsilon budget after {len(candidates)} tries: {err}"
        ) from None
    return ShatterReport(tuple(sorted(X_set)), C, tuple(trace))

