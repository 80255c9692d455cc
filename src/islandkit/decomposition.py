"""Tree and path decompositions: validation, text IO, vertex-disjoint
linkages via Menger (unit-vertex-capacity max flow), and a desk-scale
tree-decomposition builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .graphs import Graph, Separation, checked_vset, int_token, reach, vset


@dataclass(frozen=True)
class _Decomposition:
    bags: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.bags)

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


@dataclass(frozen=True)
class TreeDecomposition(_Decomposition):
    edges: tuple[tuple[int, int], ...]  # decomposition-tree edges

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.bags]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj


@dataclass(frozen=True)
class PathDecomposition(_Decomposition):
    """A sequence of bags.  Its boundaries, vertex runs and interiors are
    computed at most once per object; equality and hash see the bags only."""

    @cached_property
    def boundaries(self) -> tuple[tuple[int, ...], ...]:
        """boundaries[i] is the boundary of bags i and i + 1."""
        return tuple(self.boundary(i, i + 1) for i in range(len(self.bags) - 1))

    @cached_property
    def runs(self) -> Mapping[int, tuple[int, int]]:
        """Each vertex's first and last bag, in order of first appearance;
        read-only, since every reader shares it."""
        runs: dict[int, tuple[int, int]] = {}
        for i, bag in enumerate(self.bags):
            for v in bag:
                runs[v] = (runs[v][0], i) if v in runs else (i, i)
        return MappingProxyType(runs)

    @cached_property
    def interiors(self) -> tuple[tuple[int, ...], ...]:
        """interiors[i]: the vertices of bag i and no other bag, ascending."""
        out: list[list[int]] = [[] for _ in self.bags]
        for v, (a, b) in self.runs.items():
            if a == b:
                out[a].append(v)
        return tuple(tuple(sorted(vs)) for vs in out)

    @property
    def adhesion(self) -> int:
        return max(map(len, self.boundaries), default=0)

    @property
    def proper(self) -> bool:
        """No bag contains a neighbour: each boundary is smaller than both bags."""
        return all(
            len(cut) < min(len(set(a)), len(set(b)))
            for cut, a, b in zip(self.boundaries, self.bags, self.bags[1:])
        )

    def boundary(self, i: int, j: int) -> tuple[int, ...]:
        return tuple(sorted(set(self.bags[i]) & set(self.bags[j])))


@dataclass(frozen=True)
class DecompositionVerdict:
    ok: bool
    violation: str | None = None


def require_kind(D, kind: type, stage: str) -> None:
    """Raise TypeError naming the stage unless D is a `kind` decomposition."""
    if not isinstance(D, kind):
        raise TypeError(f"{stage} needs a {kind.__name__}, got a {type(D).__name__}")


class DecompositionParseError(ValueError):
    """Malformed decomposition text (carries the offending line number)."""


def _tree_violation(k: int, edges: Sequence[tuple[int, int]]) -> str | None:
    """Why k nodes and these edges do not form a tree, or None; O(k)."""
    if len(edges) != k - 1:
        return f"tree has {len(edges)} edges on {k} nodes"
    root = list(range(k))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for a, b in edges:
        if not (0 <= a < k and 0 <= b < k):
            return f"tree edge ({a},{b}) out of range for {k} nodes"
        ra, rb = find(a), find(b)
        if ra == rb:
            return f"tree edge ({a},{b}) closes a cycle"
        root[ra] = rb
    return None


def validate_decomposition(
    G: Graph, D: TreeDecomposition | PathDecomposition
) -> DecompositionVerdict:
    """Check that a tree decomposition's edges form a tree, that bags name
    vertices of G, edge coverage and per-vertex connectivity.

    When every vertex of a path decomposition sits in an interval of bags,
    an edge is covered exactly when its ends' intervals meet, so each edge
    costs O(1).  Otherwise each edge is looked up in the bags of its end
    with fewer of them, which reports the same first violation."""
    bags = D.bags
    if not bags:
        return DecompositionVerdict(G.n == 0, None if G.n == 0 else "no bags")
    where: list[list[int]] = [[] for _ in range(G.n)]  # vertex -> its bags, ascending
    for i, bag in enumerate(bags):
        for v in bag:
            if not 0 <= v < G.n:
                return DecompositionVerdict(False, f"bag {i} names vertex {v} outside the graph")
            if not where[v] or where[v][-1] != i:
                where[v].append(i)
    if isinstance(D, TreeDecomposition):
        violation = _tree_violation(len(bags), D.edges)
        if violation is not None:
            return DecompositionVerdict(False, violation)
    if isinstance(D, PathDecomposition) and all(
        hits and hits[-1] - hits[0] + 1 == len(hits) for hits in where
    ):
        # each edge is met from both ends; the first miss has u < v, since
        # a miss from its larger end was already met from its smaller one
        lo = [hits[0] for hits in where]
        hi = [hits[-1] for hits in where]
        for u, row in enumerate(G.adj):
            first, last = lo[u], hi[u]
            for v in row:
                if lo[v] > last or hi[v] < first:
                    return DecompositionVerdict(False, f"edge ({u},{v}) uncovered")
        return DecompositionVerdict(True)
    bag_sets = [set(b) for b in bags]
    for u, v in G.edges():
        a, b = (u, v) if len(where[u]) <= len(where[v]) else (v, u)
        if not any(b in bag_sets[i] for i in where[a]):
            return DecompositionVerdict(False, f"edge ({u},{v}) uncovered")
    if isinstance(D, PathDecomposition):
        for v, hits in enumerate(where):
            if not hits:
                return DecompositionVerdict(False, f"vertex {v} in no bag")
            if hits[-1] - hits[0] + 1 != len(hits):
                return DecompositionVerdict(False, f"vertex {v} trace not consecutive")
        return DecompositionVerdict(True)
    adj = D.adjacency()
    for v, hits in enumerate(where):
        if not hits:
            return DecompositionVerdict(False, f"vertex {v} in no bag")
        trace = set(hits)
        reach(adj, hits[0], trace)
        if trace:
            return DecompositionVerdict(False, f"vertex {v} trace not connected")
    return DecompositionVerdict(True)


# ---------------------------------------------------------------------------
# text format: "path k" | "tree k", "edge a b" lines (trees), "bag v1 v2 ..."
# ---------------------------------------------------------------------------

_RECORD_ARITY = {"path": 1, "tree": 1, "edge": 2, "bag": None}  # None: any count


def parse_decomposition(text: str) -> TreeDecomposition | PathDecomposition:
    kind: str | None = None
    k = 0
    edge_line = 0  # line of the first edge record
    edges: list[tuple[int, int]] = []
    bags: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        record, *fields = line.split()
        if record not in _RECORD_ARITY:
            raise DecompositionParseError(f"line {lineno}: unknown record {record!r}")
        try:
            values = [int_token(f) for f in fields]
        except ValueError:
            raise DecompositionParseError(
                f"line {lineno}: expected integers after {record!r}, got {raw!r}"
            ) from None
        arity = _RECORD_ARITY[record]
        if arity is not None and len(values) != arity:
            raise DecompositionParseError(
                f"line {lineno}: {record!r} takes {arity} integer(s), got {raw!r}"
            )
        if record in ("path", "tree"):
            if kind is not None:
                raise DecompositionParseError(f"line {lineno}: second header {raw!r}")
            if values[0] < 0:
                raise DecompositionParseError(f"line {lineno}: negative bag count {values[0]}")
            kind, k = record, values[0]
        elif record == "edge":
            edge_line = edge_line or lineno
            edges.append((values[0], values[1]))
        else:
            bags.append(vset(values))
    if kind is None:
        raise DecompositionParseError("missing 'path k' or 'tree k' header")
    if kind == "path" and edges:
        raise DecompositionParseError(f"line {edge_line}: 'edge' record under a 'path' header")
    if len(bags) != k:
        raise DecompositionParseError(f"expected {k} bags, found {len(bags)}")
    if kind == "path":
        return PathDecomposition(tuple(bags))
    return TreeDecomposition(tuple(bags), tuple(edges))


def write_decomposition(D: TreeDecomposition | PathDecomposition) -> str:
    lines = []
    if isinstance(D, PathDecomposition):
        lines.append(f"path {D.order}")
    else:
        lines.append(f"tree {D.order}")
        lines.extend(f"edge {a} {b}" for a, b in D.edges)
    lines.extend("bag " + " ".join(map(str, bag)) for bag in D.bags)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Menger linkage by unit-vertex-capacity augmenting paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Linkage:
    """Pairwise vertex-disjoint A-B paths, each stored as a vertex sequence
    from its A-end to its B-end."""

    paths: tuple[tuple[int, ...], ...]


def find_linkage(G: Graph, A: Iterable[int], B: Iterable[int]) -> Linkage | Separation:
    """Either |A| vertex-disjoint A-B paths or a separation of order < |A|
    with A on one side and B on the other (Menger's dichotomy).

    A and B may intersect; shared vertices yield zero-length paths.

    Shortest augmenting paths (Edmonds-Karp) on the split graph: vertex v
    is an arc v_in -> v_out of capacity 1, edge uv gives uncapacitated arcs
    u_out -> v_in and v_out -> u_in, the source feeds each a_in and each
    b_out feeds the sink.  Unit vertex capacity lets two per-vertex arrays
    hold the whole flow, so no arc array is built: pred[v] is where v's
    unit comes from and succ[v] where it goes (a neighbour, or the source
    and the sink).  The residual arcs follow from them.  v_in has at most
    one: to v_out if v is unused, else back to pred[v]'s out node.  v_out
    has, in this order, the reverse arc to v_in if v is used, the arcs to
    the in nodes of G.adj[v] in row order, which always have capacity, and
    the sink if v is in B.  That is the order in which the split graph
    lists each node's arcs, so the BFS visits nodes in the order a BFS
    over explicit arc lists would: it finds the same augmenting paths,
    hence the same linkage, and its last, failed pass marks the same
    residual-reachable set, hence the same separation.  O(|A|·(n+m)).
    """
    A, B = checked_vset(G, A), checked_vset(G, B)
    if len(A) != len(B):
        raise ValueError(f"|A|={len(A)} != |B|={len(B)}")
    n, adj = G.n, G.adj
    unused, end, source = -1, -2, n  # end: pred from the source, succ to the sink
    pred, succ = [unused] * n, [unused] * n
    in_B = [False] * n
    for b in B:
        in_B[b] = True

    flow = 0
    while flow < len(A):
        # Every arc joins an in node and an out node, so the BFS runs in
        # alternating layers, and following an in node's one arc as soon
        # as the node is reached keeps the out nodes in BFS order.  The
        # queue holds out nodes (and the source); reach_in[w] is the out
        # node whose arc reached w_in, reach_out[y] the in node whose arc
        # reached y_out.
        reach_in, reach_out = [-1] * n, [-1] * n
        queue = [source]
        # the first b_out reached: in FIFO order it is also the first
        # whose sink arc a BFS would take, so the search stops there
        last = -1
        for u in queue:
            if u == source:
                ins = A
            elif pred[u] == unused:
                ins = adj[u]
            else:  # the reverse arc u_out -> u_in comes first
                ins = (u, *adj[u])
            for w in ins:
                if reach_in[w] == -1:
                    reach_in[w] = u
                    p = pred[w]
                    if p == end:  # w_in's arc leads back to the source
                        continue
                    y = w if p == unused else p
                    if reach_out[y] == -1:
                        reach_out[y] = w
                        if in_B[y]:
                            last = y
                            break
                        queue.append(y)
            else:
                continue
            break
        if last == -1:  # no augmenting path
            break
        # Walk the path back from the sink.  An arc into an out node changes
        # no pointer.  An arc u_out -> w_in sends w's unit on from u, or,
        # when u = w, cancels w's unit altogether.
        succ[last] = end
        y = last
        while True:
            w = reach_out[y]
            u = reach_in[w]
            if u == source:
                pred[w] = end
                break
            if u == w:
                pred[w] = succ[w] = unused
            else:
                succ[u], pred[w] = w, u
            y = u
        flow += 1

    if flow == len(A):
        paths = []
        for a in A:
            assert pred[a] == end
            path = [a]
            while succ[path[-1]] != end:
                path.append(succ[path[-1]])
            paths.append(tuple(path))
        return Linkage(tuple(paths))

    # min cut: the last, failed BFS marked the residual-reachable set
    cut = {v for v in range(n) if reach_in[v] != -1 and reach_out[v] == -1}
    left = {v for v in range(n) if reach_in[v] != -1 or reach_out[v] != -1}
    right = (set(range(n)) - left) | cut
    sep = Separation(vset(left), vset(right))
    sep.validate(G)
    assert sep.order < len(A)
    assert set(A) <= set(sep.left) and set(B) <= set(sep.right)
    return sep


# ---------------------------------------------------------------------------
# desk-scale tree decompositions via elimination orderings
# ---------------------------------------------------------------------------

def _decomposition_from_order(G: Graph, order: Sequence[int]) -> TreeDecomposition:
    """Tree decomposition from an elimination ordering (fill-in chordalization)."""
    n = G.n
    pos = {v: i for i, v in enumerate(order)}
    nbrs = [set(G.adj[v]) for v in range(n)]
    bags: list[tuple[int, ...]] = []
    edges: list[tuple[int, int]] = []
    bag_of: dict[int, int] = {}
    later_sets: list[set[int]] = []
    for idx, v in enumerate(order):
        later = {u for u in nbrs[v] if pos[u] > idx}
        later_sets.append(later)
        for a in later:
            for b in later:
                if a < b and b not in nbrs[a]:
                    nbrs[a].add(b)
                    nbrs[b].add(a)
        bags.append(vset(later | {v}))
        bag_of[v] = idx
    last_root = None  # one root per component: chain them into one tree
    for idx, v in enumerate(order):
        later = later_sets[idx]
        if later:
            nxt = min(later, key=lambda u: pos[u])
            edges.append((idx, bag_of[nxt]))
        else:
            if last_root is not None:
                edges.append((last_root, idx))
            last_root = idx
    return TreeDecomposition(tuple(bags), tuple(edges))


def treewidth_decomposition(G: Graph) -> TreeDecomposition:
    """Tree decomposition via the min-fill heuristic.

    Each step eliminates the alive vertex with the fewest missing edges
    among its alive neighbours, ties to the least vertex id, and makes
    those neighbours a clique.  The scores sit in a heap keyed by
    (fill, vertex) with lazy invalidation: eliminating v rescores only
    v's neighbours and the common neighbours of each fill edge, the only
    vertices whose neighbourhood or its missing pairs changed
    (Rose-Tarjan-Lueker's elimination game).  A score is C(d, 2) minus
    inner[v], the number of edges among v's d alive neighbours, and inner
    is kept up to date edge by edge rather than recounted (Bodlaender and
    Koster, Treewidth computations I, 2010).
    """
    if G.n == 0:
        return TreeDecomposition(((),), ())
    nbrs = [set(G.adj[v]) for v in range(G.n)]  # alive neighbours only
    # edges among each vertex's alive neighbours: each is seen from both ends
    inner = [sum(len(row & nbrs[a]) for a in row) // 2 for row in nbrs]

    def fill(v: int) -> int:
        d = len(nbrs[v])
        return d * (d - 1) // 2 - inner[v]

    score = [fill(v) for v in range(G.n)]
    heap = [(s, v) for v, s in enumerate(score)]
    heapify(heap)
    order: list[int] = []
    while heap:
        s, v = heappop(heap)
        if s != score[v]:
            continue
        score[v] = -1  # eliminated: every entry of v left in the heap is stale
        order.append(v)
        around = nbrs[v]
        for u in around:
            nbrs[u].discard(v)
            inner[u] -= len(nbrs[u] & around)  # the edges from v into N(u)
        touched = set(around)
        for a, b in combinations(around, 2):
            if b not in nbrs[a]:
                common = nbrs[a] & nbrs[b]
                nbrs[a].add(b)
                nbrs[b].add(a)
                inner[a] += len(common)
                inner[b] += len(common)
                for c in common:
                    inner[c] += 1
                touched |= common
        for u in touched:
            s = fill(u)
            if s != score[u]:
                score[u] = s
                heappush(heap, (s, u))
    return _decomposition_from_order(G, order)


def restore_properness(P: PathDecomposition) -> PathDecomposition:
    """Merge comparable neighbour bags, leftmost pair first, in one pass:
    each bag absorbs the top of a stack of merged bags while either
    contains the other, so no bag of the result contains a neighbour."""
    require_kind(P, PathDecomposition, "restore_properness")
    stack: list[set[int]] = []  # the merged bags so far
    for bag in P.bags:
        cur = set(bag)
        while stack and (stack[-1] <= cur or cur <= stack[-1]):
            cur |= stack.pop()
        stack.append(cur)
    return PathDecomposition(tuple(map(vset, stack)))
