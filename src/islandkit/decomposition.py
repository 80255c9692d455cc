"""Tree and path decompositions: validation, text IO, vertex-disjoint
linkages via Menger (unit-vertex-capacity max flow), and a desk-scale
tree-decomposition builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import combinations
from typing import Iterable, Sequence

from .graphs import Graph, Separation, checked_vset, reach, vset


@dataclass(frozen=True)
class TreeDecomposition:
    bags: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]  # decomposition-tree edges

    @property
    def order(self) -> int:
        return len(self.bags)

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.bags]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj


@dataclass(frozen=True)
class PathDecomposition:
    bags: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.bags)

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1

    @property
    def adhesion(self) -> int:
        return max(
            (
                len(set(self.bags[i]) & set(self.bags[i + 1]))
                for i in range(len(self.bags) - 1)
            ),
            default=0,
        )

    @property
    def proper(self) -> bool:
        for i in range(len(self.bags) - 1):
            a, b = set(self.bags[i]), set(self.bags[i + 1])
            if a <= b or b <= a:
                return False
        return True

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
    vertices of G, edge coverage and per-vertex connectivity."""
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
            values = [int(f) for f in fields]
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
    BFS augmenting paths on the split graph, O(|A|·(n+m)).
    """
    A, B = checked_vset(G, A), checked_vset(G, B)
    if len(A) != len(B):
        raise ValueError(f"|A|={len(A)} != |B|={len(B)}")
    n = G.n
    # node 2v = v_in, 2v+1 = v_out, source = 2n, sink = 2n+1;
    # only the in->out arcs have capacity 1, so the min cut is a vertex cut.
    # Arc e runs to head[e] with residual capacity cap[e]; arc e ^ 1 is its
    # reverse, and arc 2v is v_in -> v_out.  out[x] lists the arcs leaving
    # x in the order they are added, which fixes the BFS order.
    source, sink = 2 * n, 2 * n + 1
    big = n + 1
    head = [e ^ 1 for e in range(2 * n)]
    cap = [1, 0] * n
    out = [[e] for e in range(2 * n)] + [[], []]
    for u, row in enumerate(G.adj):
        u_in = 2 * u
        for v in row:
            if u < v:
                # u_out -> v_in, then v_out -> u_in, each with its reverse
                e = len(head)
                head += (2 * v, u_in + 1, u_in, 2 * v + 1)
                cap += (big, 0, big, 0)
                out[u_in + 1].append(e)
                out[2 * v].append(e + 1)
                out[2 * v + 1].append(e + 2)
                out[u_in].append(e + 3)
    for a in A:
        out[source].append(len(head))
        out[2 * a].append(len(head) + 1)
        head += (2 * a, source)
        cap += (big, 0)
    for b in B:
        out[2 * b + 1].append(len(head))
        out[sink].append(len(head) + 1)
        head += (sink, 2 * b + 1)
        cap += (big, 0)
    orig = cap[:]  # the flow on arc e is orig[e] - cap[e]

    flow = 0
    while flow < len(A):
        # BFS for an augmenting path; prev[y] is the arc that reached y
        prev = [-1] * (2 * n + 2)
        prev[source] = -2
        queue = [source]
        for x in queue:
            for e in out[x]:
                if cap[e]:
                    y = head[e]
                    if prev[y] == -1:
                        prev[y] = e
                        queue.append(y)
            if prev[sink] != -1:
                break
        else:  # no augmenting path
            break
        x = sink
        while x != source:
            e = prev[x]
            cap[e] -= 1
            cap[e ^ 1] += 1
            x = head[e ^ 1]
        flow += 1

    if flow == len(A):
        # an arc carries flow iff its residual capacity dropped below the
        # original; unit vertex capacity leaves each used v_out exactly one
        # such arc, so the walk is deterministic
        paths = []
        for a, e in zip(A, out[source]):
            assert orig[e] - cap[e] > 0
            path = [a]
            x = 2 * a + 1
            while True:
                y = head[next(f for f in out[x] if orig[f] > cap[f])]
                if y == sink:
                    break
                path.append(y >> 1)
                x = y + 1
            paths.append(tuple(path))
        return Linkage(tuple(paths))

    # min cut: the last, failed BFS marked the residual-reachable set
    cut = {v for v in range(n) if prev[2 * v] != -1 and prev[2 * v + 1] == -1}
    left = {v for v in range(n) if prev[2 * v] != -1 or prev[2 * v + 1] != -1}
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


def treewidth_decomposition(G: Graph, k: int | None = None) -> TreeDecomposition:
    """Tree decomposition via the min-fill heuristic.

    Each step eliminates the alive vertex with the fewest missing edges
    among its alive neighbours, ties to the least vertex id, and makes
    those neighbours a clique.  The scores sit in a heap keyed by
    (fill, vertex) with lazy invalidation: eliminating v rescores only
    v's neighbours and the common neighbours of each fill edge, the only
    vertices whose neighbourhood or its missing pairs changed
    (Rose-Tarjan-Lueker's elimination game).

    If a width bound k is given and missed on a graph of at most 11
    vertices, let w be the least width >= k that some elimination order
    reaches.  Unless min-fill already reaches w, the result is the tree of
    the lexicographically first order of width <= w, found by dynamic
    programming over eliminated vertex sets (Bodlaender et al., 2012).
    """
    if G.n == 0:
        return TreeDecomposition(((),), ())
    nbrs = [set(G.adj[v]) for v in range(G.n)]  # alive neighbours only

    def fill(v: int) -> int:
        # around - nbrs[a] holds a and every non-neighbour of a in around,
        # so the sum counts each missing pair twice and each a once
        around = nbrs[v]
        return (sum(len(around - nbrs[a]) for a in around) - len(around)) // 2

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
        touched = set(around)
        for a, b in combinations(around, 2):
            if b not in nbrs[a]:
                nbrs[a].add(b)
                nbrs[b].add(a)
                touched |= nbrs[a] & nbrs[b]
        for u in touched:
            s = fill(u)
            if s != score[u]:
                score[u] = s
                heappush(heap, (s, u))
    td = _decomposition_from_order(G, order)
    if k is None or td.width <= k or G.n > 11:
        return td
    n, full, masks = G.n, (1 << G.n) - 1, G.neighbor_masks

    def fits(S: int, v: int, w: int) -> bool:
        # eliminating v after the set S leaves Q(S, v), the vertices outside
        # S | {v} that v reaches through S, as its later neighbours; it fits
        # if |Q(S, v)| <= w and an order of width <= w can eliminate the rest
        seen, todo = 1 << v, [v]
        while todo:
            new = masks[todo.pop()] & ~seen
            seen |= new
            todo.extend(u for u in range(n) if (new & S) >> u & 1)
        return (seen & ~S).bit_count() - 1 <= w and done(S | 1 << v, w)

    @cache
    def done(S: int, w: int) -> bool:
        return S == full or any(fits(S, v, w) for v in range(n) if not S >> v & 1)

    w = next((w for w in range(k, td.width) if done(0, w)), None)
    if w is None:
        return td
    S, best = 0, []
    while S != full:
        best.append(next(v for v in range(n) if not S >> v & 1 and fits(S, v, w)))
        S |= 1 << best[-1]
    return _decomposition_from_order(G, best)


def restore_properness(P: PathDecomposition) -> tuple[PathDecomposition, list[tuple[int, int]]]:
    """Merge comparable neighbour bags, leftmost pair first, in one pass:
    each bag absorbs the top of a stack of merged bags while either contains
    the other.  Also returns the interval partition of input bags merged."""
    require_kind(P, PathDecomposition, "restore_properness")
    stack: list[tuple[set[int], int, int]] = []  # (merged bag, first and last input bag)
    for i, bag in enumerate(P.bags):
        cur, first = set(bag), i
        while stack and (stack[-1][0] <= cur or cur <= stack[-1][0]):
            top, first, _ = stack.pop()
            cur |= top
        stack.append((cur, first, i))
    return (
        PathDecomposition(tuple(vset(b) for b, _, _ in stack)),
        [(first, last) for _, first, last in stack],
    )
