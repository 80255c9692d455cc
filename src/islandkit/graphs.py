"""Immutable simple graphs, generators, and minor-model verification.

Vertices are dense 0-based integers.  All set-valued outputs are sorted
ascending so that every operation is deterministic and diffable.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence


class GraphParseError(ValueError):
    """Malformed edge-list input (carries the offending line number)."""


class GraphValidityError(ValueError):
    """Input violates simplicity (loop, duplicate edge, bad vertex id)."""


def vset(members: Iterable[int]) -> tuple[int, ...]:
    """Normalize an iterable of vertex ids to a sorted tuple."""
    return tuple(sorted(set(members)))


def checked_vset(G: "Graph", members: Iterable[int]) -> tuple[int, ...]:
    """vset(members), raising GraphValidityError that names the first id
    outside range(G.n); negative ids never reach Python's negative
    indexing."""
    out = vset(members)
    if out and (out[0] < 0 or out[-1] >= G.n):
        bad = out[0] if out[0] < 0 else out[-1]
        raise GraphValidityError(f"vertex {bad} out of range for n={G.n}")
    return out


class Graph:
    """Undirected simple graph, immutable after construction."""

    __slots__ = ("n", "adj", "m", "_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphValidityError(f"negative vertex count {n}")
        neighbor_sets: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphValidityError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphValidityError(f"loop at vertex {u}")
            if v in neighbor_sets[u]:
                raise GraphValidityError(f"duplicate edge ({u},{v})")
            neighbor_sets[u].add(v)
            neighbor_sets[v].add(u)
            m += 1
        self.n = n
        self.adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in neighbor_sets
        )
        self.m = m
        self._masks: tuple[int, ...] | None = None

    @classmethod
    def _from_adj(cls, adj: tuple[tuple[int, ...], ...], m: int) -> "Graph":
        """A graph on len(adj) vertices from rows that are already sorted,
        loop-free and symmetric, with m edges; nothing is re-checked.  For
        this module's parser and subgraph builder only."""
        G = cls.__new__(cls)
        G.n = len(adj)
        G.adj = adj
        G.m = m
        G._masks = None
        return G

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        row = self.adj[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def vertices(self) -> range:
        return range(self.n)

    @property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks, built lazily; useful for subset scans."""
        if self._masks is None:
            masks = []
            for v in range(self.n):
                b = 0
                for u in self.adj[v]:
                    b |= 1 << u
                masks.append(b)
            self._masks = tuple(masks)
        return self._masks

    def validate(self) -> None:
        """Re-check adjacency symmetry, sortedness and the edge-count cache."""
        total = 0
        for v in range(self.n):
            row = self.adj[v]
            if list(row) != sorted(set(row)):
                raise GraphValidityError(f"adjacency row {v} not sorted/simple")
            if v in row:
                raise GraphValidityError(f"loop at {v}")
            for u in row:
                if v not in self.adj[u]:
                    raise GraphValidityError(f"asymmetric edge ({v},{u})")
            total += len(row)
        if total != 2 * self.m:
            raise GraphValidityError("edge count cache inconsistent")

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# edge-list text format
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> Graph:
    """Parse an edge-list document into a Graph.

    Lines are "u v" pairs; comments start with '#'.  An optional header
    "n m" is recognized when the first data line, read as a header, is
    consistent with the rest of the file (n >= 1, exactly m following
    edge lines, all endpoints below n); otherwise every line is an edge.
    A document without data lines is the empty graph; a lone "0 0" is a
    loop, not a header.
    """
    rows: list[tuple[int, int, int]] = []  # (lineno, a, b)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: expected two integers, got {raw!r}")
        if a < 0 or b < 0:
            raise GraphParseError(f"line {lineno}: negative vertex id")
        rows.append((lineno, a, b))

    _, hn, hm = rows[0] if rows else (0, 0, 0)
    body = rows[1:]
    if hn >= 1 and hm == len(body) and all(a < hn and b < hn for _, a, b in body):
        n, rows = hn, body
    else:
        n = 1 + max((max(a, b) for _, a, b in rows), default=-1)

    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
    for lineno, a, b in rows:
        if a == b:
            raise GraphValidityError(f"line {lineno}: loop at vertex {a}")
        row = neighbor_sets[a]
        if b in row:
            raise GraphValidityError(f"line {lineno}: duplicate edge ({a},{b})")
        row.add(b)
        neighbor_sets[b].add(a)
    return Graph._from_adj(tuple(tuple(sorted(s)) for s in neighbor_sets), len(rows))


def write_graph(G: Graph) -> str:
    """Emit the edge-list format accepted by parse_graph.  The empty graph
    gets no header: parse_graph would read "0 0" as a loop."""
    lines = ["# generated-by islandkit"]
    if G.n:
        lines.append(f"{G.n} {G.m}")
    lines.extend(f"{u} {v}" for u, v in G.edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# basic queries
# ---------------------------------------------------------------------------

def reach(
    adj: Sequence[Sequence[int]], start: int, unvisited: set[int]
) -> dict[int, int]:
    """Breadth-first search from start through the vertices of unvisited,
    walking each adjacency row in stored order.  Consumes unvisited: every
    vertex reached, start included, is removed from it.  Returns each
    reached vertex mapped to its BFS parent (start to -1), in visit order."""
    unvisited.discard(start)
    parent = {start: -1}
    order = [start]
    for x in order:
        for y in adj[x]:
            if y in unvisited:
                unvisited.remove(y)
                parent[y] = x
                order.append(y)
    return parent


def components_within(G: Graph, S: Iterable[int]) -> list[tuple[int, ...]]:
    """Connected components of G[S], without building the induced subgraph."""
    unvisited = set(S)
    return [
        tuple(sorted(reach(G.adj, s, unvisited)))
        for s in sorted(unvisited)
        if s in unvisited
    ]


def induced_subgraph(G: Graph, S: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Relabeled subgraph on S plus the old-id -> new-id mapping."""
    members = checked_vset(G, S)
    relabel = {v: i for i, v in enumerate(members)}
    k = len(members)
    # Relabelling keeps vertex order, so filtered sorted rows stay sorted.
    # A row longer than |S| is probed by bisection, member by member.
    rows = tuple(
        tuple(relabel[v] for v in G.adj[u] if v in relabel)
        if len(G.adj[u]) <= k
        else tuple(i for i, v in enumerate(members) if G.has_edge(u, v))
        for u in members
    )
    return Graph._from_adj(rows, sum(map(len, rows)) // 2), relabel


def bfs_levels(G: Graph, root: int) -> list[tuple[int, ...]]:
    """BFS level sets from root, within root's component."""
    dist = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for u in G.adj[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    depth = max(dist.values())
    levels: list[list[int]] = [[] for _ in range(depth + 1)]
    for v, d in dist.items():
        levels[d].append(v)
    return [tuple(sorted(level)) for level in levels]


def girth(G: Graph) -> int | None:
    """Length of a shortest cycle, or None if the graph is a forest."""
    best: int | None = None
    for s in range(G.n):
        dist = {s: 0}
        parent = {s: -1}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in G.adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    parent[u] = v
                    queue.append(u)
                elif parent[v] != u:
                    cycle = dist[v] + dist[u] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


# ---------------------------------------------------------------------------
# separations and minor models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Separation:
    """A pair (L, R) of vertex sets covering V(G) with no edge across
    L\\R to R\\L.  The order is |L ∩ R|."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    @property
    def cut(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.left) & set(self.right)))

    @property
    def order(self) -> int:
        return len(self.cut)

    def validate(self, G: Graph) -> None:
        left, right = set(self.left), set(self.right)
        if left | right != set(range(G.n)):
            raise GraphValidityError("separation sides do not cover V(G)")
        strict_left = left - right
        strict_right = right - left
        for v in strict_left:
            for u in G.adj[v]:
                if u in strict_right:
                    raise GraphValidityError(
                        f"edge ({v},{u}) crosses the separation"
                    )


@dataclass(frozen=True)
class MinorModel:
    """Branch sets certifying an H-minor: H-vertex id -> vertex set in G."""

    branch_sets: Mapping[int, tuple[int, ...]]


@dataclass(frozen=True)
class MinorVerdict:
    ok: bool
    violation: str | None = None
    detail: str | None = None


def verify_minor_model(G: Graph, H: Graph, mu: MinorModel) -> MinorVerdict:
    """Check all minor-model invariants, naming the first violated clause."""
    sets = {}
    for h in range(H.n):
        if h not in mu.branch_sets:
            return MinorVerdict(False, "missing branch set", f"H-vertex {h}")
        s = vset(mu.branch_sets[h])
        if not s:
            return MinorVerdict(False, "empty branch set", f"H-vertex {h}")
        for v in s:
            if not (0 <= v < G.n):
                raise GraphValidityError(f"branch set of {h} references vertex {v}")
        sets[h] = s
    seen: dict[int, int] = {}
    for h, s in sets.items():
        for v in s:
            if v in seen:
                return MinorVerdict(False, "overlap", f"vertex {v} in branch sets {seen[v]} and {h}")
            seen[v] = h
    for h, s in sets.items():
        if len(components_within(G, s)) != 1:
            return MinorVerdict(False, "disconnected branch set", f"H-vertex {h}")
    for hu, hv in H.edges():
        su, sv = set(sets[hu]), set(sets[hv])
        if not any(u2 in sv for u in su for u2 in G.adj[u]):
            return MinorVerdict(False, "missing edge", f"H-edge ({hu},{hv})")
    return MinorVerdict(True)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def gen_complete_bipartite(t: int, m: int) -> Graph:
    """K_{t,m}: left side 0..t-1, right side t..t+m-1."""
    if t < 1 or m < 1:
        raise GraphValidityError("complete bipartite sides must be positive")
    return Graph(t + m, [(i, t + j) for i in range(t) for j in range(m)])


def gen_fan(n_apex: int, m_path: int) -> Graph:
    """I_n + P_m: a path on m_path vertices (ids 0..m_path-1) plus n_apex
    vertices each adjacent to the whole path."""
    if n_apex < 0 or m_path < 1:
        raise GraphValidityError("fan needs n_apex >= 0 and m_path >= 1")
    edges = [(i, i + 1) for i in range(m_path - 1)]
    edges.extend(
        (j, m_path + a) for a in range(n_apex) for j in range(m_path)
    )
    return Graph(m_path + n_apex, edges)


def gen_triangulated_grid(r: int, c: int) -> Graph:
    """r x c grid with one fixed diagonal per unit cell ((i,j)-(i+1,j+1))."""
    if r < 2 or c < 2:
        raise GraphValidityError("triangulated grid needs r,c >= 2")

    def vid(i: int, j: int) -> int:
        return i * c + j

    edges = []
    for i in range(r):
        for j in range(c):
            if j + 1 < c:
                edges.append((vid(i, j), vid(i, j + 1)))
            if i + 1 < r:
                edges.append((vid(i, j), vid(i + 1, j)))
            if i + 1 < r and j + 1 < c:
                edges.append((vid(i, j), vid(i + 1, j + 1)))
    return Graph(r * c, edges)


def gen_hex_grid(r: int, c: int) -> Graph:
    """Brick-wall hexagonal lattice with r rows and c columns of cells.

    Points form an (r+1) x (2c+1) grid; every row is a path, and a
    vertical edge joins rows i and i+1 at columns j with j ≡ i (mod 2).
    Max degree 3, girth 6 for r,c >= 1; (1,1) is C6.
    """
    if r < 1 or c < 1:
        raise GraphValidityError("hex grid needs r,c >= 1")
    cols = 2 * c + 1

    def vid(i: int, j: int) -> int:
        return i * cols + j

    edges = []
    for i in range(r + 1):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((vid(i, j), vid(i, j + 1)))
            if i + 1 < r + 1 and j % 2 == i % 2:
                edges.append((vid(i, j), vid(i + 1, j)))
    return Graph((r + 1) * cols, edges)


def gen_outerplanar_gadget(C: int) -> Graph:
    """Three disjoint paths on C+1 vertices; the first vertex of each path
    is joined to every vertex of the next path, cyclically.

    3(C+1) vertices and 3C + 3(C+1) edges.
    """
    if C < 1:
        raise GraphValidityError("gadget needs C >= 1")
    plen = C + 1

    def path_vertex(i: int, k: int) -> int:
        return i * plen + k

    edges = []
    for i in range(3):
        for k in range(plen - 1):
            edges.append((path_vertex(i, k), path_vertex(i, k + 1)))
    for i in range(3):
        vi = path_vertex(i, 0)
        nxt = (i + 1) % 3
        for k in range(plen):
            edges.append((vi, path_vertex(nxt, k)))
    return Graph(3 * plen, edges)


def gen_path(n: int) -> Graph:
    if n < 1:
        raise GraphValidityError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise GraphValidityError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


GENERATORS = {
    "complete_bipartite": gen_complete_bipartite,
    "fan": gen_fan,
    "triangulated_grid": gen_triangulated_grid,
    "hex_grid": gen_hex_grid,
    "outerplanar_gadget": gen_outerplanar_gadget,
    "path": gen_path,
    "cycle": gen_cycle,
}
