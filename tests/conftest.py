import os
import random
import sys

import pytest
from hypothesis import strategies as st

from islandkit import cli, decomposition, surgery
from islandkit.graphs import Graph, induced_subgraph


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_bounded_degree_graph(rng: random.Random, n: int, max_degree: int) -> Graph:
    """Sparse 'planar-ish' graph: a spanning path plus a few random chords,
    respecting a degree cap."""
    degree = [0] * n
    edges = set()
    for v in range(1, n):
        edges.add((v - 1, v))
        degree[v - 1] += 1
        degree[v] += 1
    attempts = 2 * n
    for _ in range(attempts):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        u, v = min(u, v), max(u, v)
        if (u, v) in edges or degree[u] >= max_degree or degree[v] >= max_degree:
            continue
        edges.add((u, v))
        degree[u] += 1
        degree[v] += 1
    return Graph(n, sorted(edges))


@st.composite
def graphs(draw, max_n: int = 8, min_n: int = 1):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, keep in zip(pairs, mask) if keep])


def linkage_keys(G: Graph, P) -> set:
    """The distinct (adjacency, left, right) triples of the path
    decomposition P's internal bags, each relabelled to 0..|bag|-1: the
    inputs of find_linkage."""
    keys = set()
    for z in range(1, P.order - 1):
        sub, relabel = induced_subgraph(G, P.bags[z])
        left = tuple(relabel[v] for v in P.boundary(z - 1, z))
        right = tuple(relabel[v] for v in P.boundary(z, z + 1))
        keys.add((sub.adj, left, right))
    return keys


def line_events(modules, fn, *args) -> int:
    """Line events executed in the source files of `modules` during fn."""
    files = {os.path.abspath(m.__file__) for m in modules}
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def on_call(frame, event, arg):
        return local if os.path.abspath(frame.f_code.co_filename) in files else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def validations(monkeypatch):
    """The decompositions passed to validate_decomposition, as bound in
    surgery and cli, one entry per call."""
    seen = []

    def counting(G, D):
        seen.append(D)
        return decomposition.validate_decomposition(G, D)

    for module in (surgery, cli):
        monkeypatch.setattr(module, "validate_decomposition", counting)
    return seen
