"""The package's internal imports form a layered graph: no module imports
itself back through others, and the graph and separator layers sit below
the island layer, so `islands` can call `separators.shatter` directly."""

import ast
from pathlib import Path

import islandkit

PACKAGE = Path(islandkit.__file__).parent


def internal_imports() -> dict[str, set[str]]:
    """Module name -> the package modules it imports anywhere in its
    source, function bodies included; `__init__` stands for the package."""
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    edges: dict[str, set[str]] = {}
    for name, path in modules.items():
        targets = edges[name] = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                if node.level == 1 and node.module is None:  # from . import x
                    targets.update(
                        a.name if a.name in modules else "__init__" for a in node.names
                    )
                elif node.level == 1:  # from .x import y
                    targets.add(node.module.split(".")[0])
                elif node.module and node.module.split(".")[0] == "islandkit":
                    parts = node.module.split(".")
                    targets.add(parts[1] if len(parts) > 1 else "__init__")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if parts[0] == "islandkit":
                        targets.add(parts[1] if len(parts) > 1 else "__init__")
    return edges


def find_cycle(edges: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a list of modules, first repeated last, or None."""
    state: dict[str, int] = {}  # 1 on the DFS stack, 2 finished
    stack: list[str] = []

    def visit(m: str) -> list[str] | None:
        state[m] = 1
        stack.append(m)
        for nxt in sorted(edges.get(m, ())):
            if state.get(nxt) == 1:
                return stack[stack.index(nxt):] + [nxt]
            if nxt not in state:
                found = visit(nxt)
                if found:
                    return found
        stack.pop()
        state[m] = 2
        return None

    for m in sorted(edges):
        if m not in state:
            found = visit(m)
            if found:
                return found
    return None


def test_no_import_cycle():
    assert find_cycle(internal_imports()) is None


def test_cycle_finder_sees_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None


def test_islands_sits_above_graphs_and_separators():
    edges = internal_imports()
    assert "separators" in edges["islands"]
    for low in ("graphs", "separators"):
        assert "islands" not in edges[low], f"{low} imports islands"
