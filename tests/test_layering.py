"""The package's internal imports form a layered graph: no module imports
itself back through others, and the graph and separator layers sit below
the island layer, so `islands` can call `separators.shatter` directly.

Every top-level definition is reached from a command (`cli.py`) or a
bench job (`bench/*.py`), or sits on an allowlist of named test oracles,
and every name a module or a test file imports is used in it."""

import ast
from pathlib import Path

import pytest

import islandkit

PACKAGE = Path(islandkit.__file__).parent
BENCH = PACKAGE.parents[1] / "bench"
TESTS = Path(__file__).parent


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


# Top-level definitions that no command or bench job reaches, kept as the
# oracles of named tests; "module.name" -> why it stays.
ALLOWLIST = {
    "percolation.duality_check": "criterion 01: percolation against islands",
    "percolation.DualityVerdict": "criterion 01: duality_check's verdict",
    "percolation.t_percolates": "criterion 01: duality_check's percolation test",
    "coloring.adversarial_list": "criterion 05: the fan's adversarial lists",
    "coloring.verify_no_good_list_coloring": "criterion 05: exhaustive list check",
    "coloring.ListColoringVerdict": "criterion 05: verify_no_good_list_coloring's verdict",
    "islands.disjoint_islands": "criterion 08: the disjoint island family",
    "islands.DisjointIslandsReport": "criterion 08: disjoint_islands' report",
    "coloring.chi_C_bruteforce": "criterion 10: the exact clustered chromatic number",
    "coloring.greedy_palette_for_clustering": "criterion 10: the greedy palette",
    "percolation.resistance_exhaustive": "ROADMAP item 4 will wire it to a command",
    "percolation.resistance_via_islands": "ROADMAP item 4 will wire it to a command",
    "percolation.ResistanceReport": "ROADMAP item 4 will wire it to a command",
    "percolation.budget_for": "ROADMAP item 4 will wire it to a command",
}

Ref = tuple[str, str]  # (module, top-level name)


class Source:
    """One parsed file: its top-level definitions, what its imports bind,
    and its module-level code."""

    def __init__(self, path: Path, module: str):
        self.module = module
        self.tree = ast.parse(path.read_text(), filename=str(path))
        # name -> the statements whose code runs for it: a def or class
        # itself, or an assignment's value
        self.defs: dict[str, list[ast.AST]] = {}
        # local name -> (package module, name), with name None for a module
        self.imports: dict[str, tuple[str, str | None]] = {}
        self.toplevel: list[ast.AST] = []  # module-level code outside both
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.defs.setdefault(stmt.name, []).append(stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            self.defs.setdefault(node.id, []).append(stmt.value)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                self.toplevel.append(stmt)
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom):
                if node.level == 1:
                    source = node.module
                elif node.module and node.module.split(".")[0] == "islandkit":
                    source = node.module.partition(".")[2] or None
                else:
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    if source is None:  # from . import x / from islandkit import x
                        is_module = (PACKAGE / f"{alias.name}.py").exists()
                        self.imports[local] = (
                            (alias.name, None) if is_module else ("__init__", alias.name)
                        )
                    else:
                        self.imports[local] = (source, alias.name)


def code_nodes(node: ast.AST):
    """node and every node below it, except type annotations."""
    yield node
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from code_nodes(child)


class Package:
    def __init__(self):
        self.sources = {
            path.stem: Source(path, path.stem) for path in sorted(PACKAGE.glob("*.py"))
        }

    def definitions(self) -> set[Ref]:
        """The functions and classes, each of which must be reached.  A
        reached assignment's value counts as code, but the assignment need
        not be reached: a type alias is read only by annotations."""
        return {
            (m, stmt.name)
            for m, src in self.sources.items()
            for stmt in src.tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }

    def resolve(self, module: str, name: str) -> Ref | None:
        """The definition `name` means in `module`, through re-imports."""
        src = self.sources.get(module)
        if src is None:
            return None
        if name in src.defs:
            return (module, name)
        bound = src.imports.get(name)
        if bound is not None and bound[1] is not None:
            return self.resolve(*bound)
        return None

    def uses(self, src: Source, nodes) -> set[Ref]:
        """The definitions the code of `nodes` names, read in `src`: bare
        names, and attributes of a package module, whether bound by an
        import or reached as an attribute (`ik.graphs.Graph`)."""
        found: set[Ref] = set()
        for top in nodes:
            for node in code_nodes(top):
                ref = None
                if isinstance(node, ast.Name):
                    ref = self.resolve(src.module, node.id)
                elif isinstance(node, ast.Attribute):
                    base = node.value
                    owner = None
                    if isinstance(base, ast.Name):
                        bound = src.imports.get(base.id)
                        if bound is not None and bound[1] is None:
                            owner = bound[0]
                    elif isinstance(base, ast.Attribute) and base.attr in self.sources:
                        owner = base.attr
                    if owner is not None:
                        ref = self.resolve(owner, node.attr)
                if ref is not None:
                    found.add(ref)
        return found

    def reached(self, roots: set[Ref]) -> set[Ref]:
        seen: set[Ref] = set()
        todo = list(roots)
        while todo:
            ref = todo.pop()
            if ref in seen:
                continue
            seen.add(ref)
            src = self.sources[ref[0]]
            todo.extend(self.uses(src, src.defs[ref[1]]))
        return seen

    def entry_roots(self, bench_files) -> set[Ref]:
        """What the commands and the bench name directly: cli's module-level
        code and its console-script `main`, import-time code of every other
        module but `__init__`, and all code of the bench files."""
        roots = {("cli", "main")}
        for m, src in self.sources.items():
            if m != "__init__":
                roots |= self.uses(src, src.toplevel)
        for path in bench_files:
            bench = Source(path, "<bench>")
            roots |= self.uses(bench, [bench.tree])
        return roots


def _allowlisted() -> set[Ref]:
    return {tuple(name.split(".")) for name in ALLOWLIST}


def unreached(package: Package, bench_files) -> tuple[set[Ref], set[Ref]]:
    """(top-level definitions reached by nothing, allowlisted names that a
    command or bench job reaches anyway)."""
    roots = package.entry_roots(bench_files)
    entry = package.reached(roots)
    everything = package.reached(roots | _allowlisted())
    return package.definitions() - everything, _allowlisted() & entry


def test_every_definition_is_reached_or_allowlisted():
    dead, _ = unreached(Package(), sorted(BENCH.glob("*.py")))
    assert sorted(".".join(r) for r in dead) == []


def test_allowlist_names_only_unreached_definitions():
    package = Package()
    assert _allowlisted() <= package.definitions()
    _, wired = unreached(package, sorted(BENCH.glob("*.py")))
    assert sorted(".".join(r) for r in wired) == []


def unused_imports(src: Source) -> list[str]:
    """The names src's imports bind that nothing else in it reads."""
    read = {node.id for node in ast.walk(src.tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(src.tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(bound)
    return unused


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
)
def test_every_import_is_used(module):
    # __init__'s imports are the package's re-exports, so it is not checked
    assert unused_imports(Package().sources[module]) == []


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_every_test_import_is_used(path):
    assert unused_imports(Source(path, path.stem)) == []


def test_walk_sees_dead_code_and_wiring():
    """The checks above on a made-up package: an uncalled function, an
    allowlisted name that a command calls, a class named only in an
    annotation, and an unused import."""
    package = Package()
    cli = package.sources["cli"]
    extra = ast.parse(
        "import os\n"
        "def orphan():\n    return 1\n"
        "def wired() -> coloring.ListColoringVerdict:\n"
        "    return percolation.duality_check\n"
    )
    cli.tree.body.extend(extra.body)
    for stmt in extra.body:
        if isinstance(stmt, ast.FunctionDef):
            cli.defs[stmt.name] = [stmt]
    cli.toplevel.append(ast.parse("wired()").body[0])
    dead, wired = unreached(package, [])
    assert ("cli", "orphan") in dead
    assert ("cli", "wired") not in dead
    assert ("percolation", "duality_check") in wired
    assert ("coloring", "ListColoringVerdict") not in wired
    assert "os" in unused_imports(cli)
