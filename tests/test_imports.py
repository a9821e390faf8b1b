"""Every module-level import in the package is used by that module, and every
module-level private name is used somewhere in the package."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pairwise_closure"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Imported only so that perfbench/spans.py can wrap it in this namespace.
KEPT_FOR_TRACING = {("closure", "correlation")}


def _bound_names(node: ast.stmt) -> list[str]:
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [(alias.asname or alias.name).split(".")[0] for alias in node.names]


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        # names listed in __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted({name for node in imports for name in _bound_names(node)} - used)


MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"closure", "mvn", "model", "sequential"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_module_level_imports(path):
    unused = {(path.stem, name) for name in _unused_imports(path)}
    assert unused - KEPT_FOR_TRACING == set()


def test_tracing_exceptions_are_still_imported():
    for module, name in KEPT_FOR_TRACING:
        assert name in _unused_imports(SRC / f"{module}.py")


def test_tracing_exceptions_are_still_traced(monkeypatch):
    # once the tracer stops wrapping a name, its import and exception go too
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    wrapped = {(module, name) for module, name, *_ in spans._FUNCTIONS}
    assert KEPT_FOR_TRACING <= wrapped


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level private names (``_x``, not dunder) and their statements."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            names = []
        found.update((name, node) for name in names
                     if name.startswith("_") and not name.endswith("__"))
    return found


def _referenced(stmts) -> set[str]:
    names = set()
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _orphans(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """Private names nothing references outside their own definition.

    Each top-level statement is walked once; a name is used elsewhere when
    some statement besides its definition references it.
    """
    referenced = {id(stmt): _referenced([stmt])
                  for tree in trees.values() for stmt in tree.body}
    statements_naming = Counter(name for names in referenced.values() for name in names)
    return {(module, name) for module, tree in trees.items()
            for name, definition in _private_definitions(tree).items()
            if statements_naming[name] == (name in referenced[id(definition)])}


def test_no_orphaned_private_helpers():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    assert _orphans(trees) == set()


def test_orphan_scan_sees_an_unused_helper():
    trees = {"a": ast.parse("def _used(): return _LIMIT\n_LIMIT = 1\n"
                            "def _left(): return _left()\n__all__ = []\n"),
             "b": ast.parse("from .a import _used\nx = _used()\n")}
    assert _orphans(trees) == {("a", "_left")}
