"""Every module-level import in the package is used by that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pairwise_closure"

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
