"""The benchmark's span tracer still finds every package boundary it wraps.

``perfbench/spans.py`` replaces named functions and methods of the package
with timing wrappers and raises ``LookupError`` when one is missing.  A
refactor that renames or drops a wrapped name then fails here, not only in a
traced benchmark run.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("mvn", "model", "closure", "power", "sequential", "combination",
           "simulate", "cli")


def test_every_span_boundary_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    pkg = {name: importlib.import_module(f"pairwise_closure.{name}") for name in MODULES}
    # snapshot every wrapped attribute, so a partial install that stops at a
    # missing name is still undone
    for mod_name, attr, *_ in spans._FUNCTIONS:
        if hasattr(pkg[mod_name], attr):
            monkeypatch.setattr(pkg[mod_name], attr, getattr(pkg[mod_name], attr))
    for mod_name, cls_name, meth, _ in spans._METHODS:
        cls = getattr(pkg[mod_name], cls_name, None)
        if cls is not None and hasattr(cls, meth):
            monkeypatch.setattr(cls, meth, getattr(cls, meth))
    saved = []
    try:
        saved = spans.install(pkg, spans.Tracer())
    finally:
        spans.uninstall(saved)
    assert len(saved) == len(spans._FUNCTIONS) + len(spans._METHODS)
    for key, (mod_name, attr, _) in spans.ENTRY_POINTS.items():
        assert callable(getattr(pkg[mod_name], attr)), key
