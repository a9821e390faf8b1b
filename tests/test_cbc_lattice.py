"""The embedded CBC search in tools/cbc_lattice.py against the kernel's vector."""

import importlib.util
from pathlib import Path

from pairwise_closure import mvn

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cbc_lattice.py"


def _tool():
    spec = importlib.util.spec_from_file_location("cbc_lattice", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_search_re_derives_the_stored_components():
    # the full criterion, run only as far as the kernel's vector goes
    size = mvn._LATTICE_Z.size
    assert _tool().generating_vector(size) == mvn._LATTICE_Z.tolist()
