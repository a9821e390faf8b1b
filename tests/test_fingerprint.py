"""The canonical form behind tools/fingerprint.py, on small samples."""

import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"


def _tool():
    spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class Point:
    x: float
    tags: tuple


def test_dict_keys_are_sorted_and_numpy_values_are_python_ones():
    canonical = _tool().canonical
    first = {"b": np.float64(0.5), "a": np.array([[1, 2]]), "c": np.True_}
    second = {"c": True, "a": [[1, 2]], "b": 0.5}
    assert canonical(first) == canonical(second) == "{'a':[[1,2]],'b':0.5,'c':True}"


def test_floats_are_written_to_the_last_bit():
    canonical = _tool().canonical
    assert canonical(0.1 + 0.2) == "0.30000000000000004"
    assert canonical(0.1 + 0.2) != canonical(0.3)
    assert canonical(np.float32(0.1)) == repr(float(np.float32(0.1)))


def test_sets_dataclasses_and_frozenset_keys():
    canonical = _tool().canonical
    assert canonical({frozenset({2, 1}): 1.0, frozenset({1}): 2.0}) == (
        "{{1,2}:1.0,{1}:2.0}"
    )
    assert canonical(Point(1.5, (1, None))) == "Point{'tags':[1,None],'x':1.5}"


def test_digest_is_sha256_of_the_canonical_form():
    tool = _tool()
    sample = {"value": 1.25, "counts": (1, 2)}
    assert tool.digest(sample) == tool.digest(dict(reversed(sample.items())))
    assert len(tool.digest(sample)) == 64
    assert tool.digest(sample) != tool.digest({"value": 1.25, "counts": (2, 1)})


def test_unknown_types_are_refused():
    with pytest.raises(TypeError):
        _tool().canonical(object())
