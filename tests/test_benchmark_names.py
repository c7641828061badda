"""Every per-layer benchmark metric must still name a public library object.

The benchmark's tracer reports ``<layer>.<name>.calls`` (also ``.self_s`` and
``.errors``) only for callables in a layer module's ``__all__``, and the
benchmark refuses to run when a metric listed in BENCHMARK.json is missing.
This test catches such a deletion or rename here instead.
"""

import importlib
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SUFFIXES = (".calls", ".self_s", ".errors")


def _traced_names() -> list:
    names = set()
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        name = metric["name"]
        if name.endswith(SUFFIXES):
            parts = name.rsplit(".", 1)[0].split(".")
            # layer totals such as randgen.calls name no object
            if len(parts) > 1:
                names.add(tuple(parts))
    return sorted(names)


def test_benchmark_names_are_read():
    assert len(_traced_names()) >= 40


@pytest.mark.parametrize("parts", _traced_names(), ids=".".join)
def test_traced_name_is_public(parts):
    layer, attr, *members = parts
    module = importlib.import_module(f"spectralab.{layer}")
    assert attr in module.__all__
    obj = getattr(module, attr)
    for member in members:
        obj = getattr(obj, member)
    assert callable(obj)
