"""The benchmark's traced layer names must name public functions of the package.

``bench/tracing.py`` reads per-layer metrics by the name ``layer.function``
of a wrapped function. A function that is renamed or made private is no
longer wrapped, and its metric then reads 0 without any error; this test
fails instead.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _NameRecorder(dict):
    """An empty span summary that records which names a metric reads."""

    def __init__(self):
        super().__init__()
        self.names = []

    def get(self, key, default=None):
        self.names.append(key)
        return default


def _traced_names(tracing):
    names = set(tracing.NOTES) | set(tracing.PEAK_OF)
    for metric, (_, reader) in tracing.PER_LAYER.items():
        summary = _NameRecorder()
        reader(summary)
        assert summary.names, f"{metric} reads no traced function"
        names.update(summary.names)
    return sorted(names)


def test_every_traced_name_is_a_public_function_of_its_layer(tracing):
    names = _traced_names(tracing)
    assert "subspace.newton_step" in names and "numerics.sym_eig" in names
    for name in names:
        layer, func = name.split(".")
        assert layer in tracing.LAYERS, name
        module = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
        obj = getattr(module, func, None)
        assert not func.startswith("_") and inspect.isfunction(obj), name
        assert obj.__module__ == module.__name__, name
