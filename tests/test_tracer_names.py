"""Every function the benchmark tracer wraps still exists under its name.

``perfbench/tracing.py`` looks each name up with ``getattr`` at install
time, so a renamed or deleted function would only fail a traced benchmark
run; this test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    if not TRACING.exists():
        pytest.skip("perfbench/tracing.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, name) for mod, names in module.TRACED.items() for name in names]


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    for mod, name in traced:
        target = importlib.import_module(f"assoform.{mod}")
        for part in name.split("."):
            assert hasattr(target, part), f"assoform.{mod}.{name} is gone"
            target = getattr(target, part)
        assert callable(target), f"assoform.{mod}.{name} is not callable"
