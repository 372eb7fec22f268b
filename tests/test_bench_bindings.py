"""Every binding the benchmark tracer wraps must still exist in the package.

``perfbench/tracing.py`` patches each name in ``BINDINGS`` when a run is
traced (``perfbench/run.py --trace 1``); a refactor that drops or renames
one of them fails here rather than in the traced run.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    tracing = _load_tracing()
    assert tracing.BINDINGS
    for binding, _span, _kind in tracing.BINDINGS:
        assert callable(tracing.lookup(binding)), binding
