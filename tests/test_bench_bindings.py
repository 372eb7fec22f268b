"""Every binding the benchmark tracer wraps must still exist in the package.

``perfbench/tracing.py`` patches each name in ``BINDINGS`` when a run is
traced (``perfbench/run.py --trace 1``); a refactor that drops or renames
one of them fails here rather than in the traced run.
"""

import importlib.util
import inspect
from pathlib import Path

from elliptic_bailey import bailey_algebra, contour, harness, special_functions

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


def _names(fn):
    return list(inspect.signature(fn).parameters)


def test_positions_the_tracer_reads():
    # the tracer's hooks read these arguments by position; a shifted one
    # would miscount contour.kernel.points or the sampler's attempts silently
    assert _names(contour._m_single)[2] == "n"
    assert _names(contour._m_apply_grid)[1] == "n"
    assert _names(contour._kernel_at)[2] == "z"
    assert _names(bailey_algebra.build_M)[:4] == ["N", "a", "k", "nome"]
    assert _names(harness._sample_until)[2] == "build"


def test_ring_engine_arguments():
    # a hook on the ring engine reads (scales, n, nome) by position
    assert _names(special_functions._gamma_rings) == ["scales", "n", "nome"]
    assert contour._gamma_rings is special_functions._gamma_rings
