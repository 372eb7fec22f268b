"""Every binding the benchmark tracer wraps must still exist in the package.

``perfbench/tracing.py`` patches each name in ``BINDINGS`` when a run is
traced (``perfbench/run.py --trace 1``); a refactor that drops or renames
one of them fails here rather than in the traced run.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np

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
    # _after_gamma reads the pointwise engine's (z, nome)
    assert _names(special_functions._gamma_vec)[:2] == ["z", "nome"]


def test_ring_engine_arguments():
    # no hook wraps the ring engine; contour's nodes and _gamma_vec both call
    # the one engine, which takes (scales, n, nome) first
    assert _names(special_functions._gamma_rings)[:3] == ["scales", "n", "nome"]
    assert contour._gamma_rings is special_functions._gamma_rings


def test_drive_contract_the_tracer_reads():
    # the tracer wraps args[0] as eval_at(n), counting the n it is called
    # with, and reads result[1].n_nodes
    assert _names(contour._drive)[0] == "eval_at"
    tracer = _load_tracing().Tracer()
    try:
        passes = []

        def eval_at(n):
            passes.append(n)
            return 1.0, 1.0 / (1.0 - 0.9 * special_functions._roots(n))

        value, info = contour._drive(eval_at, 1e-12)
        report = contour.elliptic_beta_integral(0.5, 0.6, 0.45, 0.55, 0.4,
                                                special_functions.NomePair(0.08, 0.12))
    finally:
        assert tracer.restore() == []
    assert info.n_nodes == passes[-1]
    # the beta integral's passes double from DEFAULT_N0 up to its n_nodes
    beta_nodes = 2 * report.settings["n_nodes"] - contour.DEFAULT_N0
    assert tracer.counts["contour.drive.nodes_evaluated"] == sum(passes) + beta_nodes
    assert tracer.counts["contour.drive.nodes_final"] == info.n_nodes + report.settings["n_nodes"]
    assert np.isclose(value, 2j * np.pi)
