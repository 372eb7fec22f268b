"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances and runtime budgets are pinned here and
nowhere else.
"""

import time

import numpy as np
import pytest

from elliptic_bailey.bailey_algebra import (
    build_D,
    build_M,
    verify_coxeter,
    verify_matrix_bailey,
)
from elliptic_bailey.cli import main as cli_main
from elliptic_bailey.contour import (
    contour_deformation_check,
    designated_poles,
    finite_difference_M,
    finite_difference_oracle,
    residue_matrix_reduction_check,
)
from elliptic_bailey.harness import CampaignConfig, run_campaign, summarize, _sample_draws
from elliptic_bailey.report import identity_deviation, relative_residual
from elliptic_bailey.special_functions import NomePair


def _line(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"{name}: {detail}"


def _discrete_draw(cfg, rng):
    """The DiscreteParams of one matrix-Bailey or Coxeter draw sampled on rng,
    as a campaign samples a draw."""
    ((values, _rejected),) = _sample_draws(cfg, [rng])
    if isinstance(values, Exception):
        raise values
    _mode, params = values
    return params


def test_criterion_01_special_function_identity_suite():
    start = time.perf_counter()
    reports = run_campaign(CampaignConfig(identity="special-functions", seed=20108, draws=100))
    s = summarize(reports)
    elapsed = time.perf_counter() - start
    ok = s.n_pass == 100 and s.max_residual < 1e-11 and elapsed < 10.0
    _line(
        "1 special-functions",
        ok,
        f"100 draws, max residual {s.max_residual:.2e} < 1e-11, {elapsed:.1f}s < 10s",
    )


def test_criterion_02_elliptic_beta_integral():
    start = time.perf_counter()
    reports = run_campaign(CampaignConfig(identity="beta-integral", seed=20205, draws=20))
    s = summarize(reports)
    elapsed = time.perf_counter() - start
    moduli_ok = all(
        all(abs(r.params[f"t{j}"]) <= 0.8 for j in range(1, 7)) for r in reports
    )
    ok = s.n_pass == 20 and s.max_residual < 1e-9 and moduli_ok and elapsed < 60.0
    _line(
        "2 beta-integral",
        ok,
        f"20 draws |t_j| <= 0.8, max residual {s.max_residual:.2e} < 1e-9, {elapsed:.1f}s < 60s",
    )


def test_criterion_03_matrix_bailey_lemma():
    start = time.perf_counter()
    worst = 0.0
    n0_exact = True
    growth_log = []
    for N in range(9):
        reports = run_campaign(
            CampaignConfig(identity="matrix-bailey", seed=20300 + N, draws=50, N=N)
        )
        s = summarize(reports)
        assert s.n_error == 0, s.failures
        worst = max(worst, s.max_residual)
        growth_log.append(s.max_residual)
        if N == 0:
            n0_exact = all(r.residual == 0.0 for r in reports)
    # conditioning growth per N increment: logged, not asserted
    print("  residual growth by N:", " ".join(f"{v:.1e}" for v in growth_log))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and n0_exact and elapsed < 30.0
    _line(
        "3 matrix-bailey",
        ok,
        f"N=0..8 x 50 draws, max residual {worst:.2e} < 1e-9, N=0 exact={n0_exact}, "
        f"{elapsed:.1f}s < 30s",
    )


def test_criterion_04_inversions():
    rng = np.random.default_rng(20400)
    worst_m = worst_d = 0.0
    for i in range(50):
        N = i % 9
        cfg = CampaignConfig(identity="matrix-bailey", seed=0, N=N)
        params = _discrete_draw(cfg, rng)
        nome = params.nome
        m_prod = (
            build_M(N, params.a, params.k, nome).entries
            @ build_M(N, params.k, params.a, nome).entries
        )
        worst_m = max(worst_m, identity_deviation(m_prod))
        t, b, c, q = params.t_tilde, params.b, params.c, nome.q
        d_prod = np.diag(
            build_D(N, t, q * t / c, q * t / b, nome).diag * build_D(N, t, b, c, nome).diag
        )
        worst_d = max(worst_d, identity_deviation(d_prod))
    ok = worst_m < 1e-9 and worst_d < 1e-9
    _line(
        "4 inversions",
        ok,
        f"50 draws N<=8: max|M(a,k)M(k,a)-I| = {worst_m:.2e}, "
        f"max|D D - I| = {worst_d:.2e}, both < 1e-9",
    )


def test_criterion_05_coxeter_suite():
    rng = np.random.default_rng(20500)
    worst_s1 = worst_s2 = 0.0
    bitwise = True
    for i in range(12):
        N = 1 + i % 8
        cfg = CampaignConfig(identity="coxeter", seed=0, N=N)
        params = _discrete_draw(cfg, rng)
        cox = verify_coxeter(params)
        bailey = verify_matrix_bailey(params)
        worst_s1 = max(worst_s1, cox.details["s1_squared_residual"])
        worst_s2 = max(worst_s2, cox.details["s2_squared_residual"])
        bitwise = bitwise and (cox.details["cubic_residual"] == bailey.residual)
    ok = worst_s1 < 1e-9 and worst_s2 < 1e-9 and bitwise
    _line(
        "5 coxeter",
        ok,
        f"S1^2 dev {worst_s1:.2e} < 1e-9, S2^2 dev {worst_s2:.2e} < 1e-9, "
        f"cubic == matrix-bailey bit-for-bit: {bitwise}",
    )


def test_criterion_06_star_triangle():
    start = time.perf_counter()
    reports = run_campaign(CampaignConfig(identity="star-triangle", seed=20600, draws=10))
    s = summarize(reports)
    elapsed = time.perf_counter() - start
    alphas = {r.params["alpha"] for r in reports}
    spectators_ok = all(len(r.params["spectators"]) == 3 for r in reports)
    ok = (
        s.n_pass == 10
        and s.max_residual < 1e-8
        and alphas == {"one", "z+1/z"}
        and spectators_ok
        and elapsed < 300.0
    )
    _line(
        "6 star-triangle",
        ok,
        f"10 draws on alpha=1 and z+1/z, 3 spectators, max residual "
        f"{s.max_residual:.2e} < 1e-8, {elapsed:.1f}s < 300s",
    )


def test_criterion_07_cauchy_deformation():
    nome = NomePair(0.05, 0.8)
    rng = np.random.default_rng(20700)
    worst = 0.0
    for N in range(4):
        coeffs = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
        alpha = designated_poles(0.92 * np.exp(1j * rng.uniform(0, 2 * np.pi)), N, nome.q, coeffs)
        rep = contour_deformation_check(alpha, 0.05, np.exp(1j * rng.uniform(0, 2 * np.pi)),
                                        None, nome)
        worst = max(worst, rep.residual)
    ok = worst < 1e-8
    _line("7 cauchy-deformation", ok, f"N=0..3 designated-poles, max residual {worst:.2e} < 1e-8")


def test_criterion_08_residue_to_matrix_bridge():
    nome = NomePair(0.1, 0.4)
    rng = np.random.default_rng(20800)
    worst = 0.0
    conventions = set()
    wrong_convention_min = np.inf
    for N in range(5):
        a = rng.uniform(0.3, 0.7)
        k = rng.uniform(0.15, 0.6)
        z0, t = np.sqrt(a), np.sqrt(k / a)
        alpha = designated_poles(z0, N, nome.q, rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1))
        rep = residue_matrix_reduction_check(alpha, z0, t, N, nome)
        worst = max(worst, rep.residual)
        conventions.add(rep.details["selected_exponent"])
        if N >= 1:
            wrong_convention_min = min(
                wrong_convention_min, rep.details["residual_exponent_m_minus_1"]
            )
    # the exponent-convention question: the numerics select m(m+1) decisively
    ok = worst < 1e-9 and conventions == {"m(m+1)"} and wrong_convention_min > 1e-3
    _line(
        "8 residue-reduction",
        ok,
        f"N=0..4 max residual {worst:.2e} < 1e-9; selected exponent m(m+1), "
        f"alternative m(m-1) deviates by >= {wrong_convention_min:.1e}",
    )


def test_criterion_09_finite_difference_reduction():
    nome = NomePair(0.1, 0.4)
    f = lambda z: z + 1.0 / z
    rng = np.random.default_rng(20900)
    exact = True
    for _ in range(5):
        x = rng.uniform(0.88, 0.95) * np.exp(2j * np.pi * rng.uniform())
        exact = exact and finite_difference_M(0, 1, x, f, nome) == f(x)
        exact = exact and finite_difference_M(0, -1, x, f, nome) == f(-x)
    x = 0.92 * np.exp(0.4j)
    fd = finite_difference_M(1, 1, x, f, nome)
    vals = [finite_difference_oracle(x, f, nome, e) for e in (1e-2, 5e-3, 2.5e-3)]
    a1 = [2 * vals[i + 1] - vals[i] for i in range(2)]
    rich = (4 * a1[1] - a1[0]) / 3
    res = relative_residual(fd, rich)
    ok = exact and res < 1e-5
    _line(
        "9 finite-difference",
        ok,
        f"N=0 identity/sign exact: {exact}; N=1 vs regularized oracle {res:.2e} < 1e-5",
    )


def test_criterion_10_determinism(capsys):
    cfg = dict(identity="matrix-bailey", seed=21000, draws=8, N=5)
    runs = [
        "\n".join(r.to_json() for r in run_campaign(CampaignConfig(**cfg)))
        for _ in range(2)
    ]
    lib_ok = runs[0] == runs[1]

    argv = ["verify", "special-functions", "--draws", "5", "--seed", "77", "--json"]
    cli_main(list(argv))
    out1 = capsys.readouterr().out
    cli_main(list(argv))
    out2 = capsys.readouterr().out
    cli_ok = out1 == out2 and len(out1.strip().splitlines()) == 6
    _line(
        "10 determinism",
        lib_ok and cli_ok,
        f"library reports byte-identical: {lib_ok}; CLI JSON byte-identical: {cli_ok}",
    )
