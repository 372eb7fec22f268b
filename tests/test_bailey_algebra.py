import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from elliptic_bailey import bailey_algebra as ba
from elliptic_bailey import special_functions as sf
from elliptic_bailey.bailey_algebra import (
    BaileySequence,
    DiscreteParams,
    bailey_transform,
    bressoud_limit_check,
    build_D,
    build_M,
    conditioning_amplification,
    d_entry,
    derive_bc,
    m_entry,
    verify_coxeter,
    verify_matrix_bailey,
)
from elliptic_bailey.errors import BaileyPairError, DegenerateParameterError, DomainError
from elliptic_bailey.report import identity_deviation, relative_residual
from elliptic_bailey.special_functions import NomePair, theta

import oracles


@pytest.fixture
def nome():
    return NomePair(0.08, 0.3)


def draw_params(rng, N, nome, free_bc=False, amp_cap=1e5):
    """Rejection-sample an admissible parameter set (theta guard plus the
    double-precision conditioning guard)."""
    for _ in range(500):
        a = rng.uniform(0.1, 0.8) * np.exp(2j * np.pi * rng.uniform())
        k = rng.uniform(0.1, 0.8) * np.exp(2j * np.pi * rng.uniform())
        t = rng.uniform(0.1, 0.8) * np.exp(2j * np.pi * rng.uniform())
        y = rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
        try:
            if free_bc:
                b = rng.uniform(0.3, 1.2) * np.exp(2j * np.pi * rng.uniform())
                c = nome.q * a * t / (k * b)
                params = DiscreteParams(a=a, k=k, t_tilde=t, b=b, c=c, y=y, N=N, nome=nome)
            else:
                params = DiscreteParams.from_y(a=a, k=k, t_tilde=t, y=y, N=N, nome=nome)
            if conditioning_amplification(params) > amp_cap:
                continue
            return params
        except DegenerateParameterError:
            continue
    raise RuntimeError("sampler failed to find admissible parameters")


class TestDeriveBc:
    def test_product_rule(self, nome):
        rng = np.random.default_rng(3)
        for _ in range(30):
            t = rng.uniform(0.1, 0.8) * np.exp(2j * np.pi * rng.uniform())
            a = rng.uniform(0.1, 0.8) * np.exp(2j * np.pi * rng.uniform())
            k = rng.uniform(0.1, 0.8) * np.exp(2j * np.pi * rng.uniform())
            y = rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
            b, c = derive_bc(t, a, k, y, nome)
            assert abs(k * b * c / (nome.q * a * t) - 1) < 1e-13

    def test_equal_nomes_unit_y(self):
        nome = NomePair(0.2, 0.2)
        t, a, k = 0.2, 0.35, 0.6
        b, c = derive_bc(t, a, k, 1.0, nome)
        assert abs(b - nome.q * np.sqrt(t * a / k)) < 1e-15
        assert abs(c - np.sqrt(t * a / k)) < 1e-15

    def test_squares_match_radicands(self):
        nome = NomePair(0.1, 0.15)
        t, a, k, y = 0.2, 0.35, 0.6, 0.9 * np.exp(0.3j)
        b, c = derive_bc(t, a, k, y, nome)
        assert abs((b / y) ** 2 - nome.p * nome.q * t * a / k) < 1e-15
        assert abs((c * y) ** 2 - nome.q * t * a / (nome.p * k)) < 1e-15

    def test_zero_k_rejected(self, nome):
        with pytest.raises(DomainError):
            derive_bc(0.2, 0.3, 0.0, 1.0, nome)

    def test_zero_p_rejected(self):
        with pytest.raises(DomainError, match="p != 0"):
            derive_bc(0.2, 0.3, 0.5, 1.0, NomePair(0.0, 0.3))


class TestMEntry:
    def test_corner_is_one(self, nome):
        assert m_entry(0, 0, 0.3, 0.7, nome) == 1.0

    def test_upper_entries_exactly_zero(self, nome):
        for N, m in [(0, 1), (2, 3), (3, 7)]:
            assert m_entry(N, m, 0.3, 0.7, nome) == 0.0

    def test_against_factor_oracle(self):
        nome = NomePair(0.1, 0.2)
        got = m_entry(2, 1, 0.3, 0.7, nome)
        # oracles: theta_pochhammer / theta_series factor by factor
        assert abs(got - (-0.0038996201278499384)) < 1e-14

    def test_build_matches_entries(self, nome):
        mat = build_M(3, 0.35 + 0.1j, 0.6 - 0.05j, nome)
        for n in range(4):
            for m in range(4):
                want = oracles.m_entry_reference(n, m, 0.35 + 0.1j, 0.6 - 0.05j, nome)
                assert abs(mat.entries[n, m] - want) < 1e-12 * max(abs(mat.entries[n, m]), 1.0)

    def test_row_sums_against_double_loop(self, nome):
        a, k = 0.45, 0.3 + 0.2j
        mat = build_M(3, a, k, nome)
        fast = mat.entries.sum(axis=1)
        slow = np.zeros(4, dtype=complex)
        for n in range(4):
            acc = 0j
            for m in range(n + 1):
                acc += oracles.m_entry_reference(n, m, a, k, nome)
            slow[n] = acc
        assert relative_residual(fast, slow) < 1e-13

    def test_matrix_immutable(self, nome):
        mat = build_M(2, 0.4, 0.6, nome)
        with pytest.raises(ValueError):
            mat.entries[0, 0] = 5.0

    @pytest.mark.parametrize("a, k", [(0, 0.5), (0.5, 0)])
    def test_zero_a_or_k_is_a_domain_error(self, nome, a, k):
        with pytest.raises(DomainError):
            build_M(2, a, k, nome)

    def test_a_fault_in_the_table_is_not_turned_into_a_rejection(self, nome, monkeypatch):
        # a sampler resamples a DegenerateParameterError, so a fault must
        # surface as itself
        def fault(*args):
            raise ValueError("stub fault")

        monkeypatch.setattr(ba, "_guarded_pochhammer", fault)
        with pytest.raises(ValueError, match="stub fault"):
            build_M(2, 0.5, 0.4, nome)


class TestDEntry:
    def test_zeroth_is_one(self, nome):
        assert d_entry(0, 0.4, 0.5, 0.9, nome) == 1.0

    def test_symmetric_cancellation(self, nome):
        # c = aq/b makes numerator and denominator coincide
        a, b = 0.4, 0.55
        c = a * nome.q / b
        for m in range(5):
            assert abs(d_entry(m, a, b, c, nome) - 1) < 1e-13

    def test_against_factor_oracle(self):
        nome = NomePair(0.15, 0.2)
        c = 0.9 * (nome.q * 0.4 * 0.2 / 0.6) / 0.5
        got = d_entry(3, 0.4, 0.5, c, nome)
        assert abs(got - 128768.27297641322) / 128768.27297641322 < 1e-12

    def test_diagonal_inversion(self, nome):
        rng = np.random.default_rng(5)
        for _ in range(20):
            params = draw_params(rng, 5, nome)
            t, b, c, q = params.t_tilde, params.b, params.c, nome.q
            left = build_D(5, t, q * t / c, q * t / b, nome)
            right = build_D(5, t, b, c, nome)
            assert identity_deviation(np.diag(left.diag * right.diag)) < 1e-11


def _sweep_cases():
    """Seeded parameter sets over N = 0..8, with real and complex nomes."""
    rng = np.random.default_rng(20400)
    cases = []
    for N in range(9):
        for complex_nome in (False, True):
            p, q = rng.uniform(0.02, 0.3), rng.uniform(0.1, 0.6)
            if complex_nome:
                p *= np.exp(1j * rng.uniform(-np.pi, np.pi))
                q *= np.exp(1j * rng.uniform(-np.pi, np.pi))
            a, k, b, c = (rng.uniform(0.2, 0.9) * np.exp(2j * np.pi * rng.uniform())
                          for _ in range(4))
            cases.append((N, NomePair(p, q), a, k, b, c))
    return cases


def _raises_degenerate(fn, *args):
    try:
        fn(*args)
    except DegenerateParameterError:
        return True
    return False


class TestAgainstPerEntryReference:
    """build_M and build_D against the former per-entry formulas, and the
    single-entry evaluators as lookups into them."""

    @pytest.mark.parametrize("N,nome,a,k,b,c", _sweep_cases())
    def test_build_M_matches_reference(self, N, nome, a, k, b, c):
        ent = build_M(N, a, k, nome).entries
        for n in range(N + 1):
            for m in range(N + 1):
                want = oracles.m_entry_reference(n, m, a, k, nome)
                if m > n:
                    assert ent[n, m] == 0.0
                else:
                    assert abs(ent[n, m] - want) <= 1e-12 * abs(want)
        for m in range(N + 2):
            assert m_entry(N, m, a, k, nome) == (ent[N, m] if m <= N else 0.0)

    @pytest.mark.parametrize("N,nome,a,k,b,c", _sweep_cases())
    def test_build_D_matches_reference(self, N, nome, a, k, b, c):
        diag = build_D(N, a, b, c, nome).diag
        assert diag[0] == 1.0
        for m in range(N + 1):
            want = oracles.d_entry_reference(m, a, b, c, nome)
            assert abs(diag[m] - want) <= 1e-12 * abs(want)
        assert d_entry(N, a, b, c, nome) == diag[N]

    def test_build_D_guard_is_the_denominator_factors(self, nome):
        # aq/b q^j = 1 is a zero of theta(.; p), so exactly the N > j raise
        a, c = 0.4 + 0.1j, 0.7 - 0.2j
        for j in range(4):
            b = a * nome.q ** (1 + j)
            for N in range(7):
                assert _raises_degenerate(build_D, N, a, b, c, nome) == (j < N)
                assert _raises_degenerate(build_D, N, a, c, b, nome) == (j < N)
                old = any(_raises_degenerate(oracles.d_entry_reference, m, a, b, c, nome)
                          for m in range(N + 1))
                assert old == (j < N)
        # a factor of ~1e-8 passes; only factors under THETA_GUARD raise
        b = a * nome.q * (1 + 1e-8)
        assert abs(theta(a * nome.q / b, nome.p)) > 1e-9
        build_D(5, a, b, c, nome)

    def test_m_entry_raises_where_build_M_does(self, nome):
        q, p = nome.q, nome.p
        # zeros of theta(qa q^j) for j = 0..5, of theta(a) (a = 1, p), and a regular point
        for a in [q ** (-1 - j) for j in range(6)] + [1.0, p, 0.45 + 0.2j]:
            for N in range(5):
                whole = _raises_degenerate(build_M, N, a, 0.6 - 0.1j, nome)
                for m in range(N + 1):
                    assert _raises_degenerate(m_entry, N, m, a, 0.6 - 0.1j, nome) == whole
                assert m_entry(N, N + 1, a, 0.6 - 0.1j, nome) == 0.0
        # the per-entry formula guarded only its own N+m factors of theta(qa)_j
        assert _raises_degenerate(m_entry, 3, 0, q ** -5, 0.6, nome)
        assert not _raises_degenerate(oracles.m_entry_reference, 3, 0, q ** -5, 0.6, nome)


class TestMatrixBailey:
    def test_n0_residual_zero(self, nome):
        params = draw_params(np.random.default_rng(7), 0, nome)
        assert verify_matrix_bailey(params).residual == 0.0

    def test_random_draws(self, nome):
        rng = np.random.default_rng(11)
        for N in (1, 3, 4, 6):
            for _ in range(5):
                params = draw_params(rng, N, nome)
                rep = verify_matrix_bailey(params)
                assert rep.residual < 1e-9, f"N={N}: {rep.residual}"

    def test_free_bc_only_product_rule(self, nome):
        # the identity needs only k b c = q a t, not the specific y-split
        rng = np.random.default_rng(13)
        for _ in range(10):
            params = draw_params(rng, 4, nome, free_bc=True)
            rep = verify_matrix_bailey(params)
            assert rep.residual < 1e-9

    def test_bc_relabeling_symmetry(self, nome):
        # the right side is invariant under (b, c) -> (c, b)
        params = draw_params(np.random.default_rng(17), 3, nome)
        swapped = DiscreteParams(
            a=params.a, k=params.k, t_tilde=params.t_tilde,
            b=params.c, c=params.b, y=params.y, N=params.N, nome=nome,
        )
        r1 = verify_matrix_bailey(params)
        r2 = verify_matrix_bailey(swapped)
        assert relative_residual(r1.lhs, r2.lhs) < 1e-12

    def test_product_rule_enforced(self, nome):
        with pytest.raises(DegenerateParameterError):
            DiscreteParams(a=0.4, k=0.6, t_tilde=0.2, b=0.5, c=0.9, y=1.0, N=2, nome=nome)


class TestConditioning:
    def test_nan_inversion_product_is_not_masked(self):
        # M(k,a) and M(k,t) overflow to NaN here while the key identity and the
        # first inversion product stay finite, so only the later products are NaN
        params = DiscreteParams(a=0.75, k=0.125, t_tilde=0.5, b=0.5, c=0.65625, y=1, N=5,
                                nome=NomePair(0.234375, 0.109375))
        assert np.isfinite(params.matrices["ak"]).all()
        assert not np.isfinite(params.matrices["ka"]).all()
        assert not np.isfinite(conditioning_amplification(params))


class TestInversions:
    def test_m_inversion(self, nome):
        rng = np.random.default_rng(19)
        for N in (2, 5, 8):
            for _ in range(5):
                params = draw_params(rng, N, nome)
                prod = build_M(N, params.a, params.k, nome).entries @ build_M(
                    N, params.k, params.a, nome
                ).entries
                assert identity_deviation(prod) < 1e-9


class TestBaileyTransform:
    def test_seed_pair_unit_vector(self, nome):
        params = draw_params(np.random.default_rng(23), 4, nome)
        e0 = np.zeros(5, dtype=complex)
        e0[0] = 1.0
        alpha = BaileySequence(values=e0)
        m_at = build_M(4, params.a, params.t_tilde, nome)
        beta = BaileySequence(values=m_at.entries @ e0, role="beta")
        a2, b2 = bailey_transform(alpha, beta, params)
        res = relative_residual(b2.values, build_M(4, params.a, params.k, nome).entries @ a2.values)
        assert res < 1e-9

    def test_two_step_composition(self, nome):
        rng = np.random.default_rng(29)
        params = draw_params(rng, 4, nome)
        alpha = BaileySequence(values=rng.normal(size=5) + 1j * rng.normal(size=5))
        beta = BaileySequence(
            values=build_M(4, params.a, params.t_tilde, nome).entries @ alpha.values,
            role="beta",
        )
        a2, b2 = bailey_transform(alpha, beta, params)
        # second step: the old k becomes the new t
        for _ in range(100):
            k2 = rng.uniform(0.1, 0.8) * np.exp(2j * np.pi * rng.uniform())
            y2 = rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
            try:
                params2 = DiscreteParams.from_y(
                    a=params.a, k=k2, t_tilde=params.k, y=y2, N=4, nome=nome
                )
                break
            except DegenerateParameterError:
                continue
        a3, b3 = bailey_transform(a2, b2, params2, input_tol=1e-8)
        res = relative_residual(b3.values, build_M(4, params.a, k2, nome).entries @ a3.values)
        assert res < 1e-7

    def test_scalar_case_exact(self, nome):
        params = draw_params(np.random.default_rng(31), 0, nome)
        alpha = BaileySequence(values=np.array([1.5 + 0.5j]))
        beta = BaileySequence(values=np.array([1.5 + 0.5j]), role="beta")
        a2, b2 = bailey_transform(alpha, beta, params)
        res = relative_residual(b2.values, build_M(0, params.a, params.k, nome).entries @ a2.values)
        assert res == 0.0

    def test_bad_pair_rejected(self, nome):
        params = draw_params(np.random.default_rng(37), 3, nome)
        alpha = BaileySequence(values=np.ones(4, dtype=complex))
        beta = BaileySequence(values=np.full(4, 17.0, dtype=complex), role="beta")
        with pytest.raises(BaileyPairError):
            bailey_transform(alpha, beta, params)

    def test_nan_pair_residual_rejected(self, nome, monkeypatch):
        params = draw_params(np.random.default_rng(37), 3, nome)
        alpha = BaileySequence(values=np.ones(4, dtype=complex))
        beta = BaileySequence(values=build_M(3, params.a, params.t_tilde, nome).entries @ alpha.values,
                              role="beta")
        monkeypatch.setattr(ba, "relative_residual", lambda lhs, rhs: math.nan)
        with pytest.raises(BaileyPairError, match="residual nan"):
            bailey_transform(alpha, beta, params)


class TestCoxeter:
    def test_relations(self, nome):
        rng = np.random.default_rng(41)
        for N in (2, 5):
            params = draw_params(rng, N, nome)
            rep = verify_coxeter(params)
            assert rep.details["s1_squared_residual"] < 1e-10
            assert rep.details["s2_squared_residual"] < 1e-11
            assert rep.details["cubic_residual"] < 1e-9

    def test_cubic_matches_matrix_bailey_bitwise(self, nome):
        params = draw_params(np.random.default_rng(43), 5, nome)
        cox = verify_coxeter(params)
        bailey = verify_matrix_bailey(params)
        assert cox.details["cubic_residual"] == bailey.residual

    def test_a_nan_term_fails_the_draw(self, nome, monkeypatch, nan_on_call):
        params = draw_params(np.random.default_rng(41), 4, nome)
        poisons = {
            "s1_squared_residual": ("identity_deviation", 0, math.nan),
            "s2_squared_residual": ("identity_deviation", 1, math.nan),
            "cubic_residual": ("_worst_entry", 0, (math.nan, 0j, 0j)),
        }
        for term, (name, call, nan) in poisons.items():
            with monkeypatch.context() as m:
                m.setattr(ba, name, nan_on_call(getattr(ba, name), call, nan))
                rep = verify_coxeter(params)
            assert math.isnan(rep.details[term]), term
            assert math.isnan(rep.residual) and not rep.passed, term


class TestBuiltOncePerDraw:
    """A draw evaluates every theta factor once, in its build's one product
    call; its six M and four D are assembled from those values in the same
    build, and neither the conditioning estimate nor any check calls the
    product kernel, theta, build_M or build_D again."""

    @staticmethod
    def _count_calls(monkeypatch):
        # a draw's one product call is its build's theta table, through
        # special_functions (a theta call, for a draw built alone)
        calls = {"theta": 0, "build": 0}
        rows_orig = sf._qpoch_rows

        def counted_rows(*args, **kwargs):
            calls["theta"] += 1
            return rows_orig(*args, **kwargs)

        def no_build(*args, **kwargs):
            calls["build"] += 1
            raise AssertionError("a draw must not call the public builders")

        monkeypatch.setattr(sf, "_qpoch_rows", counted_rows)
        monkeypatch.setattr(ba, "build_M", no_build)
        monkeypatch.setattr(ba, "build_D", no_build)
        return calls

    def test_checks_after_conditioning_build_no_M(self, nome, monkeypatch):
        params = draw_params(np.random.default_rng(51), 4, nome)
        calls = self._count_calls(monkeypatch)
        fresh = dataclasses.replace(params)
        assert calls["theta"] == 1
        conditioning_amplification(fresh)
        verify_matrix_bailey(fresh)
        verify_coxeter(fresh)
        e0 = np.eye(5, dtype=complex)[0]
        bailey_transform(BaileySequence(values=e0),
                         BaileySequence(values=fresh.matrices["at"] @ e0, role="beta"), fresh)
        assert calls == {"theta": 1, "build": 0}

    def test_fresh_coxeter_builds_each_object_once(self, nome, monkeypatch):
        fresh = dataclasses.replace(draw_params(np.random.default_rng(52), 5, nome))
        calls = self._count_calls(monkeypatch)
        verify_coxeter(fresh)
        assert calls == {"theta": 0, "build": 0}
        assert set(fresh.matrices) == {"ak", "ta", "ka", "at", "tk", "kt"}
        assert set(fresh.diagonals) == {"a;b,c", "t;b,c", "k;qt/b,qt/c", "t;qt/c,qt/b"}
        for memo in ("matrices", "diagonals", "key_lhs"):
            assert memo in vars(fresh)

    @pytest.mark.parametrize("free_bc", [False, True])
    def test_reports_do_not_depend_on_the_memo(self, nome, free_bc):
        rng = np.random.default_rng(53)
        for N in (0, 3, 7):
            conditioned = draw_params(rng, N, nome, free_bc=free_bc)
            for verify in (verify_matrix_bailey, verify_coxeter):
                fresh = dataclasses.replace(conditioned)
                assert "matrices" not in vars(fresh)
                assert verify(fresh).to_json() == verify(conditioned).to_json()


_modulus = st.floats(0.1, 0.8)
_phase = st.floats(0.0, 1.0)


def _on_circle(draw, modulus):
    return draw(modulus) * cmath.exp(2j * math.pi * draw(_phase))


@st.composite
def _discrete_params(draw):
    """Admissible draws over N = 0..8, real and complex nomes, y-split and
    free (b, c)."""
    N = draw(st.integers(0, 8))
    p, q = draw(st.floats(0.02, 0.3)), draw(st.floats(0.1, 0.6))
    if draw(st.booleans()):
        p, q = p * cmath.exp(2j * math.pi * draw(_phase)), q * cmath.exp(2j * math.pi * draw(_phase))
    nome = NomePair(p, q)
    a, k, t = (_on_circle(draw, _modulus) for _ in range(3))
    try:
        if draw(st.booleans()):
            return DiscreteParams.from_y(a, k, t, _on_circle(draw, st.floats(0.5, 1.5)), N, nome)
        b = _on_circle(draw, st.floats(0.3, 1.2))
        return DiscreteParams(a=a, k=k, t_tilde=t, b=b, c=nome.q * a * t / (k * b),
                              y=1.0, N=N, nome=nome)
    except DegenerateParameterError:
        assume(False)


def _assert_close(got, want):
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _random_params(rng):
    """A seeded parameter set over N = 0..9 with real or complex nomes; at
    small q and large N some of its matrices overflow.  None where the theta
    guard rejects it."""
    N = int(rng.integers(0, 10))
    p, q = rng.uniform(0.02, 0.3), rng.uniform(0.05, 0.6)
    if rng.uniform() < 0.4:
        p, q = p * cmath.exp(2j * math.pi * rng.uniform()), q * cmath.exp(2j * math.pi * rng.uniform())
    nome = NomePair(p, q)
    a, k, t = (rng.uniform(0.1, 0.8) * cmath.exp(2j * math.pi * rng.uniform()) for _ in range(3))
    try:
        if rng.uniform() < 0.5:
            y = rng.uniform(0.5, 1.5) * cmath.exp(2j * math.pi * rng.uniform())
            return DiscreteParams.from_y(a, k, t, y, N, nome)
        b = rng.uniform(0.3, 1.2) * cmath.exp(2j * math.pi * rng.uniform())
        return DiscreteParams(a=a, k=k, t_tilde=t, b=b, c=nome.q * a * t / (k * b),
                              y=1.0, N=N, nome=nome)
    except DegenerateParameterError:
        return None


def _per_matrix_conditioning(params):
    """The conditioning estimate as four separate terms, each modulus taken
    from its own matrix."""
    m = params.matrices
    tri = np.tril_indices(params.N + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = params.diagonals["a;b,c"][:, None] * m["ta"]
        lhs, lhs_abs = m["ak"] @ scaled, np.abs(m["ak"]) @ np.abs(scaled)
        return float(np.max([
            np.max(lhs_abs[tri] / np.maximum(np.abs(lhs[tri]), 1e-300)),
            np.max(np.abs(m["ak"]) @ np.abs(m["ka"])),
            np.max(np.abs(m["at"]) @ np.abs(m["ta"])),
            np.max(np.abs(m["tk"]) @ np.abs(m["kt"])),
        ]))


class TestThetaTable:
    """The memoised matrices of a draw against the public builders, which make
    their own table, and against the per-entry reference formulas."""

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(params=_discrete_params())
    def test_memos_match_builders_and_references(self, params):
        # at small q and large N the Pochhammer products overflow
        assume(all(np.isfinite(m).all() for m in params.matrices.values()))
        # near a zero of theta, an argument the builders recompute (D(t; qt/c,
        # qt/b) reads theta(tq/(qt/b)) where the table reads theta(b)) loses
        # digits to cancellation in 1 - z
        assume(np.abs(params._factors).min() > 1e-3)
        N, nome, q = params.N, params.nome, params.nome.q
        a, k, t, b, c = params.a, params.k, params.t_tilde, params.b, params.c
        xy = {"a": a, "k": k, "t": t}
        for key, ent in params.matrices.items():
            x, y = xy[key[0]], xy[key[1]]
            _assert_close(ent, build_M(N, x, y, nome).entries)
            ref = np.array([[oracles.m_entry_reference(n, m, x, y, nome) for m in range(N + 1)]
                            for n in range(N + 1)])
            _assert_close(ent, ref)
        args = {"a;b,c": (a, b, c), "t;b,c": (t, b, c),
                "k;qt/b,qt/c": (k, q * t / b, q * t / c), "t;qt/c,qt/b": (t, q * t / c, q * t / b)}
        assert set(params.diagonals) == set(args)
        for key, diag in params.diagonals.items():
            x, u, v = args[key]
            _assert_close(diag, build_D(N, x, u, v, nome).diag)
            _assert_close(diag, np.array([oracles.d_entry_reference(m, x, u, v, nome)
                                          for m in range(N + 1)]))

    def test_assembly_equals_the_row_loop(self):
        # the stacked assembly multiplies the same factors in the same order
        # as a loop over the rows of one matrix, so every entry of every slice
        # of a stack, of one matrix or of six, is bit-identical
        rng = np.random.default_rng(61)
        for N in range(10):
            poch = _complex_normal(rng, (21, 2 * N + 2))
            factors = _complex_normal(rng, (21, 2 * N + 1))
            for size in (1, 6):
                rows = rng.integers(0, 21, size=(5, size))
                x = _complex_normal(rng, size)
                got = ba._stacked_M(x[None], poch[None], factors[None], rows)[0]
                assert got.shape == (size, N + 1, N + 1)
                for s in range(size):
                    y, yx, qx, q, xr = rows[:, s]
                    ratio = np.ones(N + 1, dtype=complex)
                    ratio[1:] = factors[xr, 2::2] / factors[xr, 0]
                    want = np.zeros((N + 1, N + 1), dtype=complex)
                    for n in range(N + 1):
                        m = np.arange(n + 1)
                        want[n, : n + 1] = (poch[y][n + m] * poch[yx][n - m]
                                            / (poch[qx][n + m] * poch[q][n - m])
                                            * ratio[m] * complex(x[s]) ** (n - m))
                    assert np.array_equal(got[s], want)

    def test_stacked_diagonals_equal_the_single_formula(self):
        # each slice of a stack of one or four diagonals has the bits of
        # D_m(x; u, v) formed alone, sides multiplied in the order of u and v
        rng = np.random.default_rng(62)

        def side():
            u = complex(*rng.normal(size=2))
            return u, *rng.integers(0, 8, size=2)

        for N in range(10):
            n1 = N + 1
            poch = _complex_normal(rng, (8, n1 + 2))
            for size in (1, 4):
                spec = [(complex(*rng.normal(size=2)), side(), side()) for _ in range(size)]
                # a tie in the real part is broken by the imaginary part
                xq, (u, nu, du), _ = spec[0]
                spec[0] = (xq, (u, nu, du), (complex(u.real, -u.imag), *rng.integers(0, 8, size=2)))
                got = ba._stacked_D(poch[None], n1, [spec])[0]
                assert got.shape == (size, n1)
                for s, (xq, *sides) in enumerate(spec):
                    (u, nu, du), (v, nv, dv) = sorted(sides, key=lambda e: (e[0].real, e[0].imag))
                    want = (poch[nu, :n1] * poch[nv, :n1] / (poch[du, :n1] * poch[dv, :n1])
                            * (xq / (u * v)) ** np.arange(n1))
                    assert np.array_equal(got[s], want)
                swapped = [(xq, side_v, side_u) for xq, side_u, side_v in spec]
                assert np.array_equal(ba._stacked_D(poch[None], n1, [swapped])[0], got)

    def test_conditioning_equals_the_per_matrix_formula(self):
        # the stacked moduli and the one stacked inversion product give the
        # bits of the four-term formula that took each modulus separately,
        # NaN and inf included
        rng = np.random.default_rng(63)
        drawn = nonfinite = 0
        while drawn < 2000:
            params = _random_params(rng)
            if params is None:
                continue
            drawn += 1
            got = conditioning_amplification(params)
            want = _per_matrix_conditioning(params)
            nonfinite += not np.isfinite(want)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert nonfinite >= 50

    def test_worst_entry_is_the_relative_residual_and_its_argmax(self):
        rng = np.random.default_rng(64)
        for _ in range(200):
            shape = (int(rng.integers(1, 10)),) * 2
            lhs = _complex_normal(rng, shape)
            rhs = lhs * (1 + 1e-12 * _complex_normal(rng, shape))
            for arr in (lhs, rhs):
                special = rng.random(shape) < 0.1
                arr[special] = rng.choice([0, np.inf, np.nan, 1e-310], size=special.sum())
            with np.errstate(invalid="ignore"):
                residual, at_lhs, at_rhs = ba._worst_entry(lhs, rhs)
                want = relative_residual(lhs, rhs)
                scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
                idx = np.unravel_index(np.argmax(np.abs(lhs - rhs) / scale), shape)
            assert np.float64(residual).tobytes() == np.float64(want).tobytes()
            assert np.array([at_lhs, at_rhs]).tobytes() == np.array([lhs[idx], rhs[idx]]).tobytes()

    @pytest.mark.parametrize("N,nome,a,k,b,c", _sweep_cases())
    def test_build_D_is_exactly_symmetric_in_b_and_c(self, N, nome, a, k, b, c):
        assert np.array_equal(build_D(N, a, b, c, nome).diag, build_D(N, a, c, b, nome).diag)

    def test_zero_b_or_c_is_a_domain_error(self, nome):
        for N in (0, 3):
            with pytest.raises(DomainError):
                build_D(N, 0.4, 0.0, 0.5, nome)
            with pytest.raises(DomainError):
                build_D(N, 0.4, 0.5, 0.0, nome)


class TestBressoudLimit:
    def test_p_zero_entries_are_products_of_linear_factors(self):
        # with p = 0 each theta collapses to (1 - z)
        nome0 = NomePair(0.0, 0.5)
        a, k, q = 0.45, 0.7, 0.5

        def poch0(z, n):
            return np.prod([1 - z * q**j for j in range(n)]) if n >= 0 else None

        got = m_entry(2, 1, a, k, nome0)
        want = (
            poch0(k, 3) * poch0(k / a, 1) / (poch0(q * a, 3) * poch0(q, 1))
            * (1 - a * q**2) / (1 - a) * a
        )
        assert abs(got - want) < 1e-14

    def test_limit_convergence(self):
        rep = bressoud_limit_check(3, 0.45, 0.7, 0.5)
        assert rep.details["smallest_p_residual"] < 1e-6
        assert rep.details["extrapolation_residual"] < 1e-9
        assert rep.passed

    def test_a_nan_part_fails_the_check(self, monkeypatch, nan_on_call):
        residual = ba.relative_residual
        for call, part in enumerate(["extrapolation_residual", "smallest_p_residual"]):
            with monkeypatch.context() as m:
                m.setattr(ba, "relative_residual", nan_on_call(residual, call))
                rep = bressoud_limit_check(3, 0.45, 0.7, 0.5)
            assert math.isnan(rep.details[part]), part
            assert math.isnan(rep.residual) and not rep.passed, part

    def test_triangularity_survives_all_p(self):
        for p in (0.0, 1e-8, 1e-4, 0.2):
            mat = build_M(3, 0.45, 0.7, NomePair(p, 0.5))
            assert np.all(mat.entries[np.triu_indices(4, k=1)] == 0.0)

    def test_complex_q_rejected(self):
        with pytest.raises(DomainError):
            bressoud_limit_check(2, 0.4, 0.6, 0.5 + 0.1j)


def _memo_bits(params):
    """Every memo of a built parameter set, as bytes, and its field types."""
    arrays = (params._bases, params._factors, params._poch, *params._m_stack,
              *params.diagonals.values(), *params.key_lhs)
    assert not any(memo.flags.writeable for memo in arrays)
    return ([memo.tobytes() for memo in arrays]
            + [list(params.diagonals), np.float64(conditioning_amplification(params)).tobytes()]
            + [type(getattr(params, name)) for name in ("a", "k", "t_tilde", "b", "c", "y")])


def _built_alone(fields):
    try:
        return DiscreteParams(**fields)
    except Exception as exc:
        return exc


def _assert_stack_matches_alone(drafts, cap=None):
    """DiscreteParams.stack(drafts, cap) against DiscreteParams(**fields) per
    draft: the same memo bits, or the same error, and under the cap
    exactly the draws whose amplification is at most cap (NaN rejects)."""
    stacked = DiscreteParams.stack(drafts, cap)
    assert len(stacked) == len(drafts)
    for fields, got in zip(drafts, stacked):
        alone = _built_alone(fields)
        if isinstance(alone, Exception):
            assert (type(got), str(got)) == (type(alone), str(alone))
        elif cap is not None and not conditioning_amplification(alone) <= cap:
            assert isinstance(got, DegenerateParameterError)
            assert "conditioning amplification" in str(got)
        else:
            assert isinstance(got, DiscreteParams)
            assert _memo_bits(got) == _memo_bits(alone)
    return stacked


@st.composite
def _draft(draw, N, fixed_a, shared_nome):
    """The fields of one draw at size N, as the sampler forms them: y-split
    with Python complex fields, or a free (b, c) with numpy complex128 ones;
    on its own real or complex nome or on one the chunk shares, and with a
    or without the chunk's fixed a (a Python complex, as a fixed value is)."""
    if draw(st.booleans()):
        nome = shared_nome
    else:
        p, q = draw(st.floats(0.02, 0.3)), draw(st.floats(0.1, 0.6))
        if draw(st.booleans()):
            p, q = p * cmath.exp(2j * math.pi * draw(_phase)), q * cmath.exp(2j * math.pi * draw(_phase))
        nome = NomePair(p, q)
    fixed = draw(st.booleans())
    a, k, t = (_on_circle(draw, _modulus) for _ in range(3))
    if draw(st.booleans()):
        return DiscreteParams.y_split(fixed_a if fixed else a, k, t,
                                      _on_circle(draw, st.floats(0.5, 1.5)), N, nome)
    a = fixed_a if fixed else np.complex128(a)
    k, t, b = np.complex128(k), np.complex128(t), np.complex128(_on_circle(draw, st.floats(0.3, 1.2)))
    return dict(a=a, k=k, t_tilde=t, b=b, c=nome.q * a * t / (k * b), y=1.0, N=N, nome=nome)


def _faulty_drafts(N):
    """Three draws of size N that their build ends: theta(aq/b; p) = theta(1;
    p) = 0 under the guard, a product rule that fails, and p so near 1 that
    the theta order passes MAX_TERMS."""
    nome = NomePair(0.1, 0.3)
    guard = dict(a=0.5, k=0.4, t_tilde=0.6, b=0.5 * nome.q, c=0.6 / 0.4, y=1.0, N=N, nome=nome)
    rule = dict(guard, b=0.5, c=0.9)
    order = DiscreteParams.y_split(0.5, 0.4, 0.6, 1.1, N, NomePair(1 - 1e-12, 0.3))
    return [guard, rule, order]


class TestStackedBuild:
    """A stacked build gives each draw the memos, bits and errors of its
    build alone, whatever draws share its chunk and its blocks."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data(), N=st.integers(0, 8))
    def test_each_draw_keeps_the_bits_of_its_build_alone(self, data, N):
        fixed_a = _on_circle(data.draw, _modulus)
        shared = NomePair(data.draw(st.floats(0.02, 0.3)), data.draw(st.floats(0.1, 0.6)))
        drafts = data.draw(st.lists(_draft(N, fixed_a, shared), min_size=1, max_size=40))
        at = data.draw(st.integers(0, len(drafts)))
        drafts[at:at] = _faulty_drafts(N)
        stacked = _assert_stack_matches_alone(drafts)
        _assert_stack_matches_alone(drafts, cap=1e5)
        assert isinstance(stacked[at], DegenerateParameterError)
        assert isinstance(stacked[at + 1], DegenerateParameterError)
        assert isinstance(stacked[at + 2], sf.TruncationLimitError)

    def test_a_nan_amplification_a_guard_and_an_order_fault_in_one_chunk(self):
        # TestConditioning's draw, whose inversion products overflow to NaN,
        # among 30 regular draws and the three faulty ones, across blocks
        nan_draw = dict(a=0.75, k=0.125, t_tilde=0.5, b=0.5, c=0.65625, y=1, N=5,
                        nome=NomePair(0.234375, 0.109375))
        rng = np.random.default_rng(71)
        drafts = []
        for _ in range(30):
            nome = NomePair(rng.uniform(0.05, 0.12), rng.uniform(0.25, 0.4))
            a, k, t = (rng.uniform(0.1, 0.8) * np.exp(2j * np.pi * rng.uniform()) for _ in range(3))
            drafts.append(DiscreteParams.y_split(a, k, t, 1.2, 5, nome))
        drafts[7:7] = [nan_draw, *_faulty_drafts(5)]
        assert len(drafts) > ba._block_draws(5)
        stacked = _assert_stack_matches_alone(drafts)
        assert math.isnan(conditioning_amplification(stacked[7]))
        capped = _assert_stack_matches_alone(drafts, cap=1e5)
        assert str(capped[7]) == "conditioning amplification nan is over the cap 1e+05"
        assert sum(isinstance(params, DiscreteParams) for params in capped) > 20

    def test_drafts_of_several_N_or_other_fields_are_refused(self):
        # a block is built at its first draw's N, so a draw of another N
        # would get another size's tables; a missing field would surface
        # only later, as an AttributeError
        nome = NomePair(0.08, 0.3)
        drafts = [DiscreteParams.y_split(0.5, 0.4, 0.6, 1.1, N, nome) for N in (8, 3)]
        with pytest.raises(DomainError, match="one N"):
            DiscreteParams.stack(drafts)
        missing = {name: value for name, value in drafts[1].items() if name != "y"}
        for bad in (missing, {**drafts[1], "extra": 1}):
            with pytest.raises(TypeError, match="fields"):
                DiscreteParams.stack([drafts[1], bad])

    def test_no_table_of_a_block_passes_the_pass_bytes(self):
        # each memo views a table of its block; at N = 8 one draw's M stack
        # and theta rows are ~8-9 KB, so 32 draws take three blocks
        rng = np.random.default_rng(72)
        drafts = [DiscreteParams.y_split(*(rng.uniform(0.1, 0.8) * np.exp(2j * np.pi * rng.uniform())
                                           for _ in range(3)), 1.1, 8, NomePair(0.08, 0.3))
                  for _ in range(32)]
        built = [params for params in DiscreteParams.stack(drafts) if isinstance(params, DiscreteParams)]
        assert len(built) > 20
        for params in built:
            for memo in (params._bases, params._factors, params._poch, *params._m_stack,
                         *params.diagonals.values(), *params.key_lhs):
                assert memo.base.nbytes <= sf._PASS_BYTES
        assert len({id(params._m_stack[0].base) for params in built}) == -(-32 // ba._block_draws(8))
