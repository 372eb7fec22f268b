import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from elliptic_bailey import contour, special_functions
from elliptic_bailey.errors import (
    DomainError,
    PoleProximityError,
    DegenerateParameterError,
    TruncationLimitError,
)
from elliptic_bailey.special_functions import (
    NomePair,
    elliptic_gamma,
    elliptic_pochhammer,
    gamma_quadratic_check,
    gamma_residue_constant,
    gamma_truncation_orders,
    qpochhammer_inf,
    theta,
    theta_pochhammer_sequence,
    _annulus_shift,
    _gamma_rings,
    _gamma_vec,
    _qpoch_order,
    _qpoch_rows,
    _ring,
    _roots,
    _series_order,
    _shift_nomes,
    _theta_ring,
    _truncation_order,
)

import oracles


@pytest.fixture
def nome():
    return NomePair(0.1, 0.2)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# strategies for the property tests: complex nomes, and points near the
# boundaries where the gamma engine's theta shift changes
# ---------------------------------------------------------------------------

_moduli = st.floats(0.02, 0.75)
_phases = st.floats(0.0, 1.0)
# log-uniform moduli from 1e-14 to 0.75, which take the series order down to 1
_tiny_moduli = st.floats(-14.0, math.log10(0.75)).map(lambda e: 10.0**e)
# n = 1 is the pointwise case of the engine
_ring_sizes = st.sampled_from([1, 2, 3, 4, 5, 8, 16, 64, 128, 256])


@st.composite
def _nomes(draw, allow_zero=True, moduli=_moduli):
    """(p, q) with complex phases; either nome may be exactly 0."""
    pair = []
    for _ in range(2):
        mod = draw(st.one_of(st.just(0.0), moduli) if allow_zero else moduli)
        pair.append(mod * np.exp(2j * np.pi * draw(_phases)))
    return NomePair(*pair)


@st.composite
def _scales(draw, nome, count):
    """Ring scales, each placed just inside or just outside a boundary where
    the theta shift k changes, or anywhere in 0.05 < |s| < 20."""
    u, v = _shift_nomes(nome)
    out = []
    for _ in range(count):
        phase = np.exp(2j * np.pi * draw(_phases))
        if u != 0 and draw(st.booleans()):
            # |s| with log|w| - target = (k + 1/2) log|u|, nudged by a factor
            log_u = math.log(abs(u))
            target = 0.5 * math.log(abs(u * v)) if v != 0 else log_u
            k = draw(st.integers(-4, 4))
            nudge = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-9, 1e-2))
            out.append(math.exp(target - (k + 0.5) * log_u + nudge) * phase)
        else:
            out.append(math.exp(draw(st.floats(math.log(0.05), math.log(20.0)))) * phase)
    return np.array(out)


def _lattice_gap(z, nome):
    """min |1 - z p^j q^k| over j, k <= 40: the relative distance to the pole lattice."""
    lattice = np.outer(nome.p ** np.arange(41), nome.q ** np.arange(41)).ravel()
    return float(np.min(np.abs(1.0 - z.ravel()[:, None] * lattice)))


def _off_lattice(scales, n, nome):
    """Whether every ring point keeps a gap of 1e-2 from the pole lattice: nearer,
    1 - x loses digits to cancellation in either evaluation."""
    return _lattice_gap(scales[:, None] * _roots(n), nome) > 1e-2


def _theta_gap(z, p):
    """min |1 - z p^j| over |j| <= 40: the relative distance to the zeros of theta(z; p)."""
    return float(np.min(np.abs(1.0 - np.ravel(z)[:, None] * p ** np.arange(-40, 41))))


def _zero_gap(z, nome):
    """|1 - z / (p^{j+1} q^{k+1})| minimised over j, k <= 40 for each point:
    the relative distance to the zeros of Gamma (inf if p q = 0, where Gamma
    has none)."""
    zeros = nome.p * nome.q * np.outer(nome.p ** np.arange(41), nome.q ** np.arange(41)).ravel()
    zeros = zeros[np.abs(zeros) > 1e-250]
    if not zeros.size:
        return np.full(np.shape(z), np.inf)
    return np.min(np.abs(zeros - np.ravel(z)[:, None]) / np.abs(zeros), axis=1).reshape(np.shape(z))


def _gamma_oracle(z, nome):
    """Gamma(z) from the 40-digit double product, run until its next factors
    are 1 to 1e-22."""
    top = max(abs(nome.p), abs(nome.q))
    reach = max(abs(z), abs(nome.p * nome.q / z), 1.0)
    order = math.ceil(math.log(1e-22 / reach) / math.log(top)) + 2
    return oracles.elliptic_gamma_product(z, nome.p, nome.q, order=order)


# near a zero of Gamma, 1 - x loses digits to cancellation in either
# evaluation, which then errs by about eps/gap: on 550 random points 1e-6 to
# 1e-2 from the zeros j, k <= 5 (|p|, |q| <= 0.75, complex, n <= 64), the
# worst finite error of either against the oracle was 4 eps/gap
_NEAR_ZERO_C = 16.0


def _assert_rings_match_pointwise(scales, n, nome, turned=False):
    """The ring, or the ring turned by exp(i pi / n), against pointwise gamma
    at 1e-13, at every point 1e-2 or more from the zeros p^{j+1} q^{k+1} of
    Gamma; nearer, each evaluation against the mpmath product at
    _NEAR_ZERO_C eps/gap."""
    points = scales[:, None] * _ring(n, turned)
    want = _gamma_vec(points.ravel(), nome).reshape(points.shape)
    got = _gamma_rings(scales, n, nome, turned)
    assert got.shape == (scales.size, n)
    gap = _zero_gap(points, nome)
    far = gap >= 1e-2
    assert np.max(np.abs(got - want)[far] / np.abs(want[far]), initial=0.0) < 1e-13
    for z, ring, pointwise, g in zip(points[~far], got[~far], want[~far], gap[~far]):
        ref = _gamma_oracle(z, nome)
        bound = _NEAR_ZERO_C * np.finfo(float).eps / g
        assert abs(ring - ref) < bound * abs(ref)
        assert abs(pointwise - ref) < bound * abs(ref)


_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.filter_too_much])


def _max_rel(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


class TestQPochhammer:
    def test_zero_base_collapses_to_first_factor(self):
        for z in (0.7, -1.3 + 0.4j, 2.0j):
            assert qpochhammer_inf(z, 0.0) == 1 - z

    def test_z_one_vanishes(self):
        assert qpochhammer_inf(1.0, 0.35) == 0.0
        assert qpochhammer_inf(1.0, 0.1 + 0.05j) == 0.0

    def test_against_log_series_oracle(self):
        # oracles.qpoch_log_series(0.3, 0.5), 60 terms at 40 dps
        expected = 0.5101178266339876
        got = qpochhammer_inf(0.3, 0.5)
        assert rel(got, expected) < 1e-14
        assert rel(got, oracles.qpoch_log_series(0.3, 0.5)) < 1e-14

    def test_base_modulus_rejected(self):
        with pytest.raises(DomainError):
            qpochhammer_inf(0.5, 1.0)
        with pytest.raises(DomainError):
            qpochhammer_inf(0.5, -1.2)

    def test_vectorized_matches_scalar(self):
        z = np.array([0.3, 0.5 + 0.1j, -0.8])
        vec = qpochhammer_inf(z, 0.4)
        for zi, vi in zip(z, vec):
            assert vi == qpochhammer_inf(complex(zi), 0.4)

    def test_truncation_cap_raises(self, monkeypatch):
        monkeypatch.setattr(special_functions, "MAX_TERMS", 100)
        with pytest.raises(TruncationLimitError, match="q-Pochhammer"):
            qpochhammer_inf(0.5, 0.999999)

    def test_an_argument_beyond_the_double_range_is_a_library_error(self):
        # the tail bound 2 |z| / (1 - b) overflows to inf; its log was a bare
        # "math domain error"
        with pytest.raises(TruncationLimitError, match="q-Pochhammer tail bound inf is not finite"):
            qpochhammer_inf(1e308, 0.5)
        with pytest.raises(TruncationLimitError, match="tail bound inf is not finite"):
            elliptic_pochhammer(1e308, 2, NomePair(0.1, 0.2))
        with pytest.raises(TruncationLimitError, match="tail bound nan is not finite"):
            _truncation_order(math.nan, 0.5, "test")


class TestTheta:
    def test_p_zero(self):
        assert theta(0.3 + 0.2j, 0.0) == 1 - (0.3 + 0.2j)

    def test_zero_of_theta_at_one(self):
        assert theta(1.0, 0.2) == 0.0
        assert theta(1.0, 0.37) == 0.0

    def test_against_series_oracle(self):
        # oracles.theta_series(0.4+0.1j, 0.2)
        expected = 0.26283737015124947 + 0.01543610681892484j
        got = theta(0.4 + 0.1j, 0.2)
        assert rel(got, expected) < 1e-13
        assert rel(got, oracles.theta_series(0.4 + 0.1j, 0.2)) < 1e-13

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            theta(0.0, 0.2)
        with pytest.raises(DomainError):
            theta(0.5, 1.1)

    def test_blocks_do_not_change_values(self, monkeypatch):
        # 5000 points run in blocks of _PASS_BYTES; one block gives the same bits
        rng = np.random.default_rng(5)
        z = (rng.uniform(0.2, 3.0, 5000) * np.exp(2j * np.pi * rng.uniform(size=5000))).reshape(50, 100)
        blocked = theta(z, 0.3 + 0.1j)
        monkeypatch.setattr(special_functions, "_PASS_BYTES", 1 << 30)
        assert np.array_equal(theta(z, 0.3 + 0.1j), blocked)

    def test_reflection_and_quasiperiodicity(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = rng.uniform(0.05, 0.4)
            z = rng.uniform(0.3, 1.5) * np.exp(2j * np.pi * rng.uniform())
            t = theta(z, p)
            assert rel(theta(p / z, p), t) < 1e-13
            assert rel(theta(p * z, p), -t / z) < 1e-13

    @_PROPERTY
    @given(data=st.data(), nome=_nomes(allow_zero=False), count=st.integers(1, 6),
           base=st.sampled_from("pq"))
    def test_quasiperiodicity_property(self, data, nome, count, base):
        # theta(p z; p) = -theta(z; p) / z and theta(1/z; p) = -theta(z; p) / z,
        # with complex nomes and z where the gamma engine's shift changes: the
        # engine's shift thetas take such points
        p = nome.p if base == "p" else nome.q
        z = data.draw(_scales(nome, count))
        assume(_theta_gap(z, p) > 1e-2)
        want = -theta(z, p) / z
        assert _max_rel(theta(p * z, p), want) < 1e-12
        assert _max_rel(theta(1.0 / z, p), want) < 1e-12


class TestEllipticGamma:
    def test_against_double_product_oracle(self, nome):
        # oracles.elliptic_gamma_product(0.5, 0.1, 0.2)
        expected = 2.31197611095325
        got = elliptic_gamma(0.5, nome)
        assert rel(got, expected) < 1e-13

    def test_inversion_random(self, nome):
        rng = np.random.default_rng(11)
        pq = nome.p * nome.q
        for _ in range(30):
            z = rng.uniform(0.3, 1.6) * np.exp(2j * np.pi * rng.uniform())
            prod = elliptic_gamma(z, nome) * elliptic_gamma(pq / z, nome)
            assert abs(prod - 1) < 1e-13

    def test_base_symmetry_random(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = rng.uniform(0.05, 0.3) * np.exp(2j * np.pi * rng.uniform())
            q = rng.uniform(0.1, 0.4) * np.exp(2j * np.pi * rng.uniform())
            nome = NomePair(p, q)
            z = rng.uniform(0.3, 1.5) * np.exp(2j * np.pi * rng.uniform())
            assert rel(elliptic_gamma(z, nome), elliptic_gamma(z, nome.swapped())) < 1e-13

    def test_finite_difference_equations(self, nome):
        rng = np.random.default_rng(17)
        for _ in range(30):
            z = rng.uniform(0.3, 1.4) * np.exp(2j * np.pi * rng.uniform())
            g = elliptic_gamma(z, nome)
            assert rel(elliptic_gamma(nome.q * z, nome), theta(z, nome.p) * g) < 1e-13
            assert rel(elliptic_gamma(nome.p * z, nome), theta(z, nome.q) * g) < 1e-13

    def test_fd_equation_equals_theta_at_example_point(self):
        nome = NomePair(0.15, 0.2)
        lhs = elliptic_gamma(nome.q * 0.5, nome) / elliptic_gamma(0.5, nome)
        # oracles.theta_series(0.5, 0.15)
        assert rel(lhs, 0.3026758941661216) < 1e-13
        assert rel(lhs, theta(0.5, nome.p)) < 1e-13

    def test_sqrt_pq_fixed_point(self):
        for p, q in [(0.1, 0.2), (0.05, 0.45), (0.3, 0.35)]:
            nome = NomePair(p, q)
            assert abs(elliptic_gamma(np.sqrt(p * q), nome) - 1) < 1e-13

    def test_inverse_square_theta_identity(self, nome):
        # 1/Gamma(z^{+-2}) = theta(z^2; q) theta(z^{-2}; p)
        rng = np.random.default_rng(23)
        for _ in range(20):
            z = rng.uniform(0.6, 1.3) * np.exp(2j * np.pi * rng.uniform())
            lhs = 1.0 / (elliptic_gamma(z * z, nome) * elliptic_gamma(z**-2, nome))
            rhs = theta(z * z, nome.q) * theta(z**-2, nome.p)
            assert rel(lhs, rhs) < 1e-12

    def test_pole_guard(self, nome):
        with pytest.raises(PoleProximityError):
            elliptic_gamma(1.0 + 1e-15, nome)
        with pytest.raises(PoleProximityError):
            elliptic_gamma(1.0 / nome.q, nome)

    def test_zero_domain_error(self, nome):
        with pytest.raises(DomainError):
            elliptic_gamma(0.0, nome)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("z", [1e-10, 1e-20, 1e-30, 1e-40])
    def test_value_beyond_the_double_range_raises(self, z):
        # near z = 0 the value leaves the double range: it came out as
        # -inf+infj (phase lost) at 1e-10 and 1e-20, and as NaN at 1e-30 and
        # 1e-40 where the shift factors' product overflows, with warnings
        with pytest.raises(DegenerateParameterError,
                           match=rf"Gamma\(\({z:g}\+0j\)\) = .* is not finite"):
            elliptic_gamma(z, NomePair(0.2, 0.3))
        with pytest.raises(DegenerateParameterError):
            elliptic_gamma(np.array([0.5, z]), NomePair(0.2, 0.3))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_value_that_underflows_to_zero_is_returned(self):
        # Gamma(z) = 1 / Gamma(pq / z): far out it rounds to 0 like the true
        # zeros p^{j+1} q^{k+1} do, and 0 is a value, not an error
        nome = NomePair(0.2, 0.3)
        assert elliptic_gamma(0.06 / 1e-10, nome) == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_exact_zero_is_returned_without_a_warning(self):
        # z = pq is a true zero: its one shift factor theta(z / q; p) = theta(p;
        # p) is an exact 0, whose log is -inf.  Alone, and as one point of a
        # 14-point call (a special-functions draw's group), it reads 0 and
        # the other points keep their values
        nome = NomePair(0.2, 0.3)
        assert elliptic_gamma(0.06, nome) == 0
        points = np.linspace(0.3, 1.4, 14).astype(complex)
        points[5] = 0.06
        values = _gamma_vec(points, nome)
        assert values[5] == 0
        others = np.delete(values, 5)
        assert np.all(np.isfinite(others)) and np.all(others != 0)
        assert _max_rel(others, [elliptic_gamma(z, nome) for z in np.delete(points, 5)]) < 1e-13

    def test_large_argument(self, nome):
        # log-space evaluation stays finite and inversion-consistent at |z| ~ 1e3
        z = 1234.5 + 321.0j
        g = elliptic_gamma(z, nome)
        assert np.isfinite(g)
        assert abs(g * elliptic_gamma(nome.p * nome.q / z, nome) - 1) < 1e-12

    def test_truncation_monotonicity(self, monkeypatch):
        # tightening the tolerance 10x moves the value by less than the looser
        # tolerance; each value comes from a pair built under its tolerance
        z = 0.7 + 0.4j

        def gamma_at(tol):
            monkeypatch.setattr(special_functions, "TRUNCATION_TOL", tol)
            return elliptic_gamma(z, NomePair(0.15, 0.3))

        for tol in (1e-8, 1e-10, 1e-12):
            assert rel(gamma_at(tol), gamma_at(tol / 10)) < tol


def _phase(rng):
    return np.exp(2j * np.pi * rng.uniform())


def _random_nome(rng, p_max, q_max, complex_nomes):
    p, q = rng.uniform(0, p_max), rng.uniform(0, q_max)
    if complex_nomes:
        p, q = p * _phase(rng), q * _phase(rng)
    return NomePair(p, q)


def _guard_raises(z, nome):
    """Whether the pole guard fires at z; asserts the oracle's guard agrees."""
    fired = []
    for fn in (elliptic_gamma, oracles.elliptic_gamma_double_product):
        try:
            fn(z, nome)
            fired.append(False)
        except PoleProximityError:
            fired.append(True)
    assert fired[0] == fired[1], (z, nome)
    return fired[0]


def _guard_fires(z, nome):
    """Whether the pole guard fires on the (n, R) ring points z."""
    try:
        special_functions._pole_guard(z, np.abs(z), nome)
    except PoleProximityError:
        return True
    return False


class TestGammaAgainstDoubleProduct:
    """The annulus series against the former numpy double product
    (oracles.elliptic_gamma_double_product), on 9-point calls.

    Far out on both axes at once (|z| ~ 1e3 with |q| ~ 0.9), |log Gamma|
    reaches the hundreds and both evaluations lose ~1e-13 to rounding in
    the log sums, so each test below spans one axis.
    """

    def assert_matches(self, z, nome):
        got = elliptic_gamma(z, nome)
        ref = oracles.elliptic_gamma_double_product(z, nome)
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13

    def test_nomes_up_to_0_9(self):
        rng = np.random.default_rng(41)
        for i in range(40):
            nome = _random_nome(rng, 0.9, 0.9, complex_nomes=i % 2 == 1)
            z = rng.uniform(0.1, 10, 9) * np.exp(2j * np.pi * rng.uniform(size=9))
            self.assert_matches(z, nome)

    def test_arguments_from_1e_minus_3_to_1e3(self):
        rng = np.random.default_rng(43)
        for i in range(40):
            nome = _random_nome(rng, 0.6, 0.6, complex_nomes=i % 2 == 1)
            z = 10 ** rng.uniform(-3, 3, 9) * np.exp(2j * np.pi * rng.uniform(size=9))
            self.assert_matches(z, nome)

    def test_shift_boundaries(self):
        # |z u^k| = sqrt|pq| |u|^{+-1/2}: the shift rounds a half-integer, and
        # the series radius reaches its bound sqrt|v|
        rng = np.random.default_rng(47)
        for i in range(30):
            nome = _random_nome(rng, 0.9, 0.9, complex_nomes=i % 2 == 1)
            au = max(abs(nome.p), abs(nome.q))
            k = np.arange(-4, 5)
            for half in (-0.5, 0.5):
                mod = np.sqrt(abs(nome.p * nome.q)) * au ** (half - k)
                self.assert_matches(mod * np.exp(2j * np.pi * rng.uniform(size=k.size)), nome)

    def test_one_nome_zero(self):
        rng = np.random.default_rng(53)
        for i in range(30):
            q = rng.uniform(0.05, 0.9) * (_phase(rng) if i % 2 else 1)
            z = 10 ** rng.uniform(-3, 3, 9) * np.exp(2j * np.pi * rng.uniform(size=9))
            self.assert_matches(z, NomePair(0.0, q))
            self.assert_matches(z, NomePair(q, 0.0))
        z = np.array([0.3 + 0.1j, -2.0, 40j])
        self.assert_matches(z, NomePair(0.0, 0.0))
        assert np.array_equal(elliptic_gamma(z, NomePair(0.0, 0.0)), 1.0 / (1.0 - z))

    @pytest.mark.parametrize("p, q", [(0.1, 0.2), (0.3, 0.85), (0.2 + 0.1j, -0.5j), (0.0, 0.6)])
    def test_pole_guard_matches_oracle(self, p, q):
        nome = NomePair(p, q)
        rng = np.random.default_rng(59)
        for j, k in [(0, 0), (0, 1), (1, 0), (1, 2), (2, 3), (0, 4)]:
            base = nome.p**j * nome.q**k
            if base == 0:
                continue
            pole = 1.0 / base
            for factor, raises in ((1e-14, True), (1e-12, False)):
                # |1 - z p^j q^k| = factor |z| up to rounding
                z = np.array([0.5, pole / (1.0 - factor * abs(pole) * _phase(rng))])
                assert _guard_raises(z, nome) == raises

    def test_pole_guard_matches_oracle_at_huge_arguments(self):
        # from |z| ~ 5e12 on, POLE_GUARD_FACTOR |z| is a sizeable disc, which
        # lattice points far below |x| = 1/2 can reach
        rng = np.random.default_rng(61)
        for nome in (NomePair(0.1, 0.3), NomePair(0.2 + 0.2j, 0.5j)):
            outcomes = {_guard_raises(10 ** rng.uniform(11, 14) * _phase(rng), nome)
                        for _ in range(40)}
            assert outcomes == {True, False}
        # only x = z q^19 = 0.45 comes within the guard's 0.86 of 1; the
        # neighbours 2.25 and 0.09 do not, and on the negative axis none does
        nome = NomePair(0.0, 0.2)
        assert _guard_raises(0.45 * 5.0**19, nome)
        assert not _guard_raises(-0.45 * 5.0**19, nome)

    def test_a_guard_lattice_past_max_terms_raises_before_it_is_built(self):
        # near |p| = |q| = 1 the candidate lattice has ~span^2 / (log|p| log|q|)
        # points: 4.8e11 here, which numpy could not allocate
        import time

        start = time.perf_counter()
        with pytest.raises(TruncationLimitError, match="pole guard needs 482185110420 lattice"):
            _gamma_vec(np.array([2 + 0.1j]), NomePair(1 - 1e-6, 1 - 1e-6))
        with pytest.raises(TruncationLimitError, match="pole guard needs"):
            _gamma_vec(np.array([1.5]), NomePair(1 - 1e-4, 1 - 1e-4))
        assert time.perf_counter() - start < 1.0

    def test_a_shift_table_past_max_terms_raises_before_it_is_built(self):
        # max|k| grows as 1 / |log|u||: at p = 1 - 1e-5 each point at |z| = 0.8
        # takes ~37900 shift factors, 14 points 530000, past MAX_TERMS
        import time

        nome = NomePair(1 - 1e-5, 0.3)
        z = 0.8 * np.exp(1j * np.linspace(0.1, 3.0, 14))
        assert 14 * gamma_truncation_orders(z, nome)[1] > special_functions.MAX_TERMS
        start = time.perf_counter()
        with pytest.raises(TruncationLimitError, match="theta shift factors need a 14 x 37885 table"):
            _gamma_vec(z, nome)
        with pytest.raises(TruncationLimitError, match="theta shift factors need a 14 x 37885 table"):
            _gamma_rings(z, 16, nome)
        assert time.perf_counter() - start < 1.0
        # the group fails alone in a pass, and one point stays under the cap
        other = (z, NomePair(0.2, 0.3))
        with np.errstate(over="ignore"):
            out = special_functions._gamma_groups([(z, nome), other, (z[:1], nome)])
        assert isinstance(out[0], TruncationLimitError)
        assert _bits(out[1]) == _bits(_gamma_vec(*other))
        assert out[2].shape == (1,)

    def test_shifts_under_the_cap_keep_their_bits(self):
        # 4 points x 5817 shifts at p = 0.9999, whose shift factors take
        # Gamma across hundreds of decades; bits recorded before the cap
        z = np.array([0.25 + 0.76j, 0.2 + 0.77j, 0.15 + 0.785j, 0.1 + 0.79j])
        nome = NomePair(0.9999, 0.2)
        assert gamma_truncation_orders(z, nome) == (53, 5817)
        assert _bits(_gamma_vec(z, nome)) == [
            8965508729663404285, 8972148920880527338, 6223071240879430536, 15446041770589203816,
            12714836949360844006, 12708784287280039712, 993635892411177993, 992323947166803312]

    @pytest.mark.parametrize("n, turned", [(1, False), (2, False), (2, True), (64, False),
                                           (64, True), (128, False), (128, True)])
    def test_ring_guard_matches_oracle(self, n, turned):
        # one point of one ring sits 1e-14 |z| (inside the guard) or 1e-12 |z|
        # (outside it) from a lattice point; the guard filters the rectangle
        # by modulus first, and must still raise exactly where the oracle's
        # complex test on every point does
        rng = np.random.default_rng(67 + n + 2 * turned)
        outcomes = set()
        for trial in range(16):
            nome = _random_nome(rng, 0.5, 0.5, complex_nomes=trial % 2 == 1)
            scales = 10 ** rng.uniform(-1.5, 1.5, 3) * np.exp(2j * np.pi * rng.uniform(size=3))
            j, k = rng.integers(0, 4, 2)
            base = nome.p**j * nome.q**k
            if base != 0:
                pole = 1.0 / base
                factor = 1e-14 if trial % 4 < 2 else 1e-12
                scales[rng.integers(3)] = (pole / (1.0 - factor * abs(pole) * _phase(rng))
                                           / _ring(n, turned)[rng.integers(n)])
            z = scales * _ring(n, turned)[:, None]
            fires = _guard_fires(z, nome)
            assert fires == oracles.pole_guard_hits(z.ravel(), nome).any(), (trial, nome)
            outcomes.add(fires)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("n", [1, 2, 64])
    def test_ring_guard_matches_oracle_at_huge_arguments(self, n):
        rng = np.random.default_rng(71 + n)
        nomes = (NomePair(0.1, 0.3), NomePair(0.2 + 0.2j, 0.5j), NomePair(0.0, 0.2))
        outcomes = set()
        for trial in range(18):
            nome = nomes[trial % 3]
            z = (10 ** rng.uniform(10, 14, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
                 * _ring(n)[:, None])
            fires = _guard_fires(z, nome)
            assert fires == oracles.pole_guard_hits(z.ravel(), nome).any(), (trial, nome)
            outcomes.add(fires)
        assert outcomes == {True, False}

    def test_series_cap_raises(self, monkeypatch):
        # |z| = 0.5 needs no shift and M ~ 50 series terms at r = 0.5; the
        # nome's own products need < 30 factors.  The cap trips once M reaches it.
        m = _series_order(NomePair(0.3, 0.3), 0.5)
        monkeypatch.setattr(special_functions, "MAX_TERMS", m + 1)
        elliptic_gamma(0.5, NomePair(0.3, 0.3))
        monkeypatch.setattr(special_functions, "MAX_TERMS", m)
        with pytest.raises(TruncationLimitError, match="series"):
            elliptic_gamma(0.5, NomePair(0.3, 0.3))


class TestEllipticPochhammer:
    def test_empty_product(self, nome):
        assert elliptic_pochhammer(0.37 + 0.1j, 0, nome) == 1.0

    def test_mutual_reciprocals(self, nome):
        rng = np.random.default_rng(29)
        for _ in range(20):
            z = rng.uniform(0.3, 1.2) * np.exp(2j * np.pi * rng.uniform())
            n = int(rng.integers(1, 6))
            prod = elliptic_pochhammer(z, n, nome) * elliptic_pochhammer(
                z * nome.q**n, -n, nome
            )
            assert abs(prod - 1) < 1e-12

    def test_addition_rule_at_example_point(self):
        nome = NomePair(0.1, 0.25)
        z, n, m = 0.3, 2, 3
        whole = elliptic_pochhammer(z, n + m, nome)
        split = elliptic_pochhammer(z, n, nome) * elliptic_pochhammer(z * nome.q**n, m, nome)
        assert rel(whole, split) < 1e-13
        # oracles.theta_pochhammer(0.3, 5, 0.1, 0.25)
        assert rel(whole, 313.80388449519836) < 1e-12

    def test_gamma_shift_consistency(self, nome):
        # Gamma(z q^n) = theta(z; p)_n Gamma(z)
        z = 0.45 + 0.2j
        for n in (1, 3, -2):
            lhs = elliptic_gamma(z * nome.q**n, nome)
            rhs = elliptic_pochhammer(z, n, nome) * elliptic_gamma(z, nome)
            assert rel(lhs, rhs) < 1e-12

    def test_negative_branch_guard(self):
        nome = NomePair(0.1, 0.25)
        # z q^{-1} = 1 makes theta vanish exactly
        with pytest.raises(DegenerateParameterError):
            elliptic_pochhammer(0.25, -1, nome)

    def test_negative_branch_names_the_vanishing_factor(self):
        nome = NomePair(0.1, 0.25)
        # of theta(z q^-1), theta(z q^-2), theta(z q^-3) at z = q^2, the second is theta(1) = 0
        with pytest.raises(DegenerateParameterError, match=r"theta\(z q\^-2; p\)"):
            elliptic_pochhammer(nome.q**2, -3, nome)

    def test_negative_branch_needs_nonzero_q(self):
        with pytest.raises(DomainError):
            elliptic_pochhammer(0.5, -2, NomePair(0.1, 0.0))

    def test_sequence_matches_single_calls(self, nome):
        z = 0.4 + 0.15j
        seq = theta_pochhammer_sequence(z, 6, nome)
        for n in range(7):
            # a longer table's one theta call may pick a higher truncation order
            assert rel(seq[n], elliptic_pochhammer(z, n, nome)) < 1e-13
        # readers of the same table of length n agree bit for bit
        rng = np.random.default_rng(5)
        for _ in range(200):
            z = complex(rng.uniform(0.2, 1.5) * np.exp(2j * np.pi * rng.uniform()))
            n = int(rng.integers(1, 9))
            assert theta_pochhammer_sequence(z, n, nome)[n] == elliptic_pochhammer(z, n, nome)


class TestGuardedPochhammer:
    """The one theta-Pochhammer path, on one table or on a stack of tables."""

    LENGTHS = [5, 5, 2, 0, 3]

    @staticmethod
    def _alone(bases, lengths, nome, guarded):
        try:
            return special_functions._guarded_pochhammer(bases, lengths, nome, guarded, "a row")
        except Exception as exc:
            return exc

    def test_one_table_has_the_bits_of_theta_on_its_factors(self):
        rng = np.random.default_rng(31)
        for nome in (NomePair(0.1, 0.3), NomePair(0.2j, 0.25 - 0.1j), NomePair(0.0, 0.4)):
            bases = rng.uniform(0.2, 1.5, 5) * np.exp(2j * np.pi * rng.uniform(size=5))
            factors, poch = special_functions._guarded_pochhammer(bases, self.LENGTHS, nome)
            grid, used = special_functions._pochhammer_grid(bases, self.LENGTHS, nome.q)
            assert factors[used].tobytes() == np.asarray(theta(grid[used], nome.p)).tobytes()
            assert np.all(factors[~used] == 1.0)
            assert poch[:, 1:].tobytes() == np.cumprod(factors, axis=1).tobytes()

    def test_each_table_of_a_stack_has_its_bits_and_error_alone(self):
        # tables on their own nomes, real, complex, p = 0 and shared; three
        # that fail: a zero base point, an order past MAX_TERMS, and a
        # factor theta(1; p) = 0 in a guarded row; and one whose factors
        # overflow to NaN, which hides no other table's guard
        rng = np.random.default_rng(32)
        shared = NomePair(0.08, 0.3)
        nomes = [shared, NomePair(0.2, 0.5), NomePair(0.1j, 0.2 + 0.2j), NomePair(0.0, 0.3),
                 shared, NomePair(0.05, 0.1), NomePair(1 - 1e-12, 0.3), NomePair(0.1, 0.25),
                 NomePair(0.1, 0.3)]
        shape = (len(nomes), 5)
        bases = rng.uniform(0.2, 1.5, shape) * np.exp(2j * np.pi * rng.uniform(size=shape))
        bases[5, 2] = 0.0
        bases[7, 1] = 1.0 / 0.25
        bases[8, 0] = 1e155
        with np.errstate(over="ignore", invalid="ignore"):
            factors, poch, errors = special_functions._guarded_pochhammer(
                bases, self.LENGTHS, nomes, 2, "a row")
            alone = [self._alone(bases[i], self.LENGTHS, nome, 2) for i, nome in enumerate(nomes)]
        for i, table in enumerate(alone):
            if isinstance(table, Exception):
                assert (type(errors[i]), str(errors[i])) == (type(table), str(table))
            else:
                assert errors[i] is None
                assert factors[i].tobytes() == table[0].tobytes()
                assert poch[i].tobytes() == table[1].tobytes()
        assert [type(error) for error in errors[5:8]] == [
            DomainError, TruncationLimitError, DegenerateParameterError]
        assert errors[:5] + errors[8:] == [None] * 6
        assert np.isnan(factors[8]).any()


class TestResidueConstant:
    def test_trivial_nomes(self):
        assert gamma_residue_constant(NomePair(0.0, 0.0)) == 1.0

    def test_definition(self, nome):
        direct = 1.0 / (qpochhammer_inf(nome.p, nome.p) * qpochhammer_inf(nome.q, nome.q))
        assert rel(gamma_residue_constant(nome), direct) < 1e-15

    def test_limit_extrapolation_oracle(self, nome):
        # Richardson on (1 - z) Gamma(z) along z = 1 + h, h in {1e-2, 5e-3, 2.5e-3}
        vals = [complex(-h * elliptic_gamma(1 + h, nome)) for h in (1e-2, 5e-3, 2.5e-3)]
        a1 = [2 * vals[i + 1] - vals[i] for i in range(2)]
        a2 = (4 * a1[1] - a1[0]) / 3
        assert rel(a2, gamma_residue_constant(nome)) < 1e-6


class TestQuadraticTransformation:
    def test_real_point(self):
        assert gamma_quadratic_check(0.6, NomePair(0.1, 0.2)) < 1e-12

    def test_complex_point_complex_nome(self):
        z = 0.5 * np.exp(1j * np.pi / 7)
        assert gamma_quadratic_check(z, NomePair(0.05 + 0.02j, 0.15)) < 1e-12

    def test_inversion_fixed_point(self):
        nome = NomePair(0.1, 0.2)
        z = complex((nome.p * nome.q) ** 0.25)
        assert gamma_quadratic_check(z, nome) < 1e-12

    @pytest.mark.parametrize("moduli", [
        # in order, the product reaches 1e-330 and rounds to 0 before the
        # large values come; the true product is 1e-105
        (1e-110, 1e-110, 1e-110, 1e85, 1e85, 1e85, 1e-20, 1e-10),
        # the product 1e-310 is below the smallest normal double
        (1e-160, 1e-160, 1e10, 1.0, 1.0, 1.0, 1.0, 1.0),
    ], ids=["zero", "subnormal"])
    def test_a_product_that_underflows_takes_the_log_form(self, moduli):
        # each of the eight values is a normal double; their product in
        # order underflows, so the residual comes from the log-form ratio
        # and not from |Gamma(z^2) - 0| / |Gamma(z^2)| = 1
        phases = np.exp(1j * np.linspace(0.1, 0.8, 8))
        values = np.array(moduli) * phases
        lhs = np.exp(np.log(values).sum())
        with np.errstate(under="ignore"):
            assert abs(values.prod()) < sys.float_info.min
        assert special_functions._quadratic_residual(np.concatenate([[lhs], values])) < 1e-12


class TestNomePair:
    def test_validation(self):
        with pytest.raises(DomainError):
            NomePair(1.0, 0.2)
        with pytest.raises(DomainError):
            NomePair(0.2, -1.0)

    def test_cached_constants_consistent_with_policy(self):
        nome = NomePair(0.3, 0.4)
        # one extra product factor moves the constants by less than the tolerance
        n_used = 1
        while 2 / (1 - 0.4) * 0.4**n_used >= special_functions.TRUNCATION_TOL:
            n_used += 1
        refined = complex(_qpoch_rows(np.array([nome.q]), [nome.q], 0, n_used + 1)[0])
        assert rel(nome.qq_inf, refined) < special_functions.TRUNCATION_TOL

    def test_kappa(self):
        nome = NomePair(0.1, 0.2)
        expect = nome.pp_inf * nome.qq_inf / (4j * np.pi)
        assert nome.kappa == expect

    def test_immutability(self):
        nome = NomePair(0.1, 0.2)
        with pytest.raises(AttributeError):
            nome.p = 0.5

    def test_products_are_computed_on_first_read(self, monkeypatch):
        calls = []
        product = special_functions.qpochhammer_inf

        def counting(z, base):
            calls.append(complex(base))
            return product(z, base)

        monkeypatch.setattr(special_functions, "qpochhammer_inf", counting)
        nome = NomePair(0.1 + 0.05j, 0.2)
        swapped = nome.swapped()
        assert calls == []
        pp = nome.pp_inf
        assert calls == [nome.p] and nome.pp_inf is pp
        nome.kappa
        assert calls == [nome.p, nome.q]
        # the swapped pair computes its own products, bit-equal to the source's
        assert swapped.qq_inf == pp and swapped.pp_inf == nome.qq_inf
        assert calls == [nome.p, nome.q, nome.p, nome.q]

    def test_lazy_products_under_threads(self):
        # racing first reads may each compute a product; every one of them
        # stores the same bits, so every reader sees the single-threaded value
        want = NomePair(0.37 + 0.2j, 0.61 - 0.1j)
        want = (want.pp_inf, want.qq_inf, want.kappa)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                nome = NomePair(0.37 + 0.2j, 0.61 - 0.1j)
                with ThreadPoolExecutor(max_workers=6) as pool:
                    futures = [pool.submit(lambda: (nome.pp_inf, nome.qq_inf, nome.kappa))
                               for _ in range(12)]
                    seen = {f.result(timeout=30) for f in futures}
                assert seen == {want}
        finally:
            sys.setswitchinterval(interval)

    def test_swapped_builds_its_own_series_coefficients(self):
        # 1 / (m (1 - p^m)(1 - q^m)) rounds by the order of its factors, so
        # TestBaseSymmetry compares two coefficient tables, not one with itself
        nome = NomePair(0.23 + 0.11j, 0.31 - 0.07j)
        mine = nome.series_coefficients(40)
        swapped = nome.swapped()
        theirs = swapped.series_coefficients(40)
        assert swapped._series_coeffs is not nome._series_coeffs
        assert np.array_equal(theirs, NomePair(nome.q, nome.p).series_coefficients(40))
        assert np.allclose(mine, theirs, rtol=1e-15, atol=0)
        assert not np.array_equal(mine, theirs)


# ---------------------------------------------------------------------------
# base symmetry Gamma(z; p, q) = Gamma(z; q, p), which no campaign checks: the
# engine keeps it by construction, and a fault of the engine can break it
# ---------------------------------------------------------------------------

def _bits(values):
    """The bit patterns of complex values, which tell apart the signs of zero."""
    return np.asarray(values, dtype=complex).view(np.uint64).tolist()


_BASE_SYMMETRY = settings(max_examples=40, deadline=None, derandomize=True)


# the special-functions draw at q = 0.8, as in the lattice-q08 workload
_lattice_q08 = st.floats(0.05, 0.25).map(lambda p: NomePair(p, 0.8))


@st.composite
def _equal_moduli(draw):
    """(p, q) with |p| = |q| and p != q: the shift nome depends on the order."""
    mod, a, b = draw(_moduli), draw(_phases), draw(_phases)
    assume(a != b)
    return NomePair(mod * np.exp(2j * np.pi * a), mod * np.exp(2j * np.pi * b))


def _draw_points(z, nome):
    """The 14 points of a special-functions draw at z, z first."""
    return np.concatenate([[z, nome.q * z, nome.p * z, nome.p * nome.q / z],
                           special_functions._quadratic_points(z, nome), [nome.q]])


class TestBaseSymmetry:
    @_BASE_SYMMETRY
    @given(nome=st.one_of(_lattice_q08, _nomes(allow_zero=False), _equal_moduli()),
           mod=st.floats(0.3, 1.5), phase=_phases, k=st.integers(-4, 4))
    def test_against_a_call_on_the_swapped_pair(self, nome, mod, phase, k):
        # Gamma(z) in the 14-point call of a special-functions draw, z moved
        # |k| shifts of the shift nome from the draw's box.  With |p| != |q|
        # both calls take one shift, one order and the same shift factors,
        # and differ by the rounding of their coefficient tables; with
        # |p| = |q| each shifts by its own first nome
        z = mod * abs(_shift_nomes(nome)[0]) ** k * np.exp(2j * np.pi * phase)
        points = _draw_points(z, nome)
        assume(_lattice_gap(points, nome) > 1e-2 and _zero_gap(np.array([z]), nome)[0] > 1e-2)
        try:
            got = _gamma_vec(points, nome)[0]
        except PoleProximityError:
            # at k = -4 and the smallest moduli |z^2| nears 1e13, where the
            # guard's reach 1e-13 |z| nears 1; it flags the point for either
            # order of the nomes
            with pytest.raises(PoleProximityError):
                _gamma_vec(points, nome.swapped())
            return
        want = _gamma_vec(points, nome.swapped())[0]
        assert rel(got, want) <= (1e-14 if abs(nome.p) != abs(nome.q) else 3e-14)


class TestTruncationOrder:
    """_truncation_order, the one order rule, against the two rules it replaced."""

    def test_reproduces_the_product_and_series_rules(self):
        rng = np.random.default_rng(1414)
        for _ in range(10_000):
            base = 1.0 - 10 ** rng.uniform(-3.5, -1e-6)
            scale = 10 ** rng.uniform(-3, 6)
            assert _qpoch_order(base, scale) == oracles.qpoch_order_reference(base, scale)
        for _ in range(10_000):
            nome = NomePair(rng.uniform(0, 0.95), rng.uniform(0, 0.95) * _phase(rng))
            r = 1.0 - 10 ** rng.uniform(-3, -1e-6)
            assert _series_order(nome, r) == oracles.series_order_reference(
                abs(nome.p), abs(nome.q), r)

    def test_smallest_order_under_the_tolerance(self):
        tol = special_functions.TRUNCATION_TOL
        for c, base in ((1.0, 0.5), (2.0, 0.99), (1e-20, 0.5), (3e5, 1e-9)):
            j = _truncation_order(c, base, "test")
            assert j >= 1 and c * base**j < tol
            assert j == 1 or c * base ** (j - 1) >= tol


# ---------------------------------------------------------------------------
# the ring engine against the pointwise series
# ---------------------------------------------------------------------------

class TestGammaRings:
    """_gamma_rings, the gamma engine on rings: against _gamma_vec on the
    same points, and against checks that share no code with the engine."""

    @pytest.mark.parametrize("scale", [0.0769, 0.0767])
    def test_near_a_zero_each_evaluation_meets_the_oracle(self, scale):
        # the scales sit 0.4% and 0.1% from the zero p q^2; there the ring and
        # pointwise values differed by more than 1e-13 (at 0.0769, 1.01e-13
        # with two other scales in the call), though each is within about
        # eps/gap of the product
        nome = NomePair(0.496, 0.393)
        assert _zero_gap(np.array([scale]), nome)[0] < 1e-2
        _assert_rings_match_pointwise(np.array([scale]), 2, nome)

    @_PROPERTY
    @given(data=st.data(), nome=_nomes(), n=_ring_sizes, count=st.integers(1, 6))
    def test_matches_pointwise(self, data, nome, n, count):
        scales = data.draw(_scales(nome, count))
        assume(_off_lattice(scales, n, nome))
        _assert_rings_match_pointwise(scales, n, nome)

    @_PROPERTY
    @given(data=st.data(), nome=_nomes(), n=st.sampled_from([2, 3, 4, 5, 8, 64, 256]),
           count=st.integers(1, 4))
    def test_turned_rings_match_pointwise(self, data, nome, n, count):
        # the odd nodes of the 2n-grid, which a nested quadrature adds; at
        # n <= 8 the fold carries the turn's signs through several blocks
        scales = data.draw(_scales(nome, count))
        assume(_off_lattice(scales, 2 * n, nome))
        _assert_rings_match_pointwise(scales, n, nome, turned=True)
        # Gamma(z) Gamma(pq/z) = 1, where pq / (s c e_j) is the turned ring
        # pq/s read at point -j-1, that is reversed
        partners = nome.p * nome.q / scales
        if nome.p * nome.q != 0 and _off_lattice(partners, 2 * n, nome):
            both = (_gamma_rings(scales, n, nome, turned=True)
                    * _gamma_rings(partners, n, nome, turned=True)[:, ::-1])
            assert np.max(np.abs(both - 1.0)) < 1e-12

    @_PROPERTY
    @given(data=st.data(), nome=_nomes(allow_zero=False), n=st.sampled_from([2, 3, 4, 8]))
    def test_folds_when_n_is_below_the_series_order(self, data, nome, n):
        scales = data.draw(_scales(nome, 3))
        assume(_series_order(nome, _annulus_shift(np.log(np.abs(scales)), nome)[1]) > n)
        assume(_off_lattice(scales, n, nome))
        _assert_rings_match_pointwise(scales, n, nome)

    @_PROPERTY
    @given(data=st.data(), n=_ring_sizes, mod=_moduli, phase=_phases, which=st.integers(0, 2))
    def test_one_or_both_nomes_zero(self, data, n, mod, phase, which):
        # which = 0: p = 0; 1: q = 0 (the v = 0 branch either way); 2: p = q = 0
        nonzero = mod * np.exp(2j * np.pi * phase) if which < 2 else 0.0
        nome = NomePair(0.0, nonzero) if which == 0 else NomePair(nonzero, 0.0)
        scales = data.draw(_scales(nome, 3))
        assume(_off_lattice(scales, n, nome))
        _assert_rings_match_pointwise(scales, n, nome)

    def test_fixed_terms_policy(self):
        # nomes of modulus down to 1e-14 take the series order M down to 1-3,
        # below the ring size, where the fold leaves residues mod n empty
        orders = []

        @_PROPERTY
        @given(data=st.data(), nome=_nomes(allow_zero=False, moduli=_tiny_moduli), n=_ring_sizes)
        def check(data, nome, n):
            scales = data.draw(_scales(nome, 3))
            # the shift boundaries of tiny nomes reach |s| where the pole
            # guard's reach, POLE_GUARD_FACTOR |s|, covers the lattice near 0
            assume(np.abs(scales).max() < 1e10 and _off_lattice(scales, n, nome))
            orders.append((_series_order(nome, _annulus_shift(np.log(np.abs(scales)), nome)[1]), n))
            _assert_rings_match_pointwise(scales, n, nome)

        check()
        assert any(m < n for m, n in orders)
        assert min(m for m, _n in orders) <= 3

    @pytest.mark.parametrize("n", [2, 64, 1024])
    def test_batch_mixes_small_and_large_shifts(self, n):
        # shifts from k = -6 to k = 17 in one call, at the nome where one
        # unblocked shift-theta call was slowest
        nome = NomePair(0.05, 0.8)
        scales = np.array([0.2, 1.4, 14.3, 0.9, 9e-3, 2.7, 0.05]) * np.exp(0.1j + 1j * np.arange(7))
        k, _r = _annulus_shift(np.log(np.abs(scales)), nome)
        assert k.min() < 0 and k.max() > 15 and 0 in k
        _assert_rings_match_pointwise(scales, n, nome)

    def test_pole_on_the_ring_raises(self):
        nome = NomePair(0.1, 0.2)
        with pytest.raises(PoleProximityError):
            _gamma_rings(np.array([0.5, 1.0 / nome.q]), 8, nome)
        with pytest.raises(PoleProximityError):
            _gamma_rings(np.array([1.0 / (nome.p * nome.q)]), 3, nome)

    def test_zero_scale_raises(self):
        with pytest.raises(DomainError):
            _gamma_rings(np.array([0.4, 0.0]), 16, NomePair(0.1, 0.2))

    @pytest.mark.parametrize("n, turned", [(2, False), (8, False), (8, True), (64, False)])
    def test_overflows_only_where_pointwise_does(self, n, turned):
        # near the zero p^3 q^6 the shift factors are tiny and exp of the
        # folded log-series alone overflows, though Gamma is ~4e293 at z
        p, q = 0.59, 0.035
        nome = NomePair(p, q)
        z = p**3 * q**6 * (1 + 1e-5j)
        with np.errstate(over="ignore"):
            want = _gamma_vec(z * _ring(n, turned), nome)
            got = _gamma_rings(np.array([z]), n, nome, turned)[0]
        finite = np.isfinite(want)
        assert finite.any()
        assert np.array_equal(np.isfinite(got), finite)
        assert _max_rel(got[finite], want[finite]) < 1e-9

    @_PROPERTY
    @given(data=st.data(), nome=_nomes(moduli=st.floats(0.02, 0.35)), n=_ring_sizes,
           count=st.integers(1, 3))
    def test_matches_double_product(self, data, nome, n, count):
        # the former numpy double product, cheap at |p|, |q| <= 0.35
        scales = data.draw(_scales(nome, count))
        assume(_off_lattice(scales, n, nome))
        want = oracles.elliptic_gamma_double_product(scales[:, None] * _roots(n), nome)
        assert _max_rel(_gamma_rings(scales, n, nome), want) < 1e-13

    @_PROPERTY
    @given(data=st.data(), nome=_nomes(allow_zero=False), n=_ring_sizes, count=st.integers(1, 3),
           base=st.sampled_from("qp"))
    def test_difference_equations(self, data, nome, n, count, base):
        # Gamma(q z) = theta(z; p) Gamma(z) and Gamma(p z) = theta(z; q) Gamma(z)
        shift, other = (nome.q, nome.p) if base == "q" else (nome.p, nome.q)
        scales = data.draw(_scales(nome, count))
        pq = nome.p * nome.q
        # off the zeros of both sides too: those of Gamma(z) are the poles of Gamma(pq/z)
        for ring in (scales, shift * scales, pq / scales, pq / (shift * scales)):
            assume(_off_lattice(ring, n, nome))
        got = _gamma_rings(shift * scales, n, nome)
        want = theta(scales[:, None] * _roots(n), other) * _gamma_rings(scales, n, nome)
        assert _max_rel(got, want) < 1e-12

    @_PROPERTY
    @given(data=st.data(), nome=_nomes(), n=_ring_sizes, count=st.integers(1, 3))
    def test_base_symmetry(self, data, nome, n, count):
        # Gamma(z; p, q) = Gamma(z; q, p); with |p| = |q| the two calls shift
        # by different nomes
        scales = data.draw(_scales(nome, count))
        assume(_off_lattice(scales, n, nome))
        assert _max_rel(_gamma_rings(scales, n, nome.swapped()), _gamma_rings(scales, n, nome)) < 1e-13

    @_PROPERTY
    @given(data=st.data(), nome=_nomes(allow_zero=False), n=_ring_sizes, count=st.integers(1, 3))
    def test_inversion(self, data, nome, n, count):
        # Gamma(z) Gamma(pq/z) = 1, where pq / (s e_j) is the ring pq/s read at e_{-j}
        scales = data.draw(_scales(nome, count))
        partners = nome.p * nome.q / scales
        assume(_off_lattice(scales, n, nome) and _off_lattice(partners, n, nome))
        reflected = _gamma_rings(partners, n, nome)[:, (-np.arange(n)) % n]
        assert np.max(np.abs(_gamma_rings(scales, n, nome) * reflected - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# shift-free rings: a ring whose unshifted series fits its fold
# ---------------------------------------------------------------------------

def _singular_gap(points, nome):
    """The relative distance of each point to the nearest zero p^{j+1} q^{k+1}
    or pole p^{-j} q^{-k} of Gamma, j, k <= 40, counting only those whose
    modulus is within 2% of the point's: any other is more than 1e-2 away."""
    lattice = np.outer(nome.p ** np.arange(41), nome.q ** np.arange(41)).ravel()
    lattice = lattice[np.abs(lattice) > 1e-250]
    singular = np.concatenate([nome.p * nome.q * lattice, 1.0 / lattice])
    singular = singular[singular != 0]
    gap = np.full(points.shape, np.inf)
    for i, ring in enumerate(points):
        near = singular[np.abs(np.log(np.abs(singular) / abs(ring[0]))) < 0.02]
        if near.size:
            gap[i] = np.min(np.abs(near - ring[:, None]) / np.abs(near), axis=1)
    return gap


@st.composite
def _fit_scales(draw, nome, n, count, turned):
    """Ring scales whose radius r0 = max(|s|, |pq/s|) lies just inside or just
    outside the fit bound of n points, from either side of the annulus; or
    rings that pass 0.1% to 5% from a zero p^{j+1} q^{k+1} of Gamma."""
    bound = oracles.fit_radius(abs(nome.p), abs(nome.q), n)
    pq = nome.p * nome.q
    out = []
    for _ in range(count):
        phase = np.exp(2j * np.pi * draw(_phases))
        nudge = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-9, 1e-2))
        kind = draw(st.sampled_from(["inner", "outer", "zero"]) if pq else st.just("inner"))
        if kind == "inner":
            out.append(bound * math.exp(nudge) * phase)
        elif kind == "outer":
            out.append(abs(pq) / bound * math.exp(-nudge) * phase)
        else:
            zero = pq * nome.p ** draw(st.integers(0, 2)) * nome.q ** draw(st.integers(0, 2))
            # a point of the ring lands next to the zero
            point = _ring(n, turned)[draw(st.integers(0, n - 1))]
            out.append(zero * (1.0 + draw(st.floats(1e-3, 5e-2))) / point
                       * np.exp(1e-4j * draw(st.floats(-1.0, 1.0))))
    return np.array(out)


class TestShiftFreeRings:
    """A ring of n > 1 points whose unshifted series fits one block of its
    fold takes no theta shift: its values against the shifted engine, which
    the rule with a fold of one point gives, and against the product oracle."""

    def test_against_the_shifted_engine_and_the_oracle(self):
        fitted = []

        # the oracle's double product sets the cost: few examples, |p|, |q| <= 0.3
        @settings(max_examples=20, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.filter_too_much])
        @given(data=st.data(), nome=_nomes(moduli=st.floats(0.02, 0.3)),
               n=st.sampled_from([2, 64, 128, 1024, 4096]), count=st.integers(1, 3),
               turned=st.booleans())
        def check(data, nome, n, count, turned):
            assume(_shift_nomes(nome)[0] != 0)
            scales = data.draw(_fit_scales(nome, n, count, turned))
            log_moduli = np.log(np.abs(scales))
            k = _annulus_shift(log_moduli, nome, n)[0]
            fitted.extend(k[_annulus_shift(log_moduli, nome)[0] != 0] == 0)
            points = scales[:, None] * _ring(n, turned)
            gap = _singular_gap(points, nome)
            got = _gamma_rings(scales, n, nome, turned)
            shifted = _gamma_rings(scales, n, nome, turned, fit=1)
            # each within _NEAR_ZERO_C eps/gap of Gamma near a zero or a pole
            bound = np.maximum(1e-13, _NEAR_ZERO_C * np.finfo(float).eps / gap)
            assert np.all(np.abs(got - shifted) < 2 * bound * np.abs(shifted))
            # the point nearest a zero or a pole, against the product
            i, j = np.unravel_index(np.argmin(gap), gap.shape)
            ref = _gamma_oracle(points[i, j], nome)
            assert abs(got[i, j] - ref) < bound[i, j] * abs(ref)

        check()
        # rings that the rule left unshifted, and rings it shifted as before
        assert any(fitted) and not all(fitted)


# ---------------------------------------------------------------------------
# theta on root-of-unity rings
# ---------------------------------------------------------------------------

# |v| from 0.02 up to 0.9 with complex phases, and v = 0
_theta_bases = st.builds(lambda mod, phase: mod * np.exp(2j * np.pi * phase),
                         st.one_of(st.just(0.0), st.floats(0.02, 0.9)), _phases)


@st.composite
def _theta_scales(draw, v, count):
    """Ring scales anywhere in 0.05 < |x| < 20, several quasi-periods of
    theta(.; v) away from |x| = 1 at |v| near 0.9; or nudged to either side
    of |x| = |v|^{k + 1/2}, where the ring series' shift k changes; or of
    x = 1, so that the ring passes next to the zero of theta at 1."""
    out = []
    for _ in range(count):
        phase = np.exp(2j * np.pi * draw(_phases))
        nudge = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-9, 1e-2))
        kind = draw(st.sampled_from(["any", "shift", "zero"]))
        if kind == "shift" and v != 0:
            out.append(abs(v) ** (draw(st.integers(-3, 3)) + 0.5) * math.exp(nudge) * phase)
        elif kind == "zero":
            out.append(math.exp(nudge))
        else:
            out.append(math.exp(draw(st.floats(math.log(0.05), math.log(20.0)))) * phase)
    return np.array(out)


def _theta_nome(v, which):
    """A NomePair whose p (which = "p") or q is v, and the base itself."""
    nome = NomePair(v, 0.3) if which == "p" else NomePair(0.3, v)
    return nome, (nome.p if which == "p" else nome.q)


class TestThetaRings:
    """_theta_ring, the ring series of theta, against pointwise theta and the
    mpmath Laurent series, each ring to 1e-13 of its largest value."""

    @_PROPERTY
    @given(data=st.data(), v=_theta_bases, which=st.sampled_from("pq"), n=_ring_sizes,
           count=st.integers(1, 4))
    def test_matches_pointwise(self, data, v, which, n, count):
        nome, v = _theta_nome(v, which)
        scales = data.draw(_theta_scales(v, count))
        got = _theta_ring(scales, n, [v] * count, nome)
        want = theta(scales[:, None] * _roots(n), v)
        assert got.shape == (count, n)
        assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-13 * np.max(np.abs(want), axis=1))

    @_PROPERTY
    @given(data=st.data(), v=_theta_bases, which=st.sampled_from("pq"), n=_ring_sizes,
           count=st.integers(1, 4))
    def test_turned_ring_matches_pointwise(self, data, v, which, n, count):
        # the ring turned by exp(i pi / n); at n = 1 its one point is -s
        nome, v = _theta_nome(v, which)
        scales = data.draw(_theta_scales(v, count))
        got = _theta_ring(scales, n, [v] * count, nome, turned=True)
        want = theta(scales[:, None] * _ring(n, turned=True), v)
        assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-13 * np.max(np.abs(want), axis=1))

    @_PROPERTY
    @given(data=st.data(), v=_theta_bases, which=st.sampled_from("pq"),
           n=st.sampled_from([2, 3, 8, 64]), j=st.integers(0, 63))
    def test_matches_the_series_oracle(self, data, v, which, n, j):
        nome, v = _theta_nome(v, which)
        (scale,) = data.draw(_theta_scales(v, 1))
        ring = _theta_ring([scale], n, [v], nome)[0]
        scale_max = np.max(np.abs(theta(scale * _roots(n), v)))
        want = oracles.theta_series(scale * _roots(n)[j % n], v, n_max=120)
        assert abs(ring[j % n] - want) < 1e-13 * scale_max

    @_PROPERTY
    @given(q=_theta_bases, p=_theta_bases, n=st.sampled_from([2, 4, 16, 64, 256]),
           shrink=st.floats(0.3, 0.999))
    def test_cauchy_inner_circle(self, q, p, n, shrink):
        # the deformation check's inner circle has r^2 < |q| at q near 0.8,
        # where theta(z^2; q) needs the quasi-periodic shift
        assume(abs(q) > 0.1)
        nome = NomePair(p, q)
        radius = shrink * math.sqrt(abs(q))
        z = radius * _roots(n)
        # a gap of 1e-2 from the zeros, as for the gamma rings: on a small
        # ring next to one, the largest value is itself near 0, and the
        # rounded nodes of the pointwise side move it by eps / gap
        assume(_theta_gap(z * z, nome.q) > 1e-2 and (p == 0 or _theta_gap(z**-2, nome.p) > 1e-2))
        want = theta(z * z, nome.q) * theta(z**-2, nome.p)
        got = contour._theta_rings(n, radius, nome)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    @_PROPERTY
    @given(q=_theta_bases, p=_theta_bases, n=st.sampled_from([2, 4, 16, 64, 256]),
           radius=st.one_of(st.just(1.0), st.floats(0.3, 1.5)))
    def test_turned_dden_matches_pointwise(self, q, p, n, radius):
        # the dden on the odd nodes of the 2n-grid, as a nested quadrature
        # adds them; z^{-2} is the turned half-ring read in reverse
        nome = NomePair(p, q)
        z = radius * _ring(n, turned=True)
        assume(all(_theta_gap(w, v) > 1e-2 for w, v in ((z * z, nome.q), (z**-2, nome.p)) if v != 0))
        want = theta(z * z, nome.q) * theta(z**-2, nome.p)
        got = contour._theta_rings(n, radius, nome, turned=True)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    @_PROPERTY
    @given(q=_theta_bases, p=_theta_bases, n=st.sampled_from([2, 4, 16, 64, 256, 1024]))
    def test_exact_zeros_at_radius_one(self, q, p, n):
        # the inverted 1/Gamma(z^{+-2}) vanishes exactly at z^2 = 1, z = +-1
        nome = NomePair(p, q)
        assert _theta_ring([1.0], n, [nome.q], nome)[0, 0] == 0
        dden = contour._theta_rings(n, 1.0, nome)
        assert dden[0] == 0 and dden[n // 2] == 0
        assert np.all(dden[1 : n // 2] != 0)


# ---------------------------------------------------------------------------
# the grouped pointwise path: a group's values, or its error, do not depend
# on the groups that share its pass
# ---------------------------------------------------------------------------

# moduli up to 0.95, the edge the special-functions campaigns reach with --p 0.95
_wide_moduli = st.floats(0.02, 0.95)


@st.composite
def _groups(draw):
    """One pass's groups (z, nome): 1 to 5 draws of 14 points or of
    3, each with its own real or complex nome pair (either nome may be 0),
    and some made to fail:
    a point on the pole lattice, a value that underflows to zero at
    (p, q) = (0.95, 0.9), a series needing more than MAX_TERMS terms, z = 0."""
    groups = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            # either nome may be 0: no shift factors, or Gamma = 1 / (1 - z)
            nome = draw(_nomes(moduli=_wide_moduli))
        else:
            nome = NomePair(draw(_wide_moduli), draw(_wide_moduli))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        size = draw(st.sampled_from([14, 14, 3]))
        z = rng.uniform(0.05, 3.0, size) * np.exp(2j * np.pi * rng.uniform(size=size))
        fault = draw(st.sampled_from([None, None, None, "pole", "zero", "truncation", "origin"]))
        if fault == "pole":
            z[1] = 1.0 / nome.q if nome.q != 0 else 1.0
        elif fault == "zero":
            nome, z[1] = NomePair(0.95, 0.9), 80.0 * np.exp(0.3j)
        elif fault == "truncation":
            # |z| < 1, where the pole guard has no lattice point to build
            nome, z = NomePair(1.0 - 1e-7, 1.0 - 1e-7), 0.5 * z / np.abs(z)
        elif fault == "origin":
            z[2] = 0.0
        groups.append((z, nome))
    return groups


def _outcome(values):
    """A group's values as bits, or its error as (type, message)."""
    if isinstance(values, Exception):
        return type(values).__name__, str(values)
    return _bits(values)


class TestGammaGroups:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(groups=_groups(), where=st.sampled_from([None, "the draw"]))
    def test_each_group_reads_as_in_a_pass_alone(self, groups, where):
        with np.errstate(over="ignore", invalid="ignore"):
            together = special_functions._gamma_groups(groups, where)
            alone = [special_functions._gamma_groups([group], where)[0] for group in groups]
        assert [_outcome(v) for v in together] == [_outcome(v) for v in alone]

    def test_the_faults_come_back_as_their_groups_errors(self):
        nome = NomePair(0.2, 0.3)
        good = (np.array([0.5 + 0.2j, 1.2]), nome)
        groups = [good, (np.array([0.5, 1.0 / nome.q]), nome),
                  (np.array([80.0 * np.exp(0.3j)]), NomePair(0.95, 0.9)),
                  (np.array([0.5j]), NomePair(1.0 - 1e-7, 1.0 - 1e-7)),
                  (np.array([0.0, 0.5]), nome), good]
        out = special_functions._gamma_groups(groups, "the draw")
        assert [type(v).__name__ for v in out] == [
            "ndarray", "PoleProximityError", "DegenerateParameterError", "TruncationLimitError",
            "DomainError", "ndarray"]
        assert str(out[2]).endswith("is zero or not finite in the draw")
        assert _bits(out[0]) == _bits(out[5]) == _bits(_gamma_vec(good[0], nome))
        # without ``where``, the underflow is a value
        assert special_functions._gamma_groups(groups[2:3])[0][0] == 0

    def test_nomes_zero_and_rejected_points(self):
        nome = NomePair(0.0, 0.0)
        z = np.array([0.3, -0.5j])
        assert _bits(_gamma_vec(z, nome)) == _bits(1.0 / (1.0 - z))
        # a zero or overflowing value rejects the call
        with pytest.raises(DegenerateParameterError, match="here"):
            special_functions._nonzero_finite_gamma([0.5, 1e-20], NomePair(0.2, 0.3), "here")


# the nome moduli of the theta pass: |b| <= 0.95, log-uniform from 1e-10,
# where the products take orders 1 to 3, or a nome whose products need more
# than MAX_TERMS terms
_pass_moduli = st.one_of(st.floats(0.02, 0.95), st.floats(0.02, 0.95),
                         st.floats(-10.0, math.log10(0.02)).map(lambda e: 10.0**e),
                         st.just(1.0 - 1e-7))


@st.composite
def _theta_draws(draw):
    """One theta pass's draws (z, nome): 1 to 6, with real or complex nomes,
    p = q on some, |z| from 0.05 to 3, and some nomes with (p; p)_inf or
    (q; q)_inf cached already."""
    draws = []
    for _ in range(draw(st.integers(1, 6))):
        p, q = (draw(_pass_moduli) * (np.exp(2j * np.pi * draw(_phases)) if draw(st.booleans())
                                      else 1.0) for _ in range(2))
        nome = NomePair(p, p if draw(st.integers(0, 4)) == 0 else q)
        for name in ("pp_inf", "qq_inf"):
            if draw(st.integers(0, 3)) == 0:
                try:
                    getattr(nome, name)
                except TruncationLimitError:
                    pass
        z = math.exp(draw(st.floats(math.log(0.05), math.log(3.0)))) * np.exp(2j * np.pi * draw(_phases))
        draws.append((complex(z), nome))
    return draws


def _scalar_thetas(z, nome):
    """theta(z; p), theta(z; q), (p; p)_inf and (q; q)_inf from the scalar
    calls, in the order a special-functions draw read them, as bits, or the
    first error as (type, message)."""
    fresh = NomePair(nome.p, nome.q)
    try:
        pp = fresh.pp_inf
        values = [theta(z, nome.p), theta(z, nome.q), pp, fresh.qq_inf]
    except TruncationLimitError as exc:
        return _outcome(exc)
    return _bits(values)


# the product kernel's rows: a base from a pool of one to four, real or
# complex, with modulus log-uniform from 1e-10 to 0.97; an order from a pool
# of one to three, each from 1 to 3 or from 1 to 80; |x| log-uniform from
# 0.05 to 3
_kernel_bases = st.builds(lambda e, phase, real: complex(10.0**e * (np.sign(phase - 0.5) or 1.0) if real
                                                         else 10.0**e * np.exp(2j * np.pi * phase)),
                          st.floats(-10.0, math.log10(0.97)), _phases, st.booleans())


@st.composite
def _kernel_rows(draw):
    """One kernel call: (x, bases, at, orders), x of 0 to 2 dimensions."""
    bases = draw(st.lists(_kernel_bases, min_size=1, max_size=4))
    pool = draw(st.lists(st.one_of(st.integers(1, 3), st.integers(1, 80)), min_size=1, max_size=3))
    shape = draw(st.sampled_from([(), (1,), (7,), (2, 3), (4, 5)]))
    size = int(np.prod(shape))
    x = [math.exp(draw(st.floats(math.log(0.05), math.log(3.0)))) * np.exp(2j * np.pi * draw(_phases))
         for _ in range(size)]
    at = [draw(st.integers(0, len(bases) - 1)) for _ in range(size)]
    orders = [draw(st.sampled_from(pool)) for _ in range(size)]
    return (np.array(x, dtype=complex).reshape(shape), bases, np.array(at).reshape(shape),
            np.array(orders).reshape(shape))


class TestQpochRows:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(rows=_kernel_rows(), pass_bytes=st.sampled_from([16, 512, 4096, 1 << 17]))
    def test_a_row_has_the_bits_of_its_product_whatever_rows_share_its_call(self, rows, pass_bytes):
        # each value against the row alone and against the product it
        # replaced, (1 - x b^j).prod() over j < J, at every order and
        # block size: bases, orders and blocks shared with other rows leave
        # it as it is
        from unittest import mock

        x, bases, at, orders = rows
        with mock.patch.object(special_functions, "_PASS_BYTES", pass_bytes):
            got = _qpoch_rows(x, bases, at, orders)
            alone = [_qpoch_rows(np.asarray(xi), [bases[ai]], 0, int(oi))
                     for xi, ai, oi in zip(x.ravel(), at.ravel(), orders.ravel())]
        want = [(1.0 - xi * bases[ai] ** np.arange(oi)).prod()
                for xi, ai, oi in zip(x.ravel(), at.ravel(), orders.ravel())]
        assert got.shape == x.shape
        assert _bits(got.ravel()) == _bits(alone) == _bits(want)


class TestThetaPass:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(draws=_theta_draws(), pass_bytes=st.sampled_from([16, 512, 4096, 1 << 17]))
    def test_each_row_has_the_bits_of_the_scalar_call(self, draws, pass_bytes):
        # tables from one row (16 bytes) to the default blocks, so that the
        # rows of a base straddle blocks; an order that fails stays in its draw
        from unittest import mock

        expected = [_scalar_thetas(z, nome) for z, nome in draws]
        with mock.patch.object(special_functions, "_PASS_BYTES", pass_bytes):
            out = special_functions._theta_pass(draws)
        got = [_outcome(entry) if isinstance(entry, Exception) else _bits([*entry, nome.pp_inf, nome.qq_inf])
               for (_z, nome), entry in zip(draws, out)]
        assert got == expected

    @pytest.mark.parametrize("modulus, order", [(1e-15, 1), (1e-10, 2), (1e-6, 3)])
    def test_one_draw_passes_at_low_orders(self, modulus, order):
        # every row of a one-draw pass at this order: a table of fewer than
        # three columns would round apart from the scalar call at order 2
        rng = np.random.default_rng(order)
        for _ in range(100):
            z = complex(rng.uniform(0.05, 3.0) * np.exp(2j * np.pi * rng.uniform()))
            p, q = (modulus * np.exp(2j * np.pi * rng.uniform()) for _ in range(2))
            nome = NomePair(p, q)
            assert special_functions.theta_truncation_order(z, nome.p) == order
            (entry,) = special_functions._theta_pass([(z, nome)])
            assert _bits([*entry, nome.pp_inf, nome.qq_inf]) == _scalar_thetas(z, nome)

    def test_the_rows_straddle_blocks_at_q_099(self, monkeypatch):
        # theta(z; 0.99) needs ~3800 factors; 16 KiB blocks hold one row of them
        monkeypatch.setattr(special_functions, "_PASS_BYTES", 1 << 14)
        draws = [(0.7 * np.exp(0.3j * k), NomePair(0.05 * k, 0.99)) for k in range(1, 5)]
        out = special_functions._theta_pass(draws)
        assert [_bits([*entry, nome.pp_inf, nome.qq_inf]) for (z, nome), entry in zip(draws, out)] == [
            _scalar_thetas(z, nome) for z, nome in draws]
        assert special_functions.theta_truncation_order(0.7, 0.99) * 16 > 1 << 14
