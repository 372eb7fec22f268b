import math

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
    qpochhammer_inf,
    theta,
    theta_pochhammer_sequence,
    _annulus_shift,
    _gamma_rings,
    _gamma_vec,
    _qpoch_order,
    _qpoch_raw,
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


def _assert_rings_match_pointwise(scales, n, nome):
    points = scales[:, None] * _roots(n)
    want = _gamma_vec(points.ravel(), nome).reshape(points.shape)
    got = _gamma_rings(scales, n, nome)
    assert got.shape == (scales.size, n)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13


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
        # 5000 points run in three blocks; one block gives the same bits
        rng = np.random.default_rng(5)
        z = (rng.uniform(0.2, 3.0, 5000) * np.exp(2j * np.pi * rng.uniform(size=5000))).reshape(50, 100)
        blocked = theta(z, 0.3 + 0.1j)
        monkeypatch.setattr(special_functions, "_THETA_BLOCK", z.size)
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
        refined = complex(_qpoch_raw(np.asarray(nome.q), nome.q, n_used + 1))
        assert rel(nome.qq_inf, refined) < special_functions.TRUNCATION_TOL

    def test_kappa(self):
        nome = NomePair(0.1, 0.2)
        expect = nome.pp_inf * nome.qq_inf / (4j * np.pi)
        assert nome.kappa == expect

    def test_immutability(self):
        nome = NomePair(0.1, 0.2)
        with pytest.raises(AttributeError):
            nome.p = 0.5


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
    """_gamma_rings, the one gamma engine, on rings and on single points
    (n = 1): against _gamma_vec on the same points, and against checks that
    share no code with the engine."""

    @_PROPERTY
    @given(data=st.data(), nome=_nomes(), n=_ring_sizes, count=st.integers(1, 6))
    def test_matches_pointwise(self, data, nome, n, count):
        scales = data.draw(_scales(nome, count))
        assume(_off_lattice(scales, n, nome))
        _assert_rings_match_pointwise(scales, n, nome)

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
    @given(q=_theta_bases, p=_theta_bases, n=st.sampled_from([2, 4, 16, 64, 256, 1024]))
    def test_exact_zeros_at_radius_one(self, q, p, n):
        # the inverted 1/Gamma(z^{+-2}) vanishes exactly at z^2 = 1, z = +-1
        nome = NomePair(p, q)
        assert _theta_ring([1.0], n, [nome.q], nome)[0, 0] == 0
        dden = contour._theta_rings(n, 1.0, nome)
        assert dden[0] == 0 and dden[n // 2] == 0
        assert np.all(dden[1 : n // 2] != 0)
