import math

import numpy as np
import pytest

import oracles

from elliptic_bailey import bailey_algebra, special_functions
from elliptic_bailey import contour as ct
from elliptic_bailey.bailey_algebra import build_M
from elliptic_bailey.contour import (
    OperatorParams,
    QuadratureGrid,
    SymmetricTestFunction,
    apply_M,
    circle_integral,
    constant_one,
    contour_deformation_check,
    d_factor,
    designated_poles,
    elliptic_beta_integral,
    finite_difference_M,
    finite_difference_oracle,
    gamma_product_function,
    m_inversion_check,
    residue_matrix_reduction_check,
    star_triangle_residual,
    z_plus_inverse,
)
from elliptic_bailey.errors import (
    ConstraintViolationError,
    DegenerateParameterError,
    DomainError,
    EllipticBaileyError,
    PoleProximityError,
    QuadratureConvergenceError,
    TruncationLimitError,
)
from elliptic_bailey.report import relative_residual
from elliptic_bailey.special_functions import NomePair, elliptic_gamma, elliptic_pochhammer


class TestCircleIntegral:
    def test_constant_gives_winding(self):
        grid = QuadratureGrid(radius=1.0, n_nodes=64)
        assert circle_integral(lambda z: np.ones_like(z), grid) == 2j * np.pi

    def test_monomials_vanish(self):
        grid = QuadratureGrid(radius=1.0, n_nodes=64)
        for k in (1, 3, -2):
            assert abs(circle_integral(lambda z: z**k, grid, rel_tol=1e-12)) < 1e-13

    def test_simple_pole_bookkeeping(self):
        # residue theorem by hand: poles of 1/(z (1 - z/2)) inside |z|=1 -> z=0 only
        grid = QuadratureGrid(radius=1.0, n_nodes=64)
        val = circle_integral(lambda z: 1.0 / (1.0 - 0.5 * z), grid, rel_tol=1e-12)
        assert abs(val - 2j * np.pi) < 1e-11

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            QuadratureGrid(radius=-1.0, n_nodes=64)
        with pytest.raises(DomainError):
            QuadratureGrid(radius=1.0, n_nodes=100)

    def test_doubling_stability_after_convergence(self):
        # spectral convergence: once converged, doubling moves the value less
        # than the tolerance
        f = lambda z: 1.0 / (1.0 - 0.5 * z)
        coarse = circle_integral(f, QuadratureGrid(1.0, 64), rel_tol=1e-11)
        fine = circle_integral(f, QuadratureGrid(1.0, 1024))
        assert abs(coarse - fine) < 1e-11 * abs(fine)

    def test_contour_independence_for_pole_free_annulus(self):
        f = lambda z: np.exp(z) / (1.0 - 0.2 * z) + 1.0 / z**2
        vals = [
            circle_integral(f, QuadratureGrid(r, 64), rel_tol=1e-12)
            for r in (0.6, 1.0, 1.7)
        ]
        for v in vals[1:]:
            assert abs(v - vals[0]) <= 1e-11 * max(abs(vals[0]), 1.0)

    def test_nonconvergence_near_pole(self):
        f = lambda z: 1.0 / (z - 1.0000001 * np.exp(0.37j))
        with pytest.raises(QuadratureConvergenceError):
            circle_integral(f, QuadratureGrid(1.0, 64), rel_tol=1e-13, max_nodes=512)


class TestTrapezoidDriver:
    """Every quadrature closure returns (weight, samples); ``_trapezoid`` alone
    turns them into values and a rounding scale, and ``_drive`` alone doubles."""

    @staticmethod
    def _rows(n, bases):
        # row i: 1 / (1 - b_i z) on the unit n-circle; its integral is 2 pi i
        z = special_functions._roots(n)
        return 1.0 / (1.0 - np.asarray(bases)[:, None] * z)

    def test_value_is_weighted_sum_bit_for_bit(self):
        rng = np.random.default_rng(11)
        samples = rng.normal(size=(3, 64)) + 1j * rng.normal(size=(3, 64))
        weights = np.array([0.3 - 2j, 1e-30, -4.5])
        value, scale = ct._trapezoid(weights, samples)
        for i in range(3):
            assert value[i] == weights[i] * (2j * math.pi / 64 * np.sum(samples[i]))
        want = 2 * math.pi * max(abs(w) * np.mean(np.abs(row)) for w, row in zip(weights, samples))
        assert scale == pytest.approx(want, rel=1e-15)

    def test_multi_row_integral_is_judged_by_its_worst_row(self):
        def drive(bases):
            return ct._drive(lambda n: (1.0, self._rows(n, bases)), 1e-12)

        _, fast = drive([0.3])
        _, slow = drive([0.9])
        both, info = drive([0.3, 0.9])
        assert fast.n_nodes < slow.n_nodes == info.n_nodes
        assert np.array_equal(both, ct._trapezoid(1.0, self._rows(info.n_nodes, [0.3, 0.9]))[0])

    def test_zero_integral_converges_independently_of_its_weight(self):
        # 1 / (1 - 0.9 z) - 1 integrates to 0; the floor scales with the weight
        def eval_at(weight):
            return lambda n: (weight, self._rows(n, [0.9])[0] - 1.0)

        _, unit = ct._drive(eval_at(1.0), 1e-10)
        _, tiny = ct._drive(eval_at(1e-30), 1e-10)
        assert unit.n_nodes > ct.DEFAULT_N0 * 2
        assert tiny.n_nodes == unit.n_nodes


class TestSymmetricTestFunctions:
    def test_builtins_are_symmetric(self):
        rng = np.random.default_rng(3)
        for fn in (constant_one(), z_plus_inverse()):
            fn.check_symmetry(rng)

    def test_designated_poles_symmetry_and_residues(self):
        rng = np.random.default_rng(5)
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        alpha = designated_poles(0.7, 3, 0.5, coeffs)
        alpha.check_symmetry(rng)
        # declared residues of alpha(z)/z match small-circle contour integrals
        assert alpha.check_residues(rel_tol=1e-9) < 1e-9

    def test_nan_residue_deviation_fails(self, monkeypatch, nan_on_call):
        # the second pole's small-circle integral is NaN; 0 and the first
        # pole's deviation precede it in the fold
        alpha = designated_poles(0.7, 3, 0.5, np.ones(4))
        monkeypatch.setattr(ct, "_offcenter_residue",
                            nan_on_call(ct._offcenter_residue, 1, complex(math.nan)))
        with pytest.raises(DomainError, match="deviate by nan"):
            alpha.check_residues(rel_tol=1e-9)

    def test_nan_symmetry_deviation_fails(self):
        alpha = SymmetricTestFunction(fn=lambda z: np.full_like(z, math.nan), name="nan")
        with pytest.raises(DomainError, match="nan"):
            alpha.check_symmetry(np.random.default_rng(3))

    def test_gamma_product_symmetry(self):
        nome = NomePair(0.08, 0.12)
        alpha = gamma_product_function([0.4, 0.5 * np.exp(0.8j)], nome)
        alpha.check_symmetry(np.random.default_rng(7))

    def test_pole_magnitude_validation(self):
        with pytest.raises(DomainError):
            designated_poles(1.2, 1, 0.5, [1.0, 1.0])


class TestBetaIntegral:
    def test_reference_draw(self):
        nome = NomePair(0.08, 0.3)
        rep = elliptic_beta_integral(0.55, 0.6, 0.5 * np.exp(0.5j), 0.6, 0.55, nome)
        assert rep.residual < 1e-9
        assert rep.passed

    def test_constraint_product_is_exact(self):
        nome = NomePair(0.08, 0.3)
        ts = [0.55, 0.6, 0.5 * np.exp(0.5j), 0.6, 0.55]
        t6 = nome.p * nome.q / np.prod(ts)
        assert abs(np.prod(ts) * t6 - nome.p * nome.q) < 1e-14 * abs(nome.p * nome.q)

    def test_modulus_violation_rejected(self):
        nome = NomePair(0.1, 0.15)
        # t6 = pq / prod blows past 1 for small draws
        with pytest.raises(ConstraintViolationError):
            elliptic_beta_integral(0.3, 0.4, 0.2 * np.exp(0.5j), 0.5, 0.35, nome)

    def test_random_draws(self):
        rng = np.random.default_rng(11)
        done = 0
        while done < 8:
            nome = NomePair(rng.uniform(0.05, 0.12), rng.uniform(0.1, 0.2))
            ts = [rng.uniform(0.35, 0.7) * np.exp(2j * np.pi * rng.uniform()) for _ in range(5)]
            if not 0.1 <= abs(nome.p * nome.q / np.prod(ts)) <= 0.8:
                continue
            rep = elliptic_beta_integral(*ts, nome)
            assert rep.residual < 1e-9
            done += 1

    def test_small_p_limit_is_rahman_integral(self):
        # as p -> 0 with t6 = pq/(t1..t5), the factors Gamma(t6 z^{+-1}) leave
        # behind (A z^{+-1}; q)_inf with A = t1..t5, and the evaluation
        # degenerates to the single-base q-beta integral
        q = 0.3
        ts = [0.55, 0.6, 0.5 * np.exp(0.5j), 0.6, 0.55]
        A = np.prod(ts)
        small = NomePair(1e-6, q)
        rep = elliptic_beta_integral(*ts, small)
        assert rep.residual < 1e-9  # identity still holds at tiny p

        from elliptic_bailey.special_functions import qpochhammer_inf, theta

        zero = NomePair(0.0, q)

        def kernel(z):
            out = np.ones_like(z)
            for t in ts:
                out = out * elliptic_gamma(t * z, zero) * elliptic_gamma(t / z, zero)
            out = out * qpochhammer_inf(A * z, q) * qpochhammer_inf(A / z, q)
            return out * np.asarray(theta(z * z, q)) * (1 - z**-2)

        i0 = zero.kappa * circle_integral(kernel, QuadratureGrid(1.0, 256), rel_tol=1e-11)
        rhs0 = 1.0 + 0j
        for i in range(5):
            for j in range(i + 1, 5):
                rhs0 /= qpochhammer_inf(ts[i] * ts[j], q)
        for i in range(5):
            rhs0 *= qpochhammer_inf(A / ts[i], q)
        assert abs(i0 - rhs0) < 1e-11 * abs(rhs0)     # the q-beta evaluation at p = 0
        assert abs(rep.lhs - i0) < 5e-4 * abs(i0)     # drift O(p) from p = 1e-6


class TestApplyM:
    def test_spectator_symmetry(self):
        nome = NomePair(0.08, 0.12)
        w = 0.9 * np.exp(0.3j)
        b1 = apply_M(0.5, w, constant_one(), nome)
        b2 = apply_M(0.5, 1.0 / w, constant_one(), nome)
        assert abs(b1 - b2) <= 1e-11 * abs(b1)

    def test_constraint_validation(self):
        nome = NomePair(0.08, 0.12)
        with pytest.raises(ConstraintViolationError):
            apply_M(0.9, 1.2, constant_one(), nome)

    def test_beta_integral_specialization(self):
        # with alpha a product of gamma pairs, the transform evaluates in
        # closed form through the six-parameter beta identity
        nome = NomePair(0.08, 0.12)
        t, w = 0.5, np.exp(0.4j)
        t3, t4, t5 = 0.45, 0.5 * np.exp(0.8j), 0.55
        t6 = nome.p * nome.q / (t * t * t3 * t4 * t5)
        assert abs(t6) < 1
        alpha = gamma_product_function([t3, t4, t5, t6], nome)
        got = apply_M(t, w, alpha, nome)
        six = [t * w, t / w, t3, t4, t5, t6]
        pairs = [six[i] * six[j] for i in range(6) for j in range(i + 1, 6)]
        want = np.prod(elliptic_gamma(np.array(pairs), nome)) / elliptic_gamma(t * t, nome)
        assert relative_residual(got, want) < 1e-9

    def test_inversion_reconstructs_alpha(self):
        nome = NomePair(0.1, 0.15)
        for t, w, alpha in [
            (0.4, np.exp(0.7j), z_plus_inverse()),
            (0.35, np.exp(-1.1j), constant_one()),
        ]:
            rep = m_inversion_check(t, w, alpha, nome)
            assert rep.residual < 1e-6, rep.residual

    def test_inversion_range_guard(self):
        nome = NomePair(0.1, 0.15)
        with pytest.raises(ConstraintViolationError):
            m_inversion_check(0.7, np.exp(0.5j), z_plus_inverse(), nome)

    @pytest.mark.parametrize("p, q, t", [(0.1, 0.15, 0.135), (0.1, 0.15, 0.1485),
                                         (0.1, 0.15, 0.15), (0.2, 0.1, 0.19j)])
    def test_inversion_rejects_t_inside_the_nomes(self, p, q, t):
        # for |t| <= max(|p|, |q|) the continuation misses the next ladder
        # poles: t = 0.135 and 0.1485 at (0.1, 0.15) gave residuals 0.08-0.09
        with pytest.raises(ConstraintViolationError, match="max"):
            m_inversion_check(t, np.exp(1.3j), z_plus_inverse(), NomePair(p, q))

    @pytest.mark.parametrize("p, q, t", [(0.1, 0.15, 0.1515), (0.2, 0.1, 0.21j)])
    def test_inversion_holds_just_outside_the_nomes(self, p, q, t):
        rep = m_inversion_check(t, np.exp(1.3j), z_plus_inverse(), NomePair(p, q))
        assert rep.residual < 1e-12, rep.residual


class TestDFactor:
    def test_inversion_identity(self):
        nome = NomePair(0.1, 0.2)
        rng = np.random.default_rng(13)
        for _ in range(10):
            s = rng.uniform(0.3, 0.8) * np.exp(2j * np.pi * rng.uniform())
            y = rng.uniform(0.6, 1.4) * np.exp(2j * np.pi * rng.uniform())
            w = np.exp(2j * np.pi * rng.uniform())
            prod = d_factor(s, y, w, nome) * d_factor(1.0 / s, y, w, nome)
            assert abs(prod - 1) < 1e-12

    def test_pole_when_argument_hits_one(self):
        nome = NomePair(0.1, 0.2)
        s = complex(np.sqrt(nome.p * nome.q))
        with pytest.raises(PoleProximityError):
            d_factor(s, 0.8, 0.8, nome)

    def test_four_gamma_product_value(self):
        # frozen: four independent gamma evaluations at 40 dps
        nome = NomePair(0.1, 0.2)
        got = d_factor(0.5, 0.8, 0.9 * np.exp(0.2j), nome)
        assert relative_residual(got, 4.029328443077237 - 0.20593240154693135j) < 1e-12


class TestRingKernels:
    NOME = NomePair(0.08, 0.12)
    T, X = 0.45 * np.exp(0.7j), 0.9 * np.exp(1.1j)

    @staticmethod
    def _count_rings(monkeypatch):
        """Record (ring count, n) of every ring-engine call made by contour,
        on untwisted and on turned rings."""
        calls = []
        engine = ct._gamma_rings

        def counted(scales, n, nome, *rest):
            calls.append((len(scales), n))
            return engine(scales, n, nome, *rest)

        monkeypatch.setattr(ct, "_gamma_rings", counted)
        return calls

    @staticmethod
    def _count_passes(monkeypatch):
        """Record the node count of every quadrature pass of ``_stacked_drive``,
        which every quadrature's drive runs, one draw's or a block's."""
        passes = []
        drive = ct._stacked_drive

        def counted(eval_at, *args, **kwargs):
            def each(n, live):
                passes.append(n)
                return eval_at(n, live)
            return drive(each, *args, **kwargs)

        monkeypatch.setattr(ct, "_stacked_drive", counted)
        return passes

    @staticmethod
    def _ladder(passes):
        """The ring size of each engine call of a quadrature with these passes:
        twice the first pass, none for the second, then the n/2 new nodes of
        each later pass n."""
        return [2 * passes[0]] + [n // 2 for n in passes[2:]]

    def _kernel_ring(self, t, x, n, radius):
        """The kernel of ``_kernels`` on the n-grid alone, from one engine call."""
        scales = ct._kernel_scales(t, x, radius)
        gamma = ct._Nodes(radius, [(self.NOME, scales, None)], cap=n).one(n)[0]
        at = ct._scale_rows(scales)
        return ct._kernels(gamma, np.array([at[v] for v in scales]))

    def _pointwise(self, t, x, z):
        g = lambda v: elliptic_gamma(v, self.NOME)
        return g(t * x * z) * g(t * x / z) * g(t * z / x) * g(t / (x * z))

    @pytest.mark.parametrize("radius", [1.0, 0.7])
    def test_kernel_ring_matches_pointwise_gamma(self, radius):
        n = 32
        z = radius * np.exp(2j * np.pi * np.arange(n) / n)
        got = self._kernel_ring(self.T, self.X, n, radius)
        assert relative_residual(got, self._pointwise(self.T, self.X, z)) < 1e-13

    def test_equal_scales_share_one_ring(self, monkeypatch):
        calls = self._count_rings(monkeypatch)
        self._kernel_ring(self.T, self.X, 64, 1.0)
        assert calls == [(2, 64)]
        calls.clear()
        self._kernel_ring(self.T, self.X, 64, 0.7)
        assert calls == [(4, 64)]

    @staticmethod
    def _random_pair(rng, n):
        """A pair ring g[m] g[-m] of a random complex ring g, built as _pairs builds it."""
        g = rng.normal(size=(n, 2)) @ np.array([1.0, 1j])
        return g * ct._reflect(g)

    def test_grid_kernel_reads_one_ring(self, monkeypatch):
        # the half block K[j, k], j, k <= n/2, is pair[(j + k) mod n] *
        # pair[(j - k) mod n] and nothing else, and every entry of the full
        # n x n kernel mirrors one of the block's: the same two values
        # multiplied, in an order that numpy's complex product may round apart
        calls = self._count_rings(monkeypatch)
        n, h = 64, 32
        pair = self._random_pair(np.random.default_rng(3), n)
        blocks = list(ct._m_kernel_half(pair))
        assert calls == []
        assert np.array_equal(np.concatenate([np.arange(n)[rows] for rows, _b in blocks]),
                              np.arange(h + 1))
        j, k = np.arange(n)[:, None], np.arange(n)[None, :]
        full = pair[(j + k) % n] * pair[(j - k) % n]
        assert np.array_equal(np.concatenate([block for _rows, block in blocks]),
                              full[: h + 1, : h + 1])
        mirror = -np.arange(n) % n
        rounding = 8 * np.finfo(float).eps * np.abs(full)
        assert np.all(np.abs(full[:, mirror] - full) <= rounding)
        assert np.all(np.abs(full[mirror] - full) <= rounding)

    def test_grid_kernel_matches_pointwise_gamma(self):
        n = 16
        roots = np.exp(2j * np.pi * np.arange(n // 2 + 1) / n)
        pair = ct._pairs(ct._Nodes(1.0, [(self.NOME, [self.T], None)], cap=n).one(n)[0], 0)
        (_rows, got), = ct._m_kernel_half(pair)
        assert relative_residual(got, self._pointwise(self.T, roots[:, None], roots[None, :])) < 1e-13

    @pytest.mark.parametrize("n", [2, 4, 8, 64, 512, 4096])
    @pytest.mark.parametrize("symmetric", [False, True], ids=["v", "symmetric-v"])
    def test_grid_apply_matches_the_dense_kernel(self, n, symmetric):
        rng = np.random.default_rng(n)
        pair = self._random_pair(rng, n)
        v = rng.normal(size=(n, 2)) @ np.array([1.0, 1j])
        if symmetric:
            v = v + ct._reflect(v)
        got = ct._m_apply_grid(pair, n, v, 1.0, self.NOME)
        # the dense product K @ v, in blocks of 256 rows
        k = np.arange(n)[None, :]
        dense = np.concatenate([(pair[(j + k) % n] * pair[(j - k) % n]) @ v
                                for j in np.array_split(np.arange(n)[:, None], -(-n // 256))])
        want = self.NOME.kappa * 2j * np.pi / n * dense
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.array_equal(got[1:], got[:0:-1])

    def test_one_block_at_the_node_cap_is_bounded(self):
        n = ct.DEFAULT_NODE_CAP
        pair = self._random_pair(np.random.default_rng(5), n)
        rows, block = next(ct._m_kernel_half(pair))
        assert rows == slice(0, ct._ROW_CHUNK)
        assert block.shape == (ct._ROW_CHUNK, n // 2 + 1)

    def test_theta_rings_read_the_half_ring(self):
        # entry k is the (n/2)-ring value at w^{2k}, bit for bit: z_k^2 runs
        # twice over that ring and z_k^{-2} over its reflection
        for n, radius in ((64, 1.0), (128, 0.83), (2, 1.2)):
            z = radius * np.exp(2j * np.pi * np.arange(n) / n)
            idx = np.arange(n) % (n // 2)
            tq, tp = special_functions._theta_ring_groups(
                [([radius**2, radius**-2], [self.NOME.q, self.NOME.p], self.NOME)], n // 2)
            want = tq[idx] * tp[(-idx) % (n // 2)]
            assert np.array_equal(ct._theta_rings(n, radius, [self.NOME])[0], want)
            pointwise = ct.theta(z * z, self.NOME.q) * ct.theta(z**-2, self.NOME.p)
            # normwise: at radius 1 both vanish at z = +-1, one of them only nearly
            assert np.max(np.abs(want - pointwise)) < 1e-13 * np.max(np.abs(pointwise))

    @pytest.mark.parametrize("radius", [1.0, 0.7])
    def test_kernel_on_circle_matches_pointwise_kernel(self, radius):
        # at alpha = 1 the M-kernel quadrature samples the kernel on the circle
        n = 64
        z = radius * special_functions._roots(n)
        g_t2 = complex(elliptic_gamma(self.T**2, self.NOME))
        weight, got = ct._m_single(self.T, self.X, n, radius, constant_one(), g_t2, self.NOME)
        want = ct._kernel_at(self.T, self.X, z, g_t2, self.NOME)
        assert weight == self.NOME.kappa
        # normwise, as at radius 1 the kernel vanishes at z = +-1
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    def test_one_engine_call_per_single_kernel_pass(self, monkeypatch):
        calls = self._count_rings(monkeypatch)
        passes = self._count_passes(monkeypatch)
        apply_M(0.6, np.exp(0.4j), z_plus_inverse(), self.NOME, radius=0.8)
        assert len(passes) >= 3
        assert calls == [(4, n) for n in self._ladder(passes)]

    def test_one_engine_call_per_star_triangle_pass(self, monkeypatch):
        calls = self._count_rings(monkeypatch)
        passes = self._count_passes(monkeypatch)
        spect = [np.exp(0.4j), np.exp(1.7j), np.exp(-2.2j)]
        star_triangle_residual(0.85, 0.8, 0.9 * np.exp(0.3j), spect, constant_one(), self.NOME)
        assert len(passes) >= 3
        # t, the four D pair scales, and s w^{+-1}, st w^{+-1} per spectator
        assert calls == [(5 + 4 * len(spect), n) for n in self._ladder(passes)]

    def test_one_engine_call_per_beta_integral_pass(self, monkeypatch):
        calls = self._count_rings(monkeypatch)
        passes = self._count_passes(monkeypatch)
        elliptic_beta_integral(0.9, 0.6, 0.45 * np.exp(0.5j), 0.55, 0.4, self.NOME)
        assert len(passes) >= 3
        assert calls == [(6, n) for n in self._ladder(passes)]

    def test_no_products_on_rings(self, monkeypatch):
        # inside the drive every theta factor on a ring, the engine's shift
        # thetas and the inverted 1/Gamma(z^{+-2}) alike, comes from the ring
        # series; the products serve only the pointwise values outside it
        counts = {"products": [0, 0], "series": [0, 0], "rings": [0, 0], "shifting": [0, 0]}
        inside = [False]

        def counting(name, fn):
            def counted(*args):
                counts[name][inside[0]] += 1
                return fn(*args)
            return counted

        annulus_shift = special_functions._annulus_shift

        def shifting(log_az, nome, n=1):
            k, r = annulus_shift(log_az, nome, n)
            counts["shifting"][inside[0]] += bool(k.any())
            return k, r

        def driving(*args, **kwargs):
            inside[0] = True
            try:
                return drive(*args, **kwargs)
            finally:
                inside[0] = False

        drive = ct._stacked_drive
        monkeypatch.setattr(special_functions, "_qpoch_rows",
                            counting("products", special_functions._qpoch_rows))
        monkeypatch.setattr(special_functions, "_theta_series",
                            counting("series", special_functions._theta_series))
        monkeypatch.setattr(ct, "_stacked_drive", driving)
        monkeypatch.setattr(special_functions, "_annulus_shift", shifting)
        monkeypatch.setattr(ct, "_gamma_rings", counting("rings", ct._gamma_rings))
        nome = NomePair(self.NOME.p, self.NOME.q)
        spect = [np.exp(0.4j), np.exp(1.7j), np.exp(-2.2j)]
        star_triangle_residual(0.85, 0.8, 0.9 * np.exp(0.3j), spect, constant_one(), nome)
        elliptic_beta_integral(0.9, 0.6, 0.45 * np.exp(0.5j), 0.55, 0.4, nome)
        # every ring of this one fits its fold unshifted
        elliptic_beta_integral(0.6, 0.5, 0.45 * np.exp(0.5j), 0.55, 0.4, nome)
        assert counts["products"][True] == 0
        assert counts["products"][False] > 0
        # every engine call, on the first grid or on a turned ring, comes with
        # one dden ring, and with one series for its shifted gamma rings if
        # it shifts any
        assert counts["rings"][True] >= 7
        assert 0 < counts["shifting"][True] < counts["rings"][True]
        assert counts["series"][True] == counts["rings"][True] + counts["shifting"][True]
        assert counts["series"][False] == 0


class TestNodeLadder:
    """The node history of the quadratures of a block of draws, ``_Nodes``:
    the first request evaluates twice its grid, each later one only the
    turned ring of new nodes, and the interleaved values equal a direct
    evaluation of the grid; a one-draw quadrature is a block of one."""

    CASES = [
        (NomePair(0.08, 0.12), [0.45 * np.exp(0.7j), 0.9, 0.098 * np.exp(-0.3j)], 1.0),
        # complex nomes, scales shifted by up to four periods either way
        (NomePair(0.3 * np.exp(0.7j), 0.45 * np.exp(-1.2j)),
         [0.45 * np.exp(0.7j), 2.7 * np.exp(2.1j), 0.021j, 9.5, 0.13], 0.7),
        # the Cauchy inner circle, r^2 < |q|, at the nome of the slow shifts
        (NomePair(0.05, 0.8), [0.2, 1.4 * np.exp(1.1j), 14.3, 9e-3j], 0.5),
        (NomePair(0.2, 0.35 * np.exp(0.4j)), [0.6 * np.exp(-2.0j), 3.1], 1.3),
    ]

    @staticmethod
    def _f(z):
        return z + 1 / z

    @pytest.mark.parametrize("nome, scales, radius", CASES)
    def test_interleaved_rings_match_a_direct_call(self, nome, scales, radius):
        draw = (nome, scales, self._f)
        nodes = ct._Nodes(radius, [draw], dden=True)
        for n in (16, 32, 64, 128, 256):
            gamma, dden, samples = nodes.one(n)
            # the same quantities on the n-grid alone, from one engine call
            want_gamma, want_dden, want_samples = ct._Nodes(radius, [draw], dden=True, cap=n).one(n)
            assert gamma.shape == (len(scales), n)
            for got, want in zip(gamma, want_gamma):
                assert relative_residual(got, want) < 1e-13
            # normwise: at radius 1 the dden vanishes at z = +-1
            assert np.max(np.abs(dden - want_dden)) < 1e-13 * np.max(np.abs(want_dden))
            # a pointwise f sees the grid's own points, bit for bit
            assert np.array_equal(samples, want_samples)
        assert nodes.size == 256

    @pytest.mark.parametrize("nome, scales, radius", CASES)
    def test_a_draw_reads_alike_alone_and_in_a_block(self, nome, scales, radius, monkeypatch):
        # the middle draw of a block of three whose first draw fails on its
        # first turned ring, in f or in its gamma rings, reads the rows it
        # reads alone, bit for bit
        calls = []

        def failing(z):
            calls.append(z.size)
            if len(calls) > 1:
                raise ValueError("the first draw fails")
            return self._f(z)

        draw, bad = (nome, scales, self._f), NomePair(0.1, 0.2)
        third = (NomePair(0.2, 0.35 * np.exp(0.4j)), [3.1], self._f)
        alone = ct._Nodes(radius, [draw], dden=True)
        want = {n: alone.one(n) for n in (16, 32, 64, 128, 256)}

        def read(block):
            for n in want:
                live, gamma, starts, dden, samples = block.rows(n, [0, 1, 2])
                assert live == ([0, 1, 2] if n <= 32 else [1, 2])
                i = live.index(1)
                got = gamma[starts[i] : starts[i] + len(scales)], dden[i], samples[i]
                for got_rows, want_rows in zip(got, want[n]):
                    assert np.array_equal(got_rows, want_rows)
            assert list(block.errors) == [0]

        block = ct._Nodes(radius, [(bad, [0.3, 0.6j], failing), draw, third], dden=True)
        read(block)
        assert calls == [32, 32]
        assert str(block.errors[0]) == "the first draw fails"

        # the draw whose rings fail leaves before its pass's theta call and f
        rings, theta_rings = ct._gamma_rings, ct._theta_rings
        thetas = []

        def failing_rings(ring_scales, n, ring_nome, turned=False, fit=None):
            if ring_nome is bad and turned:
                raise TruncationLimitError("the first draw's rings fail")
            return rings(ring_scales, n, ring_nome, turned, fit)

        def recording(n, ring_radius, nomes, turned=False):
            thetas.append((turned, list(nomes)))
            return theta_rings(n, ring_radius, nomes, turned)

        monkeypatch.setattr(ct, "_gamma_rings", failing_rings)
        monkeypatch.setattr(ct, "_theta_rings", recording)
        calls.clear()
        block = ct._Nodes(radius, [(bad, [0.3, 0.6j], failing), draw, third], dden=True)
        read(block)
        assert calls == [32]
        assert thetas == [(False, [bad, nome, third[0]])] + [(True, [nome, third[0]])] * 3
        assert str(block.errors[0]) == "the first draw's rings fail"

    def test_a_failed_ring_ends_a_one_draw_quadrature_before_f(self, monkeypatch):
        # a one-draw apply_M whose gamma rings raise samples f nowhere, and
        # makes no theta call
        def failing_rings(*args):
            raise TruncationLimitError("the rings fail")

        seen = []
        monkeypatch.setattr(ct, "_gamma_rings", failing_rings)
        monkeypatch.setattr(ct, "_theta_rings", lambda *args: seen.append("dden"))
        with pytest.raises(TruncationLimitError, match="the rings fail"):
            apply_M(0.6, np.exp(0.4j), lambda z: seen.append(z.size) or z + 1 / z,
                    NomePair(0.08, 0.12), radius=0.8)
        assert seen == []

    def test_a_ring_that_is_not_finite_ends_its_draw_alone(self, monkeypatch):
        # an overflowed ring is its draw's DegenerateParameterError, naming
        # its scale, raised after the pass's theta call; the other draws of
        # the block read their rows as alone
        rings = ct._gamma_rings
        nome, scales, radius = self.CASES[0]
        bad = NomePair(0.1, 0.2)

        def overflowing(ring_scales, n, ring_nome, turned=False, fit=None):
            out = rings(ring_scales, n, ring_nome, turned, fit)
            if ring_nome is bad:
                out[1, 3] = np.inf
            return out

        want = ct._Nodes(radius, [(nome, scales, self._f)], dden=True).one(64)
        monkeypatch.setattr(ct, "_gamma_rings", overflowing)
        block = ct._Nodes(radius, [(bad, [0.3, 0.6j], self._f), (nome, scales, self._f)],
                          dden=True)
        live, gamma, starts, dden, samples = block.rows(64, [0, 1])
        assert live == [1]
        for got_rows, want_rows in zip((gamma, dden[0], samples[0]), want):
            assert np.array_equal(got_rows, want_rows)
        error = block.errors[0]
        assert isinstance(error, DegenerateParameterError)
        assert str(error) == "Gamma on the ring of scale 0.6j is not finite at n = 128"

    def test_offcenter_circle_matches_a_direct_evaluation(self, monkeypatch):
        # the integrand of a Cauchy excursion, on a circle about a reciprocal pole
        nome = NomePair(0.3 * np.exp(0.5j), 0.8)
        t, x = 0.35 * np.exp(0.2j), np.exp(0.9j)
        alpha = designated_poles(0.6 * np.exp(0.4j), 1, nome.q, [1.0, -0.5j])
        g_t2 = complex(elliptic_gamma(t * t, nome))
        centre, rho = 1 / alpha.poles[0], 0.3

        def f(z):
            return ct._kernel_at(t, x, z, g_t2, nome) * alpha(z) / z

        seen = []
        drive = ct._drive

        def recording(eval_at, *args, **kwargs):
            def each(n):
                weight, samples = eval_at(n)
                seen.append((n, samples.copy()))
                return weight, samples
            return drive(each, *args, **kwargs)

        monkeypatch.setattr(ct, "_drive", recording)
        ct._offcenter_residue(f, centre, rho, rel_tol=1e-14)
        assert len(seen) >= 3
        for n, got in seen:
            step = rho * special_functions._roots(n)
            assert relative_residual(got, f(centre + step) * step) < 1e-13

    @staticmethod
    def _counted(monkeypatch):
        """Count the points of every gamma-ring, dden and sample evaluation,
        and the passes of _stacked_drive, which every quadrature's drive runs."""
        seen = {"rings": [], "dden": [], "f": [], "passes": []}
        theta_rings, drive = ct._theta_rings, ct._stacked_drive

        engine = ct._gamma_rings

        def rings(scales, n, nome, *rest):
            seen["rings"].append((len(scales), n))
            return engine(scales, n, nome, *rest)

        def dden(n, *args):
            seen["dden"].append(n)
            return theta_rings(n, *args)

        def driving(eval_at, *args, **kwargs):
            def each(n, live):
                seen["passes"].append(n)
                return eval_at(n, live)
            return drive(each, *args, **kwargs)

        monkeypatch.setattr(ct, "_gamma_rings", rings)
        monkeypatch.setattr(ct, "_theta_rings", dden)
        monkeypatch.setattr(ct, "_stacked_drive", driving)
        return seen

    @pytest.mark.parametrize("identity", ["apply_M", "star-triangle", "beta", "circle", "residue"])
    def test_each_node_is_evaluated_once(self, monkeypatch, identity):
        seen = self._counted(monkeypatch)
        nome = NomePair(0.08, 0.12)

        def one(z):
            seen["f"].append(z.size)
            return np.ones_like(z)

        def z_inv(z):
            seen["f"].append(z.size)
            return z + 1 / z

        if identity == "apply_M":
            apply_M(0.6, np.exp(0.4j), SymmetricTestFunction(z_inv), nome, radius=0.8)
        elif identity == "star-triangle":
            star_triangle_residual(0.85, 0.8, 0.9 * np.exp(0.3j), [np.exp(0.4j), np.exp(1.7j)],
                                   SymmetricTestFunction(one), nome)
        elif identity == "beta":
            elliptic_beta_integral(0.9, 0.6, 0.45 * np.exp(0.5j), 0.55, 0.4, nome)
        elif identity == "circle":
            circle_integral(lambda z: z_inv(z) / (1.2 - z), QuadratureGrid(1.0, 8), rel_tol=1e-13)
        else:
            ct._offcenter_residue(lambda z: z_inv(z) / (z - 0.5), 0.5, 0.3, rel_tol=1e-14)
        final = seen["passes"][-1]
        assert len(seen["passes"]) >= 3
        if identity in ("apply_M", "star-triangle", "beta"):
            # every engine call holds each scale once, and the calls add up to
            # the final grid
            assert len({count for count, _n in seen["rings"]}) == 1
            assert sum(n for _count, n in seen["rings"]) == final
            assert sum(seen["dden"]) == final
        if identity != "beta":
            assert sum(seen["f"]) == final

    @pytest.mark.parametrize("cap", [64, 128])
    def test_no_node_beyond_the_cap(self, cap):
        # n0 == cap evaluates n0 alone; n0 == cap / 2 fuses its two passes
        # into one evaluation of cap nodes
        sizes = []

        def f(z):
            sizes.append(z.size)
            return 1.0 / (1.0 + 1e-9 - z)

        message = (f"integral did not converge by {cap} nodes "
                   r"\(a pole may sit too close to the contour\)")
        with pytest.raises(QuadratureConvergenceError, match=message):
            circle_integral(f, QuadratureGrid(1.0, 64), rel_tol=1e-12, max_nodes=cap)
        assert sizes == [cap]

    def test_each_scale_keeps_one_shift_through_the_doublings(self, monkeypatch):
        # scales at the fit bound of the first grid, 32 nodes, on both sides
        # of it and from both sides of the annulus, and scales inside the
        # bounds of the later grids 64, 256 and 1024 alone: every engine call,
        # on the first grid and on each turned ring, gives each scale one shift
        nome = NomePair(0.08, 0.12)
        pq = abs(nome.p * nome.q)

        def bound(n):
            return oracles.fit_radius(abs(nome.p), abs(nome.q), n)

        first = bound(32)
        moduli = ([first * math.exp(-1e-9), first * math.exp(1e-9),
                   pq / first * math.exp(1e-9), pq / first * math.exp(-1e-9)]
                  + [0.999 * bound(n) for n in (64, 256, 1024)])
        scales = [m * np.exp(0.7j * i) for i, m in enumerate(moduli)]
        log_moduli = np.log(moduli)
        shifts = []
        annulus_shift = special_functions._annulus_shift

        def recording(log_az, nome, n=1):
            k, r = annulus_shift(log_az, nome, n)
            shifts.append(k)
            return k, r

        monkeypatch.setattr(special_functions, "_annulus_shift", recording)
        nodes = ct._Nodes(1.0, [(nome, scales, None)])
        for n in (16, 32, 64, 128, 256, 512, 1024):
            gamma = nodes.one(n)[0]
        # the first grid, then the turned rings of 32 to 512 nodes
        assert len(shifts) == 6
        assert all(np.array_equal(k, shifts[0]) for k in shifts)
        assert list(shifts[0] == 0) == [True, False, True, False, False, False, False]
        # at their own sizes, the later grids would have left the last three unshifted
        assert not annulus_shift(log_moduli, nome, 1024)[0][-3:].any()
        for ring, scale in zip(gamma, scales):
            want = special_functions._gamma_vec(scale * special_functions._roots(1024), nome)
            assert relative_residual(ring, want) < 1e-13

    def test_no_engine_point_beyond_the_cap(self, monkeypatch):
        seen = self._counted(monkeypatch)
        nome = NomePair(0.08, 0.12)
        nodes = ct._Nodes(1.0, [(nome, [0.5], None)], dden=True, cap=64)

        def eval_at(n):
            gamma, dden, _ = nodes.one(n)
            return 1.0, ct._pairs(gamma, 0) * dden

        with pytest.raises(QuadratureConvergenceError, match="integral did not converge by 64 nodes"):
            ct._drive(eval_at, 1e-10, n0=64, cap=64)
        assert seen["rings"] == [(1, 64)] and seen["dden"] == [64] and seen["passes"] == [64]


class TestOneDrawBits:
    """The one-draw quadratures that no campaign golden covers keep their
    bits, recorded as float.hex before their node histories became blocks
    of one."""

    @staticmethod
    def _hex(value):
        value = complex(value)
        return value.real.hex(), value.imag.hex()

    def test_apply_M_at_two_radii(self):
        got = apply_M(0.6, np.exp(0.4j), z_plus_inverse(), NomePair(0.08, 0.12), radius=0.8)
        assert self._hex(got) == ("0x1.1917163758ab2p+0", "-0x1.48fd177756673p-53")
        nome = NomePair(0.2 * np.exp(0.5j), 0.3 * np.exp(-0.9j))
        got = apply_M(0.45 * np.exp(0.3j), np.exp(1.1j), z_plus_inverse(), nome)
        assert self._hex(got) == ("0x1.b51297ff42d89p-2", "0x1.be745f038f04bp-5")

    def test_m_inversion_check(self):
        rep = m_inversion_check(0.4, np.exp(0.7j), z_plus_inverse(), NomePair(0.1, 0.15))
        assert self._hex(rep.lhs) == ("0x1.87996529f9d94p+0", "0x1.0000000000000p-53")
        assert rep.residual.hex() == "0x1.4eb5a669687cdp-52"
        assert rep.settings["n_nodes"] == 128

    def test_circle_integral_fixed_and_adaptive(self):
        f = lambda z: np.exp(z) / (1.0 - 0.2 * z) + 1.0 / z**2
        got = circle_integral(f, QuadratureGrid(1.0, 64))
        assert self._hex(got) == ("-0x1.46b9c347764a4p-52", "0x1.921fb54442d16p+2")
        got = circle_integral(f, QuadratureGrid(0.6, 16), rel_tol=1e-12)
        assert self._hex(got) == ("-0x1.921fb54442d18p-54", "0x1.921fb54442d17p+2")

    def test_check_residues(self):
        rng = np.random.default_rng(5)
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        got = designated_poles(0.7, 3, 0.5, coeffs).check_residues(rel_tol=1e-9)
        assert got.hex() == "0x1.045a1bb33b0e0p-52"

    def test_deformation_conditioning(self):
        nome = NomePair(0.05, 0.8)
        alpha = designated_poles(0.9, 1, nome.q, [1.3 - 0.4j, 0.2 + 0.7j])
        got = ct.deformation_conditioning(alpha, 0.05, np.exp(0.3j), None, nome)
        assert got.hex() == "0x1.d0b71d0ca4ff2p-44"


class TestStarTriangle:
    def test_alpha_one(self):
        nome = NomePair(0.08, 0.12)
        spect = [np.exp(0.4j), np.exp(1.7j), np.exp(-2.2j)]
        rep = star_triangle_residual(0.55, 0.45, 0.9 * np.exp(0.3j), spect,
                                     constant_one(), nome)
        assert rep.residual < 1e-8
        assert len(rep.details["per_spectator"]) == 3

    def test_alpha_z_plus_inverse(self):
        nome = NomePair(0.08, 0.12)
        spect = [np.exp(0.4j), np.exp(1.7j), np.exp(-2.2j)]
        rep = star_triangle_residual(0.55, 0.45, 0.9 * np.exp(0.3j), spect,
                                     z_plus_inverse(), nome)
        assert rep.residual < 1e-8

    def test_a_nan_spectator_fails_the_check(self, monkeypatch):
        nome = NomePair(0.08, 0.12)
        drive = ct._stacked_drive
        sides = []

        def nan_second_spectator(eval_at, out, *rest, **kwargs):
            drive(eval_at, out, *rest, **kwargs)
            ((both, info),) = out
            both = both.copy()
            both[1] = math.nan  # the second spectator's left side
            sides.append(both)
            out[0] = both, info

        monkeypatch.setattr(ct, "_stacked_drive", nan_second_spectator)
        rep = star_triangle_residual(0.55, 0.45, 0.9 * np.exp(0.3j),
                                     [np.exp(0.4j), np.exp(1.7j), np.exp(-2.2j)],
                                     constant_one(), nome)
        per = rep.details["per_spectator"]
        assert math.isnan(per[1]) and math.isnan(rep.residual) and not rep.passed
        # the other entries keep the bits of the per-spectator scalar residual
        (both,) = sides
        assert [per[0], per[2]] == [relative_residual(both[i], both[3 + i]) for i in (0, 2)]

    def test_degenerate_t_excluded_by_precondition(self):
        nome = NomePair(0.08, 0.12)
        with pytest.raises(ConstraintViolationError):
            star_triangle_residual(0.5, 1.0, 0.9, [1.0], constant_one(), nome)

    def test_operator_params_validation(self):
        nome = NomePair(0.08, 0.12)
        with pytest.raises(ConstraintViolationError):
            OperatorParams(t=0.5, s=1.2, w=1.0, y=1.0).validate_star_triangle(nome)


class TestCauchyDeformation:
    def test_single_pole_pair(self):
        nome = NomePair(0.05, 0.8)
        alpha = designated_poles(0.9, 0, nome.q, [1.3 - 0.4j])
        rep = contour_deformation_check(alpha, 0.05, np.exp(0.3j), None, nome)
        assert rep.residual < 1e-9

    def test_three_pole_ladder(self):
        nome = NomePair(0.05, 0.8)
        rng = np.random.default_rng(3)
        alpha = designated_poles(0.92, 2, nome.q, rng.normal(size=3) + 1j * rng.normal(size=3))
        rep = contour_deformation_check(alpha, 0.06, np.exp(-0.9j), None, nome)
        assert rep.residual < 1e-8

    def test_radius_ordering_enforced(self):
        nome = NomePair(0.05, 0.5)
        alpha = designated_poles(0.7, 2, nome.q, [1.0, 1.0, 1.0])
        # t = 0.3 puts kernel poles above the innermost alpha pole
        with pytest.raises(ConstraintViolationError):
            contour_deformation_check(alpha, 0.3, 1.0, 0.16, nome)

    @pytest.mark.parametrize("inner_radius", [None, 0.5])
    def test_function_without_poles_is_a_domain_error(self, inner_radius):
        nome = NomePair(0.05, 0.8)
        for check in (ct.deformation_conditioning, contour_deformation_check):
            with pytest.raises(DomainError, match="declared poles"):
                check(constant_one(), 0.1, 1.0, inner_radius, nome)

    def test_conditioning_is_the_inner_probe_floor(self):
        nome = NomePair(0.05, 0.8)
        alpha = designated_poles(0.9, 1, nome.q, [1.3 - 0.4j, 0.2 + 0.7j])
        t, x = 0.05, np.exp(0.3j)
        radius = ct._deformation_radii(alpha, t, x, None)[2]
        g_t2 = complex(elliptic_gamma(t * t, nome))
        _, scale = ct._trapezoid(*ct._m_single(t, x, ct._PROBE_NODES, radius, alpha, g_t2, nome))
        i_t, _ = ct._trapezoid(*ct._m_single(t, x, ct._PROBE_NODES, 1.0, alpha, g_t2, nome))
        residue_term = 4j * math.pi * nome.kappa * ct._residue_sum(alpha, t, x, g_t2, nome)
        value_scale = max(abs(i_t), abs(residue_term))
        got = ct.deformation_conditioning(alpha, t, x, None, nome)
        assert got == ct._FLOOR * scale / value_scale

    def test_entire_function_sees_no_residues(self):
        # with no poles between the contours the two integrals agree outright
        nome = NomePair(0.05, 0.5)
        t, x = 0.1, np.exp(0.3j)
        alpha = z_plus_inverse()

        g_t2 = complex(elliptic_gamma(t * t, nome))

        def integrand(z):
            from elliptic_bailey.contour import _kernel_at

            return _kernel_at(t, x, z, g_t2, nome) * alpha(z)

        i_t = circle_integral(integrand, QuadratureGrid(1.0, 128), rel_tol=1e-11)
        i_c = circle_integral(integrand, QuadratureGrid(0.45, 128), rel_tol=1e-11)
        assert abs(i_t - i_c) < 1e-10 * abs(i_t)


class TestFiniteDifference:
    def test_identity_action_exact(self):
        nome = NomePair(0.1, 0.4)
        f = lambda z: z + 1.0 / z
        x = 0.92 * np.exp(0.4j)
        assert finite_difference_M(0, 1, x, f, nome) == f(x)
        assert finite_difference_M(0, -1, x, f, nome) == f(-x)

    def test_n1_matches_regularized_oracle(self):
        nome = NomePair(0.1, 0.4)
        f = lambda z: z + 1.0 / z
        x = 0.92 * np.exp(0.4j)
        fd = finite_difference_M(1, 1, x, f, nome)
        vals = [finite_difference_oracle(x, f, nome, e) for e in (1e-2, 5e-3, 2.5e-3)]
        a1 = [2 * vals[i + 1] - vals[i] for i in range(2)]
        rich = (4 * a1[1] - a1[0]) / 3
        assert relative_residual(fd, rich) < 1e-5

    def test_sign_argument_validation(self):
        nome = NomePair(0.1, 0.4)
        with pytest.raises(DomainError):
            finite_difference_M(1, 2, 0.9, lambda z: z, nome)

    def test_denominator_degeneracy(self):
        nome = NomePair(0.1, 0.4)
        # q x^2 = p makes theta(q x^2; p) vanish exactly
        x = complex(np.sqrt(nome.p / nome.q))
        with pytest.raises(DegenerateParameterError):
            finite_difference_M(1, 1, x, lambda z: z + 1 / z, nome)

    def test_denominator_degeneracy_at_higher_k(self):
        f = lambda z: z + 1 / z
        # theta(q x^2 q^j; p) vanishes at j = 1, a factor of theta(q x^2)_k for k >= 2
        nome = NomePair(0.1, 0.4)
        x = complex(nome.q ** -1.0)
        assert np.isfinite(finite_difference_M(1, 1, x, f, nome))
        for N in (2, 3):
            with pytest.raises(DegenerateParameterError):
                finite_difference_M(N, 1, x, f, nome)
        # q^2 = p makes theta(q q^1; p), a factor of theta(q)_k for k >= 2, vanish
        nome = NomePair(0.16, 0.4)
        x = 0.92 * np.exp(0.4j)
        assert np.isfinite(finite_difference_M(1, -1, x, f, nome))
        with pytest.raises(DegenerateParameterError):
            finite_difference_M(2, -1, x, f, nome)

    def test_oracle_window_validation(self):
        nome = NomePair(0.1, 0.4)
        with pytest.raises(ConstraintViolationError):
            finite_difference_oracle(0.3, lambda z: z + 1 / z, nome, 1e-2)


class TestFixedGammaValues:
    """Each check takes the Gamma values it needs outside its quadrature grid
    from one pointwise engine call (one group); the grids' rings are calls
    of the ring engine, which the spy does not see."""

    NOME = NomePair(0.1, 0.4)
    X = 0.92 * np.exp(0.4j)

    @staticmethod
    def _pointwise_sizes(monkeypatch):
        sizes = []
        groups = special_functions._gamma_groups

        def spy(entries, *args, **kwargs):
            sizes.extend(np.size(entry[0]) for entry in entries)
            return groups(entries, *args, **kwargs)

        monkeypatch.setattr(special_functions, "_gamma_groups", spy)
        return sizes

    def test_finite_difference_M(self, monkeypatch):
        sizes = self._pointwise_sizes(monkeypatch)
        finite_difference_M(1, 1, self.X, lambda z: z + 1 / z, self.NOME)
        assert sizes == [2]

    def test_finite_difference_oracle(self, monkeypatch):
        sizes = self._pointwise_sizes(monkeypatch)
        finite_difference_oracle(self.X, lambda z: z + 1 / z, self.NOME, 1e-2)
        assert sizes == [9]

    def test_m_inversion_check(self, monkeypatch):
        sizes = self._pointwise_sizes(monkeypatch)
        m_inversion_check(0.4, np.exp(0.7j), z_plus_inverse(), NomePair(0.1, 0.15))
        assert sizes == [6]

    def test_finite_difference_M_at_N0_is_exactly_f(self):
        # the prefactor Gamma(x^-2) / Gamma(x^-2) is taken as 1: Python's
        # complex v / v is not 1 for about 8% of v, and at these x it is not
        f = lambda z: z + 1 / z
        rng = np.random.default_rng(27)
        inexact = []
        while len(inexact) < 4:
            x = rng.uniform(0.88, 0.95) * np.exp(2j * np.pi * rng.uniform())
            v = complex(special_functions._gamma_vec(np.array([x**-2]), self.NOME)[0])
            if v / v != 1:
                inexact.append(complex(x))
        for x in inexact:
            for sign in (1, -1):
                assert finite_difference_M(0, sign, x, f, self.NOME) == f(sign * x)

    def test_contour_does_not_bind_the_public_gamma(self):
        assert not hasattr(ct, "elliptic_gamma")


def _per_scalar_residue_reduction(alpha, z0, t, N, nome):
    """The residue sum (i) and the ratio Gamma(k)/Gamma(a) of (ii), one scalar
    gamma call per factor and one elliptic_pochhammer call per chain, as the
    check evaluated them before it batched its gamma values."""
    a = z0 * z0
    k = (t * z0) ** 2
    q = nome.q

    def g(v):
        return complex(elliptic_gamma(v, nome))

    total = 0j
    for m, c in enumerate(alpha.residues):
        chain = elliptic_pochhammer(q ** (m - N), N - m, nome) if m < N else 1.0
        total += c * (
            g(k * q ** (N + m)) * g((k / a) * q ** (N - m)) * g(q ** (-N - m) / a)
            / (chain * g(k / a) * g(a * q ** (2 * m)) * g(q ** (-2 * m) / a))
        )
    return total, g(k) / g(a)


class TestResidueMatrixBridge:
    def test_scalar_case(self):
        nome = NomePair(0.1, 0.4)
        z0, t = np.sqrt(0.49), np.sqrt(0.3 / 0.49)
        alpha = designated_poles(z0, 0, nome.q, [2.0 + 1.0j])
        rep = residue_matrix_reduction_check(alpha, z0, t, 0, nome)
        assert rep.residual < 1e-11

    def test_reference_parameters(self):
        # a = 0.49, k = 0.3 at p = 0.1, q = 0.4 up to N = 4
        nome = NomePair(0.1, 0.4)
        a, k = 0.49, 0.3
        z0, t = np.sqrt(a), np.sqrt(k / a)
        rng = np.random.default_rng(17)
        for N in (1, 2, 3, 4):
            alpha = designated_poles(z0, N, nome.q, rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1))
            rep = residue_matrix_reduction_check(alpha, z0, t, N, nome)
            assert rep.residual < 1e-9, f"N={N}"
            assert rep.details["selected_exponent"] == "m(m+1)"
            if N >= 1:
                # the competing normalization deviates by a factor q^{-2m}
                assert rep.details["residual_exponent_m_minus_1"] > 1e-2

    def test_pole_declaration_validated(self):
        nome = NomePair(0.1, 0.4)
        alpha = designated_poles(0.5, 2, nome.q, [1.0, 1.0, 1.0])
        with pytest.raises(DomainError):
            residue_matrix_reduction_check(alpha, 0.7, 0.78, 2, nome)

    @pytest.mark.parametrize("nome", [NomePair(0.1, 0.4),
                                      NomePair(0.12 * np.exp(0.7j), 0.35 * np.exp(-1.9j))],
                             ids=["real", "complex"])
    def test_batched_matches_per_scalar_evaluation(self, nome):
        rng = np.random.default_rng(808)
        for N in range(7):
            a = rng.uniform(0.2, 0.8) * np.exp(2j * np.pi * rng.uniform())
            k = rng.uniform(0.1, 0.7) * np.exp(2j * np.pi * rng.uniform())
            z0, t = complex(np.sqrt(a)), complex(np.sqrt(k / a))
            alpha = designated_poles(z0, N, nome.q, rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1))
            rep = residue_matrix_reduction_check(alpha, z0, t, N, nome)
            lhs, ratio = _per_scalar_residue_reduction(alpha, z0, t, N, nome)
            assert relative_residual(rep.lhs, lhs) < 1e-13, f"N={N}"
            ms = np.arange(N + 1)
            weights = nome.q ** (N * (N + 1) - ms * (ms + 1))
            rhs = ratio * np.sum(build_M(N, a, k, nome).entries[N] * weights * alpha.residues)
            assert relative_residual(rep.rhs, rhs) < 1e-13, f"N={N}"

    def test_one_gamma_call_and_one_pochhammer_table(self, monkeypatch):
        calls = {"gamma": [], "pochhammer": 0, "build_M": 0}
        rings, groups = special_functions._gamma_rings, special_functions._gamma_groups

        def count(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        def gamma_spy(scales, n, nome, *args, **kwargs):
            calls["gamma"].append(np.size(scales) * n)
            return rings(scales, n, nome, *args, **kwargs)

        def pointwise_spy(entries, *args, **kwargs):
            calls["gamma"].extend(np.size(entry[0]) for entry in entries)
            return groups(entries, *args, **kwargs)

        monkeypatch.setattr(special_functions, "_gamma_rings", gamma_spy)
        monkeypatch.setattr(ct, "_gamma_rings", gamma_spy)
        monkeypatch.setattr(ct, "_gamma_groups", pointwise_spy)
        monkeypatch.setattr(ct, "_guarded_pochhammer", count("pochhammer", ct._guarded_pochhammer))
        monkeypatch.setattr(bailey_algebra, "_guarded_pochhammer",
                            count("build_M", bailey_algebra._guarded_pochhammer))
        nome = NomePair(0.1, 0.4)
        N = 4
        z0, t = np.sqrt(0.49), np.sqrt(0.3 / 0.49)
        alpha = designated_poles(z0, N, nome.q, np.ones(N + 1))
        assert residue_matrix_reduction_check(alpha, z0, t, N, nome).residual < 1e-11
        assert calls == {"gamma": [3 + 5 * (N + 1)], "pochhammer": 1, "build_M": 1}

    @pytest.mark.parametrize("poisoned", [0, 1], ids=["m_plus_1", "m_minus_1"])
    def test_a_nan_normalization_is_never_passed_over(self, monkeypatch, nan_on_call, poisoned):
        # m(m+1) stays selected unless m(m-1) is strictly better, and the one
        # selection sets the residual, the right side and the exponent
        nome = NomePair(0.1, 0.4)
        z0, t = np.sqrt(0.49), np.sqrt(0.3 / 0.49)
        alpha = designated_poles(z0, 3, nome.q, np.ones(4))
        reference = residue_matrix_reduction_check(alpha, z0, t, 3, nome)
        monkeypatch.setattr(ct, "relative_residual", nan_on_call(ct.relative_residual, poisoned))
        rep = residue_matrix_reduction_check(alpha, z0, t, 3, nome)
        assert rep.details["selected_exponent"] == "m(m+1)"
        selected = rep.details["residual_exponent_m_plus_1"]
        assert np.float64(rep.residual).tobytes() == np.float64(selected).tobytes()
        assert rep.rhs == reference.rhs
        assert rep.passed == (poisoned == 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowing_gamma_names_its_argument(self):
        # from `verify residue-reduction --N 8 --seed 29800`, draw 83:
        # Gamma(q^-16 / a) underflows to 0 in double precision, so the sum
        # (i) has a zero denominator; k does not enter that factor
        nome = NomePair(0.1462028393234246, 0.30773309370508994)
        a = 0.04345945221501911 + 0.22633341107984703j
        z0, t = complex(np.sqrt(a)), complex(np.sqrt(0.3 / a))
        alpha = designated_poles(z0, 8, nome.q, np.ones(9))
        # the argument q^-16 / a = 1.26e8 - 6.59e8j
        with pytest.raises(DegenerateParameterError,
                           match=r"Gamma\(\(126495601\.\d+-658779150\.\d+j\)\) = \(-0\+0j\) is zero"):
            residue_matrix_reduction_check(alpha, z0, t, 8, nome)


def _residue_draw(nome, a, k, N, seed=0):
    """The inputs (alpha, z0, t, N, nome, tolerance) of a residue-reduction
    check at (a, k), alpha with random residues."""
    z0, t = complex(np.sqrt(a)), complex(np.sqrt(k / a))
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
    return designated_poles(z0, N, nome.q, coeffs), z0, t, N, nome, 1e-9


def _check_alone(draw):
    """The canonical report of the public check on ``draw``, or its error as
    (type, message)."""
    try:
        return residue_matrix_reduction_check(*draw).to_json()
    except EllipticBaileyError as exc:
        return type(exc).__name__, str(exc)


class TestStackedResidueChecks:
    """A pass of residue-reduction checks gives each draw the report, bit for
    bit, or the error of the public check on it alone."""

    @staticmethod
    def _random_draws(N, count, seed):
        rng = np.random.default_rng(seed)
        draws = []
        for i in range(count):
            p, q = rng.uniform(0.05, 0.15), rng.uniform(0.3, 0.5)
            if i % 3 == 2:
                p, q = p * np.exp(2j * np.pi * rng.uniform()), q * np.exp(2j * np.pi * rng.uniform())
            a = rng.uniform(0.2, 0.8) * np.exp(2j * np.pi * rng.uniform())
            k = rng.uniform(0.1, 0.7) * np.exp(2j * np.pi * rng.uniform())
            draws.append(_residue_draw(NomePair(p, q), a, k, N, seed=i))
        return draws

    @staticmethod
    def _pass(draws):
        return [(type(out).__name__, str(out)) if isinstance(out, Exception) else out.to_json()
                for out in ct._residue_reduction_checks(draws)]

    def test_the_guarded_paths_of_a_pass_at_n_1(self):
        # each failure among draws that pass, at its place in the check's
        # order; the tier-1 filter turns any warning of the pass into an error
        faults = {
            # theta(q^2; p) = theta(p; p) in M's denominator theta(q)_2
            "M guard": _residue_draw(NomePair(0.09, 0.3), 0.49j, 0.37 * np.exp(0.4j), 1),
            # a next to p: theta(a; p) ~ 8e-12, and 1 / a is off the pole guard
            "theta(a)": _residue_draw(NomePair(0.1, 0.4), 0.1 * (1 + 1e-11), 0.37 * np.exp(0.4j), 1),
            # a = p: Gamma(1 / a) sits on the pole lattice
            "pole": _residue_draw(NomePair(0.1, 0.4), 0.1, 0.37 * np.exp(0.4j), 1),
            "poles of alpha": (designated_poles(0.5, 1, 0.4, [1.0, 1.0]), 0.7, 0.78, 1,
                               NomePair(0.1, 0.4), 1e-9),
        }
        draws = self._random_draws(1, 9, seed=41)
        for i, fault in enumerate(faults.values()):
            draws.insert(2 * i + 1, fault)
        got = self._pass(draws)
        assert got == [_check_alone(draw) for draw in draws]
        errors = [got[2 * i + 1] for i in range(len(faults))]
        assert [name for name, _message in errors] == [
            "DegenerateParameterError", "DegenerateParameterError", "PoleProximityError",
            "DomainError"]
        assert errors[0][1] == "theta((0.09+0j); p) = 9.031e-17 in a denominator is under the guard"
        assert errors[1][1].startswith("theta(a; p) = (7.92")
        assert all(isinstance(out, str) for out in got[len(faults) * 2:])

    def test_an_underflowing_gamma_in_a_pass_at_n_8(self):
        # draw 83 of `verify residue-reduction --N 8 --seed 29800`, whose
        # Gamma(q^-16 / a) underflows, among draws that pass
        nome = NomePair(0.1462028393234246, 0.30773309370508994)
        a = 0.04345945221501911 + 0.22633341107984703j
        draws = self._random_draws(8, 6, seed=43)
        draws.insert(3, _residue_draw(nome, a, 0.3, 8))
        got = self._pass(draws)
        assert got == [_check_alone(draw) for draw in draws]
        assert got[3][0] == "DegenerateParameterError"
        assert got[3][1].endswith("is zero or not finite in the residue sum")
        assert all(isinstance(out, str) for i, out in enumerate(got) if i != 3)

    @pytest.mark.parametrize("N", [0, 4])
    def test_a_draw_reads_the_same_in_any_pass(self, N):
        draws = self._random_draws(N, 12, seed=47 + N)
        got = self._pass(draws)
        assert got == self._pass(draws[::-1])[::-1] == [_check_alone(draw) for draw in draws]

    def test_a_checked_gamma_call_enters_the_engine_once(self, monkeypatch):
        # the group counts of every pointwise engine call, through either
        # binding: a call with ``where`` runs the engine's body once
        calls = []
        engine = special_functions._gamma_groups

        def spy(groups, *args):
            calls.append(len(groups))
            return engine(groups, *args)

        for module in (special_functions, ct):
            monkeypatch.setattr(module, "_gamma_groups", spy)
        ct._residue_reduction_checks([_residue_draw(NomePair(0.1, 0.4), 0.49, 0.3, 2)])
        assert calls == [1]
        calls.clear()
        apply_M(0.3, 1.0, constant_one(), NomePair(0.1, 0.3))
        assert calls == [1]

    def test_a_pass_takes_one_N(self):
        nome = NomePair(0.1, 0.4)
        with pytest.raises(DomainError, match="take one N"):
            ct._residue_reduction_checks([_residue_draw(nome, 0.49, 0.3, 1),
                                          _residue_draw(nome, 0.49, 0.3, 2)])


class TestStackedQuadratureChecks:
    """A round of star-triangle or beta-integral checks (``_star_triangle_checks``,
    ``_beta_integral_checks``) gives each draw the report, bit for bit, or
    the error of the public check on it alone, whatever its round-mates and
    their order: one fixed-gamma pass, one pass of the nomes' products, and
    stacked drives a block of draws at a time."""

    @staticmethod
    def _star_draws(count, seed):
        """``count`` admissible star-triangle checks, as the campaign samples
        them, each on a fresh nome."""
        rng = np.random.default_rng(seed)
        draws = []
        while len(draws) < count:
            nome = NomePair(rng.uniform(0.06, 0.12), rng.uniform(0.1, 0.18))
            s, t = (rng.uniform(0.35, 0.65) * np.exp(2j * np.pi * rng.uniform()) for _ in range(2))
            y = rng.uniform(0.75, 1.3) * np.exp(2j * np.pi * rng.uniform())
            spectators = list(np.exp(2j * np.pi * rng.uniform(size=3)))
            try:
                for w in spectators:
                    OperatorParams(t=t, s=s, w=w, y=y).validate_star_triangle(nome, margin=0.85)
            except ConstraintViolationError:
                continue
            alpha = constant_one() if len(draws) % 2 == 0 else z_plus_inverse()
            draws.append((s, t, y, spectators, alpha, nome, 1e-10, 1e-8, 0.85))
        return draws

    @staticmethod
    def _beta_draws(count, seed):
        """``count`` admissible beta-integral checks, as the campaign samples
        them, each on a fresh nome."""
        rng = np.random.default_rng(seed)
        draws = []
        while len(draws) < count:
            nome = NomePair(rng.uniform(0.05, 0.12), rng.uniform(0.1, 0.2))
            ts = list(rng.uniform(0.35, 0.7, size=5) * np.exp(2j * np.pi * rng.uniform(size=5)))
            if 0.1 <= abs(nome.p * nome.q / np.prod(ts)) <= 0.8:
                draws.append((*ts, nome, 1e-10, 1e-9))
        return draws

    CASES = {
        "star-triangle": (_star_draws, ct._star_triangle_checks,
                          lambda draw: star_triangle_residual(*draw)),
        "beta-integral": (_beta_draws, ct._beta_integral_checks,
                          lambda draw: elliptic_beta_integral(*draw)),
    }

    @staticmethod
    def _read(outs):
        return [(type(out).__name__, str(out)) if isinstance(out, Exception) else out.to_json()
                for out in outs]

    @classmethod
    def _alone(cls, identity, draws):
        """Each draw's public check alone, as its canonical report or its
        error as (type, message)."""
        check = cls.CASES[identity][2]
        out = []
        for draw in draws:
            try:
                out.append(check(draw).to_json())
            except EllipticBaileyError as exc:
                out.append((type(exc).__name__, str(exc)))
        return out

    @pytest.mark.parametrize("identity", CASES)
    def test_a_draw_reads_the_same_in_any_round(self, identity):
        # 30 draws take more than one block of either check
        sample, checks, _check = self.CASES[identity]
        draws = sample.__func__(30, seed=53)
        alone = self._alone(identity, sample.__func__(30, seed=53))
        assert self._read(checks(draws)) == alone
        # fresh nomes, shuffled, beside other round-mates
        order = np.random.default_rng(7).permutation(30)
        fresh = sample.__func__(30, seed=53)
        mates = sample.__func__(9, seed=59)
        got = self._read(checks(mates + [fresh[i] for i in order]))
        assert got[9:] == [alone[i] for i in order]
        assert got[:9] == self._alone(identity, sample.__func__(9, seed=59))

    @staticmethod
    def _cap(monkeypatch, cap):
        """Every stacked drive stops at ``cap`` nodes."""
        drive = ct._stacked_drive

        def capped(eval_at, out, live, rel_tol, n0=ct.DEFAULT_N0, _cap=None, label="integral"):
            drive(eval_at, out, live, rel_tol, n0, cap, label)

        monkeypatch.setattr(ct, "_stacked_drive", capped)

    def test_star_triangle_errors_end_in_their_own_slots(self, monkeypatch):
        self._cap(monkeypatch, 128)
        draws = self._star_draws(12, seed=61)
        s, t, y, spectators, alpha, nome, rel_tol, tolerance, _margin = draws[4]
        # |s| over the margin fails the constraints; t^2 = 1 - 6e-14 puts
        # Gamma(t^2), a fixed value, within guard distance of its pole at 1
        draws[4] = (0.9, t, y, spectators, alpha, nome, rel_tol, tolerance, 0.85)
        draws[7] = (s, 1 - 3e-14, y, spectators, alpha, nome, rel_tol, tolerance, 1.0)
        got = self._read(ct._star_triangle_checks(draws))
        assert got == self._alone("star-triangle", draws)
        kinds = [out[0] if isinstance(out, tuple) else "report" for out in got]
        assert kinds[4] == "ConstraintViolationError" and kinds[7] == "PoleProximityError"
        # the draws that need more than 128 nodes stop there, among those that pass
        assert "QuadratureConvergenceError" in kinds and "report" in kinds
        assert all(message == "star-triangle did not converge by 128 nodes (a pole may sit too "
                   "close to the contour)" for kind, message in
                   (out for out in got if isinstance(out, tuple)) if kind.startswith("Quad"))

    def test_beta_integral_errors_end_in_their_own_slots(self, monkeypatch):
        self._cap(monkeypatch, 128)
        draws = self._beta_draws(12, seed=67)
        *ts, nome, rel_tol, tolerance = draws[3]
        # |t1| over 1 fails the constraints; t1 = 1 - 2e-14 puts the ring
        # Gamma(t1 z) on the first grid within guard distance of its pole
        draws[3] = (1.2, *ts[1:], nome, rel_tol, tolerance)
        draws[8] = (1 - 2e-14, *draws[8][1:])
        got = self._read(ct._beta_integral_checks(draws))
        assert got == self._alone("beta-integral", draws)
        kinds = [out[0] if isinstance(out, tuple) else "report" for out in got]
        assert kinds[3] == "ConstraintViolationError" and kinds[8] == "PoleProximityError"
        assert "QuadratureConvergenceError" in kinds and "report" in kinds

    # seeds at which a draw that needs more than 128 nodes was rejected once
    @pytest.mark.parametrize("identity, seed", [("star-triangle", 79), ("beta-integral", 78)])
    def test_a_failed_check_keeps_its_rejections(self, monkeypatch, identity, seed):
        from elliptic_bailey.harness import CampaignConfig, run_campaign

        cfg = CampaignConfig(identity=identity, draws=10, seed=seed)
        clean = run_campaign(cfg)
        self._cap(monkeypatch, 128)
        capped = run_campaign(cfg)
        failed = [i for i, rep in enumerate(capped) if rep.error is not None]
        assert failed and len(failed) < cfg.draws
        for i, (rep, ref) in enumerate(zip(capped, clean)):
            if i in failed:
                assert rep.error.startswith("non-convergence: ")
                assert ref.settings["n_nodes"] > 128
                assert rep.settings == {"rejected": ref.settings["rejected"]}
            else:
                assert rep.to_json() == ref.to_json()
        assert any(clean[i].settings["rejected"] for i in failed)

    @pytest.mark.parametrize("identity", CASES)
    def test_a_campaign_makes_one_fixed_gamma_pass_a_chunk(self, monkeypatch, identity):
        from elliptic_bailey.harness import CampaignConfig, run_campaign

        groups = []
        gamma_groups = ct._gamma_groups

        def counted(pass_groups, *args):
            groups.append(len(pass_groups))
            return gamma_groups(pass_groups, *args)

        monkeypatch.setattr(ct, "_gamma_groups", counted)
        reports = run_campaign(CampaignConfig(identity=identity, draws=10, seed=73))
        assert all(rep.passed for rep in reports)
        # draw 0 alone, then the other nine
        assert groups == [1, 9]
