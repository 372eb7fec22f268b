"""Contour-quadrature realizations of the integral operators and identities.

All integrals are over circles |z| = r, where the trapezoid rule converges
exponentially for integrands analytic in an annulus around the contour.  The
kernel of the elliptic Fourier transform

    [M(t) f](w) = kappa * integral  Gamma(t w^{+-1} z^{+-1}; p, q)
                  / (Gamma(t^2; p, q) Gamma(z^{+-2}; p, q)) f(z) dz/z

is evaluated through the inverted-denominator form 1/Gamma(z^{+-2}) =
theta(z^2; q) theta(z^{-2}; p), which is an entire function of z on the
contour (the identity is asserted independently in the test suite).  On an
equispaced grid z_k = r w^k with w = exp(2 pi i / n), every gamma-factor
argument lies on a scaled copy of the same root-of-unity ring, so the nodes
a quadrature pass adds get all of their gamma rings, shift thetas included,
from a single call of the one gamma engine, ``_gamma_rings``, however many
grid pairs the kernels combine; the later passes call it on turned rings.
Both thetas of 1/Gamma(z^{+-2}) lie on the (n/2)-ring of z^2 and come from
one call of the ring theta series, whose pointwise factor keeps them exactly
0 at z = +-1 on the unit circle.  No ring evaluates a theta product; the
off-centre residue circles, which are not rings about 0, use the pointwise
``_kernel_at`` and its products.  A check's gamma values off its grid come
from one ``_gamma_vec`` call; a check that divides by them passes a
``where``, so that a zero or infinite one raises.  Cauchy keeps Gamma(t^2)
out of its residue sum's kernel call, a term up to 1e9 |I_T| whose bits set
floor-level residuals.

The residue-reduction, star-triangle and beta-integral checks are each one
pass over the draws of a campaign's sampling round, and the public check is
its one-draw case: their fixed gamma values come from one ``_gamma_groups``
call, a group per draw, and a draw that fails a step ends with its error in
its own slot while the others go on.  The quadrature checks also take their
nomes' products (p; p)_inf, (q; q)_inf from one pass and run their
quadratures as stacked drives, a block of draws at a time
(``_drive_blocks``): every draw of a block at the same n, its own gamma-ring
engine calls and inner M(t) apply, the dden rings of the block from one
theta call, and the pair products, kernel rows and trapezoid sums on
stacked arrays, each draw with the bits of its check alone.

Every quadrature pass returns (weight, samples): its integrand on the n-node
circle, one row per integral, and each row's prefactor.  ``_trapezoids``
alone turns them into values weight * (2 pi i / n) * sum and into the scale
of the one rounding floor ``_FLOOR``; ``_stacked_drive`` alone doubles n
until every row of a draw agrees with its previous pass, for a stack of
draws, each leaving the stack as it converges, and ``_drive`` is its
one-draw case.  A pass reads its rings and samples by row from the node
history of a block of draws, ``_Nodes``, and a one-draw quadrature's
history is a block of one.  It evaluates each node once: the first request
evaluates twice its grid in one engine call a draw, so the second pass
evaluates nothing, and each later pass only the n/2 new nodes, the previous
grid turned by half a step.  One kernel reader, ``_kernels``, multiplies
the four gamma factors of every kernel row.  One M-kernel quadrature,
``_m_quadrature``, serves every single-spectator transform of a pointwise
function: ``apply_M``, the finite-difference oracle, the inner passes of the
inversion check and both circles of the deformation check; its pass
``_m_single`` also serves the conditioning probe.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConstraintViolationError,
    DegenerateParameterError,
    DomainError,
    QuadratureConvergenceError,
)
from .report import RESIDUAL_FLOOR, VerificationReport, relative_residual, worst, _residual_ratio
from .special_functions import (
    NomePair,
    elliptic_pochhammer,  # unused here; perfbench/tracing.py wraps this binding
    theta,
    _gamma_groups,
    _gamma_rings,
    _gamma_vec,
    _guarded_pochhammer,
    _nome_products,
    _one,
    _ring,
    _theta_ring_groups,
)

__all__ = [
    "QuadratureGrid",
    "QuadratureInfo",
    "SymmetricTestFunction",
    "constant_one",
    "z_plus_inverse",
    "designated_poles",
    "gamma_product_function",
    "OperatorParams",
    "circle_integral",
    "apply_M",
    "elliptic_beta_integral",
    "d_factor",
    "star_triangle_residual",
    "deformation_conditioning",
    "contour_deformation_check",
    "finite_difference_M",
    "finite_difference_oracle",
    "residue_matrix_reduction_check",
    "m_inversion_check",
]

DEFAULT_N0 = 64
DEFAULT_NODE_CAP = 16384
DEFAULT_REL_TOL = 1e-10
# kernel rows per block of the grid kernel's half block; bounds a block's memory
_ROW_CHUNK = 256
# grid size of the conditioning probe of the deformation check
_PROBE_NODES = 64
# first and largest node counts of a small residue circle's trapezoid rule
_RESIDUE_N0 = 32
_RESIDUE_NODE_CAP = 4096
# rounding floor of a trapezoid sum, relative to the scale _trapezoid reports
_FLOOR = 50.0 * np.finfo(float).eps
# bytes of a block's rings on its first grid of 2 DEFAULT_N0 nodes, each
# draw's gamma rings and the two theta rings of its dden: the quadrature
# checks of a chunk of draws run a block of draws at a time, so that a
# 32-draw chunk of beta integrals peaks under 1 MiB
_BLOCK_BYTES = 3 << 17


# --------------------------------------------------------------------------
# grids and the adaptive trapezoid driver
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureGrid:
    """Equispaced nodes z_j = radius * exp(2 pi i j / n) with uniform weights."""

    radius: float
    n_nodes: int

    def __post_init__(self):
        if self.radius <= 0:
            raise DomainError("grid radius must be positive")
        if self.n_nodes < 2 or self.n_nodes & (self.n_nodes - 1):
            raise DomainError("n_nodes must be a power of two >= 2")


@dataclass(frozen=True)
class QuadratureInfo:
    """Convergence metadata of one adaptive integral."""

    n_nodes: int
    est_error: float


def _trapezoid(weight, samples: np.ndarray):
    """Trapezoid rule on the circle, dz/z measure: the value weight * (2 pi i / n)
    * sum(samples) of each row of ``samples`` (shape (..., n)), and the scale
    2 pi max over rows of |weight| mean|samples| that sets the rounding floor;
    :func:`_trapezoids` on one draw."""
    return _one(_trapezoids([weight], samples[None]))


def _trapezoids(weights, samples: np.ndarray) -> list:
    """:func:`_trapezoid` on a stack of draws, samples[d] and weights[d] for
    draw d: the sums and means along the last axis run on the whole stack,
    which gives each row the bits it has alone, and the weights multiply per
    draw, as numbers or per-row arrays as the draw gives them, since numpy's
    product of complex scalars rounds apart from its product of arrays."""
    n = samples.shape[-1]
    sums = np.sum(samples, axis=-1)
    means = np.mean(np.abs(samples), axis=-1)
    return [(weight * (2j * math.pi / n * total),
             float(np.max(mean * 2 * math.pi * np.abs(weight))))
            for weight, total, mean in zip(weights, sums, means)]


def _drive(eval_at, rel_tol: float, n0: int = DEFAULT_N0, cap: int = DEFAULT_NODE_CAP,
           label: str = "integral"):
    """Double the node count until successive values differ by less than the
    tolerance: :func:`_stacked_drive` on one draw, raising its error.
    ``eval_at(n)`` returns (weight, samples) for :func:`_trapezoid`, one row
    of samples per integral on the full n-grid in natural order; the worst
    row decides.  Each pass sums its whole grid, but an ``eval_at`` that
    reads a :class:`_Nodes` history evaluates only the nodes no earlier pass
    held: the passes n0 and 2 n0 share one evaluation of the 2 n0-grid, and
    each later pass adds the n/2 nodes of the turned ring."""
    out = [None]

    def stacked(n, live):
        weight, samples = eval_at(n)
        return live, [weight], samples[None]

    _stacked_drive(stacked, out, [0], rel_tol, n0, cap, label)
    return _one(out)


def _stacked_drive(eval_at, out: list, live: list, rel_tol: float, n0: int = DEFAULT_N0,
                   cap: int = DEFAULT_NODE_CAP, label: str = "integral") -> None:
    """The adaptive trapezoid rule of every quadrature, on a stack of draws,
    each with its own integrals: from n0 on, every draw of ``live`` is
    evaluated at the same n, which doubles, and a draw leaves the stack once
    its values differ from its previous pass's by at most the tolerance,
    with out[d] = (values, :class:`QuadratureInfo`).  A draw still in the
    stack past ``cap`` gets its :class:`QuadratureConvergenceError` in
    out[d].

    ``eval_at(n, live)`` returns (live, weights, samples) for the draws it
    evaluated, a subsequence of ``live`` (a draw it drops has ended, and its
    caller holds its error): per draw its weight and its samples, one row
    per integral on the full n-grid, for :func:`_trapezoids`.  A draw's
    worst row decides, and the scale sets the rounding floor
    ``_FLOOR * scale``, the accuracy limit of the trapezoid sum itself,
    through which integrals that are exactly zero converge too.  Each draw's
    test reads its own values alone, so it converges at the n, with the
    bits, of a drive on it alone."""
    prev = {}
    n = n0
    while live and n <= cap:
        live, weights, samples = eval_at(n, live)
        still = []
        for d, (val, scale) in zip(live, _trapezoids(weights, samples) if live else []):
            if d in prev:
                diff = float(np.max(np.abs(val - prev[d])))
                bound = max(rel_tol * float(np.max(np.abs(val))), _FLOOR * scale, 1e-305)
                if diff <= bound:
                    out[d] = (val, QuadratureInfo(n_nodes=n, est_error=diff))
                    continue
            prev[d] = val
            still.append(d)
        live = still
        n *= 2
    for d in live:
        out[d] = QuadratureConvergenceError(
            f"{label} did not converge by {cap} nodes (a pole may sit too close to the contour)")


class _Nodes:
    """The node history of the adaptive quadratures of a block of draws on
    one circle |z| = radius, which evaluates each node once; a one-draw
    quadrature is a block of one.

    ``draws`` holds per draw its nome, the scales of its gamma rings, each
    held once in the order of :func:`_scale_rows`, and a pointwise f or None
    (for every draw of a block alike); ``dden`` asks for the dden ring of
    :func:`_theta_rings` of every draw.  ``rows(n, live)`` returns, on the
    grid z_k = radius w^k with w = exp(2 pi i / n), for the draws ``live``:
    the draws held, in order; their gamma rings G[k] = Gamma(s w^k), one row
    a scale, each draw's rows from its entry of ``starts``; their dden rings,
    one row a draw, or None; and their samples f(z_k), one row a draw, or
    None.  A draw leaves the history when left out of ``live``, or at its
    first failure, an engine error or a ring that is not finite, kept in
    ``errors`` and unseen by later reads.  ``one(n)`` reads a block of one.

    The first request, at n, evaluates the 2n-grid if 2n <= ``cap`` (else the
    n-grid alone) and answers from its even entries, so the request at 2n
    that follows makes no engine call.  A request beyond the m nodes held
    evaluates only the m new nodes radius c w_m^j, c = exp(i pi / m), the odd
    nodes of the 2m-grid: the gamma rings at the same scales turned by c in
    one engine call a draw, the dden rings of every draw from one theta call,
    and f; and interleaves them with the values held.  Gamma(s / w^k) stays
    the reflection of the interleaved ring, since 1/c_j = c_{-j-1} for the
    points c_j = c w_m^j of the turned ring, so every engine call holds as
    many scales as the first.  The turn enters the ring series exactly
    (:func:`_gamma_rings` with ``turned``), not through rounded scales s c,
    and every call passes the first grid's size as the size its shifts are
    decided against, so each scale keeps the shift of the first call.  Each
    draw keeps its own gamma-ring engine calls, since a call's series order
    depends on all of its scales; the dden rings give each draw its own
    series order and fold.
    """

    def __init__(self, radius: float, draws, dden: bool = False, cap: int = DEFAULT_NODE_CAP):
        self.radius, self.dden, self.cap = radius, dden, cap
        self.draws = [(nome, list(_scale_rows(scales)), f) for nome, scales, f in draws]
        self.errors = {}
        self.size = self.first = 0
        self.held = None
        self.members = []

    def drop(self, d: int, exc: Exception) -> None:
        """End draw d with ``exc``, unless an earlier error ended it."""
        self.errors.setdefault(d, exc.with_traceback(None))

    def _starts(self) -> list:
        """The first gamma-ring row of each draw held, then the rows' count."""
        return [0, *itertools.accumulate(len(self.draws[d][1]) for d in self.members)]

    def _evaluate(self, m: int, turned: bool) -> list:
        """[gamma rings, dden, samples] of the draws held on the m-grid, or on
        the m-grid turned by c = exp(i pi / m), whose points are the odd nodes
        of the 2m-grid; the entries of a draw that fails hold nothing, and its
        first error is recorded; a ring that is not finite is tested after
        the theta call, so that engine errors come first."""
        starts = self._starts()
        gamma = np.empty((starts[-1], m), dtype=complex)
        dden = samples = None
        with np.errstate(over="ignore", invalid="ignore"):
            for d, lo, hi in zip(self.members, starts, starts[1:]):
                nome, scales, _f = self.draws[d]
                try:
                    if hi > lo:
                        gamma[lo:hi] = _gamma_rings(np.array(scales, dtype=complex), m, nome,
                                                    turned, self.first)
                except Exception as exc:
                    self.drop(d, exc)
            if self.dden:
                dden = np.zeros((len(self.members), m), dtype=complex)
                standing = [i for i, d in enumerate(self.members) if d not in self.errors]
                nomes = [self.draws[self.members[i]][0] for i in standing]
                try:
                    if standing:
                        dden[standing] = _theta_rings(m, self.radius, nomes, turned)
                except Exception:
                    # one draw at a time, so that a draw whose series fails ends alone
                    for i, nome in zip(standing, nomes):
                        try:
                            dden[i] = _theta_rings(m, self.radius, [nome], turned)[0]
                        except Exception as exc:
                            self.drop(self.members[i], exc)
        # float views test both parts at half the cost of a complex test
        if not (np.isfinite(gamma.view(float)).all()
                and (dden is None or np.isfinite(dden.view(float)).all())):
            for i, (d, lo, hi) in enumerate(zip(self.members, starts, starts[1:])):
                bad = np.flatnonzero(~np.isfinite(gamma[lo:hi]).all(axis=1))
                ring = (f"Gamma on the ring of scale {complex(self.draws[d][1][bad[0]])}" if bad.size
                        else f"1/Gamma(z^+-2) on the ring |z| = {self.radius}")
                if bad.size or (dden is not None and not np.isfinite(dden[i]).all()):
                    self.drop(d, DegenerateParameterError(f"{ring} is not finite at n = {m}"))
        if self.draws[0][2] is not None:
            points = self.radius * _ring(m, turned)
            samples = np.zeros((len(self.members), m), dtype=complex)
            for i, d in enumerate(self.members):
                try:
                    if d not in self.errors:
                        samples[i] = self.draws[d][2](points)
                except Exception as exc:
                    self.drop(d, exc)
        return [gamma, dden, samples]

    def _keep(self, live: list) -> None:
        """Reduce the draws held, and the values held, to those of ``live``
        that have not failed."""
        keep = [i for i, d in enumerate(self.members) if d in live and d not in self.errors]
        if len(keep) == len(self.members):
            return
        starts = self._starts()
        rows = [r for i in keep for r in range(starts[i], starts[i + 1])]
        self.held = [self.held[0][rows], *(None if v is None else v[keep] for v in self.held[1:])]
        self.members = [self.members[i] for i in keep]

    def rows(self, n: int, live: list):
        if self.held is None:
            self.size = self.first = 2 * n if 2 * n <= self.cap else n
            self.members = list(live)
            self.held = self._evaluate(self.size, turned=False)
        self._keep(live)
        while self.size < n:
            new = self._evaluate(self.size, turned=True)
            self.held = [None if old is None else
                         np.stack([old, add], axis=-1).reshape(*old.shape[:-1], 2 * self.size)
                         for old, add in zip(self.held, new)]
            self.size *= 2
            self._keep(live)
        step = self.size // n
        gamma, dden, samples = (None if v is None else v[..., ::step] for v in self.held)
        return self.members, gamma, np.array(self._starts()[:-1], dtype=int), dden, samples

    def one(self, n: int):
        """The gamma rings, dden ring or None and samples or None of the one
        draw of the history on the n-grid, as :meth:`rows` reads them; raises
        the draw's error."""
        live, gamma, _starts, dden, samples = self.rows(n, [0])
        if not live:
            raise self.errors[0]
        return gamma, None if dden is None else dden[0], None if samples is None else samples[0]


def _scale_rows(scales) -> dict:
    """The row of each scale of ``scales`` among a draw's gamma rings: each
    distinct scale once, first seen first, the order :class:`_Nodes` holds."""
    return {v: j for j, v in enumerate(dict.fromkeys(scales))}


def circle_integral(f, grid: QuadratureGrid, rel_tol: float | None = None,
                    max_nodes: int = DEFAULT_NODE_CAP) -> complex:
    """Contour integral of f(z) dz/z over the circle |z| = grid.radius.

    With ``rel_tol`` set, the node count starts at ``grid.n_nodes`` and doubles
    until successive values agree, raising
    :class:`QuadratureConvergenceError` at the cap.
    """
    nodes = _Nodes(grid.radius, [(None, (), f)], cap=grid.n_nodes if rel_tol is None else max_nodes)

    def eval_at(n):
        return 1.0, nodes.one(n)[2]

    if rel_tol is None:
        return complex(_trapezoid(*eval_at(grid.n_nodes))[0])
    return complex(_drive(eval_at, rel_tol, n0=grid.n_nodes, cap=max_nodes)[0])


def _offcenter_residue(f, center: complex, radius: float, rel_tol: float) -> complex:
    """(1 / 2 pi i) * integral of f(z) dz around a small positively oriented circle."""
    def g(step):
        return np.asarray(f(center + step), dtype=complex) * step

    nodes = _Nodes(radius, [(None, (), g)], cap=_RESIDUE_NODE_CAP)

    def eval_at(n):
        return 1 / (2j * math.pi), nodes.one(n)[2]

    return complex(_drive(eval_at, rel_tol, n0=_RESIDUE_N0, cap=_RESIDUE_NODE_CAP,
                          label="residue circle")[0])


# --------------------------------------------------------------------------
# symmetric test functions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetricTestFunction:
    """A function with alpha(z) = alpha(1/z), optional declared simple poles
    z0 q^m (plus implicit reciprocals), and the residues of alpha(z)/z there."""

    fn: object
    name: str = "alpha"
    poles: tuple = ()
    residues: tuple = ()
    annulus: tuple = (0.0, math.inf)

    def __call__(self, z):
        return self.fn(np.asarray(z, dtype=complex))

    def check_symmetry(self, rng, samples: int = 20, tol: float = 1e-13) -> float:
        lo = max(self.annulus[0], 0.05)
        hi = min(self.annulus[1], 20.0)
        r = np.exp(rng.uniform(np.log(max(lo, 1e-3)), np.log(hi), samples))
        z = r * np.exp(2j * np.pi * rng.uniform(size=samples))
        dev = np.abs(self(z) - self(1.0 / z))
        deviation = float(np.max(dev))
        if not deviation <= tol:
            raise DomainError(f"{self.name} violates alpha(z) = alpha(1/z): {deviation:.3e}")
        return deviation

    def check_residues(self, rel_tol: float = 1e-11) -> float:
        """Max relative deviation of declared residues of alpha(z)/z from
        small-circle numerical contour integrals."""
        deviations = [0.0]
        for pole, res in zip(self.poles, self.residues):
            spacing = min(
                [abs(pole - o) for o in self.poles if o != pole]
                + [abs(pole - 1.0 / o) for o in self.poles]
                + [abs(abs(pole) - 1.0) + 1.0]
            )
            rho = 0.25 * min(spacing, abs(pole))
            got = _offcenter_residue(lambda z: self(z) / z, pole, rho, rel_tol=1e-12)
            deviations.append(abs(got - res) / max(abs(res), RESIDUAL_FLOOR))
        deviation = worst(*deviations)
        if not deviation <= rel_tol:
            raise DomainError(f"{self.name} declared residues deviate by {deviation:.3e}")
        return deviation


def constant_one() -> SymmetricTestFunction:
    return SymmetricTestFunction(fn=lambda z: np.ones_like(z), name="one")


def z_plus_inverse() -> SymmetricTestFunction:
    return SymmetricTestFunction(
        fn=lambda z: z + 1.0 / z, name="z+1/z", annulus=(0.0, math.inf)
    )


def designated_poles(z0, n_poles: int, q, coeffs) -> SymmetricTestFunction:
    """alpha(z) = sum_m c_m [zeta/(z - zeta) + zeta z/(1 - zeta z)] with
    zeta = z0 q^m; exactly symmetric, simple poles at zeta and 1/zeta, and
    Res_{z=zeta} alpha(z)/z = c_m."""
    z0, q = complex(z0), complex(q)
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (n_poles + 1,):
        raise DomainError("need one coefficient per pole, m = 0..N")
    zetas = z0 * q ** np.arange(n_poles + 1)
    if np.max(np.abs(zetas)) >= 1.0:
        raise DomainError("designated poles must satisfy |z0 q^m| < 1")

    def fn(z):
        zc = z[..., None]
        blocks = zetas / (zc - zetas) + zetas * zc / (1.0 - zetas * zc)
        return np.sum(coeffs * blocks, axis=-1)

    return SymmetricTestFunction(
        fn=fn,
        name=f"poles@{z0:.3g}",
        poles=tuple(complex(v) for v in zetas),
        residues=tuple(complex(c) for c in coeffs),
        annulus=(abs(z0), 1.0 / abs(z0)),
    )


def gamma_product_function(params, nome: NomePair) -> SymmetricTestFunction:
    """alpha(z) = prod_j Gamma(u_j z; p, q) Gamma(u_j / z; p, q), |u_j| < 1;
    analytic in the annulus (max|u_j|, 1/max|u_j|)."""
    params = tuple(complex(u) for u in params)
    if any(abs(u) >= 1 for u in params):
        raise DomainError("gamma-product parameters must have modulus < 1")
    top = max(abs(u) for u in params)

    def fn(z):
        out = np.ones(z.size, dtype=complex)
        for u in params:
            out = out * _gamma_vec(u * z.ravel(), nome) * _gamma_vec(u / z.ravel(), nome)
        return out.reshape(z.shape)

    return SymmetricTestFunction(fn=fn, name="gamma-product", annulus=(top, 1.0 / top))


# --------------------------------------------------------------------------
# operator parameters and kernel machinery
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorParams:
    """Operator and spectator parameters (t, s, w, x, y) for the integral
    operators; ``x`` anchors the intermediate contour and stays on |x| = 1."""

    t: complex = 0.0
    s: complex = 0.0
    w: complex = 1.0
    x: complex = 1.0
    y: complex = 1.0

    def validate_star_triangle(self, nome: NomePair, margin: float = 1.0):
        t, s, w, y = self.t, self.s, self.w, self.y
        root = np.sqrt(complex(nome.p * nome.q))
        checks = {
            "|t|": abs(t),
            "|s|": abs(s),
            "|s w|": abs(s * w),
            "|s / w|": abs(s / w),
            "|st w|": abs(s * t * w),
            "|st / w|": abs(s * t / w),
            "|sqrt(pq) y / (s t)|": abs(root * y / (s * t)),
            "|sqrt(pq) / (y s t)|": abs(root / (y * s * t)),
        }
        for label, value in checks.items():
            if value >= margin:
                raise ConstraintViolationError(f"{label} = {value:.4f} >= {margin}")


def _reflect(ring: np.ndarray) -> np.ndarray:
    """ring[..., -m mod n]: the values at w^{-m} of a ring given at w^m."""
    return np.concatenate([ring[..., :1], ring[..., :0:-1]], axis=-1)


def _pairs(gamma: np.ndarray, rows) -> np.ndarray:
    """P[..., m] = Gamma(s w^m) Gamma(s w^{-m}), the z^{+-1} pair factors of
    the rings ``gamma[rows]``."""
    rings = gamma[rows]
    return rings * _reflect(rings)


def _theta_rings(n: int, radius: float, nomes: list, turned: bool = False) -> np.ndarray:
    """dden[d, k] = theta(z_k^2; q) * theta(z_k^{-2}; p) for each nome of
    ``nomes``, the inverted 1/Gamma(z^{+-2}) on the grid z_k = r w^k, n even,
    or on the grid turned by exp(i pi / n).  z_k^2 = r^2 w^{2k} runs twice
    over the (n/2)-ring, turned alike, where the ring series evaluates both
    thetas; z_k^{-2} is the reflection of that ring, which on the turned ring
    maps point k to -k-1 and so reverses it.  At r = 1 both thetas vanish
    exactly at z_k^2 = 1.  Each row has the bits of a call on its nome
    alone, and all come from one call of the ring theta series
    (:func:`_theta_ring_groups`, a group per nome)."""
    groups = [([radius**2, radius**-2], [v.q, v.p], v) for v in nomes]
    tq, tp = _theta_ring_groups(groups, n // 2, turned).reshape(-1, 2, n // 2).transpose(1, 0, 2)
    half = tq * (tp[:, ::-1] if turned else _reflect(tp))
    return np.concatenate([half, half], axis=-1)


def _kernel_scales(t: complex, x: complex, radius) -> tuple:
    """The ring scales of Gamma(t x z), Gamma(t x / z), Gamma(t z / x) and
    Gamma(t / (x z)) on |z| = radius, where the 2nd and 4th are read at
    w^{-k}; for an array of points z as ``radius``, the four arguments there."""
    return (t * x * radius, t * x / radius, t * radius / x, t / (x * radius))


def _kernels(gamma: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """K[..., k] = Gamma(t x z_k) Gamma(t x / z_k) Gamma(t z_k / x) Gamma(t / (x z_k))
    for z_k = radius * w^k, multiplied left to right in that order, read from
    the gamma rings of the four scales of :func:`_kernel_scales`, rows
    rows[..., 0..3] of ``gamma``, the 2nd and 4th reflected."""
    return (gamma[rows[..., 0]] * _reflect(gamma[rows[..., 1]])
            * gamma[rows[..., 2]] * _reflect(gamma[rows[..., 3]]))


def _m_kernel_half(pair: np.ndarray):
    """The block j, k in [0, n/2] of the kernel matrix K[j, k] =
    Gamma(t x_j z_k^{+-1}) Gamma((t / x_j) z_k^{+-1}) for x_j = w^j and z_k = w^k
    on the unit circle, n even, yielded in row blocks (rows, K[rows, 0..n/2]).

    Every factor is a value of the one ring G[m] = Gamma(t w^m), and they pair
    up into the ring pair[m] = G[m] G[-m]: Gamma(t x_j z_k^{+-1}) =
    pair[(j + k) mod n] and Gamma((t / x_j) z_k^{+-1}) = pair[(j - k) mod n],
    read as strided views of the doubled ring with strides +1 and -1 along k.
    Since pair[-m] is the product of the same two values as pair[m],
    K[j, k] = K[j, n - k] = K[n - j, k], so this block holds every distinct
    entry; the mirrored entries agree to rounding, as numpy's complex product
    may round a b and b a apart.
    """
    h = pair.size // 2
    pair2 = np.concatenate([pair, pair])
    step = pair2.strides[0]
    strided = np.lib.stride_tricks.as_strided
    plus = strided(pair2, shape=(h + 1, h + 1), strides=(step, step), writeable=False)
    minus = strided(pair2[pair.size:], shape=(h + 1, h + 1), strides=(step, -step), writeable=False)
    for lo in range(0, h + 1, _ROW_CHUNK):
        rows = slice(lo, min(lo + _ROW_CHUNK, h + 1))
        yield rows, plus[rows] * minus[rows]


def _m_apply_grid(pair: np.ndarray, n: int, weighted_alpha: np.ndarray, g_t2: complex,
                  nome: NomePair) -> np.ndarray:
    """[M(t) alpha](x_j) for every x_j on the same unit-circle n-grid, n even,
    given the pair ring pair[m] = Gamma(t w^{+-m}), g_t2 = Gamma(t^2) and the
    vector weighted_alpha[k] = dden[k] * alpha(z_k); includes kappa and measure.

    The kernel is mirror-symmetric, K[j, k] = K[j, n - k] = K[n - j, k], so
    the apply forms only the (n/2 + 1)^2 entries of :func:`_m_kernel_half`:
    the columns fold as v_k + v_{n-k} for 0 < k < n/2, rows 0..n/2 are summed,
    and entry n - j is a copy of entry j.  That is a quarter of the n^2
    products of the full kernel, with at most ``_ROW_CHUNK`` rows of the
    block held at once; the result agrees with the full K @ v to rounding."""
    h = n // 2
    folded = weighted_alpha[: h + 1].copy()
    folded[1:h] += weighted_alpha[:h:-1]
    out = np.empty(n, dtype=complex)
    for rows, block in _m_kernel_half(pair):
        out[rows] = block @ folded
    out[h + 1 :] = out[h - 1 : 0 : -1]
    return nome.kappa * 2j * math.pi / n * out / g_t2


def _m_single(t: complex, w: complex, n: int, radius: float, f, g_t2: complex,
             nome: NomePair, nodes: _Nodes | None = None):
    """(weight, samples) of [M(t) f](w) for a single spectator w on the n-node
    circle |z| = radius, given g_t2 = Gamma(t^2): the weight kappa and the
    samples K(w, z_k) dden[k] f(z_k) / g_t2.  ``nodes`` is the node history
    of the quadrature the pass belongs to, by default a fresh one that
    evaluates the n-grid alone; factors with equal scales share one ring, so
    at radius 1 two rings serve the kernel's four."""
    scales = _kernel_scales(t, w, radius)
    if nodes is None:
        nodes = _Nodes(radius, [(nome, scales, f)], dden=True, cap=n)
    gamma, dden, vals = nodes.one(n)
    at = _scale_rows(scales)
    return nome.kappa, _kernels(gamma, np.array([at[v] for v in scales])) * dden * vals / g_t2


def _m_quadrature(t: complex, w: complex, f, radius: float, g_t2: complex, nome: NomePair,
                  rel_tol: float, label: str) -> tuple[complex, QuadratureInfo]:
    """[M(t) f](w) by adaptive trapezoid quadrature on the circle |z| = radius,
    given g_t2 = Gamma(t^2); returns (value, info)."""
    nodes = _Nodes(radius, [(nome, _kernel_scales(t, w, radius), f)], dden=True)
    val, info = _drive(lambda n: _m_single(t, w, n, radius, f, g_t2, nome, nodes), rel_tol,
                       label=label)
    return complex(val), info


def apply_M(t, w, alpha: SymmetricTestFunction, nome: NomePair,
            radius: float = 1.0, rel_tol: float = DEFAULT_REL_TOL) -> complex:
    """Elliptic Fourier transform beta(w) = [M(t) alpha](w) by adaptive
    trapezoid quadrature on the circle |z| = radius.

    Requires the contour to separate the kernel pole ladders:
    max(|t w|, |t / w|) < radius and radius * max(|t w|, |t / w|) < 1.
    """
    t, w = complex(t), complex(w)
    top = max(abs(t * w), abs(t / w))
    if not (top < radius and radius * top < 1.0):
        raise ConstraintViolationError(
            f"contour |z| = {radius} does not separate kernel poles: |t w^+-1| max = {top:.4f}"
        )
    g_t2 = complex(_gamma_vec(np.array([t * t], dtype=complex), nome, "apply_M")[0])
    return _m_quadrature(t, w, alpha, radius, g_t2, nome, rel_tol, "apply_M")[0]


def _d_args(s: complex, y: complex, w: complex, nome: NomePair) -> list:
    """The four arguments sqrt(pq) s^{-1} y^{+-1} w^{+-1} of D(s; y, w)."""
    root = complex(np.sqrt(complex(nome.p * nome.q)))
    return [root * y * w / s, root * y / (w * s), root * w / (y * s), root / (y * w * s)]


def d_factor(s, y, w, nome: NomePair) -> complex:
    """D(s; y, w) = Gamma(sqrt(pq) s^{-1} y^{+-1} w^{+-1}; p, q), four factors,
    principal square root."""
    args = np.array(_d_args(complex(s), complex(y), complex(w), nome))
    return complex(np.prod(_gamma_vec(args, nome)))


# --------------------------------------------------------------------------
# quadrature checks a block of draws at a time
# --------------------------------------------------------------------------

class _Quadrature(NamedTuple):
    """The unit-circle quadrature of check d of a round: its nome, the scales
    of its gamma rings, its pointwise f or None, its rel_tol, its shape (its
    count of integrals, which the checks of one block share), and what the
    block's ``eval_at`` reads of it."""

    d: int
    nome: NomePair
    scales: list
    f: object
    rel_tol: float
    shape: int
    data: tuple


def _drive_blocks(checks: list, out: list, make_eval, label: str) -> list:
    """The quadratures ``checks`` as stacked drives (:func:`_stacked_drive`),
    a block of checks at a time: consecutive checks of one rel_tol and one
    shape, whose gamma rings and the two theta rings of each dden hold at
    most ``_BLOCK_BYTES`` on a first grid of 2 DEFAULT_N0 nodes, share a
    node history (:class:`_Nodes`) and a drive, whose ``eval_at`` is
    ``make_eval(block, nodes)``.  Returns per check its (values, info), or
    None where the check ended, with its error in out[d]."""
    held = [(len(set(check.scales)) + 2) * 2 * DEFAULT_N0 * 16 for check in checks]
    results = []
    lo = 0
    while lo < len(checks):
        hi, total = lo + 1, held[lo]
        while (hi < len(checks) and (checks[hi].rel_tol, checks[hi].shape)
               == (checks[lo].rel_tol, checks[lo].shape) and total + held[hi] <= _BLOCK_BYTES):
            total += held[hi]
            hi += 1
        block = checks[lo:hi]
        nodes = _Nodes(1.0, [(check.nome, check.scales, check.f) for check in block], dden=True)
        drives = [None] * len(block)
        _stacked_drive(make_eval(block, nodes), drives, list(range(len(block))), block[0].rel_tol,
                       label=label)
        for i, (check, drive) in enumerate(zip(block, drives)):
            error = nodes.errors.get(i, drive if isinstance(drive, Exception) else None)
            if error is not None:
                out[check.d] = error
            results.append(None if error is not None else drive)
        lo = hi
    return results


# --------------------------------------------------------------------------
# the elliptic beta integral
# --------------------------------------------------------------------------

def elliptic_beta_integral(t1, t2, t3, t4, t5, nome: NomePair,
                           rel_tol: float = DEFAULT_REL_TOL,
                           tolerance: float = 1e-9) -> VerificationReport:
    """Verify the beta evaluation: with t6 = pq / (t1 ... t5) and |t_j| < 1 for
    all six parameters,

        kappa * integral prod_j Gamma(t_j z^{+-1}) / Gamma(z^{+-2}) dz/z
            = prod_{j<k} Gamma(t_j t_k).

    The left side is quadrature on |z| = 1, the right side a product of
    fifteen gamma values; the report carries the relative residual.  It is
    the one-draw case of :func:`_beta_integral_checks`.
    """
    return _one(_beta_integral_checks([(t1, t2, t3, t4, t5, nome, rel_tol, tolerance)]))


def _beta_integral_checks(draws) -> list:
    """The beta-integral checks of ``draws``, each (t1, ..., t5, nome,
    rel_tol, tolerance), evaluated together: per draw its report, with the
    bits :func:`elliptic_beta_integral` gives it alone, or the error it
    raises, the first in the check's order (the moduli |t_j|, the
    quadrature, then the fifteen gamma values of the right side).

    The draws' products (p; p)_inf and (q; q)_inf come from one pass
    (:func:`special_functions._nome_products`), their quadratures run as
    stacked drives a block of draws at a time (:func:`_drive_blocks`), and
    their right sides come from one gamma pass, a group per draw."""
    out = [None] * len(draws)
    checks = []
    for d, (*five, nome, rel_tol, _tolerance) in enumerate(draws):
        try:
            ts = [complex(v) for v in five]
            ts.append(complex(nome.p * nome.q / np.prod(ts)))
            for j, v in enumerate(ts):
                if abs(v) >= 1.0:
                    raise ConstraintViolationError(f"|t{j + 1}| = {abs(v):.4f} >= 1")
        except Exception as exc:
            out[d] = exc.with_traceback(None)
            continue
        at = _scale_rows(ts)
        checks.append(_Quadrature(d, nome, ts, None, rel_tol, 1, [at[v] for v in ts]))
    _nome_products([check.nome for check in checks])
    done = [(check, drive) for check, drive in
            zip(checks, _drive_blocks(checks, out, _beta_integral_pass, "beta integral"))
            if drive is not None]
    groups = [(np.array([ts[i] * ts[j] for i in range(6) for j in range(i + 1, 6)]), check.nome)
              for check, _drive in done for ts in [check.scales]]
    for (check, (lhs, info)), values in zip(done, _gamma_groups(groups)):
        if isinstance(values, Exception):
            out[check.d] = values
            continue
        ts, nome = check.scales, check.nome
        lhs, rhs = complex(lhs), complex(np.prod(values))
        out[check.d] = VerificationReport(
            identity="beta-integral",
            params={f"t{j + 1}": ts[j] for j in range(6)} | {"p": nome.p, "q": nome.q},
            lhs=lhs,
            rhs=rhs,
            residual=relative_residual(lhs, rhs),
            tolerance=draws[check.d][7],
            settings={"n_nodes": info.n_nodes, "quad_rel_tol": check.rel_tol},
        )
    return out


def _beta_integral_pass(block: list, nodes: _Nodes):
    """The ``eval_at`` of a block of beta integrals: per draw the weight kappa,
    read on the first pass as a check alone reads it, and the samples
    prod_j Gamma(t_j z^{+-1}) dden(z), stacked."""
    at = np.array([check.data for check in block])

    def eval_at(n, live):
        live, gamma, starts, dden, _samples = nodes.rows(n, live)
        weights = []
        for d in live:
            try:
                weights.append(block[d].nome.kappa)
            except Exception as exc:
                nodes.drop(d, exc)
        if len(weights) < len(live):
            live, gamma, starts, dden, _samples = nodes.rows(n, live)
        if not live:
            return live, [], None
        rows = starts[:, None] + at[live]
        kern = np.ones((len(live), n), dtype=complex)
        for j in range(rows.shape[1]):
            kern = kern * _pairs(gamma, rows[:, j])
        return live, weights, kern * dden

    return eval_at


# --------------------------------------------------------------------------
# the star-triangle relation
# --------------------------------------------------------------------------

def star_triangle_residual(s, t, y, spectators, alpha: SymmetricTestFunction,
                           nome: NomePair, rel_tol: float = 1e-9,
                           tolerance: float = 1e-8,
                           margin: float = 1.0) -> VerificationReport:
    """Verify M(s) D(st; y, .) M(t) = D(t; y, w) M(st) D(s; y, .) applied to
    ``alpha`` at each spectator point w.

    The left side is a nested double quadrature: the inner M(t)-image is
    evaluated on the outer grid in one pass by :func:`_m_apply_grid`, which
    reads the kernel from one pair ring and forms only its mirror-folded
    (n/2 + 1)^2 block, so each pass costs about n^2 / 4 kernel products.  The
    right side is a single quadrature of the D-weighted test function.  The
    residual is the worst relative deviation over the spectator set.  It is
    the one-draw case of :func:`_star_triangle_checks`.
    """
    return _one(_star_triangle_checks([(s, t, y, spectators, alpha, nome, rel_tol, tolerance,
                                        margin)]))


def _star_triangle_checks(draws) -> list:
    """The star-triangle checks of ``draws``, each (s, t, y, spectators, alpha,
    nome, rel_tol, tolerance, margin), evaluated together: per draw its
    report, with the bits :func:`star_triangle_residual` gives it alone, or
    the error it raises, the first in the check's order (the constraints,
    the fixed gamma values, of which one zero or not finite is an error, as
    is a product D(t; y, w) of them that overflows, with
    :class:`DegenerateParameterError`, kappa, then the quadrature).

    The grid-independent values Gamma(t^2), Gamma(s^2), Gamma((st)^2) and
    D(t; y, w) per spectator come from one gamma pass, a group per draw; the
    products (p; p)_inf and (q; q)_inf from one pass
    (:func:`special_functions._nome_products`); and the quadratures run as
    stacked drives a block of draws at a time (:func:`_drive_blocks`).
    Whatever sets a value's bits stays per draw: its gamma-ring engine
    calls, its inner M(t) apply (a gemv, whose bits depend on its operands'
    shapes), its convergence test and its report."""
    out = [None] * len(draws)
    ready, groups = [], []
    for d, (s, t, y, spectators, alpha, nome, _rel_tol, _tolerance, margin) in enumerate(draws):
        try:
            s, t, y = complex(s), complex(t), complex(y)
            spectators = [complex(w) for w in spectators]
            for w in spectators:
                OperatorParams(t=t, s=s, w=w, y=y).validate_star_triangle(nome, margin=margin)
            if alpha.poles and max(abs(p) for p in alpha.poles) >= 1.0:
                raise ConstraintViolationError(
                    "alpha poles must lie strictly inside the unit circle")
        except Exception as exc:
            out[d] = exc.with_traceback(None)
            continue
        ready.append((d, s, t, y, spectators))
        groups.append((np.array([t * t, s * s, (s * t) ** 2]
                                + [v for w in spectators for v in _d_args(t, y, w, nome)]), nome))
    fixed_values = _gamma_groups(groups, "the star-triangle check")
    _nome_products([draws[d][5] for (d, *_rest), fixed in zip(ready, fixed_values)
                    if not isinstance(fixed, Exception)])
    checks = []
    # D(t; y, w), a product of four gamma values, may overflow; the draw's check ends it
    with np.errstate(over="ignore", invalid="ignore"):
        for (d, s, t, y, spectators), fixed in zip(ready, fixed_values):
            if isinstance(fixed, Exception):
                out[d] = fixed
                continue
            alpha, nome, rel_tol = draws[d][4:7]
            g_t2, g_s2, g_st2 = (complex(v) for v in fixed[:3])
            d_t = np.prod(fixed[3:].reshape(-1, 4), axis=1)
            # pair scales of D(st; y, z) and D(s; y, z), then the spectator kernels'
            root = complex(np.sqrt(complex(nome.p * nome.q)))
            pair_scales = (t, root * y / (s * t), root / (y * s * t), root * y / s, root / (y * s))
            scales = list(pair_scales)
            for w in spectators:
                scales += [*_kernel_scales(s, w, 1.0), *_kernel_scales(s * t, w, 1.0)]
            # row weights of the spectators' M(s) rows, then of their M(st) rows
            m = len(spectators)
            try:
                for w, value in zip(spectators, d_t.tolist()):
                    if not cmath.isfinite(value):
                        raise DegenerateParameterError(
                            f"D(t; y, w) = {value} at w = {w} is not finite")
                weights = np.concatenate([np.full(m, nome.kappa / g_s2), d_t * nome.kappa / g_st2])
            except Exception as exc:
                out[d] = exc.with_traceback(None)
                continue
            at = _scale_rows(scales)
            kernels = [[[at[v] for v in _kernel_scales(u, w, 1.0)] for w in spectators]
                       for u in (s, s * t)]
            checks.append(_Quadrature(d, nome, scales, alpha, rel_tol, 2 * m,
                                      (g_t2, weights, [at[v] for v in pair_scales], kernels,
                                       (s, t, y, spectators))))
    results = _drive_blocks(checks, out, _star_triangle_pass, "star-triangle")
    for (d, nome, _scales, alpha, rel_tol, rows, data), result in zip(checks, results):
        if result is None:
            continue
        (both, info), (s, t, y, spectators) = result, data[4]
        lhs, rhs = both[: rows // 2], both[rows // 2 :]
        per_spectator = _residual_ratio(lhs, rhs).tolist()
        out[d] = VerificationReport(
            identity="star-triangle",
            params={"s": s, "t": t, "y": y, "p": nome.p, "q": nome.q,
                    "spectators": spectators, "alpha": alpha.name},
            lhs=complex(lhs[0]),
            rhs=complex(rhs[0]),
            residual=worst(*per_spectator),
            tolerance=draws[d][7],
            settings={"n_nodes": info.n_nodes, "quad_rel_tol": rel_tol},
            details={"per_spectator": per_spectator},
        )
    return out


def _star_triangle_pass(block: list, nodes: _Nodes):
    """The ``eval_at`` of a block of star-triangle quadratures: per draw its
    row weights and, stacked, its samples, one row per spectator and side,
    the M(s) kernel times D(st; y, z) [M(t) alpha](z) dden(z), then the M(st)
    kernel times D(s; y, z) alpha(z) dden(z)."""
    g_t2, weights, pair_at, kernel_at, _params = zip(*(check.data for check in block))
    pair_at, kernel_at = np.array(pair_at), np.array(kernel_at)

    def eval_at(n, live):
        live, gamma, starts, dden, alpha_vals = nodes.rows(n, live)
        if not live:
            return live, [], None
        # the pair rings of t, D(st; y, z) and D(s; y, z), and the kernels'
        # factors Gamma(u w z) and Gamma(u / (w z)) at each spectator w
        pairs = _pairs(gamma, starts[:, None] + pair_at[live])
        kernels = starts[:, None, None, None] + kernel_at[live]

        # LHS: beta1 = M(t) alpha on the grid, D(st; y, x) weight, outer M(s);
        # each draw's inner apply is its own gemv
        beta1 = np.array([_m_apply_grid(pair, n, weighted, g_t2[d], block[d].nome)
                          for pair, weighted, d in zip(pairs[:, 0], dden * alpha_vals, live)])
        lhs_weighted = dden * (pairs[:, 1] * pairs[:, 2]) * beta1

        # RHS: single quadrature of D(s; y, z) alpha with the M(st) kernel
        rhs_weighted = dden * pairs[:, 3] * pairs[:, 4] * alpha_vals

        # one row per spectator and side: the M(s) and M(st) kernels at w
        kern = _kernels(gamma, kernels)
        samples = np.concatenate([kern[:, 0] * lhs_weighted[:, None],
                                  kern[:, 1] * rhs_weighted[:, None]], axis=1)
        return live, [weights[d] for d in live], samples

    return eval_at


# --------------------------------------------------------------------------
# Cauchy contour deformation
# --------------------------------------------------------------------------

def _kernel_at(t: complex, x: complex, z, g_t2: complex, nome: NomePair):
    """Bailey kernel Gamma(t x^{+-1} z^{+-1}) / Gamma(t^2, z^{+-2}) at points z,
    given g_t2 = Gamma(t^2); the four gamma factors come from one call."""
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    g = _gamma_vec(np.concatenate(_kernel_scales(t, x, flat)), nome).reshape(4, -1)
    num = (g[0] * g[1] * g[2] * g[3]).reshape(z.shape)
    dden = theta(z * z, nome.q) * theta(z**-2, nome.p)
    return num * dden / g_t2


def _deformation_radii(alpha: SymmetricTestFunction, t: complex, x: complex,
                       inner_radius: float | None) -> tuple[float, float, float]:
    """(k_top, |z_lo|, inner radius) of the deformation check: the kernel's
    outermost pole head max|t x^{+-1}|, the innermost pole z_lo of alpha, and
    ``inner_radius`` or, if None, max(0.93 |z_lo|, sqrt(|z_lo| k_top))."""
    if not alpha.poles:
        raise DomainError("the deformation check needs a test function with declared poles")
    kernel_top = max(abs(t * x), abs(t / x))
    pole_lo = min(abs(p) for p in alpha.poles)
    if inner_radius is None:
        inner_radius = max(0.93 * pole_lo, math.sqrt(kernel_top * pole_lo))
    return kernel_top, pole_lo, inner_radius


def _residue_sum(alpha: SymmetricTestFunction, t: complex, x: complex, g_t2: complex,
                 nome: NomePair) -> complex:
    """sum_m K(x, z0 q^m) alpha_m over the declared poles and residues of alpha,
    given g_t2 = Gamma(t^2)."""
    kern = _kernel_at(t, x, np.asarray(alpha.poles, dtype=complex), g_t2, nome)
    return complex(np.sum(kern * np.asarray(alpha.residues, dtype=complex)))


def deformation_conditioning(alpha: SymmetricTestFunction, t, x, inner_radius: float | None,
                             nome: NomePair) -> float:
    """Cheap estimate of the smallest relative residual double precision can
    certify for :func:`contour_deformation_check` at these parameters.

    The deformed-contour integrand grows steeply towards z = 0 while the
    identity value stays at the scale of the unit-circle integral, so the
    trapezoid sum's rounding floor ``_FLOOR * scale`` on the inner circle can
    dominate; a draw with a large estimate is numerically inadmissible, not
    wrong.  Both circles are probed at ``_PROBE_NODES`` nodes.
    """
    t, x = complex(t), complex(x)
    inner_radius = _deformation_radii(alpha, t, x, inner_radius)[2]
    g_t2 = complex(_gamma_vec(np.array([t * t], dtype=complex), nome, "the deformation probe")[0])
    _, scale_in = _trapezoid(*_m_single(t, x, _PROBE_NODES, inner_radius, alpha, g_t2, nome))
    i_t, _ = _trapezoid(*_m_single(t, x, _PROBE_NODES, 1.0, alpha, g_t2, nome))
    residue_term = 4j * math.pi * nome.kappa * _residue_sum(alpha, t, x, g_t2, nome)
    value_scale = max(abs(i_t), abs(residue_term), RESIDUAL_FLOOR)
    return _FLOOR * scale_in / value_scale


def contour_deformation_check(alpha: SymmetricTestFunction, t, x, inner_radius: float | None,
                              nome: NomePair, rel_tol: float = DEFAULT_REL_TOL,
                              tolerance: float = 1e-8) -> VerificationReport:
    """Verify the Cauchy deformation identity

        integral_T = integral_C + 4 pi i kappa sum_m K(x, z0 q^m) alpha_m

    where the deformed contour C excludes the declared poles z0 q^m of alpha
    and includes their reciprocals.  C is realized as the concentric circle
    |z| = inner_radius plus positively oriented excursions around each
    reciprocal pole (numerical small-circle integrals); alpha_m are the
    declared residues of alpha(z)/z.

    ``inner_radius=None`` places the circle at max(0.93 |z_lo|,
    sqrt(|z_lo| k_top)), with z_lo the innermost pole of alpha and
    k_top = max|t x^{+-1}| the kernel's outermost pole head; the kernel grows
    steeply towards z = 0, so radii far below the pole trade quadrature
    convergence for cancellation in the trapezoid sum.
    """
    t, x = complex(t), complex(x)
    kernel_top, pole_lo, inner_radius = _deformation_radii(alpha, t, x, inner_radius)
    pole_hi = max(abs(p) for p in alpha.poles)
    if not (kernel_top < inner_radius < pole_lo and pole_hi < 1.0):
        raise ConstraintViolationError(
            f"radius ordering violated: need max|t x^+-1| = {kernel_top:.3f} < r = "
            f"{inner_radius:.3f} < min|pole| = {pole_lo:.3f} and max|pole| < 1"
        )

    g_t2 = complex(_gamma_vec(np.array([t * t], dtype=complex), nome, "the deformation check")[0])
    i_t, info_t = _m_quadrature(t, x, alpha, 1.0, g_t2, nome, rel_tol, "deformation integral")
    i_c, info_c = _m_quadrature(t, x, alpha, inner_radius, g_t2, nome, rel_tol,
                                "deformation integral")

    # excursions of C around each reciprocal pole 1/(z0 q^m)
    recip = [1.0 / p for p in alpha.poles]
    outer_kernel_heads = [1.0 / (t * x), x / t]
    for i, centre in enumerate(recip):
        others = [abs(centre - o) for j, o in enumerate(recip) if j != i]
        others += [abs(centre - h) for h in outer_kernel_heads]
        others += [abs(centre) - 1.0]
        rho = 0.25 * min(others)
        if rho <= 0:
            raise ConstraintViolationError("reciprocal pole excursion radius collapsed")
        val = _offcenter_residue(
            lambda z: _kernel_at(t, x, z, g_t2, nome) * np.asarray(alpha(z), dtype=complex) / z,
            centre, rho, rel_tol=rel_tol,
        )
        i_c += nome.kappa * 2j * math.pi * val

    residue_term = _residue_sum(alpha, t, x, g_t2, nome) * (4j * math.pi * nome.kappa)

    rhs = i_c + residue_term
    residual = relative_residual(i_t, rhs)
    return VerificationReport(
        identity="cauchy-deformation",
        params={"t": t, "x": x, "inner_radius": inner_radius, "p": nome.p, "q": nome.q,
                "alpha": alpha.name, "n_poles": len(alpha.poles)},
        lhs=complex(i_t),
        rhs=complex(rhs),
        residual=residual,
        tolerance=tolerance,
        settings={"n_nodes_unit": info_t.n_nodes, "n_nodes_inner": info_c.n_nodes},
        details={"residue_term": complex(residue_term)},
    )


# --------------------------------------------------------------------------
# single-base finite-difference reduction of M
# --------------------------------------------------------------------------

def finite_difference_M(N: int, t_sign: int, x, f, nome: NomePair) -> complex:
    """The finite-difference operator M degenerates to at t = t_sign * q^{-N/2}:

        [M(t) f](x) = Gamma(x^{-2}) / Gamma(t^{-2} x^{-2})
            * sum_{k=0}^N theta((t x)^2 q^{2k}; p) / theta((t x)^2; p)
            * theta(t^2; p)_k theta((t x)^2; p)_k / (theta(q; p)_k theta(q x^2; p)_k)
            * f(t q^k x) / (t^{4k} x^{2k} q^{k^2})

    For N = 0 this is exactly f(x) (t_sign = +1) or f(-x) (t_sign = -1).
    Raises :class:`DegenerateParameterError` when a denominator factor
    theta(q^{j+1}; p) or theta(q^{j+1} x^2; p), j < N, is under the guard,
    when a gamma value of the prefactor underflows to zero or overflows, or
    when the sum is not finite (its theta products overflow near |p| = 1), as
    :func:`bailey_algebra.build_M` does for an entry that overflows.
    """
    if t_sign not in (1, -1):
        raise DomainError("t_sign must be +1 or -1")
    if N < 0:
        raise DomainError("N must be non-negative")
    x = complex(x)
    q = nome.q
    t = t_sign * q ** (-N / 2.0) if N else complex(t_sign)
    tx2 = (t * x) ** 2
    points = [x**-2, x**-2 / (t * t)]
    g_num, g_den = _gamma_vec(np.array(points, dtype=complex), nome,
                              "the finite-difference prefactor")
    # at N = 0, t^2 = 1 and the two points are one: the prefactor is exactly
    # 1, which Python's complex v / v is not for every v
    pre = 1.0 if points[0] == points[1] else complex(g_num) / complex(g_den)
    # rows theta(z q^j; p): the guarded denominators theta(q)_k and theta(q x^2)_k,
    # theta(t^2)_k, and theta(tx^2 q^j), j <= 2N, whose even entries are the shifts
    # products and ratios may overflow near |p| = 1; only a sum that is not finite is an error
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        factors, poch = _guarded_pochhammer([q, q * x * x, t * t, tx2], [N, N, N, 2 * N + 1],
                                            nome, 2, "a finite-difference denominator")
        num, den = poch[2, : N + 1] * poch[3, : N + 1], poch[0, : N + 1] * poch[1, : N + 1]
        k = np.arange(N + 1)
        th_shift = factors[3, ::2]
        ratio = th_shift / th_shift[0]
        ratio[0] = 1.0
        f_vals = np.array([f(t * q**j * x) for j in range(N + 1)], dtype=complex)
        terms = ratio * num / den * f_vals / (t ** (4 * k) * x ** (2 * k) * q ** (k * k))
        total = complex(np.sum(terms))
    if not cmath.isfinite(total):
        raise DegenerateParameterError(f"finite_difference_M(N={N}, x={x}): the sum is {total}")
    return pre * total


def finite_difference_oracle(x, f, nome: NomePair, eps: float,
                             rel_tol: float = DEFAULT_REL_TOL) -> complex:
    """Regularized N = 1 evaluation of [M(t) f](x) at t^2 = q^{-1} (1 + eps).

    The contour is the unit circle plus the two escaped first-lattice poles
    z = t x and z = t / x, reinstated through closed-form residue corrections
    (their reciprocal images contribute equally for symmetric f, hence the
    doubled weight):

        kappa * integral_T + Gamma(t^2 x^2, x^{-2}) / Gamma((t x)^{+-2}) f(t x)
                           + Gamma(x^2, t^2 x^{-2}) / Gamma((t/x)^{+-2}) f(t/x)

    Requires real q in (0, 1), 1 < |t x^{+-1}| < min(1/q, 1/|p|), and
    f(1/z) = f(z); a zero or infinite gamma value raises DegenerateParameterError.
    """
    q = nome.q
    if not (q.imag == 0 and 0 < q.real < 1):
        raise DomainError("the regularized oracle assumes real q in (0, 1)")
    x = complex(x)
    t = complex(np.sqrt((1.0 + eps) / q))
    lim = min(1.0 / q.real, 1.0 / abs(nome.p) if nome.p else math.inf)
    for val, label in ((abs(t * x), "|t x|"), (abs(t / x), "|t / x|")):
        if not (1.0 < val < lim):
            raise ConstraintViolationError(
                f"{label} = {val:.4f} outside the single-escape window (1, {lim:.3f})"
            )
    g_t2, *g = (complex(v) for v in _gamma_vec(np.array(
        [t * t, t * t * x * x, x**-2, (t * x) ** 2, (t * x) ** -2,
         x * x, t * t / (x * x), (t / x) ** 2, (t / x) ** -2], dtype=complex),
        nome, "the fd oracle"))
    quad = _m_quadrature(t, x, f, 1.0, g_t2, nome, rel_tol, "fd oracle")[0]
    corr_tx = g[0] * g[1] / (g[2] * g[3]) * f(t * x)
    corr_tox = g[4] * g[5] / (g[6] * g[7]) * f(t / x)
    return quad + complex(corr_tx) + complex(corr_tox)


# --------------------------------------------------------------------------
# residue sum -> Bailey matrix bridge
# --------------------------------------------------------------------------

def residue_matrix_reduction_check(alpha: SymmetricTestFunction, z0, t, N: int,
                                   nome: NomePair,
                                   tolerance: float = 1e-9) -> VerificationReport:
    """Verify that the residue sum of the deformed Bailey transform equals the
    triangular-matrix form, with z0 = a^{1/2} and t = (k/a)^{1/2}:

      (i)  sum_m Gamma(k q^{N+m}) Gamma((k/a) q^{N-m}) Gamma(a^{-1} q^{-N-m})
               / (theta(q^{m-N})_{N-m} Gamma(k/a) Gamma((a q^{2m})^{+-1})) alpha_m
      (ii) Gamma(k)/Gamma(a) sum_m M[N, m](a, k) q^{N(N+1) - m(m+1)} alpha_m

    Both exponent normalizations q^{-m(m+1)} and q^{-m(m-1)} are evaluated and
    reported; the matrix form selects m(m+1), which the residual confirms
    (the m(m-1) variant deviates by a factor q^{-2m} per term).

    The 3 + 5(N+1) gamma values come from one gamma call, the N + 1 chains
    theta(q^{m-N})_{N-m} from one theta-Pochhammer table, and M(a, k) from
    ``build_M``'s table.  A gamma value or a term of (i) that is zero or not
    finite (at large N, Gamma(q^{-2N}/a) can underflow double precision)
    raises :class:`DegenerateParameterError`, as ``build_M`` does for its
    guards.  It is the one-draw case of :func:`_residue_reduction_checks`.
    """
    return _one(_residue_reduction_checks([(alpha, z0, t, N, nome, tolerance)]))


def _residue_reduction_checks(draws) -> list:
    """The residue-reduction checks of ``draws``, each (alpha, z0, t, N,
    nome, tolerance) of one N, evaluated together: per draw its report, with
    the bits :func:`residue_matrix_reduction_check` gives it alone, or the
    library error it raises, the first in the check's order (alpha's poles,
    the gamma values, the chains, the terms of (i), then ``build_M``'s).

    The draws share one gamma pass (:func:`special_functions._gamma_groups`,
    a group per draw), one stacked theta-Pochhammer call for the chains and
    one stacked M build (:func:`bailey_algebra._stacked_build_M`), each of
    which gives a draw the bits it has alone; a draw that fails one of them
    takes no part in the next.  Whatever else sets a value's bits stays per
    draw: its points, its terms, its sums and its report."""
    from .bailey_algebra import _stacked_build_M  # local import to avoid a cycle

    if len({draw[3] for draw in draws}) > 1:
        raise DomainError("the residue-reduction checks of one pass take one N, "
                          f"got N in {sorted({draw[3] for draw in draws})}")
    out = [None] * len(draws)
    live = _residue_gammas(draws, out)
    if not live:
        return out
    terms = _residue_terms(draws, live, out)
    live = [entry for entry in live if out[entry[0]] is None]
    N = draws[0][3]
    ms = np.arange(N + 1)
    matrices = _stacked_build_M(N, [(a, k, draws[d][4]) for d, _z0, _t, a, k, *_rest in live])
    for (d, z0, t, a, k, alpha_res, values), term, m_mat in zip(live, terms, matrices):
        if isinstance(m_mat, Exception):
            out[d] = m_mat
            continue
        alpha, _z0, _t, _N, nome, tolerance = draws[d]
        q = nome.q
        g_k, g_a = values[1], values[2]
        sum_res = np.sum(term * alpha_res)
        m_row = m_mat.entries[N, :]
        weights_plus = q ** (N * (N + 1) - ms * (ms + 1)).astype(float)
        weights_minus = q ** (N * (N + 1) - ms * (ms - 1)).astype(float)
        ratio = g_k / g_a
        sum_plus = ratio * np.sum(m_row * weights_plus * alpha_res)
        sum_minus = ratio * np.sum(m_row * weights_minus * alpha_res)

        res_plus = relative_residual(sum_res, sum_plus)
        res_minus = relative_residual(sum_res, sum_minus)
        plus = not res_minus < res_plus  # m(m+1) unless m(m-1) is strictly better: a NaN stays
        residual, rhs = (res_plus, sum_plus) if plus else (res_minus, sum_minus)
        out[d] = VerificationReport(
            identity="residue-reduction",
            params={"z0": z0, "t": t, "a": a, "k": k, "N": N, "p": nome.p, "q": nome.q},
            lhs=complex(sum_res),
            rhs=complex(rhs),
            residual=residual,
            tolerance=tolerance,
            settings={"alpha": alpha.name},
            details={
                "residual_exponent_m_plus_1": res_plus,
                "residual_exponent_m_minus_1": res_minus,
                "selected_exponent": "m(m+1)" if plus else "m(m-1)",
            },
        )
    return out


def _residue_gammas(draws, out) -> list:
    """The draws of :func:`_residue_reduction_checks` past alpha's poles
    check and the gamma pass, each as (draw, z0, t, a, k, alpha's residues,
    its 3 + 5(N+1) gamma values); a draw that fails either gets its error
    in ``out``."""
    entries, groups = [], []
    for d, (alpha, z0, t, N, nome, _tolerance) in enumerate(draws):
        z0, t = complex(z0), complex(t)
        a = z0 * z0
        k = (t * z0) ** 2
        q = nome.q
        poles = np.asarray(alpha.poles, dtype=complex)
        want = z0 * q ** np.arange(N + 1)
        if poles.shape != (N + 1,) or np.max(np.abs(poles - want)) > 1e-12:
            out[d] = DomainError("alpha must declare poles exactly at z0 q^m, m = 0..N")
            continue
        ms = np.arange(N + 1)
        groups.append((np.concatenate([
            [k / a, k, a],
            k * q ** (N + ms), (k / a) * q ** (N - ms), q ** (-N - ms) / a,
            a * q ** (2 * ms), q ** (-2 * ms) / a,
        ]), nome))
        entries.append((d, z0, t, a, k, np.asarray(alpha.residues, dtype=complex)))
    live = []
    for entry, values in zip(entries, _gamma_groups(groups, "the residue sum")):
        if isinstance(values, Exception):
            out[entry[0]] = values
        else:
            live.append((*entry, values))
    return live


def _residue_terms(draws, live, out) -> list:
    """The terms of the residue sum (i) of the draws ``live``, as
    :func:`_residue_gammas` returns them, whose chains theta(q^{m-N})_{N-m}
    come from one stacked theta-Pochhammer call; a draw whose chains or
    terms fail gets its error in ``out``, and the others their terms, in
    order."""
    N = draws[0][3]
    ms = np.arange(N + 1)
    nomes = [draws[entry[0]][4] for entry in live]
    # row m of a draw's table holds theta(q^{m-N} q^j; p), j < N - m, padded with ones
    factors, _poch, errors = _guarded_pochhammer(
        np.array([nome.q ** (ms - N) for nome in nomes], dtype=complex), N - ms, nomes)
    terms = []
    for (d, *_rest, values), table, error in zip(live, factors, errors):
        if error is not None:
            out[d] = error
            continue
        upper, lower_q, lower_a, pair_plus, pair_minus = values[3:].reshape(5, N + 1)
        chains = np.prod(table, axis=1)
        with np.errstate(all="ignore"):
            term = (upper * lower_q * lower_a) / (chains * values[0] * pair_plus * pair_minus)
        bad = np.flatnonzero(~np.isfinite(term) | (term == 0))
        if bad.size:
            out[d] = DegenerateParameterError(
                f"term m = {bad[0]} of the residue sum is {complex(term[bad[0]])}")
        else:
            terms.append(term)
    return terms


# --------------------------------------------------------------------------
# inversion of the integral transform
# --------------------------------------------------------------------------

def m_inversion_check(t, w, alpha: SymmetricTestFunction, nome: NomePair,
                      rel_tol: float = DEFAULT_REL_TOL,
                      tolerance: float = 1e-6) -> VerificationReport:
    """Check [M(1/t) M(t) alpha](w) = alpha(w) for symmetric alpha analytic in
    a wide annulus and max(|p|, |q|) < |t| <= 0.45.

    M(1/t) needs analytic continuation: its contour must keep the first
    members of the pole ladders w^{+-1}/t (moduli > 1) inside and t w^{+-1}
    (moduli < 1) outside, which no circle does.  The continuation is computed
    as the unit-circle integral plus the four first-lattice residue
    corrections, combined pairwise by the z -> 1/z antisymmetry of the
    residues:

        M(1/t) g(w) = kappa*integral_T + Gamma(w^{-2})/Gamma(t^2 w^{-2}) g(w/t)
                                       + Gamma(w^2)/Gamma(t^2 w^2) g(t w),

    where g = M(t) alpha is itself evaluated at the correction points by
    deformed quadrature plus one residue term.  For |t| <= max(|p|, |q|) the
    next ladder poles w^{+-1} p/t or w^{+-1} q/t leave the unit disc as well
    and would need corrections of their own, so such t is rejected.  A zero or
    infinite gamma value raises :class:`DegenerateParameterError`.
    """
    t, w = complex(t), complex(w)
    b = max(abs(nome.p), abs(nome.q))
    if not (b < abs(t) <= 0.45):
        raise ConstraintViolationError(
            f"inversion check asserts only for max(|p|, |q|) = {b:g} < |t| <= 0.45"
        )
    if abs(abs(w) - 1.0) > 0.2:
        raise ConstraintViolationError("spectator w should sit near the unit circle")
    lo, hi = alpha.annulus
    needed_hi = max(abs(w / t), abs(t * w)) * 1.05
    if not (lo < 0.3 and hi > needed_hi):
        raise ConstraintViolationError("alpha must be analytic in a wide annulus")

    t_inv = 1.0 / t
    g_t2, g_inv2, g_w2, g_wm2, g_tw2, g_twm2 = (complex(v) for v in _gamma_vec(np.array(
        [t * t, t_inv * t_inv, w**2, w**-2, t * t * w**2, t * t / w**2], dtype=complex),
        nome, "inversion"))

    def g_cont(xstar, head_is_recip):
        """g(xstar) = [M(t) alpha](xstar) at a correction point where one
        kernel ladder head sits near the unit circle: the contour shrinks to
        radius r (below the excluded head, above every pole that must stay
        inside) and the head re-enters as a closed-form residue."""
        h1, h2 = abs(t * xstar), abs(t / xstar)  # ladder heads t*xstar, t/xstar
        excl = h2 if head_is_recip else h1       # the near-unit head handled by the residue
        other = h1 if head_is_recip else h2
        inner_max = max(other, b * h1, b * h2, lo * 1.01)
        upper = 0.95 * min(excl, 1.0 / excl)
        if inner_max * 1.2 >= upper:
            raise ConstraintViolationError("no separating radius for the inversion correction")
        r = min(max(math.sqrt(inner_max * upper), inner_max * 1.2), upper)
        quad = _m_quadrature(t, xstar, alpha, r, g_t2, nome, rel_tol, "inversion inner")[0]
        res = (g_tw2 / (2.0 * g_w2) * complex(alpha(np.asarray([1 / w]))[0]) if head_is_recip
               else g_twm2 / (2.0 * g_wm2) * complex(alpha(np.asarray([w]))[0]))
        return quad + res

    # the outer M(1/t) quadrature of g = M(t) alpha, which each pass evaluates
    # at every node of its unit-circle grid; the rings of both kernels come
    # from one engine call per pass
    scales = [*_kernel_scales(t_inv, w, 1.0), t]
    at = _scale_rows(scales)
    kernel = np.array([at[v] for v in scales[:4]])
    nodes = _Nodes(1.0, [(nome, scales, alpha)], dden=True)

    def eval_at(n):
        gamma, dden, alpha_vals = nodes.one(n)
        g = _m_apply_grid(_pairs(gamma, at[t]), n, dden * alpha_vals, g_t2, nome)
        return nome.kappa, _kernels(gamma, kernel) * dden * g / g_inv2

    outer, info = _drive(eval_at, rel_tol, label="inversion outer")
    outer = complex(outer)
    corr1 = g_wm2 / g_twm2 * g_cont(w / t, head_is_recip=False)
    corr2 = g_w2 / g_tw2 * g_cont(t * w, head_is_recip=True)
    total = outer + corr1 + corr2
    target = complex(alpha(np.asarray([w]))[0])
    residual = relative_residual(total, target)
    return VerificationReport(
        identity="m-inversion",
        params={"t": t, "w": w, "p": nome.p, "q": nome.q, "alpha": alpha.name},
        lhs=complex(total),
        rhs=target,
        residual=residual,
        tolerance=tolerance,
        settings={"n_nodes": info.n_nodes},
    )
