"""Elliptic special functions: q-Pochhammer products, the short Jacobi theta
function, the elliptic gamma function and elliptic Pochhammer symbols.

Conventions
-----------
With two nomes ``|p| < 1``, ``|q| < 1``:

    (z; q)_inf      = prod_{j>=0} (1 - z q^j)
    theta(z; p)     = (z; p)_inf (p/z; p)_inf
    Gamma(z; p, q)  = prod_{j,k>=0} (1 - p^{j+1} q^{k+1} / z) / (1 - z p^j q^k)
    theta(z; p)_n   = prod_{j=0}^{n-1} theta(z q^j; p)            for n > 0,
                      1 / prod_{j=1}^{-n} theta(z q^{-j}; p)      for n < 0.

Gamma is summed from the annulus log-series (Spiridonov, Russ. Math. Surveys
63, 2008)

    log Gamma(w; p, q) = sum_{m>=1} (w^m - (pq/w)^m) / (m (1 - p^m)(1 - q^m)),
                         valid for |pq| < |w| < 1.

With u the nome of larger modulus and v the other, each z is first moved to
w = z u^k, with the integer k that puts log|w| nearest to log sqrt|pq|, so
r = max(|w|, |pq/w|) <= sqrt|v|.  The functional equation
Gamma(u z) = theta(z; v) Gamma(z) undoes the shift:

    Gamma(z) = Gamma(w) / prod_{j<k} theta(z u^j; v)       for k > 0,
    Gamma(z) = Gamma(w) * prod_{j<-k} theta(w u^j; v)      for k < 0.

The series order M is the smallest with the tail bound
2 r^{M+1} / ((1 - r)(1 - |p|)(1 - |q|)) below the policy's tolerance.

One engine, ``_gamma_rings``, evaluates gamma on R rings of n points
s_i exp(2 pi i j / n); a flat array of single points is its n = 1 case.  On a
ring of n > 1 points the series folds mod n and two FFTs sum it.  Theta
evaluates its (points x J) factor products in blocks of ``_THETA_BLOCK``
points, for every caller.  The theta-Pochhammer symbols and sequences are
read from one table of factors theta(z q^j; p), ``_guarded_pochhammer``.

All functions accept scalars or numpy arrays in ``z`` and are pure; the
default floating type is hardware complex128 (unit roundoff ~1e-16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleProximityError, DegenerateParameterError, TruncationLimitError

__all__ = [
    "TruncationPolicy",
    "NomePair",
    "qpochhammer_inf",
    "theta",
    "elliptic_gamma",
    "elliptic_pochhammer",
    "theta_pochhammer_sequence",
    "gamma_residue_constant",
    "gamma_quadratic_check",
    "gamma_truncation_orders",
    "POLE_GUARD_FACTOR",
    "THETA_GUARD",
]

# |1 - z p^j q^k| < POLE_GUARD_FACTOR * |z| marks z as numerically on the pole lattice.
POLE_GUARD_FACTOR = 1e-13
# |theta| below this in any denominator marks the parameter set as degenerate.
THETA_GUARD = 1e-10
# points per block of a theta evaluation's (points x J) factor products; one
# block over a large call builds temporaries that outgrow the cache
_THETA_BLOCK = 2048


@dataclass(frozen=True)
class TruncationPolicy:
    """How infinite products and series are truncated.

    In ``adaptive`` mode a q-Pochhammer product keeps the smallest number J of
    factors with ``C * b**J < target_rel_tol``, where ``b`` is the base modulus
    and ``C`` the tail constant of :func:`_qpoch_order`; the gamma series keeps
    the smallest number M of terms with
    ``2 r**(M+1) / ((1-r)(1-|p|)(1-|q|)) < target_rel_tol`` (see
    :func:`_series_order`).  An order above ``max_terms`` raises
    :class:`TruncationLimitError`.  In ``fixed_terms`` mode exactly
    ``max_terms`` product factors or series terms are used.
    """

    target_rel_tol: float = 1e-14
    max_terms: int = 500_000
    mode: str = "adaptive"

    def __post_init__(self):
        if self.mode not in ("adaptive", "fixed_terms"):
            raise DomainError(f"unknown truncation mode {self.mode!r}")
        if self.target_rel_tol <= 0 or self.max_terms < 1:
            raise DomainError("target_rel_tol must be positive and max_terms >= 1")


DEFAULT_POLICY = TruncationPolicy()


_ROOT_CACHE: dict[int, np.ndarray] = {}


def _roots(n: int) -> np.ndarray:
    """The n-th roots of unity exp(2 pi i j / n), j = 0..n-1 (cached, read-only)."""
    r = _ROOT_CACHE.get(n)
    if r is None:
        r = np.exp(2j * math.pi * np.arange(n) / n)
        r.setflags(write=False)
        _ROOT_CACHE[n] = r
    return r


def _qpoch_order(base_mod: float, scale: float, policy: TruncationPolicy) -> int:
    """Truncation order for (z; b)_inf.

    Tail bound: |log prod_{j>=J} (1 - z b^j)| <= 2 |z| b^J / (1 - b) for
    |z| b^J < 1/2, so C = 2 max(scale, 1) / (1 - b).
    """
    if policy.mode == "fixed_terms":
        return policy.max_terms
    if base_mod == 0.0:
        return 1
    c = 2.0 * max(scale, 1.0) / (1.0 - base_mod)
    j = max(1, int(math.ceil(math.log(policy.target_rel_tol / c) / math.log(base_mod))))
    while c * base_mod**j >= policy.target_rel_tol:
        j += 1
    if j > policy.max_terms:
        raise TruncationLimitError(
            f"q-Pochhammer needs {j} terms (|base|={base_mod:g}), cap is {policy.max_terms}"
        )
    return j


def _qpoch_raw(z: np.ndarray, base: complex, n_terms: int) -> np.ndarray:
    """prod_{j=0}^{n_terms-1} (1 - z base^j), vectorized over z."""
    powers = base ** np.arange(n_terms)
    return np.prod(1.0 - z[..., None] * powers, axis=-1)


def qpochhammer_inf(z, base, policy: TruncationPolicy = DEFAULT_POLICY):
    """Infinite q-Pochhammer symbol (z; base)_inf, truncated per policy.

    The relative truncation error is below ``policy.target_rel_tol`` with the
    tail constant C = 2 max(|z|, 1)/(1 - |base|).  ``z`` may be a scalar or an
    array.  Raises :class:`DomainError` for |base| >= 1.
    """
    base = complex(base)
    if abs(base) >= 1.0:
        raise DomainError(f"q-Pochhammer base must satisfy |base| < 1, got |base|={abs(base):g}")
    z_arr = np.asarray(z, dtype=complex)
    if base == 0.0:
        out = 1.0 - z_arr
        return out if z_arr.ndim else complex(out)
    scale = float(np.max(np.abs(z_arr))) if z_arr.size else 1.0
    n = _qpoch_order(abs(base), scale, policy)
    out = _qpoch_raw(z_arr, base, n)
    return out if z_arr.ndim else complex(out)


def theta(z, p, policy: TruncationPolicy = DEFAULT_POLICY):
    """Short Jacobi theta function theta(z; p) = (z; p)_inf (p/z; p)_inf.

    Zeros sit exactly on z = p^j, j in Z.  Raises :class:`DomainError` on
    z = 0 or |p| >= 1.
    """
    p = complex(p)
    if abs(p) >= 1.0:
        raise DomainError(f"theta nome must satisfy |p| < 1, got |p|={abs(p):g}")
    z_arr = np.asarray(z, dtype=complex)
    if np.any(z_arr == 0):
        raise DomainError("theta(z; p) requires z != 0")
    if p == 0.0:
        out = 1.0 - z_arr
        return out if z_arr.ndim else complex(out)
    out = _theta_raw(z_arr, p, policy)
    return out if z_arr.ndim else complex(out)


def _theta_raw(z: np.ndarray, p: complex, policy: TruncationPolicy) -> np.ndarray:
    """theta(z; p) for nonzero z of any shape and 0 < |p| < 1, without
    argument checks.

    One truncation order J, from the largest of |z| and |p/z|, serves every
    point.  The (points x J) factor products run over blocks of _THETA_BLOCK
    points, which bounds their temporaries; a point's value does not depend
    on the block it falls in.
    """
    scale = float(np.max(np.maximum(np.abs(z), abs(p) / np.abs(z))))
    n = _qpoch_order(abs(p), scale, policy)
    if z.size <= _THETA_BLOCK:
        return _qpoch_raw(z, p, n) * _qpoch_raw(p / z, p, n)
    flat = z.reshape(-1)
    out = np.empty_like(flat)
    for lo in range(0, flat.size, _THETA_BLOCK):
        block = flat[lo : lo + _THETA_BLOCK]
        out[lo : lo + _THETA_BLOCK] = _qpoch_raw(block, p, n) * _qpoch_raw(p / block, p, n)
    return out.reshape(z.shape)


class NomePair:
    """The two base parameters (p, q) with a truncation policy and cached
    derived constants (p; p)_inf, (q; q)_inf and kappa = (p;p)_inf (q;q)_inf / (4 pi i).

    Immutable after construction; instances are safe to share across threads
    (the cached gamma series coefficients only ever grow to identical values).
    """

    __slots__ = ("p", "q", "trunc", "_pp_inf", "_qq_inf", "_series_coeffs")

    def __init__(self, p, q, trunc: TruncationPolicy = DEFAULT_POLICY):
        p, q = complex(p), complex(q)
        if abs(p) >= 1.0 or abs(q) >= 1.0:
            raise DomainError(f"nomes must satisfy |p|, |q| < 1, got |p|={abs(p):g}, |q|={abs(q):g}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "_pp_inf", qpochhammer_inf(p, p, trunc))
        object.__setattr__(self, "_qq_inf", qpochhammer_inf(q, q, trunc))
        object.__setattr__(self, "_series_coeffs", np.empty(0, dtype=complex))

    def __setattr__(self, name, value):
        raise AttributeError("NomePair is immutable")

    def __repr__(self):
        return f"NomePair(p={self.p!r}, q={self.q!r})"

    def __eq__(self, other):
        return (
            isinstance(other, NomePair)
            and self.p == other.p
            and self.q == other.q
            and self.trunc == other.trunc
        )

    def __hash__(self):
        return hash((self.p, self.q, self.trunc))

    @property
    def pp_inf(self) -> complex:
        """(p; p)_inf."""
        return self._pp_inf

    @property
    def qq_inf(self) -> complex:
        """(q; q)_inf."""
        return self._qq_inf

    @property
    def kappa(self) -> complex:
        """(p;p)_inf (q;q)_inf / (4 pi i), the prefactor of the integral transform."""
        return self._pp_inf * self._qq_inf / (4j * math.pi)

    def swapped(self) -> "NomePair":
        """The pair with p and q exchanged (for base-symmetry checks)."""
        return NomePair(self.q, self.p, self.trunc)

    def series_coefficients(self, order: int) -> np.ndarray:
        """The gamma series coefficients 1 / (m (1 - p^m)(1 - q^m)), m = 1..order."""
        c = self._series_coeffs
        if c.size < order:
            m = np.arange(1, order + 1)
            c = 1.0 / (m * (1.0 - self.p**m) * (1.0 - self.q**m))
            object.__setattr__(self, "_series_coeffs", c)
        return c[:order]


def _shift_nomes(nome: NomePair) -> tuple[complex, complex]:
    """(u, v): the nome of larger modulus, which shifts z, and the other."""
    return (nome.p, nome.q) if abs(nome.p) >= abs(nome.q) else (nome.q, nome.p)


def _annulus_shift(log_az: np.ndarray, nome: NomePair) -> tuple[np.ndarray, float]:
    """Shift exponents k, with w = z u^k in the series annulus, and the series
    radius r = max |w|, |pq/w| over the points.  Requires u != 0.

    k puts log|w| nearest to log sqrt|pq|, so r <= sqrt|v|.  With v = 0 the
    annulus is 0 < |w| < 1, and k puts log|w| nearest to log|u|, so
    r <= sqrt|u|.
    """
    u, v = _shift_nomes(nome)
    log_u = math.log(abs(u))
    target = 0.5 * math.log(abs(u * v)) if v != 0 else log_u
    exact = (target - log_az) / log_u
    k = np.rint(exact)
    # log|w| - target = (k - exact) log|u|, and log|pq/w| - target is its negative
    miss = (k - exact) * log_u
    r = math.exp(target + float(np.max(np.abs(miss) if v != 0 else miss)))
    return k, r


def _series_order(nome: NomePair, r: float) -> int:
    """Number M of series terms for series radius r < 1.

    Every coefficient has modulus <= 1/((1-|p|)(1-|q|)), so the tail after M
    terms is at most 2 r^{M+1} / ((1-r)(1-|p|)(1-|q|)); M is the smallest
    order making that bound < target_rel_tol.
    """
    policy = nome.trunc
    if policy.mode == "fixed_terms":
        return policy.max_terms
    c = 2.0 / ((1.0 - r) * (1.0 - abs(nome.p)) * (1.0 - abs(nome.q)))
    tol = policy.target_rel_tol
    m = max(1, int(math.ceil(math.log(tol / c) / math.log(r))) - 1)
    while c * r ** (m + 1) >= tol:
        m += 1
    if m > policy.max_terms:
        raise TruncationLimitError(
            f"elliptic gamma series needs {m} terms (r={r:g}), cap is {policy.max_terms}"
        )
    return m


def _pole_guard(z: np.ndarray, az: np.ndarray, nome: NomePair) -> None:
    """Raise PoleProximityError iff some j, k >= 0 has
    |1 - z p^j q^k| < POLE_GUARD_FACTOR |z|.

    A lattice point x = z v^j u^k can meet that predicate only if
    ||x| - 1| < POLE_GUARD_FACTOR |z|, so only x with |x| in
    [1 - reach, 1 + reach], widened to [1/2, 2], are tested, where reach is
    POLE_GUARD_FACTOR max|z|.  They lie in one rectangle of (j, k) for every
    z of the call.  From reach = 1 on, the lattice points x -> 0 count as
    meeting the predicate, since |1 - x| -> 1.
    """
    hi = float(az.max())
    reach = POLE_GUARD_FACTOR * hi
    low, high = min(0.5, 1.0 - reach), max(2.0, 1.0 + reach)
    if hi < low:
        return
    u, v = _shift_nomes(nome)
    lattice = np.ones(1, dtype=complex)
    if u != 0:
        if low <= 0:
            raise PoleProximityError(
                f"|z|={hi:g} puts every small lattice point within guard distance"
            )
        neg_log_u, log_low, log_high = -math.log(abs(u)), math.log(low), math.log(high)
        j_max, log_v = 0, 0.0
        if v != 0:
            log_v = math.log(abs(v))
            j_max = int((math.log(hi) - log_low) // -log_v)
        # k_lo: the first k with |z v^j u^k| <= high for the smallest |z| and j = j_max
        k_lo = max(0, math.ceil((math.log(float(az.min())) + j_max * log_v - log_high) / neg_log_u))
        k_hi = int((math.log(hi) - log_low) // neg_log_u)
        if k_lo > k_hi:
            return
        lattice = np.outer(v ** np.arange(j_max + 1), u ** np.arange(k_lo, k_hi + 1)).ravel()
    gap = np.abs(1.0 - z[:, None] * lattice).min(axis=1)
    bad = gap < POLE_GUARD_FACTOR * az
    if bad.any():
        raise PoleProximityError(
            f"z={z[bad][0]} is within guard distance of the pole lattice p^-j q^-k"
        )


def _gamma_vec(z: np.ndarray, nome: NomePair) -> np.ndarray:
    """Gamma(z; p, q) on a flat complex array: the one-root case of _gamma_rings."""
    return _gamma_rings(z, 1, nome)[:, 0]


def _gamma_rings(scales: np.ndarray, n: int, nome: NomePair) -> np.ndarray:
    """Gamma(s_i e_j; p, q) for the scales s_i = scales[i] and the n-th roots
    of unity e_j = exp(2 pi i j / n), as an (R, n) array.  This is the one
    gamma engine; n = 1 is the pointwise case, which :func:`_gamma_vec` reads.

    Every point of ring i has modulus |s_i|, so all of them share the shift
    k_i, and w = sigma_i e_j with sigma_i = s_i u^{k_i}.  One table holds the
    powers sigma_i^m and (pq/sigma_i)^m, m = 1..M, with one order M at the
    largest series radius of the call bounding every ring's tail.  At n = 1
    the series is the product of the coefficients with that table.  For
    n > 1 it folds mod n:

        sum_{m=1}^M c_m (sigma_i e_j)^m = sum_{r<n} a_r e_j^r,
        a_r = sum_{m = r (mod n)} c_m sigma_i^m,

    an unscaled inverse DFT of a; the (pq/w)^m half is the forward DFT of b,
    folded likewise from c_m (pq/sigma_i)^m.  A ring costs O(M + n log n)
    where n single points cost O(M n).  The theta shift factors of ring i
    are the rings x_i u^j e_m, j < |k_i|, with x = s for k > 0 and
    x = sigma for k < 0, all from one theta call.
    """
    scales = np.asarray(scales, dtype=complex)
    # values are laid out (n, R), ring points first, so that per-ring vectors
    # broadcast against them; at n = 1 z is the scales themselves
    z = scales[None] if n == 1 else scales * _roots(n)[:, None]
    az = np.abs(z)
    if not az.all():
        raise DomainError("elliptic gamma is undefined at z = 0")
    _pole_guard(z.ravel(), az.ravel(), nome)
    u, v = _shift_nomes(nome)
    if u == 0:
        return (1.0 / (1.0 - z)).T
    k, r = _annulus_shift(np.log(az[0]), nome)
    sigma = scales * u**k
    coeffs = nome.series_coefficients(_series_order(nome, r))
    rings, m_top = scales.size, coeffs.size
    # rows m = 1..M hold sigma^m and (pq/sigma)^m; each pass doubles the rows filled
    powers = np.empty((m_top, 2 * rings), dtype=complex)
    powers[0] = np.concatenate([sigma, nome.p * nome.q / sigma])
    filled = 1
    while filled < m_top:
        step = min(filled, m_top - filled)
        np.multiply(powers[:step], powers[filled - 1], out=powers[filled : filled + step])
        filled += step
    if n == 1:
        series = coeffs @ powers
        log_gamma = (series[:rings] - series[rings:])[None]
    else:
        # c_m x^m in row m of a zero-padded table; the fold is then a reshape and a sum
        terms = np.zeros((-(-(m_top + 1) // n) * n, 2 * rings), dtype=complex)
        np.multiply(coeffs[:, None], powers, out=terms[1 : m_top + 1])
        folded = terms.reshape(-1, n, 2 * rings).sum(axis=0)
        log_gamma = (np.fft.ifft(folded[:, :rings], axis=0, norm="forward")
                     - np.fft.fft(folded[:, rings:], axis=0))
    n_shift = int(np.abs(k).max())
    if n_shift:
        # theta(x u^j; v), j < |k|, on the masked (R, max|k|) grid, times the
        # roots for n > 1.  Summed as logs, since their product over- or
        # underflows where Gamma does.
        used = np.arange(n_shift) < np.abs(k)[:, None]
        x = (np.where(k > 0, scales, sigma)[:, None] * u ** np.arange(n_shift))[used]
        if n > 1:
            x = x[:, None] * _roots(n)
        log_theta = np.zeros(used.shape + x.shape[1:], dtype=complex)
        log_theta[used] = np.log(1.0 - x if v == 0 else _theta_raw(x, v, nome.trunc))
        log_gamma -= np.sign(k) * log_theta.sum(axis=1).T
    return np.exp(log_gamma).T


def elliptic_gamma(z, nome: NomePair):
    """Elliptic gamma function Gamma(z; p, q).

    Sums the annulus log-series after a theta shift of z (see the module
    docstring); valid for every z off the pole lattice z = p^{-j} q^{-k},
    j, k >= 0.  Raises
    :class:`PoleProximityError` when a denominator factor is within the guard
    threshold of zero (the caller chose z too close to a pole), and
    :class:`DomainError` at z = 0.
    """
    z_arr = np.asarray(z, dtype=complex)
    out = _gamma_vec(z_arr.ravel(), nome).reshape(z_arr.shape)
    return out if z_arr.ndim else complex(out)


def _guarded_pochhammer(bases, lengths, nome: NomePair, guarded: int = 0, where: str = ""):
    """The one theta-Pochhammer path: a factor table and its sequences.

    Evaluates theta(z q^j; p), j < length, for each base point z in one theta
    call, as a factor table with one row per base point (1 past a row's
    length), and returns it with the Pochhammer sequences [theta(z; p)_0, ...,
    theta(z; p)_length] of its rows, one row-wise cumulative product.  A
    factor under ``THETA_GUARD`` in the first ``guarded`` rows raises
    :class:`DegenerateParameterError`: a product of many small factors is
    fine, a single small one is not.
    """
    bases = np.asarray(bases, dtype=complex)
    lengths = np.asarray(lengths)
    width = int(lengths.max())
    grid = bases[:, None] * nome.q ** np.arange(width)
    used = np.arange(width) < lengths[:, None]
    factors = np.ones_like(grid)
    if width:
        factors[used] = theta(grid[used], nome.p, nome.trunc)
    mods = np.abs(factors[:guarded])
    if mods.size and mods.min() < THETA_GUARD:
        i = np.unravel_index(np.argmin(mods), mods.shape)
        raise DegenerateParameterError(
            f"theta({complex(grid[i])}; p) = {mods[i]:.3e} in {where} is under the guard"
        )
    poch = np.ones((grid.shape[0], grid.shape[1] + 1), dtype=complex)
    np.cumprod(factors, axis=1, out=poch[:, 1:])
    return factors, poch


def elliptic_pochhammer(z, n: int, nome: NomePair):
    """Elliptic Pochhammer symbol theta(z; p)_n with q-shifted factors.

    Returns prod_{j=0}^{n-1} theta(z q^j; p) for n > 0, the reciprocal product
    prod_{j=1}^{-n} theta(z q^{-j}; p)^{-1} for n < 0, and 1 for n = 0.
    Raises :class:`DegenerateParameterError` if a factor on the n < 0 branch
    vanishes within the guard threshold.
    """
    z = complex(z)
    if n >= 0:
        return complex(np.prod(_guarded_pochhammer([z], [n], nome)[0][0]))
    if nome.q == 0:
        raise DomainError("theta(z; p)_n with n < 0 requires q != 0")
    # theta(z)_n = 1 / theta(z q^n)_{-n}, whose factor i is theta(z q^{-j}), j = -n - i
    factors = _guarded_pochhammer([z * nome.q**n], [-n], nome)[0][0]
    small = np.abs(factors) < THETA_GUARD
    if np.any(small):
        i = int(np.flatnonzero(small)[-1])
        raise DegenerateParameterError(
            f"theta(z q^-{-n - i}; p) = {factors[i]} is below the division guard"
        )
    return complex(1.0 / np.prod(factors))


def theta_pochhammer_sequence(z, n_max: int, nome: NomePair) -> np.ndarray:
    """[theta(z; p)_0, theta(z; p)_1, ..., theta(z; p)_{n_max}]."""
    return _guarded_pochhammer([z], [n_max], nome)[1][0]


def gamma_truncation_orders(z, nome: NomePair) -> tuple[int, int]:
    """(M, K): the series terms and the largest theta shift |k| that
    elliptic_gamma would use at z."""
    if _shift_nomes(nome)[0] == 0:
        return 0, 0
    k, r = _annulus_shift(np.log(np.abs(np.asarray(z, dtype=complex))).ravel(), nome)
    return _series_order(nome, r), int(np.abs(k).max())


def gamma_residue_constant(nome: NomePair) -> complex:
    """lim_{z -> 1} (1 - z) Gamma(z; p, q) = 1 / ((p; p)_inf (q; q)_inf)."""
    return 1.0 / (nome.pp_inf * nome.qq_inf)


def _quadratic_points(z: complex, nome: NomePair) -> np.ndarray:
    """z^2 and the eight arguments +-z, +-q^{1/2} z, +-p^{1/2} z, +-(pq)^{1/2} z
    of the quadratic transformation, with principal square roots, in the
    order :func:`_quadratic_residual` reads their gamma values."""
    roots = np.array([1.0, np.sqrt(nome.q), np.sqrt(nome.p), np.sqrt(nome.p * nome.q)], dtype=complex)
    return np.concatenate([[z * z], roots * z, -roots * z])


def _quadratic_residual(values: np.ndarray) -> float:
    """|Gamma(z^2) - prod Gamma(s)| / |Gamma(z^2)| from the gamma values at
    :func:`_quadratic_points`."""
    lhs = complex(values[0])
    return abs(lhs - complex(np.prod(values[1:]))) / abs(lhs)


def gamma_quadratic_check(z, nome: NomePair) -> float:
    """Relative residual of the quadratic transformation

        Gamma(z^2; p, q) = prod Gamma(s; p, q)  over the eight arguments
        s in {+-z, +-q^{1/2} z, +-p^{1/2} z, +-(pq)^{1/2} z}

    with principal square roots, from one gamma call.  Raises
    :class:`PoleProximityError` if any of the nine evaluation points sits on
    the pole lattice.
    """
    return _quadratic_residual(_gamma_vec(_quadratic_points(complex(z), nome), nome))
