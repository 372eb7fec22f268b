"""Independent oracles used to pin expected values.

The mpmath functions are implemented directly from the defining series and
products in 40-digit arithmetic, deliberately sharing no code with the library
under test.  ``elliptic_gamma_double_product`` is the numpy double-product
evaluation of the elliptic gamma function that the library used before the
annulus series; the tests compare the series against it, pole guard included.
``m_entry_reference`` and ``d_entry_reference`` are the per-entry M and D
formulas the library used before it assembled both from guarded
theta-Pochhammer sequences; the tests compare ``build_M`` and ``build_D``
against them.  ``qpoch_order_reference`` and ``series_order_reference`` are
the product and series order rules the library kept separately before one
``_truncation_order`` served both; ``fit_radius`` solves the series bound
for the radius at which a ring's unshifted series fits its fold.
``canonical_reference`` is the canonical JSON line of a report value as the
library wrote it before its direct writer: a tree of JSON data built by
``encode_reference``, then ``json.dumps`` with sorted keys and no spaces.
"""

import json
import math

import mpmath
import numpy as np
from mpmath import mp

from elliptic_bailey.errors import (
    DegenerateParameterError,
    DomainError,
    PoleProximityError,
    TruncationLimitError,
)
from elliptic_bailey.special_functions import (
    MAX_TERMS,
    POLE_GUARD_FACTOR,
    THETA_GUARD,
    TRUNCATION_TOL,
    NomePair,
    elliptic_pochhammer,
    theta,
)


def qpoch_log_series(z, base, terms=60):
    """(z; base)_inf via exp(sum_j log(1 - z base^j)), summed term by term."""
    with mp.workdps(40):
        z, base = mp.mpmathify(z), mp.mpmathify(base)
        acc = mp.mpf(0)
        for j in range(terms):
            acc += mp.log(1 - z * base**j)
        return complex(mp.exp(acc))


def theta_series(z, p, n_max=40):
    """theta(z; p) from the Laurent series
    sum_n p^{n(n-1)/2} (-z)^n / (p; p)_inf over n in [-n_max, n_max]; the
    product (p; p)_inf runs until its factors are 1 to 45 digits."""
    with mp.workdps(40):
        z, p = mp.mpmathify(z), mp.mpmathify(p)
        s = mp.mpf(0)
        for n in range(-n_max, n_max + 1):
            s += p ** (mp.mpf(n * (n - 1)) / 2) * (-z) ** n
        pp, pj = mp.mpf(1), p
        while abs(pj) > mp.mpf(10) ** -45:
            pp *= 1 - pj
            pj *= p
        return complex(s / pp)


def elliptic_gamma_product(z, p, q, order=60):
    """Gamma(z; p, q) as the raw double product over the triangle j + k <= order."""
    with mp.workdps(40):
        z, p, q = mp.mpmathify(z), mp.mpmathify(p), mp.mpmathify(q)
        num = mp.mpf(1)
        den = mp.mpf(1)
        for j in range(order + 1):
            for k in range(order + 1 - j):
                num *= 1 - p ** (j + 1) * q ** (k + 1) / z
                den *= 1 - z * p**j * q**k
        return complex(num / den)


def theta_pochhammer(z, n, p, q):
    """theta(z; p)_n built factor by factor from theta_series."""
    with mp.workdps(40):
        z, p, q = mp.mpmathify(z), mp.mpmathify(p), mp.mpmathify(q)
        if n == 0:
            return complex(1)
        acc = mp.mpf(1)
        if n > 0:
            for j in range(n):
                acc *= mp.mpmathify(theta_series(z * q**j, p))
        else:
            for j in range(1, -n + 1):
                acc /= mp.mpmathify(theta_series(z * q**-j, p))
        return complex(acc)


# ---------------------------------------------------------------------------
# the former order rules
# ---------------------------------------------------------------------------

def qpoch_order_reference(base_mod: float, scale: float) -> int:
    """Truncation order for (z; b)_inf.

    Tail bound: |log prod_{j>=J} (1 - z b^j)| <= 2 |z| b^J / (1 - b) for
    |z| b^J < 1/2, so C = 2 max(scale, 1) / (1 - b).
    """
    if base_mod == 0.0:
        return 1
    c = 2.0 * max(scale, 1.0) / (1.0 - base_mod)
    j = max(1, int(math.ceil(math.log(TRUNCATION_TOL / c) / math.log(base_mod))))
    while c * base_mod**j >= TRUNCATION_TOL:
        j += 1
    if j > MAX_TERMS:
        raise TruncationLimitError(
            f"q-Pochhammer needs {j} terms (|base|={base_mod:g}), cap is {MAX_TERMS}"
        )
    return j


def series_order_reference(p_mod: float, q_mod: float, r: float) -> int:
    """Number M of series terms for series radius r < 1.

    Every coefficient has modulus <= 1/((1-|p|)(1-|q|)), so the tail after M
    terms is at most 2 r^{M+1} / ((1-r)(1-|p|)(1-|q|)); M is the smallest
    order making that bound < TRUNCATION_TOL.
    """
    c = 2.0 / ((1.0 - r) * (1.0 - p_mod) * (1.0 - q_mod))
    m = max(1, int(math.ceil(math.log(TRUNCATION_TOL / c) / math.log(r))) - 1)
    while c * r ** (m + 1) >= TRUNCATION_TOL:
        m += 1
    if m > MAX_TERMS:
        raise TruncationLimitError(
            f"elliptic gamma series needs {m} terms (r={r:g}), cap is {MAX_TERMS}"
        )
    return m


def fit_radius(p_mod: float, q_mod: float, n: int) -> float:
    """The radius r0 at which 2 r0^n / ((1 - r0)(1 - |p|)(1 - |q|)) equals
    TRUNCATION_TOL, by bisection on log r0: a ring of n points whose series
    radius r0 = max(|s|, |pq/s|) is smaller has a series of at most n - 1
    terms (:func:`series_order_reference`), and takes no theta shift."""
    log_tol = math.log(TRUNCATION_TOL)
    log_c = math.log(2.0 / ((1.0 - p_mod) * (1.0 - q_mod)))
    lo, hi = -80.0, 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if n * mid + log_c - math.log1p(-math.exp(mid)) < log_tol:
            lo = mid
        else:
            hi = mid
    return math.exp(lo)


# ---------------------------------------------------------------------------
# numpy double product (the library's former gamma path)
# ---------------------------------------------------------------------------

def _gamma_order(nome: NomePair, scale: float) -> tuple[int, int]:
    """Truncation orders (J_p, J_q) for the double product of Gamma(z; p, q).

    The rectangle j <= J_p, k <= J_q leaves two geometric tails; each is
    bounded by C * b^{J+1} with C = (|z| + |pq/z| + 1) / ((1-|p|)(1-|q|)),
    and each order is the smallest making its tail < TRUNCATION_TOL / 2.
    """
    ap, aq = abs(nome.p), abs(nome.q)
    c = (scale + 1.0) / ((1.0 - ap) * (1.0 - aq))
    half = TRUNCATION_TOL / 2.0

    def order_for(base):
        if base == 0.0:
            return 0
        j = max(1, int(math.ceil(math.log(half / c) / math.log(base))))
        while c * base ** (j + 1) >= half:
            j += 1
        return j

    jp, jq = order_for(ap), order_for(aq)
    if (jp + 1) * (jq + 1) > MAX_TERMS:
        raise TruncationLimitError(
            f"elliptic gamma needs {(jp + 1) * (jq + 1)} terms, cap is {MAX_TERMS}"
        )
    return jp, jq


def _gamma_lattice(nome: NomePair, order_p: int, order_q: int) -> np.ndarray:
    """Flattened values p^j q^k over the rectangle j <= order_p, k <= order_q."""
    pj = nome.p ** np.arange(order_p + 1)
    qk = nome.q ** np.arange(order_q + 1)
    return np.outer(pj, qk).ravel()


def _log1m(u: np.ndarray) -> np.ndarray:
    """log(1 - u), accurate for small |u| (series below 1e-4, error < |u|^5).

    The series is the bulk path: on a geometric lattice only the leading few
    terms per row exceed the cutoff, so the exact log runs on a small subset.
    """
    out = -u * (1.0 + u * (0.5 + u * (1.0 / 3.0 + 0.25 * u)))
    big = np.abs(u) >= 1e-4
    if np.any(big):
        out[big] = np.log(1.0 - u[big])
    return out


_GAMMA_CHUNK = 2_000_000  # max elements of the (z, lattice) product grid per block


def _lattice_for(z: np.ndarray, nome: NomePair) -> np.ndarray:
    """The rectangle of values p^j q^k that the double product at the nonzero
    points z runs over."""
    az = np.abs(z)
    scale = float(np.max(np.maximum(az, abs(nome.p * nome.q) / az)))
    return _gamma_lattice(nome, *_gamma_order(nome, scale))


def pole_guard_hits(z: np.ndarray, nome: NomePair) -> np.ndarray:
    """The double product's pole guard at the nonzero points of a flat array
    z: whether |1 - z p^j q^k| < POLE_GUARD_FACTOR |z| for some (j, k) of its
    rectangle, tested in complex arithmetic on every pair."""
    w = _lattice_for(z, nome)
    hits = np.empty(z.shape, dtype=bool)
    step = max(1, _GAMMA_CHUNK // max(w.size, 1))
    for lo in range(0, z.size, step):
        zb = z[lo : lo + step]
        gap = np.abs(1.0 - zb[:, None] * w[None, :]).min(axis=1)
        hits[lo : lo + step] = gap < POLE_GUARD_FACTOR * np.abs(zb)
    return hits


def _gamma_vec(z: np.ndarray, nome: NomePair) -> np.ndarray:
    """Gamma(z; p, q) on a flat complex array, log-space accumulation."""
    pq = nome.p * nome.q
    if np.any(z == 0):
        raise DomainError("elliptic gamma is undefined at z = 0")
    bad = pole_guard_hits(z, nome)
    if np.any(bad):
        raise PoleProximityError(
            f"z={z[bad][0]} is within guard distance of the pole lattice p^-j q^-k"
        )
    w = _lattice_for(z, nome)
    out = np.empty_like(z)
    step = max(1, _GAMMA_CHUNK // max(w.size, 1))
    for lo in range(0, z.size, step):
        zb = z[lo : lo + step, None]
        den_u = zb * w[None, :]
        num_u = (pq * w)[None, :] / zb
        out[lo : lo + step] = np.exp(np.sum(_log1m(num_u) - _log1m(den_u), axis=1))
    return out


def elliptic_gamma_double_product(z, nome: NomePair):
    """Gamma(z; p, q) from the double product over the rectangle of
    _gamma_order, summed in log space, with the pole guard
    |1 - z p^j q^k| < POLE_GUARD_FACTOR |z| tested on that rectangle."""
    z_arr = np.asarray(z, dtype=complex)
    out = _gamma_vec(z_arr.ravel(), nome).reshape(z_arr.shape)
    return out if z_arr.ndim else complex(out)


# ---------------------------------------------------------------------------
# per-entry M and D (the library's former single-entry paths)
# ---------------------------------------------------------------------------

def _guarded_pochhammer(z, n: int, nome: NomePair, label: str) -> complex:
    """theta(z; p)_n for n >= 0 with the pole guard applied to each factor
    (a product of many small factors is fine; a single vanishing one is not)."""
    if n == 0:
        return 1.0 + 0j
    factors = np.asarray(theta(complex(z) * nome.q ** np.arange(n), nome.p),
                         dtype=complex)
    small = np.abs(factors).min()
    if small < THETA_GUARD:
        raise DegenerateParameterError(f"a factor of {label} is {small:.3e}, under the guard")
    return complex(np.prod(factors))


def _guard_scalar(val, label):
    if abs(val) < THETA_GUARD:
        raise DegenerateParameterError(f"{label} = {val} is under the guard threshold")


def m_entry_reference(N: int, m: int, a, k, nome: NomePair) -> complex:
    """Single entry M[N, m](a, k); exactly 0 for m > N."""
    if m < 0 or N < 0:
        raise DomainError("indices must be non-negative")
    if m > N:
        return 0j
    num = elliptic_pochhammer(k, N + m, nome) * elliptic_pochhammer(k / a, N - m, nome)
    den_qa = _guarded_pochhammer(nome.q * a, N + m, nome, "theta(qa)_{N+m}")
    den_q = _guarded_pochhammer(nome.q, N - m, nome, "theta(q)_{N-m}")
    th_den = complex(theta(a, nome.p))
    _guard_scalar(th_den, "theta(a; p)")
    if m == 0:
        th_ratio = 1.0
    else:
        th_ratio = complex(theta(a * nome.q ** (2 * m), nome.p)) / th_den
    return num / (den_qa * den_q) * th_ratio * a ** (N - m)


def d_entry_reference(m: int, a, b, c, nome: NomePair) -> complex:
    """Diagonal entry D_m(a; b, c)."""
    if m < 0:
        raise DomainError("m must be non-negative")
    if m == 0:
        return 1.0 + 0j
    q = nome.q
    num = elliptic_pochhammer(b, m, nome) * elliptic_pochhammer(c, m, nome)
    den_b = _guarded_pochhammer(a * q / b, m, nome, "theta(aq/b)_m")
    den_c = _guarded_pochhammer(a * q / c, m, nome, "theta(aq/c)_m")
    return num / (den_b * den_c) * (a * q / (b * c)) ** m


def encode_reference(value):
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return {"f": value.hex()}
    if isinstance(value, complex):
        return {"c": [value.real.hex(), value.imag.hex()]}
    if isinstance(value, (np.floating,)):
        return {"f": float(value).hex()}
    if isinstance(value, (np.complexfloating,)):
        v = complex(value)
        return {"c": [v.real.hex(), v.imag.hex()]}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [encode_reference(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [encode_reference(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode_reference(v) for k, v in value.items()}
    raise TypeError(f"cannot encode {type(value)!r} in a report")


def canonical_reference(value) -> str:
    return json.dumps(encode_reference(value), sort_keys=True, separators=(",", ":"))
