"""Discrete Bailey matrices and the identities they satisfy.

The central objects are the lower-triangular transform matrix

    M[N, m](a, k) = theta(k)_{N+m} theta(k/a)_{N-m}
                    / (theta(qa)_{N+m} theta(q)_{N-m})
                    * theta(a q^{2m}; p) / theta(a; p) * a^{N-m},

(zero for m > N), the diagonal matrix

    D_m(a; b, c) = theta(b)_m theta(c)_m
                   / (theta(aq/b)_m theta(aq/c)_m) * (aq/(bc))^m,

and the key identity, for parameters with k b c = q a t:

    M(a,k) D(a;b,c) M(t,a) = D(k; qt/b, qt/c) M(t,k) D(t;b,c),

which is also the cubic Coxeter relation for the twisted S1/S2 generators
realized below.  All theta Pochhammers carry the implicit nome pair (p, q).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BaileyPairError, DegenerateParameterError, DomainError
from .report import RESIDUAL_FLOOR, VerificationReport, identity_deviation, relative_residual
from .special_functions import (
    THETA_GUARD,
    NomePair,
    elliptic_pochhammer,  # unused here; perfbench/tracing.py wraps this binding
    theta,
    theta_pochhammer_sequence,
)

__all__ = [
    "DiscreteParams",
    "BaileyMatrix",
    "DiagonalOp",
    "BaileySequence",
    "derive_bc",
    "m_entry",
    "build_M",
    "d_entry",
    "build_D",
    "bailey_transform",
    "conditioning_amplification",
    "verify_matrix_bailey",
    "verify_coxeter",
    "bressoud_limit_check",
]

PRODUCT_RULE_TOL = 1e-13


def derive_bc(t_tilde, a, k, y, nome: NomePair):
    """Split the product rule k*b*c = q*a*t_tilde into the two parameters

        b = sqrt(p q t_tilde a / k) * y,     c = sqrt(q t_tilde a / (p k)) / y,

    with principal square roots.  For real positive nomes the two radicands
    share one argument, so the product rule holds to rounding for any complex
    t_tilde, a, k.
    """
    if k == 0:
        raise DomainError("derive_bc requires k != 0")
    p, q = nome.p, nome.q
    b = np.sqrt(complex(p * q * t_tilde * a / k)) * y
    c = np.sqrt(complex(q * t_tilde * a / (p * k))) / y
    return complex(b), complex(c)


@dataclass(frozen=True)
class DiscreteParams:
    """Parameter set for the discrete Bailey lemma.

    Validates the product rule k*b*c = q*a*t_tilde and rejects parameter sets
    whose theta denominators (for indices 0..N) vanish within the guard.

    The six matrices M(x, y), x != y in {a, k, t_tilde}, and the left side of
    the key identity are built once, on first use, and shared by
    :func:`conditioning_amplification` and the identity checks.
    """

    a: complex
    k: complex
    t_tilde: complex
    b: complex
    c: complex
    y: complex
    N: int
    nome: NomePair

    def __post_init__(self):
        if self.N < 0:
            raise DomainError("N must be a non-negative integer")
        q, t = self.nome.q, self.t_tilde
        lhs, rhs = self.k * self.b * self.c, q * self.a * t
        if abs(lhs - rhs) > PRODUCT_RULE_TOL * max(abs(lhs), abs(rhs)):
            raise DegenerateParameterError(
                f"product rule violated: k*b*c = {lhs}, q*a*t_tilde = {rhs}"
            )
        vals = theta(self._theta_args(), self.nome.p, self.nome.trunc)
        gap = float(np.min(np.abs(vals)))
        if gap < THETA_GUARD:
            z = complex(self._theta_args()[int(np.argmin(np.abs(vals)))])
            raise DegenerateParameterError(
                f"theta({z}; p) = {gap:.3e} in a matrix entry is under the guard"
            )

    def _theta_args(self) -> np.ndarray:
        """q-shifted arguments of every theta factor in the M and D matrices
        the identities use (including the inverse-direction matrices)."""
        q = self.nome.q
        a, k, t, b, c = self.a, self.k, self.t_tilde, self.b, self.c
        wide = np.array(
            [a, k, t, k / a, a / k, a / t, t / a, k / t, t / k, q * a, q * k, q * t],
            dtype=complex,
        )
        narrow = np.array(
            [q, b, c, q * t / b, q * t / c, a * q / b, a * q / c,
             t * q / b, t * q / c, k * b / t, k * c / t],
            dtype=complex,
        )
        shifts_wide = q ** np.arange(2 * self.N + 1)
        shifts_narrow = q ** np.arange(self.N + 1)
        return np.concatenate(
            [np.outer(wide, shifts_wide).ravel(), np.outer(narrow, shifts_narrow).ravel()]
        )

    @cached_property
    def matrices(self) -> dict:
        """Entries of M(x, y) at size N, keyed "xy" with t for t_tilde."""
        a, k, t = self.a, self.k, self.t_tilde
        pairs = {"ak": (a, k), "ta": (t, a), "ka": (k, a), "at": (a, t), "tk": (t, k), "kt": (k, t)}
        return {key: build_M(self.N, x, y, self.nome).entries for key, (x, y) in pairs.items()}

    @cached_property
    def key_lhs(self) -> tuple:
        """M(a,k) D(a;b,c) M(t,a), with D(a;b,c) scaling the rows of M(t,a)
        first, and the same product of entrywise moduli; both read-only."""
        m = self.matrices
        d_abc = build_D(self.N, self.a, self.b, self.c, self.nome).diag
        scaled = d_abc[:, None] * m["ta"]
        sides = (m["ak"] @ scaled, np.abs(m["ak"]) @ np.abs(scaled))
        for side in sides:
            side.setflags(write=False)
        return sides

    @classmethod
    def from_y(cls, a, k, t_tilde, y, N, nome: NomePair) -> "DiscreteParams":
        b, c = derive_bc(t_tilde, a, k, y, nome)
        return cls(a=complex(a), k=complex(k), t_tilde=complex(t_tilde),
                   b=b, c=c, y=complex(y), N=int(N), nome=nome)


def _guarded_pochhammer(z, n: int, nome: NomePair, label: str) -> np.ndarray:
    """[theta(z; p)_0, ..., theta(z; p)_n] for n >= 0, the one guarded Pochhammer
    builder of the discrete layer.

    The guard applies to each factor theta(z q^j; p), j < n: a product of many
    small factors is fine, a single one under ``THETA_GUARD`` raises
    :class:`DegenerateParameterError`.
    """
    if n == 0:
        return np.ones(1, dtype=complex)
    factors = theta(complex(z) * nome.q ** np.arange(n), nome.p, nome.trunc)
    small = np.abs(factors).min()
    if small < THETA_GUARD:
        raise DegenerateParameterError(f"a factor of {label} is {small:.3e}, under the guard")
    out = np.ones(n + 1, dtype=complex)
    np.cumprod(factors, out=out[1:])
    return out


def m_entry(N: int, m: int, a, k, nome: NomePair) -> complex:
    """Single entry M[N, m](a, k), read from :func:`build_M`; exactly 0 for m > N.

    It raises wherever ``build_M(N, a, k)`` does, so every one of the 2N
    factors of theta(qa)_j and theta(q)_j is guarded, not only the N+m and N-m
    that this entry's denominators contain.
    """
    if m < 0 or N < 0:
        raise DomainError("indices must be non-negative")
    if m > N:
        return 0j
    return complex(build_M(N, a, k, nome).entries[N, m])


@dataclass(frozen=True)
class BaileyMatrix:
    """Dense lower-triangular realization of M[N, m](a, k), entries immutable."""

    entries: np.ndarray
    a: complex
    k: complex

    def __post_init__(self):
        self.entries.setflags(write=False)


def build_M(N: int, a, k, nome: NomePair) -> BaileyMatrix:
    """Assemble the (N+1) x (N+1) matrix M(a, k); upper entries are exact zeros.

    Every entry reads its Pochhammer products from four sequences of length
    2N + 1; the denominators theta(qa)_j and theta(q)_j come guarded from
    :func:`_guarded_pochhammer`.
    """
    a, k = complex(a), complex(k)
    q = nome.q
    try:
        poch_qa = _guarded_pochhammer(q * a, 2 * N, nome, "theta(qa)_j")
        poch_q = _guarded_pochhammer(q, 2 * N, nome, "theta(q)_j")
        poch_k = theta_pochhammer_sequence(k, 2 * N, nome)
        poch_ka = theta_pochhammer_sequence(k / a, 2 * N, nome)
        th_a2m = theta(a * q ** (2 * np.arange(N + 1)), nome.p, nome.trunc)
    except Exception as exc:
        raise DegenerateParameterError(f"build_M(N={N}, a={a}, k={k}): {exc}") from exc
    if abs(th_a2m[0]) < THETA_GUARD:
        raise DegenerateParameterError(f"theta(a; p) = {th_a2m[0]} is under the guard threshold")
    # the m = 0 ratio must be exactly 1 (numpy's complex division does not
    # guarantee x/x == 1), so the diagonal corner entries stay exact
    th_ratio = np.empty(N + 1, dtype=complex)
    th_ratio[0] = 1.0
    th_ratio[1:] = th_a2m[1:] / th_a2m[0]
    ent = np.zeros((N + 1, N + 1), dtype=complex)
    for n in range(N + 1):
        m = np.arange(n + 1)
        ent[n, : n + 1] = (
            poch_k[n + m] * poch_ka[n - m] / (poch_qa[n + m] * poch_q[n - m])
            * th_ratio[m] * a ** (n - m)
        )
    return BaileyMatrix(entries=ent, a=a, k=k)


def d_entry(m: int, a, b, c, nome: NomePair) -> complex:
    """Diagonal entry D_m(a; b, c), read from ``build_D(m, a, b, c)``."""
    if m < 0:
        raise DomainError("m must be non-negative")
    return complex(build_D(m, a, b, c, nome).diag[m])


@dataclass(frozen=True)
class DiagonalOp:
    """Diagonal matrix D(a; b, c); off-diagonal entries implicitly zero, D_0 = 1."""

    diag: np.ndarray
    a: complex
    b: complex
    c: complex

    def __post_init__(self):
        self.diag.setflags(write=False)


def build_D(N: int, a, b, c, nome: NomePair) -> DiagonalOp:
    """The diagonal D_m(a; b, c), m = 0..N, from four theta-Pochhammer sequences.

    Raises :class:`DegenerateParameterError` when some factor theta(aq/b q^j; p)
    or theta(aq/c q^j; p), j < N, of the denominators is under the guard.
    """
    a, b, c = complex(a), complex(b), complex(c)
    q = nome.q
    num = theta_pochhammer_sequence(b, N, nome) * theta_pochhammer_sequence(c, N, nome)
    den = (_guarded_pochhammer(a * q / b, N, nome, "theta(aq/b)_m")
           * _guarded_pochhammer(a * q / c, N, nome, "theta(aq/c)_m"))
    diag = num / den * (a * q / (b * c)) ** np.arange(N + 1)
    return DiagonalOp(diag=diag, a=a, b=b, c=c)


@dataclass(frozen=True)
class BaileySequence:
    """A length-(N+1) alpha or beta column of a discrete Bailey pair."""

    values: np.ndarray
    role: str = "alpha"

    def __post_init__(self):
        if self.role not in ("alpha", "beta"):
            raise DomainError("role must be 'alpha' or 'beta'")
        self.values.setflags(write=False)


def bailey_transform(
    alpha: BaileySequence,
    beta: BaileySequence,
    params: DiscreteParams,
    input_tol: float = 1e-10,
):
    """One step of the discrete Bailey lemma.

    Given a pair (alpha, beta) with beta = M(a, t)*alpha (checked against
    ``input_tol``), returns the new pair

        alpha' = D(a; b, c) alpha,
        beta'  = D(k; qt/b, qt/c) M(t, k) D(t; b, c) beta,

    which satisfies beta' = M(a, k) alpha' within ~10x the input residual.
    """
    a, k, t, b, c = params.a, params.k, params.t_tilde, params.b, params.c
    q = params.nome.q
    n1 = alpha.values.shape[0]
    if beta.values.shape[0] != n1 or n1 != params.N + 1:
        raise DomainError("sequence lengths must equal N + 1")
    m_at = build_M(params.N, a, t, params.nome)
    pair_res = relative_residual(beta.values, m_at.entries @ alpha.values)
    if pair_res > input_tol:
        raise BaileyPairError(
            f"input pair violates beta = M(a,t) alpha: residual {pair_res:.3e} > {input_tol:.3e}"
        )
    d_abc = build_D(params.N, a, b, c, params.nome)
    d_tbc = build_D(params.N, t, b, c, params.nome)
    d_k = build_D(params.N, k, q * t / b, q * t / c, params.nome)
    m_tk = build_M(params.N, t, k, params.nome)
    alpha_new = BaileySequence(values=d_abc.diag * alpha.values, role="alpha")
    beta_new = BaileySequence(
        values=d_k.diag * (m_tk.entries @ (d_tbc.diag * beta.values)), role="beta"
    )
    return alpha_new, beta_new


def conditioning_amplification(params: DiscreteParams) -> float:
    """Worst forward-error amplification of the matrix products the identity
    checks perform: sum_n |terms| / |sum_n terms| for the key-identity left
    side, and sum_n |terms| for the inversion products (whose targets are
    order one).  A draw with amplification A cannot be verified below
    ~(N+1) * eps * A in double precision, whatever the truth of the identity;
    the admissible-parameter sampler rejects such draws like any other
    degeneracy.

    It reads the six M matrices and D(a;b,c) from ``params``, so the checks
    that run on the same draw afterwards build none of them again.
    """
    m = params.matrices
    lhs, lhs_abs = params.key_lhs
    tri = np.tril_indices(params.N + 1)
    amp_key = float(np.max(lhs_abs[tri] / np.maximum(np.abs(lhs[tri]), RESIDUAL_FLOOR)))
    amp_inv = max(
        float(np.max(np.abs(m["ak"]) @ np.abs(m["ka"]))),
        float(np.max(np.abs(m["at"]) @ np.abs(m["ta"]))),
        float(np.max(np.abs(m["tk"]) @ np.abs(m["kt"]))),
    )
    return max(amp_key, amp_inv)


def _matrix_bailey_sides(params: DiscreteParams, d_tbc: np.ndarray):
    """Both sides of the key identity as dense matrices, given the diagonal
    ``d_tbc`` of D(t;b,c).

    Association order: LHS scales M(t,a) rows by D(a;b,c) then left-multiplies
    by M(a,k) (``params.key_lhs``); RHS scales M(t,k) columns by D(t;b,c) then
    rows by D(k;...).  The two sides share no intermediate results.
    """
    k, t, b, c = params.k, params.t_tilde, params.b, params.c
    q = params.nome.q
    d_k = build_D(params.N, k, q * t / b, q * t / c, params.nome)
    rhs = d_k.diag[:, None] * (params.matrices["tk"] * d_tbc[None, :])
    return params.key_lhs[0], rhs


def verify_matrix_bailey(params: DiscreteParams, tolerance: float = 1e-9) -> VerificationReport:
    """Check M(a,k) D(a;b,c) M(t,a) = D(k;qt/b,qt/c) M(t,k) D(t;b,c) entrywise
    at size ``params.N``, reusing the matrices ``params`` already holds."""
    start = time.perf_counter()
    d_tbc = build_D(params.N, params.t_tilde, params.b, params.c, params.nome)
    lhs, rhs = _matrix_bailey_sides(params, d_tbc.diag)
    residual = relative_residual(lhs, rhs)
    idx = _argmax_residual(lhs, rhs)
    return VerificationReport(
        identity="matrix-bailey",
        params=_param_dict(params, N=params.N),
        lhs=complex(lhs[idx]),
        rhs=complex(rhs[idx]),
        residual=residual,
        tolerance=tolerance,
        settings={"N": params.N},
        wall_time_s=time.perf_counter() - start,
    )


def verify_coxeter(params: DiscreteParams, tolerance: float = 1e-9) -> VerificationReport:
    """Check the twisted Coxeter relations S1^2 = S2^2 = 1 and S1 S2 S1 = S2 S1 S2
    at size ``params.N``.

    The generators act on the triple (t, a, k) with S1 = M(first, second) and
    S2 = D(first; b, c); the twisted product S_i S_j = S_i(s_j u) S_j(u) is
    evaluated by carrying (b, c) through the permutations: swapping the first
    two slots leaves (b, c) fixed, swapping the last two maps (b, c) to
    (q*first/c, q*first/b).  The cubic relation is evaluated through the same
    code path as :func:`verify_matrix_bailey`, so the two residuals agree
    bit for bit on identical draws.  The M matrices come from ``params``.
    """
    start = time.perf_counter()
    t, b, c = params.t_tilde, params.b, params.c
    q = params.nome.q
    nome = params.nome

    # S1^2 = M(a, t) M(t, a)
    s1_sq = params.matrices["at"] @ params.matrices["ta"]
    res_s1 = identity_deviation(s1_sq)

    # S2^2 = D(t; qt/c, qt/b) D(t; b, c)
    d_left = build_D(params.N, t, q * t / c, q * t / b, nome)
    d_right = build_D(params.N, t, b, c, nome)
    s2_sq = np.diag(d_left.diag * d_right.diag)
    res_s2 = identity_deviation(s2_sq)

    lhs, rhs = _matrix_bailey_sides(params, d_right.diag)
    res_cubic = relative_residual(lhs, rhs)

    residual = max(res_s1, res_s2, res_cubic)
    idx = _argmax_residual(lhs, rhs)
    return VerificationReport(
        identity="coxeter",
        params=_param_dict(params, N=params.N),
        lhs=complex(lhs[idx]),
        rhs=complex(rhs[idx]),
        residual=residual,
        tolerance=tolerance,
        settings={"N": params.N},
        details={
            "s1_squared_residual": res_s1,
            "s2_squared_residual": res_s2,
            "cubic_residual": res_cubic,
        },
        wall_time_s=time.perf_counter() - start,
    )


def bressoud_limit_check(N: int, a, k, q, tolerance: float = 1e-6) -> VerificationReport:
    """Confirm M(a, k) converges to its p = 0 evaluation as p -> 0.

    Evaluates the matrix at p in {1e-4, 1e-6, 1e-8}, Richardson-extrapolates
    linearly in p, and compares both the extrapolation and the smallest-p
    matrix against the p = 0 matrix (every theta collapsed to 1 - z).
    """
    if not (isinstance(q, (int, float)) and 0 < q < 1):
        raise DomainError("bressoud_limit_check expects real q in (0, 1)")
    start = time.perf_counter()
    p_values = (1e-4, 1e-6, 1e-8)
    mats = [build_M(N, a, k, NomePair(p, q)).entries for p in p_values]
    m_zero = build_M(N, a, k, NomePair(0.0, q)).entries
    # two Richardson steps with ratio 100 kill the O(p) and O(p^2) terms
    a1 = (100.0 * mats[1] - mats[0]) / 99.0
    a1b = (100.0 * mats[2] - mats[1]) / 99.0
    extrap = (1e4 * a1b - a1) / (1e4 - 1.0)
    res_extrap = relative_residual(extrap, m_zero)
    res_small = relative_residual(mats[2], m_zero)
    residual = max(res_extrap, res_small)
    return VerificationReport(
        identity="bressoud-limit",
        params={"N": N, "a": complex(a), "k": complex(k), "q": float(q)},
        lhs=complex(mats[2][N, 0]),
        rhs=complex(m_zero[N, 0]),
        residual=residual,
        tolerance=tolerance,
        settings={"p_values": list(p_values)},
        details={"extrapolation_residual": res_extrap, "smallest_p_residual": res_small},
        wall_time_s=time.perf_counter() - start,
    )


def _argmax_residual(lhs: np.ndarray, rhs: np.ndarray):
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    return np.unravel_index(np.argmax(np.abs(lhs - rhs) / scale), lhs.shape)


def _param_dict(params: DiscreteParams, **extra):
    d = {
        "a": params.a,
        "k": params.k,
        "t_tilde": params.t_tilde,
        "b": params.b,
        "c": params.c,
        "y": params.y,
        "p": params.nome.p,
        "q": params.nome.q,
    }
    d.update(extra)
    return d
