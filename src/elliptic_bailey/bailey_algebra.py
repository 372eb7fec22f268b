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

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import BaileyPairError, DegenerateParameterError, DomainError
from .report import RESIDUAL_FLOOR, VerificationReport, identity_deviation, relative_residual
from .special_functions import (
    THETA_GUARD,
    NomePair,
    elliptic_pochhammer,  # unused here; perfbench/tracing.py wraps this binding
    theta,  # unused here; perfbench/tracing.py wraps this binding
    theta_pochhammer_sequence,  # unused here; perfbench/tracing.py wraps this binding
    _guarded_pochhammer,
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


# Rows of a draw's theta table, by name (t stands for t_tilde).  Row z holds
# the factors theta(z q^j; p): j = 0..2N on the rows M(x, y) reads, j = 0..N
# on the rows D reads.
_M_ROWS = ("a", "k", "t", "k/a", "a/k", "a/t", "t/a", "k/t", "t/k", "qa", "qk", "qt", "q")
_D_ROWS = ("b", "c", "qt/b", "qt/c", "aq/b", "aq/c", "kb/t", "kc/t")
_ROW = {name: i for i, name in enumerate(_M_ROWS + _D_ROWS)}

# The four diagonals the identities use, keyed by their arguments x; u, v:
# rows (x, u, v, xq/u, xq/v) of the theta table.
_DIAGONALS = {
    "a;b,c": ("a", "b", "c", "aq/b", "aq/c"),
    "t;b,c": ("t", "b", "c", "qt/b", "qt/c"),
    "k;qt/b,qt/c": ("k", "qt/b", "qt/c", "kb/t", "kc/t"),
    "t;qt/c,qt/b": ("t", "qt/c", "qt/b", "c", "b"),
}


@dataclass(frozen=True)
class DiscreteParams:
    """Parameter set for the discrete Bailey lemma.

    Validates the product rule k*b*c = q*a*t_tilde and evaluates every theta
    factor theta(z q^j; p) of the M and D matrices the identities use, in one
    theta call: numerators and denominators alike, j <= 2N in the M(x, y) rows
    and j <= N in the D rows.  A factor under ``THETA_GUARD`` rejects the
    parameter set; the values are kept.

    The six matrices M(x, y), x != y in {a, k, t_tilde}, the four diagonals
    D(a;b,c), D(t;b,c), D(k;qt/b,qt/c), D(t;qt/c,qt/b) and the left side of the
    key identity are assembled from those values once, on first use, and
    shared by :func:`conditioning_amplification`, the identity checks and
    :func:`bailey_transform`.  Entries that overflow come out non-finite
    without a warning; the sampler's conditioning cap rejects them.
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
        bases, lengths = self._theta_args()
        with np.errstate(over="ignore", invalid="ignore"):
            factors, poch = _guarded_pochhammer(bases, lengths, self.nome, len(bases),
                                                "a matrix entry")
        object.__setattr__(self, "_bases", bases)
        object.__setattr__(self, "_factors", factors)
        object.__setattr__(self, "_poch", poch)

    def _theta_args(self) -> tuple[np.ndarray, np.ndarray]:
        """Base points z of the theta table's rows (``_M_ROWS`` then
        ``_D_ROWS``) and the number of q-shifts j each row takes."""
        q = self.nome.q
        a, k, t, b, c = self.a, self.k, self.t_tilde, self.b, self.c
        bases = np.array(
            [a, k, t, k / a, a / k, a / t, t / a, k / t, t / k, q * a, q * k, q * t, q,
             b, c, q * t / b, q * t / c, a * q / b, a * q / c, k * b / t, k * c / t],
            dtype=complex,
        )
        lengths = np.repeat([2 * self.N + 1, self.N + 1], [len(_M_ROWS), len(_D_ROWS)])
        return bases, lengths

    @cached_property
    def matrices(self) -> dict:
        """Entries of M(x, y) at size N, keyed "xy" with t for t_tilde; read-only."""
        base, poch, factors = self._bases, self._poch, self._factors
        out = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for x, y in ("ak", "ta", "ka", "at", "tk", "kt"):
                ent = _assemble_M(complex(base[_ROW[x]]), poch[_ROW[y]], poch[_ROW[f"{y}/{x}"]],
                                  poch[_ROW["q" + x]], poch[_ROW["q"]], factors[_ROW[x]])
                ent.setflags(write=False)
                out[x + y] = ent
        return out

    @cached_property
    def diagonals(self) -> dict:
        """D_m, m = 0..N, of the four diagonals in ``_DIAGONALS``; read-only."""
        base, poch, q, n1 = self._bases, self._poch, self.nome.q, self.N + 1
        out = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for key, (x, u, v, du, dv) in _DIAGONALS.items():
                diag = _assemble_D(
                    complex(base[_ROW[x]]) * q,
                    (complex(base[_ROW[u]]), poch[_ROW[u], :n1], poch[_ROW[du], :n1]),
                    (complex(base[_ROW[v]]), poch[_ROW[v], :n1], poch[_ROW[dv], :n1]),
                )
                diag.setflags(write=False)
                out[key] = diag
        return out

    @cached_property
    def key_lhs(self) -> tuple:
        """M(a,k) D(a;b,c) M(t,a), with D(a;b,c) scaling the rows of M(t,a)
        first, and the same product of entrywise moduli; both read-only."""
        m = self.matrices
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = self.diagonals["a;b,c"][:, None] * m["ta"]
            sides = (m["ak"] @ scaled, np.abs(m["ak"]) @ np.abs(scaled))
        for side in sides:
            side.setflags(write=False)
        return sides

    @classmethod
    def from_y(cls, a, k, t_tilde, y, N, nome: NomePair) -> "DiscreteParams":
        b, c = derive_bc(t_tilde, a, k, y, nome)
        return cls(a=complex(a), k=complex(k), t_tilde=complex(t_tilde),
                   b=b, c=c, y=complex(y), N=int(N), nome=nome)


@cache
def _tril(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices (n, m), m <= n < size, of a lower triangle; read-only."""
    n, m = np.tril_indices(size)
    n.setflags(write=False)
    m.setflags(write=False)
    return n, m


def _assemble_M(x: complex, poch_y, poch_yx, poch_qx, poch_q, th_x) -> np.ndarray:
    """Entries of M(x, y) from the Pochhammer sequences theta(y)_j,
    theta(y/x)_j, theta(qx)_j, theta(q)_j (j = 0..2N at least) and the
    factors th_x[i] = theta(x q^i; p), i = 0..2N."""
    th_x2m = th_x[::2]
    N = th_x2m.size - 1
    n, m = _tril(N + 1)
    # the m = 0 ratio must be exactly 1 (numpy's complex division does not
    # guarantee x/x == 1), so the diagonal corner entries stay exact
    th_ratio = np.empty(N + 1, dtype=complex)
    th_ratio[0] = 1.0
    th_ratio[1:] = th_x2m[1:] / th_x2m[0]
    ent = np.zeros((N + 1, N + 1), dtype=complex)
    ent[n, m] = (
        poch_y[n + m] * poch_yx[n - m] / (poch_qx[n + m] * poch_q[n - m])
        * th_ratio[m] * x ** (n - m)
    )
    return ent


def _assemble_D(xq: complex, side_u, side_v) -> np.ndarray:
    """D_m(x; u, v) = theta(u)_m theta(v)_m / (theta(xq/u)_m theta(xq/v)_m)
    * (xq/(uv))^m from the sides (u, theta(u)_m, theta(xq/u)_m) and
    (v, theta(v)_m, theta(xq/v)_m), m = 0..N.

    numpy's complex multiply is not commutative bit for bit, so the sides
    multiply in the order of u and v by real, then imaginary part: D(x; u, v)
    and D(x; v, u) agree exactly.
    """
    (u, num_u, den_u), (v, num_v, den_v) = sorted((side_u, side_v),
                                                  key=lambda s: (s[0].real, s[0].imag))
    return num_u * num_v / (den_u * den_v) * (xq / (u * v)) ** np.arange(num_u.size)


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


def _m_rows(N: int, a: complex, k: complex, q) -> tuple[list, list]:
    """Base points and lengths of the theta table of ``build_M(N, a, k)``."""
    return [q * a, q, k, k / a, a], [2 * N] * 4 + [2 * N + 1]


def build_M(N: int, a, k, nome: NomePair) -> BaileyMatrix:
    """Assemble the (N+1) x (N+1) matrix M(a, k); upper entries are exact zeros.

    Every theta factor comes from one theta call: the rows theta(z q^j; p),
    j < 2N, for z in {qa, q, k, k/a}, and theta(a q^i; p), i <= 2N.  Only the
    denominators theta(qa)_j and theta(q)_j and theta(a; p) are guarded, and
    an entry that overflows raises :class:`DegenerateParameterError`.
    """
    a, k = complex(a), complex(k)
    # products may overflow where the entries do not (the theta(a q^i) row's
    # product is never read), so they are formed as in the DiscreteParams table
    # and only a non-finite entry is an error
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            factors, poch = _guarded_pochhammer(*_m_rows(N, a, k, nome.q), nome, 2,
                                                "a denominator")
        except Exception as exc:
            raise DegenerateParameterError(f"build_M(N={N}, a={a}, k={k}): {exc}") from exc
        if abs(factors[4, 0]) < THETA_GUARD:
            raise DegenerateParameterError(f"theta(a; p) = {factors[4, 0]} is under the guard threshold")
        ent = _assemble_M(a, poch[2], poch[3], poch[0], poch[1], factors[4])
    if not np.isfinite(ent).all():
        raise DegenerateParameterError(f"build_M(N={N}, a={a}, k={k}): an entry overflows")
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


def _d_rows(N: int, a: complex, b: complex, c: complex, q) -> tuple[list, list]:
    """Base points and lengths of the theta table of ``build_D(N, a, b, c)``."""
    aq = a * q
    return [aq / b, aq / c, b, c], [N] * 4


def build_D(N: int, a, b, c, nome: NomePair) -> DiagonalOp:
    """The diagonal D_m(a; b, c), m = 0..N, from one theta call on the rows
    theta(z q^j; p), j < N, for z in {aq/b, aq/c, b, c}.

    Raises :class:`DegenerateParameterError` when some factor theta(aq/b q^j; p)
    or theta(aq/c q^j; p), j < N, of the denominators is under the guard, and
    when an entry overflows.
    """
    a, b, c = complex(a), complex(b), complex(c)
    if b == 0 or c == 0:
        raise DomainError("D(a; b, c) requires b, c != 0")
    # products may overflow, as in build_M; only a non-finite entry is an error
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _, poch = _guarded_pochhammer(*_d_rows(N, a, b, c, nome.q), nome, 2, "a denominator")
        diag = _assemble_D(a * nome.q, (b, poch[2], poch[0]), (c, poch[3], poch[1]))
    if not np.isfinite(diag).all():
        raise DegenerateParameterError(f"build_D(N={N}, a={a}, b={b}, c={c}): an entry overflows")
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
    Every matrix comes from the memos of ``params``.
    """
    n1 = alpha.values.shape[0]
    if beta.values.shape[0] != n1 or n1 != params.N + 1:
        raise DomainError("sequence lengths must equal N + 1")
    m, d = params.matrices, params.diagonals
    pair_res = relative_residual(beta.values, m["at"] @ alpha.values)
    if pair_res > input_tol:
        raise BaileyPairError(
            f"input pair violates beta = M(a,t) alpha: residual {pair_res:.3e} > {input_tol:.3e}"
        )
    alpha_new = BaileySequence(values=d["a;b,c"] * alpha.values, role="alpha")
    beta_new = BaileySequence(
        values=d["k;qt/b,qt/c"] * (m["tk"] @ (d["t;b,c"] * beta.values)), role="beta"
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

    It reads the six M matrices and D(a;b,c) from the memos of ``params``,
    which the checks that run on the same draw afterwards read too.  A
    non-finite product gives NaN or inf here, without a warning, wherever it
    sits among the products.
    """
    m = params.matrices
    lhs, lhs_abs = params.key_lhs
    tri = _tril(params.N + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        # np.max, not max: Python's max drops a NaN that follows a number
        return float(np.max([
            np.max(lhs_abs[tri] / np.maximum(np.abs(lhs[tri]), RESIDUAL_FLOOR)),
            np.max(np.abs(m["ak"]) @ np.abs(m["ka"])),
            np.max(np.abs(m["at"]) @ np.abs(m["ta"])),
            np.max(np.abs(m["tk"]) @ np.abs(m["kt"])),
        ]))


def _matrix_bailey_sides(params: DiscreteParams):
    """Both sides of the key identity as dense matrices.

    Association order: LHS scales M(t,a) rows by D(a;b,c) then left-multiplies
    by M(a,k) (``params.key_lhs``); RHS scales M(t,k) columns by D(t;b,c) then
    rows by D(k;...).  The two sides share no intermediate results.
    """
    d = params.diagonals
    rhs = d["k;qt/b,qt/c"][:, None] * (params.matrices["tk"] * d["t;b,c"][None, :])
    return params.key_lhs[0], rhs


def verify_matrix_bailey(params: DiscreteParams, tolerance: float = 1e-9) -> VerificationReport:
    """Check M(a,k) D(a;b,c) M(t,a) = D(k;qt/b,qt/c) M(t,k) D(t;b,c) entrywise
    at size ``params.N``, reusing the matrices ``params`` already holds."""
    lhs, rhs = _matrix_bailey_sides(params)
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
    bit for bit on identical draws.  Every matrix comes from ``params``.
    """
    d = params.diagonals

    # S1^2 = M(a, t) M(t, a)
    s1_sq = params.matrices["at"] @ params.matrices["ta"]
    res_s1 = identity_deviation(s1_sq)

    # S2^2 = D(t; qt/c, qt/b) D(t; b, c)
    s2_sq = np.diag(d["t;qt/c,qt/b"] * d["t;b,c"])
    res_s2 = identity_deviation(s2_sq)

    lhs, rhs = _matrix_bailey_sides(params)
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
    )


def bressoud_limit_check(N: int, a, k, q, tolerance: float = 1e-6) -> VerificationReport:
    """Confirm M(a, k) converges to its p = 0 evaluation as p -> 0.

    Evaluates the matrix at p in {1e-4, 1e-6, 1e-8}, Richardson-extrapolates
    linearly in p, and compares both the extrapolation and the smallest-p
    matrix against the p = 0 matrix (every theta collapsed to 1 - z).
    """
    if not (isinstance(q, (int, float)) and 0 < q < 1):
        raise DomainError("bressoud_limit_check expects real q in (0, 1)")
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
