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

from dataclasses import dataclass, fields
from functools import cache, cached_property

import numpy as np

from .errors import BaileyPairError, DegenerateParameterError, DomainError
from .report import (RESIDUAL_FLOOR, VerificationReport, identity_deviation, relative_residual,
                     worst, _residual_ratio)
from .special_functions import (
    THETA_GUARD,
    NomePair,
    elliptic_pochhammer,  # unused here; perfbench/tracing.py wraps this binding
    theta,  # unused here; perfbench/tracing.py wraps this binding
    theta_pochhammer_sequence,  # unused here; perfbench/tracing.py wraps this binding
    _PASS_BYTES,
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
    if p == 0:
        raise DomainError("derive_bc requires p != 0 (c divides by sqrt(p))")
    b = np.sqrt(complex(p * q * t_tilde * a / k)) * y
    c = np.sqrt(complex(q * t_tilde * a / (p * k))) / y
    return complex(b), complex(c)


# Rows of a draw's theta table, by name (t stands for t_tilde).  Row z holds
# the factors theta(z q^j; p): j = 0..2N on the rows M(x, y) reads, j = 0..N
# on the rows D reads.
_M_ROWS = ("a", "k", "t", "k/a", "a/k", "a/t", "t/a", "k/t", "t/k", "qa", "qk", "qt", "q")
_D_ROWS = ("b", "c", "qt/b", "qt/c", "aq/b", "aq/c", "kb/t", "kc/t")
_ROW = {name: i for i, name in enumerate(_M_ROWS + _D_ROWS)}

# The six matrices M(x, y) of a draw, keyed "xy", in the order of their stack:
# each sits three places before its inverse M(y, x).
_M_PAIRS = ("ak", "at", "tk", "ka", "ta", "kt")
# the theta-table rows (y, y/x, qx, q, x) each M(x, y) of the stack reads
_M_PAIR_ROWS = np.array([[_ROW[y], _ROW[f"{y}/{x}"], _ROW["q" + x], _ROW["q"], _ROW[x]]
                         for x, y in _M_PAIRS]).T

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

    Validates the product rule k*b*c = q*a*t_tilde and builds, at
    construction, everything the identity checks read: the theta factors
    theta(z q^j; p) of the M and D matrices (numerators and denominators
    alike, j <= 2N in the M(x, y) rows and j <= N in the D rows) and their
    Pochhammer sequences; the six matrices M(x, y), x != y in {a, k,
    t_tilde}, as one (6, N+1, N+1) stack in the order ``ak, at, tk, ka, ta,
    kt`` (each three places before its inverse), with its entrywise moduli;
    the four diagonals D(a;b,c), D(t;b,c), D(k;qt/b,qt/c), D(t;qt/c,qt/b) as
    one (4, N+1) stack; the left side of the key identity; and the
    conditioning estimate (:func:`conditioning_amplification`).  Every memo
    is read-only.

    Construction is the one-draw case of :meth:`stack`, which builds the
    draws of a campaign chunk together, each with the bits it has alone.  A
    factor under ``THETA_GUARD`` rejects the parameter set
    (:class:`DegenerateParameterError`).  Entries that overflow come out
    non-finite without a warning; the sampler's conditioning cap rejects
    them.
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
        (error,) = _build([self])
        if error is not None:
            raise error

    @classmethod
    def stack(cls, drafts: list, cap: float | None = None) -> list:
        """Parameter sets of one N from one stacked build: per mapping of
        fields in ``drafts``, its DiscreteParams with the memos and bits that
        constructing it alone gives, or the error that construction raises.
        With a ``cap``, a draw whose :func:`conditioning_amplification` is
        not at most ``cap`` (NaN included) comes back as a
        :class:`DegenerateParameterError`, as a sampler rejects it.  A draft
        whose keys are not the fields raises :class:`TypeError`, as
        construction does, and drafts of several N :class:`DomainError`."""
        names = {entry.name for entry in fields(cls)}
        for draft in drafts:
            if draft.keys() != names:
                raise TypeError(f"DiscreteParams fields are {sorted(names)}, got {sorted(draft)}")
        if len({draft["N"] for draft in drafts}) > 1:
            raise DomainError("a stacked build takes parameter sets of one N, "
                              f"got N in {sorted({draft['N'] for draft in drafts})}")
        built = []
        for draft in drafts:
            params = object.__new__(cls)
            vars(params).update(draft)
            built.append(params)
        return [params if error is None else error
                for params, error in zip(built, _build(built, cap))]

    @staticmethod
    def y_split(a, k, t_tilde, y, N, nome: NomePair) -> dict:
        """The fields of the y-split parameter set: (b, c) from
        :func:`derive_bc`, every parameter a Python complex."""
        b, c = derive_bc(t_tilde, a, k, y, nome)
        return dict(a=complex(a), k=complex(k), t_tilde=complex(t_tilde),
                    b=b, c=c, y=complex(y), N=int(N), nome=nome)

    @classmethod
    def from_y(cls, a, k, t_tilde, y, N, nome: NomePair) -> "DiscreteParams":
        return cls(**cls.y_split(a, k, t_tilde, y, N, nome))

    @cached_property
    def matrices(self) -> dict:
        """Entries of M(x, y) at size N, keyed "xy" with t for t_tilde; read-only
        views of the stack."""
        return dict(zip(_M_PAIRS, self._m_stack[0]))


def _base_points(params: DiscreteParams) -> list:
    """Base points z of the theta table's rows, ``_M_ROWS`` then
    ``_D_ROWS``, each formed in the scalar arithmetic of the fields' own
    types."""
    q = params.nome.q
    a, k, t, b, c = params.a, params.k, params.t_tilde, params.b, params.c
    return [a, k, t, k / a, a / k, a / t, t / a, k / t, t / k, q * a, q * k, q * t, q,
            b, c, q * t / b, q * t / c, a * q / b, a * q / c, k * b / t, k * c / t]


def _block_draws(N: int) -> int:
    """Draws per block of a stacked build at size N: the largest tables of
    a block, its theta rows (two per factor) and each pair of Pochhammer
    sequences gathered for its M stack (larger than the stack), hold at most
    ``_PASS_BYTES`` bytes; a block holds at least one draw."""
    factors = len(_M_ROWS) * (2 * N + 1) + len(_D_ROWS) * (N + 1)
    gathered = len(_M_PAIRS) * (N + 1) * (N + 2)
    return max(1, _PASS_BYTES // (16 * max(2 * factors, gathered)))


def _build(drafts: list, cap: float | None = None) -> list:
    """Build the memos of each DiscreteParams in ``drafts``, all of one N,
    in blocks of ``_block_draws(N)`` draws; per draw, None or the error its
    construction raises, after which it holds no memo.  With a ``cap``, a
    draw whose conditioning amplification is not at most ``cap`` (NaN
    included) gets a :class:`DegenerateParameterError` too.

    Whatever sets a value's bits stays per draw: the base points and the D
    scales xq/(uv), in Python scalar arithmetic.  A block's theta tables
    come from one stacked :func:`special_functions._guarded_pochhammer`
    call, each table with the bits and the error it has alone.  The rest is
    elementwise or a stack of matrix products, each slice with the bits of
    its own product, so each draw has the bits of its build alone.
    Only the draws that pass the guard are assembled, and only those that
    pass the cap keep memos, views of their block's read-only tables."""
    errors = [None] * len(drafts)
    live = []
    for s, params in enumerate(drafts):
        if params.N < 0:
            errors[s] = DomainError("N must be a non-negative integer")
            continue
        lhs, rhs = params.k * params.b * params.c, params.nome.q * params.a * params.t_tilde
        if abs(lhs - rhs) > PRODUCT_RULE_TOL * max(abs(lhs), abs(rhs)):
            errors[s] = DegenerateParameterError(
                f"product rule violated: k*b*c = {lhs}, q*a*t_tilde = {rhs}")
            continue
        live.append(s)
    if live:
        step = _block_draws(drafts[live[0]].N)
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, len(live), step):
                at = live[lo : lo + step]
                for s, error in zip(at, _build_block([drafts[s] for s in at], cap)):
                    errors[s] = error
    return errors


def _build_block(block: list, cap: float | None) -> list:
    """The memos of one block of :func:`_build`, and its errors."""
    n1 = block[0].N + 1
    # the theta table of each draw: row z holds theta(z q^j; p), j < 2N+1 on
    # the rows M(x, y) reads and j < N+1 on the rows D reads, all guarded
    bases = np.array([_base_points(params) for params in block], dtype=complex)
    factors, poch, errors = _guarded_pochhammer(
        bases, np.repeat([2 * n1 - 1, n1], [len(_M_ROWS), len(_D_ROWS)]),
        [params.nome for params in block], len(_ROW), "a matrix entry")
    kept = [s for s, error in enumerate(errors) if error is None]
    if not kept:
        return errors
    if len(kept) < len(block):
        bases, factors, poch = bases[kept], factors[kept], poch[kept]
    ent = _stacked_M(bases[:, _M_PAIR_ROWS[4]], poch, factors, _M_PAIR_ROWS)
    ent_mods = np.abs(ent)
    diags = _stacked_D(poch, n1, [
        [(base[_ROW[x]] * block[s].nome.q,
          (base[_ROW[u]], _ROW[u], _ROW[du]), (base[_ROW[v]], _ROW[v], _ROW[dv]))
         for x, u, v, du, dv in _DIAGONALS.values()]
        for s, base in zip(kept, bases.tolist())
    ])
    # the key identity's left side: D(a;b,c) scales the rows of M(t,a) first
    scaled = diags[:, 0, :, None] * ent[:, _M_PAIRS.index("ta")]
    lhs, lhs_abs = ent[:, 0] @ scaled, ent_mods[:, 0] @ np.abs(scaled)
    # the conditioning estimate: the key identity's left side, entry by entry
    # on the lower triangle, and the three inversion products |M(x,y)| |M(y,x)|
    # of the stack's halves
    tri = _tril(n1)[0]
    key = (lhs_abs.reshape(len(kept), -1)[:, tri]
           / np.maximum(np.abs(lhs.reshape(len(kept), -1)[:, tri]), RESIDUAL_FLOOR)).max(axis=1)
    inverse = (ent_mods[:, :3] @ ent_mods[:, 3:]).reshape(len(kept), -1).max(axis=1)
    amps = [float(worst(*pair)) for pair in zip(key, inverse)]
    tables = [bases, factors, poch, ent, ent_mods, diags, lhs, lhs_abs]
    if cap is not None:
        capped = [i for i, amp in enumerate(amps) if not amp <= cap]
        for i in capped:
            errors[kept[i]] = DegenerateParameterError(
                f"conditioning amplification {amps[i]:.3e} is over the cap {cap:.0e}")
        if capped:
            # the tables of the draws that keep memos, and no more
            below = [i for i, amp in enumerate(amps) if amp <= cap]
            tables = [table[below] for table in tables]
            kept, amps = [kept[i] for i in below], [amps[i] for i in below]
    for table in tables:
        table.setflags(write=False)
    bases, factors, poch, ent, ent_mods, diags, lhs, lhs_abs = tables
    for i, s in enumerate(kept):
        vars(block[s]).update(
            _bases=bases[i], _factors=factors[i], _poch=poch[i], _m_stack=(ent[i], ent_mods[i]),
            diagonals=dict(zip(_DIAGONALS, diags[i])), key_lhs=(lhs[i], lhs_abs[i]),
            _amplification=amps[i])
    return errors


@cache
def _tril(size: int) -> tuple[np.ndarray, ...]:
    """For the entries (n, m), m <= n < size, of a lower triangle: the flat
    index n*size + m, the column m, the power n - m, and the indices
    (n+m, n-m, n+m, n-m) at which an entry of M reads its four Pochhammer
    sequences, shaped (4, 1, entries); read-only."""
    n, m = np.tril_indices(size)
    out = (n * size + m, m, n - m, np.stack((n + m, n - m, n + m, n - m))[:, None])
    for index in out:
        index.setflags(write=False)
    return out


def _stacked_M(x: np.ndarray, poch: np.ndarray, factors: np.ndarray,
               rows: np.ndarray) -> np.ndarray:
    """Entries of stacks of matrices M(x_ds, y_ds), one stack per draw d,
    shape (D, S, N+1, N+1).

    ``rows`` holds, for each matrix s, the rows (y, y/x, qx, q, x) of a
    draw's theta table: draw d's Pochhammer sequences ``poch[d]`` give
    theta(y)_j, theta(y/x)_j, theta(qx)_j and theta(q)_j (j = 0..2N at least),
    and its ``factors[d]`` theta(x q^i; p), i = 0..2N; x is (D, S).  One
    elementwise expression serves every stack, so each slice has the bits a
    single matrix would.
    """
    th_x2m = factors[:, rows[4], ::2]
    n1 = th_x2m.shape[2]
    flat, m, d, seq_at = _tril(n1)
    # the numerators' two sequences in one gather from each draw's flat
    # table, and the denominators' two in another, (D, 2, S, entries) each
    at, table = rows[:4, :, None] * poch.shape[2] + seq_at, poch.reshape(len(poch), -1)
    num, den = table[:, at[:2]], table[:, at[2:]]
    y, yx, qx, q = num[:, 0], num[:, 1], den[:, 0], den[:, 1]
    th_ratio = th_x2m / th_x2m[:, :, :1]
    # the m = 0 ratio must be exactly 1 (numpy's complex division does not
    # guarantee x/x == 1), so the diagonal corner entries stay exact
    th_ratio[:, :, 0] = 1.0
    ent = np.zeros((*x.shape, n1 * n1), dtype=complex)
    ent[:, :, flat] = y * yx / (qx * q) * th_ratio[:, :, m] * x[:, :, None] ** d
    return ent.reshape(*x.shape, n1, n1)


def _stacked_D(poch: np.ndarray, n1: int, diagonals) -> np.ndarray:
    """Stacks of diagonals D_m(x; u, v) = theta(u)_m theta(v)_m /
    (theta(xq/u)_m theta(xq/v)_m) * (xq/(uv))^m, m = 0..n1-1, one stack of K
    per draw d, shape (D, K, n1).

    ``diagonals[d]`` gives draw d's K diagonals, each as (xq, (u, row_u,
    row_xq/u), (v, row_v, row_xq/v)), with rows of its Pochhammer sequences
    ``poch[d]``.  numpy's complex multiply is not commutative bit for bit, so
    the sides multiply in the order of u and v by real, then imaginary part:
    D(x; u, v) and D(x; v, u) agree exactly.  Each scale xq/(uv) is formed
    in Python complex arithmetic.
    """
    rows, scales = [], []
    for draw in diagonals:
        for xq, side_u, side_v in draw:
            if (side_v[0].real, side_v[0].imag) < (side_u[0].real, side_u[0].imag):
                side_u, side_v = side_v, side_u
            (u, num_u, den_u), (v, num_v, den_v) = side_u, side_v
            rows.append((num_u, num_v, den_u, den_v))
            scales.append(xq / (u * v))
    shape = (len(diagonals), len(diagonals[0]))
    at = np.array(rows).T.reshape(4, *shape)
    num_u, num_v, den_u, den_v = poch[np.arange(shape[0])[:, None], at, :n1]
    return num_u * num_v / (den_u * den_v) * np.array(scales).reshape(*shape, 1) ** np.arange(n1)


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


# the rows (y, y/x, qx, q, x) = (k, k/a, qa, q, a) of that table, as a stack of one
_BUILD_M_ROWS = np.array([[2], [3], [0], [1], [4]])


def build_M(N: int, a, k, nome: NomePair) -> BaileyMatrix:
    """Assemble the (N+1) x (N+1) matrix M(a, k); upper entries are exact zeros.

    Every theta factor comes from one theta call: the rows theta(z q^j; p),
    j < 2N, for z in {qa, q, k, k/a}, and theta(a q^i; p), i <= 2N.  Only the
    denominators theta(qa)_j and theta(q)_j and theta(a; p) are guarded, and
    an entry that overflows raises :class:`DegenerateParameterError`; a or k
    = 0 raises :class:`DomainError`.
    """
    a, k = complex(a), complex(k)
    if a == 0 or k == 0:
        raise DomainError(f"build_M needs a, k != 0, got a = {a}, k = {k}")
    # products may overflow where the entries do not (the theta(a q^i) row's
    # product is never read), so they are formed as in the DiscreteParams table
    # and only a non-finite entry is an error
    with np.errstate(over="ignore", invalid="ignore"):
        factors, poch = _guarded_pochhammer(*_m_rows(N, a, k, nome.q), nome, 2, "a denominator")
        if abs(factors[4, 0]) < THETA_GUARD:
            raise DegenerateParameterError(f"theta(a; p) = {factors[4, 0]} is under the guard threshold")
        ent = _stacked_M(np.array([[a]]), poch[None], factors[None], _BUILD_M_ROWS)[0, 0]
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
        diag = _stacked_D(poch[None], N + 1, [[(a * nome.q, (b, 2, 0), (c, 3, 1))]])[0, 0]
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
    if not pair_res <= input_tol:
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

    The estimate is made with the draw's build (:meth:`DiscreteParams.stack`,
    of which construction is the one-draw case), from memos the checks read
    too: the key identity's two sides, and the moduli of the stack of six M
    matrices.  The stack puts each matrix three places before its inverse,
    so the three inversion products |M(x,y)| |M(y,x)| are one stacked
    product of its halves, stacked again over the draws of a build.  A
    non-finite product gives NaN or inf here, without a warning, wherever it
    sits among the products.
    """
    return params._amplification


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
    residual, lhs, rhs = _worst_entry(*_matrix_bailey_sides(params))
    return VerificationReport(
        identity="matrix-bailey",
        params=_param_dict(params, N=params.N),
        lhs=lhs,
        rhs=rhs,
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

    res_cubic, lhs, rhs = _worst_entry(*_matrix_bailey_sides(params))

    residual = worst(res_s1, res_s2, res_cubic)
    return VerificationReport(
        identity="coxeter",
        params=_param_dict(params, N=params.N),
        lhs=lhs,
        rhs=rhs,
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
    residual = worst(res_extrap, res_small)
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


def _worst_entry(lhs: np.ndarray, rhs: np.ndarray) -> tuple[float, complex, complex]:
    """``relative_residual(lhs, rhs)`` and the entries of lhs and rhs where it
    is attained (the first, or the first NaN), from one ratio array.  The
    residual is the ratio's ``np.max``, which keeps the bits of a NaN that
    indexing at the argmax may not."""
    ratio = _residual_ratio(lhs, rhs)
    idx = np.unravel_index(np.argmax(ratio), ratio.shape)
    return float(np.max(ratio)), complex(lhs[idx]), complex(rhs[idx])


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
