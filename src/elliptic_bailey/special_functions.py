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

Every product and series keeps the fewest terms whose relative tail bound,
2 r^{M+1} / ((1 - r)(1 - |p|)(1 - |q|)) for the series, is below
``TRUNCATION_TOL`` = 1e-14; needing more than ``MAX_TERMS`` = 500 000 terms,
or a table of more than ``MAX_TERMS`` theta shift factors (points x max|k|),
raises :class:`TruncationLimitError`.  A ring of n > 1 points (below) keeps
k = 0 when its unshifted radius r0 = max(|z|, |pq/z|) < 1 needs at most
n - 1 terms: its series then fits the n bins of its fold, and it needs no
shift factor.

One engine evaluates gamma: ``_gamma_rings`` on R rings of n > 1 points
s_i exp(2 pi i j / n), and ``_gamma_groups`` on single points: groups of
points, each group with its own nome pair, so that a campaign evaluates the
points of a chunk of draws, one group per draw, in one pass.
Whatever sets a value's bits stays per group (the pole guard, the series and
theta orders, the series gemv and the sum of the shift logs), so a group's
values have the bits of a pass on it alone, and a group that fails returns
its error without failing the others; the elementwise work runs across the
groups.  ``_gamma_vec`` is its one-group call, which raises the group's
error, and with a ``where`` also that of a value that is zero or not
finite.  On a ring of n > 1 points every log-series folds mod n and one DFT
sums it.  With ``turned`` the same engine takes the rings turned by
exp(i pi / n), the nodes a nested quadrature adds at each doubling, with
the turn folded into the series exactly.  Theta on a ring has its own
log-series, ``_theta_series``: after the shift
theta(v z; v) = -z^{-1} theta(z; v) into
|v|^{1/2} <= |y| <= |v|^{-1/2},

    log theta(y e; v) = log(1 - y e) - sum_{m>=1} v^m ((y e)^m + (y e)^{-m}) / (m (1 - v^m)),

with the factor 1 - y e kept pointwise, so the zeros on |z| = 1 stay exact.
The gamma engine adds the series of the shift thetas of its shifted rings to
its own table before the fold, and ``_theta_ring_groups``, the one entry
point of the ring theta, serves the thetas of the contour grids, each group
of rings with its own nome, series order and fold, in one fold loop over
the table heights, so that a block of quadratures takes its grids' thetas
from one call; no ring evaluates a product.  Every pointwise product
prod_{j<J} (1 - x b^j) comes from one kernel, ``_qpoch_rows``: rows, each
with its own base and order, read off a running product in blocks of at
most ``_PASS_BYTES``, so that a row's value does not depend on the rows
beside it.  ``qpochhammer_inf`` and ``theta`` call it, theta on the
stacked halves (z; p)_J (p/z; p)_J; so do the shift thetas of
``_gamma_groups``; ``_theta_pass``, which takes the thetas and the
products (p; p)_inf, (q; q)_inf of a chunk of special-functions draws from
one call; and ``_nome_products``, which takes the products of the nomes of
a chunk of quadrature checks from one call; each with the bits of the
scalar calls.  The theta-Pochhammer symbols
and sequences are read from tables of factors theta(z q^j; p) built by
``_guarded_pochhammer``, which calls the kernel too: on one table, or on a
stack of tables with a nome each, as a stacked ``DiscreteParams`` build
takes them, each table with the bits it has alone.

Gamma(z; p, q) = Gamma(z; q, p) by construction: the series coefficients
are symmetric in p and q, and the shift nome is chosen by modulus;
``TestBaseSymmetry`` in the tests compares the engine on (p, q) and (q, p).

All functions accept scalars or numpy arrays in ``z`` and are pure; the
default floating type is hardware complex128 (unit roundoff ~1e-16).
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateParameterError, DomainError, EllipticBaileyError, PoleProximityError,
                     TruncationLimitError)

__all__ = [
    "NomePair",
    "qpochhammer_inf",
    "theta",
    "elliptic_gamma",
    "elliptic_pochhammer",
    "theta_pochhammer_sequence",
    "gamma_residue_constant",
    "gamma_quadratic_check",
    "gamma_truncation_orders",
    "theta_truncation_order",
    "POLE_GUARD_FACTOR",
    "THETA_GUARD",
    "TRUNCATION_TOL",
    "MAX_TERMS",
]

# |1 - z p^j q^k| < POLE_GUARD_FACTOR * |z| marks z as numerically on the pole lattice.
POLE_GUARD_FACTOR = 1e-13
# |theta| below this in any denominator marks the parameter set as degenerate.
THETA_GUARD = 1e-10
# the relative tail bound of every truncated product and series, and its term cap
TRUNCATION_TOL = 1e-14
MAX_TERMS = 500_000
# bytes of the largest table a grouped pointwise gamma pass builds (a block of
# groups' powers, or of their theta shift grids) and of a block of the product
# kernel's rows (unless one row or group outgrows it).  A chunk of campaign
# draws then allocates no array near 1 MiB, whose release would move the C
# allocator's mmap threshold for everything that runs after it
_PASS_BYTES = 1 << 17


_ROOT_CACHE: dict[int, np.ndarray] = {}


def _roots(n: int) -> np.ndarray:
    """The n-th roots of unity exp(2 pi i j / n), j = 0..n-1 (cached, read-only)."""
    r = _ROOT_CACHE.get(n)
    if r is None:
        r = np.exp(2j * math.pi * np.arange(n) / n)
        r.setflags(write=False)
        _ROOT_CACHE[n] = r
    return r


def _ring(n: int, turned: bool = False) -> np.ndarray:
    """The points e_j of an n-point ring: the n-th roots of unity, or, turned
    by c = exp(i pi / n), the odd 2n-th roots, which are the odd nodes of the
    2n-grid bit for bit (read-only)."""
    return _roots(2 * n)[1::2] if turned else _roots(n)


def _truncation_order(c: float, base: float, what: str) -> int:
    """The smallest J >= 1 with tail bound c * base**J < TRUNCATION_TOL, for
    0 < base < 1; raises :class:`TruncationLimitError` when J > MAX_TERMS, or
    when c is not finite (an argument beyond the double range), since then no
    J bounds the tail."""
    if not math.isfinite(c):
        raise TruncationLimitError(f"{what} tail bound {c:g} is not finite (base {base:g}); "
                                   "no truncation order bounds it")
    j = max(1, int(math.ceil(math.log(TRUNCATION_TOL / c) / math.log(base))))
    while c * base**j >= TRUNCATION_TOL:
        j += 1
    if j > MAX_TERMS:
        raise TruncationLimitError(f"{what} needs {j} terms (base {base:g}), cap is {MAX_TERMS}")
    return j


def _qpoch_order(base_mod: float, scale: float) -> int:
    """Truncation order for (z; b)_inf.

    Tail bound: |log prod_{j>=J} (1 - z b^j)| <= 2 |z| b^J / (1 - b) for
    |z| b^J < 1/2, so C = 2 max(scale, 1) / (1 - b).
    """
    if base_mod == 0.0:
        return 1
    return _truncation_order(2.0 * max(scale, 1.0) / (1.0 - base_mod), base_mod, "q-Pochhammer")


def _qpoch_rows(x: np.ndarray, bases: list, at, orders) -> np.ndarray:
    """prod_{j < J_i} (1 - x_i b_i^j) for each entry x_i of the array x, with
    b_i = bases[at_i] and J_i = orders_i, in x's shape: the one kernel of
    every pointwise product.  ``at`` and ``orders`` are arrays of x's shape,
    or ``at`` = 0 and an int order: every row has the one base.

    The powers b^j, j < J, are formed once per distinct base, J the largest
    order of its rows, elementwise as ``b ** np.arange(J)`` forms them, so a
    power's bits do not depend on J.  Each row's product is read off the
    running product (``np.multiply.accumulate``, which multiplies in
    ``prod``'s order) at the row's own order, so the columns a longer row
    adds to a table leave it as it is: a row's value does not depend on the
    rows beside it.  A table has at least three columns, since over two
    columns accumulate multiplies them as arrays, which rounds apart from
    ``prod``.  Rows of one order are taken as they come, rows of several by
    order, in blocks whose (rows, J) tables hold at most _PASS_BYTES bytes;
    a block holds at least one row."""
    if isinstance(orders, int):
        powers = bases[0] ** np.arange(max(3, orders))

        def running(rows):
            table = 1.0 - rows[..., None] * powers
            return np.multiply.accumulate(table, axis=-1, out=table)[..., orders - 1]

        if 16 * x.size * powers.size <= _PASS_BYTES:
            return running(x)
        step = max(1, _PASS_BYTES // (16 * powers.size))
        flat, out = x.reshape(-1), np.empty(x.size, dtype=complex)
        for lo in range(0, x.size, step):
            out[lo : lo + step] = running(flat[lo : lo + step])
        return out.reshape(x.shape)
    shape, x = x.shape, x.reshape(-1)
    at, orders = at.reshape(-1), orders.reshape(-1)
    out = np.empty(x.size, dtype=complex)
    # J_b: the largest order of base b's rows, and 1 for a base no row uses
    lengths = np.ones(len(bases), dtype=int)
    np.maximum.at(lengths, at, orders)
    # b ** np.arange(J_b) for every base, laid end to end, in one elementwise call
    starts = np.cumsum(lengths) - lengths
    flat = np.power(np.repeat(np.array(bases, dtype=complex), lengths),
                    np.arange(lengths.sum()) - np.repeat(starts, lengths))
    # a table's column j holds b^min(j, J_b - 1), so that past a row's order
    # it may hold anything.  When the table of every base fits one block it
    # is built whole, and a block takes whole rows of it; else a block
    # gathers its own entries
    cap = _PASS_BYTES // 16
    cols = np.arange(max(3, int(lengths.max())))
    padded = None
    if len(bases) * cols.size <= cap:
        padded = flat[starts[:, None] + np.minimum(cols, lengths[:, None] - 1)]
    by_order = np.argsort(orders, kind="stable")
    lo = 0
    while lo < x.size:
        # the longest run of rows from lo whose table fits: rows x the last
        # one's width, which grows along the run, so the run is no longer
        # than cap over the first one's width
        run = by_order[lo : lo + max(1, cap // max(3, orders[by_order[lo]]))]
        widths = np.maximum(orders[run], 3)
        rows = run[: max(1, np.searchsorted(np.arange(1, run.size + 1) * widths, cap, "right"))]
        width, b = widths[rows.size - 1], at[rows]
        table = (padded[b, :width] if padded is not None
                 else flat[starts[b, None] + np.minimum(cols[:width], lengths[b, None] - 1)])
        np.multiply(x[rows, None], table, out=table)
        np.subtract(1.0, table, out=table)
        np.multiply.accumulate(table, axis=1, out=table)
        out[rows] = table[np.arange(rows.size), orders[rows] - 1]
        # dropped before the next block's table is built
        del table
        lo += rows.size
    return out.reshape(shape)


def qpochhammer_inf(z, base):
    """Infinite q-Pochhammer symbol (z; base)_inf.

    The relative truncation error is below ``TRUNCATION_TOL`` with the
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
    scale = float(np.abs(z_arr).max()) if z_arr.size else 1.0
    out = _qpoch_rows(z_arr, [base], 0, _qpoch_order(abs(base), scale))
    return out if z_arr.ndim else complex(out)


def theta(z, p):
    """Short Jacobi theta function theta(z; p) = (z; p)_inf (p/z; p)_inf.

    Zeros sit exactly on z = p^j, j in Z.  Raises :class:`DomainError` on
    z = 0 or |p| >= 1.
    """
    p = complex(p)
    if abs(p) >= 1.0:
        raise DomainError(f"theta nome must satisfy |p| < 1, got |p|={abs(p):g}")
    z_arr = np.asarray(z, dtype=complex)
    if not z_arr.all():
        raise DomainError("theta(z; p) requires z != 0")
    if p == 0.0:
        out = 1.0 - z_arr
        return out if z_arr.ndim else complex(out)
    # both products (z; p)_J and (p/z; p)_J from one call on the stacked
    # points, at the one order J that serves every point, multiplied in z's
    # shape (at 0-d, as two numpy scalars)
    both = _qpoch_rows(np.array((z_arr, p / z_arr)), [p], 0, theta_truncation_order(z_arr, p))
    out = both[0] * both[1]
    return out if z_arr.ndim else complex(out)


def theta_truncation_order(z, p) -> int:
    """The order J of the products in one theta call at the nonzero points z:
    one order serves them all, from the largest of |z| and |p/z| over them."""
    z = np.abs(np.asarray(z, dtype=complex))
    return _qpoch_order(abs(p), float(np.maximum(z, abs(p) / z).max()))


def _theta_pass(draws) -> list:
    """theta(z; p) and theta(z; q) for each (z, nome) of ``draws``, nonzero z
    and nomes, from one :func:`_qpoch_rows` pass that also forms the
    products (p; p)_inf and (q; q)_inf a nome has not cached yet, and caches
    them.  One entry per draw: its two thetas, or the
    :class:`TruncationLimitError` of the first of (p; p)_inf, theta(z; p),
    theta(z; q) and (q; q)_inf whose order fails.

    Every value has the bits of the scalar call, :func:`theta` or
    :func:`qpochhammer_inf`: each row keeps the order and the factors the
    scalar call takes, and each theta is the Python complex product of its
    two halves, as :func:`theta` multiplies two numpy scalars (numpy's
    product of complex arrays rounds apart)."""
    z = np.array([entry[0] for entry in draws], dtype=complex)
    nomes = [entry[1] for entry in draws]
    p, q = [nome.p for nome in nomes], [nome.q for nome in nomes]
    mod_p, mod_q = [abs(b) for b in p], [abs(b) for b in q]
    # b / z, and theta_truncation_order's scales max(|z|, |b| / |z|), as
    # numpy forms them on one point
    p_z, q_z = (np.array(p) / z).tolist(), (np.array(q) / z).tolist()
    az = np.abs(z)
    scale_p, scale_q = (np.maximum(az, np.array(mods) / az).tolist() for mods in (mod_p, mod_q))
    zs = z.tolist()
    bases: dict = {}
    xs, at, orders, out = [], [], [], []
    for i, nome in enumerate(nomes):
        pp, qq = nome._pp_inf is None, nome._qq_inf is None
        try:
            # in the order a draw reads them; (b; b)_inf takes the scale |b| < 1
            n_pp = _qpoch_order(mod_p[i], mod_p[i]) if pp else 0
            n_p, n_q = _qpoch_order(mod_p[i], scale_p[i]), _qpoch_order(mod_q[i], scale_q[i])
            n_qq = _qpoch_order(mod_q[i], mod_q[i]) if qq else 0
        except TruncationLimitError as exc:
            out.append(exc.with_traceback(None))
            continue
        out.append((len(xs), pp, qq))
        at_p, at_q = _base_key(bases, p[i]), _base_key(bases, q[i])
        xs += [zs[i], p_z[i], zs[i], q_z[i]]
        at += [at_p, at_p, at_q, at_q]
        orders += [n_p, n_p, n_q, n_q]
        if pp:
            xs.append(p[i])
            at.append(at_p)
            orders.append(n_pp)
        if qq:
            xs.append(q[i])
            at.append(at_q)
            orders.append(n_qq)
    if not xs:
        return out
    values = _qpoch_rows(np.array(xs), [key[0] for key in bases], np.array(at), np.array(orders)).tolist()
    for i, entry in enumerate(out):
        if isinstance(entry, Exception):
            continue
        first, pp, qq = entry
        out[i] = (values[first] * values[first + 1], values[first + 2] * values[first + 3])
        if pp:
            object.__setattr__(nomes[i], "_pp_inf", values[first + 4])
        if qq:
            object.__setattr__(nomes[i], "_qq_inf", values[first + 4 + pp])
    return out


def _base_key(bases: dict, b: complex) -> int:
    """The index of base b in ``bases``, added if new; keyed with the signs
    of b's parts, which a power's zeros may carry."""
    return bases.setdefault((b, math.copysign(1.0, b.real), math.copysign(1.0, b.imag)), len(bases))


def _nome_products(nomes) -> None:
    """Form (p; p)_inf and (q; q)_inf for each of ``nomes`` that has not
    cached them, in one :func:`_qpoch_rows` pass, and cache them.  Each row
    keeps the order and the factors of the scalar :func:`qpochhammer_inf`,
    whose bits its value has.  A product whose order fails stays uncached,
    so that its first read raises."""
    bases: dict = {}
    xs, at, orders, slots = [], [], [], []
    for nome in {id(nome): nome for nome in nomes}.values():
        for name, b in (("_pp_inf", nome.p), ("_qq_inf", nome.q)):
            if getattr(nome, name) is None:
                try:
                    orders.append(_qpoch_order(abs(b), abs(b)))
                except TruncationLimitError:
                    continue
                xs.append(b)
                at.append(_base_key(bases, b))
                slots.append((nome, name))
    if xs:
        values = _qpoch_rows(np.array(xs), [key[0] for key in bases], np.array(at), np.array(orders))
        for (nome, name), value in zip(slots, values.tolist()):
            object.__setattr__(nome, name, value)


@dataclass(frozen=True)
class NomePair:
    """The two base parameters (p, q) with cached derived constants
    (p; p)_inf, (q; q)_inf and kappa = (p;p)_inf (q;q)_inf / (4 pi i).

    Each product is computed on the first read of ``pp_inf``, ``qq_inf`` or
    ``kappa``, unless a chunk pass has cached it with the same bits
    (:func:`_theta_pass`, :func:`_nome_products`): the discrete and
    residue-sum checks never read them.  Frozen
    and compared on (p, q); safe to share across threads, since every lazy
    write (a product, or the series coefficients, which only ever grow)
    stores the same bits whichever thread makes it.
    """

    p: complex
    q: complex
    _pp_inf: complex | None = field(default=None, init=False, repr=False, compare=False)
    _qq_inf: complex | None = field(default=None, init=False, repr=False, compare=False)
    _series_coeffs: np.ndarray = field(init=False, repr=False, compare=False)
    _theta_coeffs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p, q = complex(self.p), complex(self.q)
        if abs(p) >= 1.0 or abs(q) >= 1.0:
            raise DomainError(f"nomes must satisfy |p|, |q| < 1, got |p|={abs(p):g}, |q|={abs(q):g}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_series_coeffs", np.empty(0, dtype=complex))
        object.__setattr__(self, "_theta_coeffs", {})

    @property
    def pp_inf(self) -> complex:
        """(p; p)_inf."""
        if self._pp_inf is None:
            object.__setattr__(self, "_pp_inf", qpochhammer_inf(self.p, self.p))
        return self._pp_inf

    @property
    def qq_inf(self) -> complex:
        """(q; q)_inf."""
        if self._qq_inf is None:
            object.__setattr__(self, "_qq_inf", qpochhammer_inf(self.q, self.q))
        return self._qq_inf

    @property
    def kappa(self) -> complex:
        """(p;p)_inf (q;q)_inf / (4 pi i), the prefactor of the integral transform."""
        return self.pp_inf * self.qq_inf / (4j * math.pi)

    def swapped(self) -> "NomePair":
        """The pair with p and q exchanged (for base-symmetry checks)."""
        return NomePair(self.q, self.p)

    def series_coefficients(self, order: int) -> np.ndarray:
        """The gamma series coefficients 1 / (m (1 - p^m)(1 - q^m)), m = 1..order."""
        c = self._series_coeffs
        if c.size < order:
            m = np.arange(1, order + 1)
            c = 1.0 / (m * (1.0 - self.p**m) * (1.0 - self.q**m))
            object.__setattr__(self, "_series_coeffs", c)
        return c[:order]

    def theta_coefficients(self, v: complex, order: int) -> np.ndarray:
        """The theta series coefficients 1 / (m (1 - v^m)), m = 1..order, for
        v = p or v = q."""
        c = self._theta_coeffs.get(v)
        if c is None or c.size < order:
            m = np.arange(1, order + 1)
            c = 1.0 / (m * (1.0 - v**m))
            self._theta_coeffs[v] = c
        return c[:order]


def _shift_nomes(nome: NomePair) -> tuple[complex, complex]:
    """(u, v): the nome of larger modulus, which shifts z, and the other."""
    return (nome.p, nome.q) if abs(nome.p) >= abs(nome.q) else (nome.q, nome.p)


def _shift_constants(u: complex, v: complex) -> tuple[float, float, bool]:
    """log|u|, the annulus target log|w| of :func:`_annulus_shift`, and
    whether v != 0, for the shift nomes (u, v) of one pair, u != 0."""
    log_u = math.log(abs(u))
    return log_u, (0.5 * math.log(abs(u * v)) if v != 0 else log_u), v != 0


def _shift_exponents(log_az, log_u, target, has_v):
    """The shift exponents k and the log series radii log max(|w|, |pq/w|)
    of the points with moduli exp(log_az), from :func:`_shift_constants`:
    scalars for one nome pair, or one value per point for groups of points
    with their own pairs.  Every operation is elementwise, so a point's k and
    radius do not depend on the points beside it."""
    exact = (target - log_az) / log_u
    k = np.rint(exact)
    # log|w| - target = (k - exact) log|u|, and log|pq/w| - target is its negative
    miss = (k - exact) * log_u
    if has_v is True:
        return k, target + np.abs(miss)
    return k, target + np.where(has_v, np.abs(miss), miss)


def _annulus_shift(log_az: np.ndarray, nome: NomePair, n: int = 1) -> tuple[np.ndarray, float]:
    """Shift exponents k, with w = z u^k in the series annulus, and the series
    radius r = max |w|, |pq/w| over the points, for the moduli |z| = exp(log_az)
    of single points (n = 1) or of rings of n points.  Requires u != 0.

    k puts log|w| nearest to log sqrt|pq|, so r <= sqrt|v|.  With v = 0 the
    annulus is 0 < |w| < 1, and k puts log|w| nearest to log|u|, so
    r <= sqrt|u|.

    A ring of n > 1 points keeps k = 0 when its unshifted series fits one
    block of its fold: r0 = max(|z|, |pq/z|) < 1 and
    :func:`_series_order` at r0 is at most n - 1, that is
    2 r0^n / ((1 - r0)(1 - |p|)(1 - |q|)) < TRUNCATION_TOL, tested in log
    form.  Its terms then fill bins the fold would pad with zeros, and it
    needs no theta shift factor.  No single point fits.
    """
    u, v = _shift_nomes(nome)
    k, log_r = _shift_exponents(log_az, *_shift_constants(u, v))
    if n > 1:
        log_r0 = np.maximum(log_az, math.log(abs(u * v)) - log_az) if v != 0 else log_az
        inside = log_r0 < 0.0
        log_c = (math.log(2.0 / ((1.0 - abs(nome.p)) * (1.0 - abs(nome.q))))
                 - np.log1p(-np.exp(np.where(inside, log_r0, -np.inf))))
        fit = inside & (n * log_r0 + log_c < math.log(TRUNCATION_TOL))
        k[fit] = 0.0
        log_r[fit] = log_r0[fit]
    return k, math.exp(float(log_r.max()))


def _series_order(nome: NomePair, r: float) -> int:
    """Number M of series terms for series radius r < 1.

    Every coefficient has modulus <= 1/((1-|p|)(1-|q|)), so the tail after M
    terms is at most 2 r^{M+1} / ((1-r)(1-|p|)(1-|q|)); M is the smallest
    order >= 1 making that bound < TRUNCATION_TOL.
    """
    c = 2.0 / ((1.0 - r) * (1.0 - abs(nome.p)) * (1.0 - abs(nome.q)))
    return max(1, _truncation_order(c, r, "elliptic gamma series") - 1)


def _pole_guard(z: np.ndarray, az: np.ndarray, nome: NomePair) -> None:
    """Raise PoleProximityError iff some j, k >= 0 has
    |1 - z p^j q^k| < POLE_GUARD_FACTOR |z|, for the points z of an (n, R)
    array of R rings of n points and their moduli az; a flat call is R rings
    of one point.

    Since |1 - z L| >= ||z| |L| - 1|, a lattice point x = z L, L = v^j u^k,
    can meet that predicate only if ||x| - 1| < POLE_GUARD_FACTOR |z|, so the
    candidates are the x with |x| in [1 - band, 1 + band], where reach is
    POLE_GUARD_FACTOR max|z| and band = 2 reach + 1e-9.  The margin over the
    predicate's own bound is far above the rounding of the moduli, of z L
    and of the logs below, a few ulps of max(1, |x|), so no point the
    complex test would flag is dropped.  From band = 1/2 on the interval is
    [1 - reach, 1 + reach], widened to [1/2, 2], and from reach = 1 on the
    lattice points x -> 0 count as meeting the predicate, since
    |1 - x| -> 1.

    The candidates lie in one rectangle of (j, k) for every z of the call,
    usually an empty one.  The points of a ring share one modulus a (that of
    its first point, up to rounding), so the rectangle's values L are then
    filtered on reals, keeping those with |a |L| - 1| <= band for some ring.
    The complex test runs on the rings with a candidate left, against the
    whole rectangle.  Both run on blocks of rings whose (rings x rectangle)
    tables hold at most ``_PASS_BYTES`` bytes, so that a group of points
    spread over many orders of magnitude, whose rectangle is large, does
    not build one table for all of them; each point's verdict is its own.
    A rectangle of more than ``MAX_TERMS`` candidates, which nomes near the
    unit circle ask for, raises :class:`TruncationLimitError` before it is
    built.

    The predicate's reach grows with |z|, so huge points raise
    :class:`PoleProximityError` whatever the nomes: from |z| = 1e13 on,
    where reach >= 1, every point does (unless p = q = 0), and from about
    5e12 most do, since the nearest lattice point x then meets
    |1 - x| < reach at almost any phase (183 of 200 random nomes and phases
    at |z| = 5e12).
    """
    hi = float(az.max())
    reach = POLE_GUARD_FACTOR * hi
    band = 2.0 * reach + 1e-9
    if band < 0.5:
        low, high = 1.0 - band, 1.0 + band
    else:
        low, high = min(0.5, 1.0 - reach), max(2.0, 1.0 + reach)
    if hi < low:
        return
    u, v = _shift_nomes(nome)
    if u != 0:
        if low <= 0:
            raise PoleProximityError(
                f"|z|={hi:g} puts every small lattice point within guard distance"
            )
        neg_log_u, log_low, log_high = -math.log(abs(u)), math.log(low), math.log(high)
        span = math.log(hi) - log_low
        j_max, log_v = 0, 0.0
        if v != 0:
            log_v = math.log(abs(v))
            j_max = int(span // -log_v)
        # k_lo: the first k with |z v^j u^k| <= high for the smallest |z| and j = j_max
        k_lo = max(0, math.ceil((math.log(float(az.min())) + j_max * log_v - log_high) / neg_log_u))
        k_hi = int(span // neg_log_u)
        if k_lo > k_hi:
            return
        size = (j_max + 1) * (k_hi - k_lo + 1)
        if size > MAX_TERMS:
            raise TruncationLimitError(
                f"pole guard needs {size} lattice candidates (|u|={abs(u):g}, |v|={abs(v):g}), "
                f"cap is {MAX_TERMS}")
        lattice = u ** np.arange(k_lo, k_hi + 1)
        if j_max:
            lattice = np.multiply.outer(v ** np.arange(j_max + 1), lattice).ravel()
    else:
        lattice = np.ones(1, dtype=complex)
    bad = None
    mod_lattice = np.abs(lattice)
    step = max(1, _PASS_BYTES // (16 * lattice.size))
    for lo in range(0, z.shape[1], step):
        near = np.abs(np.multiply.outer(az[0, lo : lo + step], mod_lattice) - 1.0) <= band
        if not near.any():
            continue
        rings = lo + np.flatnonzero(near.any(axis=1))
        gap = np.abs(1.0 - z[:, rings, None] * lattice).min(axis=2)
        if bad is None:
            bad = np.zeros(z.shape, dtype=bool)
        bad[:, rings] = gap < POLE_GUARD_FACTOR * az[:, rings]
    if bad is not None and bad.any():
        raise PoleProximityError(
            f"z={z[bad][0]} is within guard distance of the pole lattice p^-j q^-k"
        )


def _one(outs: list):
    """The one entry of a pass over one item: its value, or its error, raised."""
    (out,) = outs
    if isinstance(out, Exception):
        raise out
    return out


def _gamma_vec(z: np.ndarray, nome: NomePair, where: str | None = None) -> np.ndarray:
    """Gamma(z; p, q) on a flat complex array: :func:`_gamma_groups` on one
    group, raising its error, with ``where`` also that of a value that is
    zero or not finite.  A group's values have the same bits whatever
    groups share its pass, so this call and a draw's group in a chunk pass
    agree bit for bit."""
    return _one(_gamma_groups([(z, nome)], where))


def _fold_rings(table: np.ndarray, n: int, turned: bool = False) -> np.ndarray:
    """sum_m table[m, i] e_j^m + table[m, R + i] e_j^{-m} at the points e_j of
    the n-ring (:func:`_ring`), as an (n, R) array, for a (rows, 2R) table
    whose row count is a multiple of n.  The rows fold mod n, since
    e_j^n = 1; bin r of the second half is the coefficient of
    e_j^{-r} = e_j^{n-r}, so it joins bin n - r of the first, and one unscaled
    inverse DFT sums the bins.  The blocks of n rows are added pairwise,
    halving their count each pass: a running sum would add each small term
    of a long series to a large partial sum and lose up to one ulp of it per
    block.

    On the ring turned by c = exp(i pi / n), (c e_j)^{b n + r} =
    (-1)^b c^r e_j^r: block b changes sign b times, bin r is multiplied by
    c^r from the root table, and the second half joins with the sign of
    c^{-r} = -c^{n - r}, r >= 1.  So the turn enters exactly, and the points
    carry no rounding of a turned scale s c that the untwisted ring's
    points do not carry too."""
    rings = table.shape[1] // 2
    blocks = table.reshape(-1, n, 2 * rings)
    if turned:
        blocks = blocks * np.where(np.arange(blocks.shape[0]) % 2, -1.0, 1.0)[:, None, None]
    while blocks.shape[0] > 1:
        half = blocks.shape[0] // 2
        paired = blocks[:half] + blocks[half : 2 * half]
        if blocks.shape[0] % 2:
            paired[-1] += blocks[-1]
        blocks = paired
    folded = blocks[0]
    second = folded[-np.arange(n), rings:]
    if turned:
        second[1:] *= -1.0
        bins = (folded[:, :rings] + second) * _roots(2 * n)[:n, None]
    else:
        bins = folded[:, :rings] + second
    return np.fft.ifft(bins, axis=0, norm="forward")


def _ipow(w: complex, e: int) -> complex:
    """w**e for an integer e >= 0 by repeated squaring, whose rounding grows
    with log e (Python's complex power squares only up to e = 100)."""
    return w**e if e <= 100 else _ipow(w**100, e // 100) * w ** (e % 100)


def _theta_series(groups, n: int, turned: bool = False):
    """theta(x_t e_j; v_t) on the rings x_t e_j, e_j the points of the n-ring
    (:func:`_ring`, turned or not), for groups ``(x, bases, nome)`` of scales
    x_t, each with its base v_t in {p, q} of the group's nome, as a
    log-series for :func:`_fold_rings`: (terms, const, factors, orders) with

        theta(x_t e_j; v_t) = factors[t, j] exp(const_t
                                  + sum_{m=1}^{M_g} terms[m - 1, t] e_j^m
                                                  + terms[m - 1, T + t] e_j^{-m})

    for the scales t of group g, M_g = orders[g]; rows of ``terms`` past a
    scale's M_g, up to the largest order of the call, continue its series
    past its truncation.

    Each scale first moves to y = x v^{-k}, |v|^{1/2} <= |y| <= |v|^{-1/2}, by
    theta(v z; v) = -z^{-1} theta(z; v), which leaves the monomial
    (-1)^k (y e)^{-k} v^{-k(k-1)/2}.  Then

        log theta(y e; v) = log(1 - y e)
                            - sum_{m>=1} v^m ((y e)^m + (y e)^{-m}) / (m (1 - v^m)),

    whose tail after M terms is at most 2 rho^{M+1} / ((1 - rho)(1 - |v|)),
    rho = |v| max(|y|, 1/|y|) <= |v|^{1/2}; M_g is the smallest order >= 1
    making that bound < TRUNCATION_TOL for every scale of group g, so a
    group's series does not depend on the groups beside it.  The factor
    1 - y e stays pointwise, so theta vanishes exactly where y e_j = 1
    in floating point; where |y| > 2 it is written -y e (1 - (y e)^{-1}), so
    that every pointwise factor has modulus <= 3, and none loses digits to a
    rounded 1/y near its zeros on |y e| = 1.  const holds the logs of
    the monomials' constants: their moduli from the logs of |y| and |v|,
    their phases from integer powers of unit numbers, since k(k-1)/2 arg v
    would lose the phase to rounding at large k.  Their powers of e_j are
    read from the root table into factors.  A base v = 0 gives
    theta(z; 0) = 1 - z.
    """
    ys, points, flips, consts, winds, vs, columns, orders = [], [], [], [], [], [], [], []
    for x, bases, nome in groups:
        bases = [complex(b) for b in bases]
        rho = 0.0
        for xt, vt in zip(np.asarray(x, dtype=complex).ravel().tolist(), bases):
            k, y, log_ay, log_c, phase = 0, xt, math.log(abs(xt)), 0.0, 1.0
            if vt != 0:
                log_v = math.log(abs(vt))
                k = round(log_ay / log_v)
                log_ay -= k * log_v
                rho = max(rho, abs(vt) * math.exp(abs(log_ay)))
            if k:
                y = xt / _ipow(vt, k) if k > 0 else xt * _ipow(vt, -k)
                tri = k * (k - 1) // 2
                unit_y = y / abs(y)
                log_c = -k * log_ay - tri * log_v
                phase = (_ipow(-unit_y.conjugate(), k) if k > 0 else _ipow(-unit_y, -k)) * _ipow(
                    (vt / abs(vt)).conjugate(), tri)
            flip = abs(y) > 2.0
            if flip:
                phase *= -y / abs(y)
                log_c += log_ay
            ys.append(y)
            points.append(1.0 / y if flip else y)
            flips.append(flip)
            winds.append(flip - k)
            consts.append(complex(log_c, math.atan2(phase.imag, phase.real)))
        order = 1
        if rho:
            top = max(abs(b) for b in bases)
            order = max(1, _truncation_order(2.0 / ((1.0 - rho) * (1.0 - top)), rho, "theta series") - 1)
        orders.append(order)
        columns.append((nome, bases))
        vs += bases
    # every column to the call's largest order, whose coefficients begin
    # with those of each smaller order
    top_order = max(orders)
    coeffs = np.array([nome.theta_coefficients(b, top_order) for nome, bases in columns
                       for b in bases] * 2).T
    y, v_col = np.array(ys, dtype=complex), np.array(vs, dtype=complex)
    first = np.concatenate([v_col * y, v_col / y])
    # a running product: the rounding of power m grows like m, and the term
    # it multiplies is below rho^m / (m (1 - |v|))
    terms = -coeffs * np.cumprod(np.repeat(first[None], top_order, axis=0), axis=0)
    # e_j^{-1} is read as conj(e_j): the points of a ring are s e_j, and
    # near a zero of theta the factor amplifies any other rounding of them
    roots = _ring(n, turned)
    if any(flips):
        roots = np.where(np.array(flips)[:, None], roots.conj(), roots)
    factors = 1.0 - np.array(points)[:, None] * roots
    if any(winds):
        # e_j^w from the root table; the turned points are the odd 2n-th roots
        w = np.array(winds)[:, None]
        factors *= (_roots(2 * n)[(w * (2 * np.arange(n) + 1)) % (2 * n)] if turned
                    else _roots(n)[(w * np.arange(n)) % n])
    return terms, np.array(consts), factors, orders


def _theta_ring_groups(groups, n: int, turned: bool = False) -> np.ndarray:
    """theta(s_i e_j; v_i) on groups ``(scales, bases, nome)``, for the scales
    s_i of a group, each with its base v_i in {p, q} of the group's nome, on
    the n-ring e_j (:func:`_ring`, turned or not): one (sum R_g, n) array of
    the groups' rows in order, each with the bits of a call on its group
    alone.  Group g's series (:func:`_theta_series`) fills rows m <= M_g of a
    table zero-padded to a multiple of n, whose fold (:func:`_fold_rings`)
    adds its blocks of n rows pairwise, with bits that depend on their
    count; so each run of groups of one table height shares a fold."""
    terms, const, factors, orders = _theta_series(groups, n, turned)
    # the halves m > 0 and m < 0 of each column side by side
    terms = terms.reshape(terms.shape[0], 2, -1)
    first = [0, *itertools.accumulate(np.size(group[0]) for group in groups)]
    out = np.empty(factors.shape, dtype=complex)
    for height, run in itertools.groupby(range(len(groups)),
                                         key=lambda g: -(-(orders[g] + 1) // n) * n):
        run = list(run)
        lo, hi = first[run[0]], first[run[-1] + 1]
        rows = max(orders[g] for g in run)
        table = np.zeros((height, 2, hi - lo), dtype=complex)
        table[1 : rows + 1] = terms[:rows, :, lo:hi]
        for g in run:
            # each group to its own order: its rows m > M_g hold zeros
            table[orders[g] + 1 : rows + 1, :, first[g] - lo : first[g + 1] - lo] = 0.0
        log = _fold_rings(table.reshape(height, -1), n, turned).T
        del table
        log += const[lo:hi, None]
        out[lo:hi] = factors[lo:hi] * np.exp(log)
    return out


def _gamma_rings(scales: np.ndarray, n: int, nome: NomePair, turned: bool = False,
                 fit: int | None = None) -> np.ndarray:
    """Gamma(s_i e_j; p, q) for the scales s_i = scales[i] and the points e_j
    of the n-ring (:func:`_ring`), n > 1, as an (R, n) array.  Single points
    take the pointwise path of the same engine, :func:`_gamma_groups`.

    With ``turned`` (n > 1) the ring is turned by c = exp(i pi / n): its
    points s_i c e_j are s_i times the odd nodes of the 2n-grid, which a
    nested quadrature adds at each doubling.  The turn enters the fold
    exactly (:func:`_fold_rings`), so the new values share the rounding of
    those at the even nodes.  A rounded scale s_i c would move the odd nodes
    against the even ones by its own rounding, and the trapezoid sum picks
    that alternating error up coherently: on the Cauchy check's inner circle
    it raised the median residual about 1.5-fold.

    Every point of ring i has modulus |s_i|, so all of them share the shift
    k_i, and w = sigma_i e_j with sigma_i = s_i u^{k_i}.  The shift rule
    (:func:`_annulus_shift`) sees the ring size ``fit``, n by default: a ring
    whose unshifted series fits one block of a fit-point fold keeps k_i = 0.
    A nested quadrature passes its first grid's size as ``fit`` at every
    doubling, for the reason above: each scale then keeps one shift on
    every turned ring.
    One table holds the powers sigma_i^m and (pq/sigma_i)^m, m = 1..M, with
    one order M at the largest series radius of the call bounding every
    ring's tail.  The theta
    shift factors of ring i are theta(x_i u^j e; v), j < |k_i|, with x = s for
    k > 0 and x = sigma for k < 0.  The series folds mod n:

        sum_{m=1}^M c_m (sigma_i e_j)^m = sum_{r<n} a_r e_j^r,
        a_r = sum_{m = r (mod n)} c_m sigma_i^m,

    an unscaled inverse DFT of a; the (pq/w)^m half is the forward DFT of b,
    folded likewise from c_m (pq/sigma_i)^m.  The log-series of every shift
    factor (:func:`_theta_series`) is added to ring i's rows of the same table
    before the fold, so one DFT pair sums gamma and its shift thetas; only
    their factors (1 - y e_j) and roots e_j^k are taken pointwise.  A ring
    costs O(M + n log n) unshifted, where M < n, and O(M + n log n + |k| n)
    shifted; n single points on the pointwise path cost O(M n).
    """
    scales = np.asarray(scales, dtype=complex)
    # values are laid out (n, R), ring points first, so that per-ring vectors
    # broadcast against them
    z = scales * _ring(n, turned)[:, None]
    az = np.abs(z)
    if not az.all():
        raise DomainError("elliptic gamma is undefined at z = 0")
    _pole_guard(z, az, nome)
    u, v = _shift_nomes(nome)
    if u == 0:
        return (1.0 / (1.0 - z)).T
    # the moduli of the scales themselves, which a turned ring shares with
    # the untwisted one, so that both take one shift; an untwisted ring's
    # first point is its scale
    k, r = _annulus_shift(np.log(np.abs(scales) if turned else az[0]), nome,
                          n if fit is None else fit)
    sigma = scales * u**k
    coeffs = nome.series_coefficients(_series_order(nome, r))
    rings, m_top = scales.size, coeffs.size
    # rows m = 1..M hold sigma^m and (pq/sigma)^m; each pass doubles the rows filled
    powers = np.empty((m_top, 2 * rings), dtype=complex)
    powers[0] = np.concatenate([sigma, nome.p * nome.q / sigma])
    _fill_powers(powers)
    shifts = np.abs(k)
    n_shift = int(shifts.max())
    _shift_table_guard(rings * n, n_shift, nome)
    rows = 0
    if n_shift:
        # the shift factors' scales x u^j, j < |k|, on the masked (R, max|k|)
        # grid: each ring's are a contiguous block
        steps = np.arange(n_shift)
        used = steps < shifts[:, None]
        x = (np.where(k > 0, scales, sigma)[:, None] * u**steps)[used]
        th_terms, th_const, th_factors, _orders = _theta_series([(x, [v] * x.size, nome)], n,
                                                                turned)
        rows = th_terms.shape[0]
    # c_m sigma^m and -c_m (pq/sigma)^m in row m of a zero-padded table
    table = np.zeros((-(-(max(m_top, rows) + 1) // n) * n, 2 * rings), dtype=complex)
    np.multiply(coeffs[:, None], powers[:, :rings], out=table[1 : m_top + 1, :rings])
    np.multiply(-coeffs[:, None], powers[:, rings:], out=table[1 : m_top + 1, rings:])
    if not n_shift:
        return np.exp(_fold_rings(table, n, turned)).T
    # ring i's shift factors enter its rows and its constant with the sign
    # -sign(k_i), through a scatter matrix from the factors' columns to the
    # rings'; their pointwise factors, each of modulus <= 3, multiply the
    # ring for k_i < 0 and divide it for k_i > 0
    ring_of = np.nonzero(used)[0]
    sign = -np.sign(k)[ring_of]
    scatter = np.zeros((2 * x.size, 2 * rings))
    cols = np.arange(x.size)
    scatter[cols, ring_of] = sign
    scatter[x.size + cols, rings + ring_of] = sign
    table[1 : rows + 1] += th_terms @ scatter
    log_gamma = _fold_rings(table, n, turned).T
    log_gamma += (th_const @ scatter[: x.size, :rings])[:, None]
    with np.errstate(over="ignore"):
        out = np.exp(log_gamma)
    th_factors[sign < 0] = 1.0 / th_factors[sign < 0]
    shifted = np.flatnonzero(k)
    first = np.flatnonzero(np.r_[True, ring_of[1:] != ring_of[:-1]])
    with np.errstate(over="ignore", invalid="ignore"):
        factors = np.multiply.reduceat(th_factors, first)
    over = np.isinf(out)
    if not over.any():
        out[shifted] *= factors
        return out
    # exp overflowed, though the pointwise factors may bring the value back
    # into range: those points alone are taken in log form, as the n = 1 case
    # takes every point, and they overflow only where it does
    with np.errstate(divide="ignore", invalid="ignore"):
        out[shifted] *= factors
        log_gamma[shifted] += np.log(factors)
    out[over] = np.exp(log_gamma[over])
    return out


def _shift_table_guard(points: int, width: int, nome: NomePair) -> None:
    """Raise :class:`TruncationLimitError` before a (points x max|k|) table of
    theta shift factors of more than ``MAX_TERMS`` entries is built: max|k|
    grows as 1 / |log|u||, so nomes near the unit circle ask for it."""
    if points * width > MAX_TERMS:
        raise TruncationLimitError(
            f"theta shift factors need a {points} x {width} table "
            f"(|p|={abs(nome.p):g}, |q|={abs(nome.q):g}), cap is {MAX_TERMS} entries")


def _fill_powers(powers: np.ndarray) -> None:
    """Fill rows 1.. of an (M, W) table of powers from its row 0: row m holds
    the (m + 1)-th powers.  Each pass doubles the rows filled, row f + i
    from rows i and f - 1, so a row's bits do not depend on how many rows
    the table has."""
    m_top = powers.shape[0]
    filled = 1
    while filled < m_top:
        step = min(filled, m_top - filled)
        np.multiply(powers[:step], powers[filled - 1], out=powers[filled : filled + step])
        filled += step


def _nonzero_finite_error(z: np.ndarray, values: np.ndarray, where: str):
    """The :class:`DegenerateParameterError` naming the first of the points
    z whose gamma value is zero or not finite in ``where``, else None."""
    bad = np.flatnonzero(~np.isfinite(values) | (values == 0))
    if not bad.size:
        return None
    i = bad[0]
    return DegenerateParameterError(
        f"Gamma({complex(z[i])}) = {complex(values[i])} is zero or not finite in {where}")


def _gamma_groups(groups, where: str | None = None) -> list:
    """Gamma(z; p, q) on groups of single points, each group a pair
    ``(z, nome)`` with its own nome pair: the one pointwise path, the n = 1
    case of the gamma engine.  Returns one entry per group, its values at
    the flattened z, or the library error the group raised:
    :class:`DomainError` at z = 0, the pole guard,
    :class:`TruncationLimitError`, and, with ``where``, the
    :class:`DegenerateParameterError` of a value that is zero or not
    finite.  One group's error never reaches another group.

    A group's values have the bits of a pass on that group alone, so a
    campaign may sample its draws a chunk at a time and evaluate all their
    points in one pass.  What stays per group, and why:

    - the pole guard, the series order M and the shift-theta order J, each
      taken over the group's own points;
    - the series, one gemv of the group's coefficients on its (M, 2R) block
      of the powers table, a row-major view as a pass on the group alone
      lays it out: a gemv's bits depend on the shape and order of its
      operand;
    - the sum of each point's shift logs, over the group's own width max|k|,
      since a pairwise sum's bits depend on its length;
    - the products of its shift thetas, to its own order J: the groups of
      one order are multiplied together;
    - the scalars p q, log|u| and the annulus target, formed from Python
      complex numbers (numpy's product of complex arrays rounds apart).

    Elementwise work runs across the groups: moduli, shifts, sigma, the
    powers doubling (:func:`_fill_powers`), the shift-theta factors, log and
    exp.  The powers tables and the theta products are built in blocks of at
    most ``_PASS_BYTES`` bytes, and so are the shift-theta grids, in blocks
    of groups (:func:`_shift_log_sums`), and the pole guard's tables, in
    blocks of points.  An error kept as a group's value carries no
    traceback, which would hold the pass's arrays until the garbage
    collector broke its cycle.
    """
    out = [None] * len(groups)
    live = []  # (index, z, |z|, nome, u, v) of the groups past the guard
    # with ``where``, a value that is zero or not finite is the group's
    # error, not a warning; without, errstate's None leaves numpy's state
    quiet = None if where is None else "ignore"
    with np.errstate(over=quiet, invalid=quiet):
        for g, (z, nome) in enumerate(groups):
            z = np.asarray(z, dtype=complex).ravel()
            az = np.abs(z)
            try:
                if not az.all():
                    raise DomainError("elliptic gamma is undefined at z = 0")
                _pole_guard(z[None], az[None], nome)
            except EllipticBaileyError as exc:
                # kept as a value, without the frames of the pass its traceback holds
                out[g] = exc.with_traceback(None)
                continue
            u, v = _shift_nomes(nome)
            if u == 0:
                out[g] = 1.0 / (1.0 - z)
            else:
                live.append((g, z, az, nome, u, v))
        if live:
            _gamma_series(live, out)
    if where is None:
        return out
    done = [g for g, values in enumerate(out) if isinstance(values, np.ndarray)]
    if done:
        values = np.concatenate([out[g] for g in done])
        if not (np.isfinite(values).all() and values.all()):
            for g in done:
                out[g] = _nonzero_finite_error(np.ravel(groups[g][0]), out[g], where) or out[g]
    return out


def _gamma_series(live: list, out: list) -> None:
    """The shifted series of :func:`_gamma_groups` for the groups ``live``,
    (index, z, |z|, nome, u, v) with u != 0, writing each group's values or
    error into ``out``; one group takes scalars where several take one value
    per point."""
    one = len(live) == 1
    sizes = [entry[1].size for entry in live]
    bounds = [0, *itertools.accumulate(sizes)]
    starts = bounds[:-1]
    if one:
        _g, z, az, _nome, u, v = live[0]
        k, log_r = _shift_exponents(np.log(az), *_shift_constants(u, v))
        radii = [log_r.max()]
    else:
        # the per-point constants live only as long as their call: a pass's
        # memory peaks later, in its shift sums
        z = np.concatenate([entry[1] for entry in live])
        consts = [_shift_constants(entry[4], entry[5]) for entry in live]
        has_v = all(c[2] for c in consts) or np.repeat([c[2] for c in consts], sizes)
        k, log_r = _shift_exponents(np.log(np.concatenate([entry[2] for entry in live])),
                                    *(np.repeat([c[i] for c in consts], sizes) for i in (0, 1)),
                                    has_v)
        radii = np.maximum.reduceat(log_r, starts)
        del log_r, has_v
        u = np.repeat(np.array([entry[4] for entry in live]), sizes)
    sigma = z * u**k
    del u
    shifts = np.abs(k)
    widths = [int(shifts.max())] if one else np.maximum.reduceat(shifts, starts).astype(int).tolist()
    coeffs = []
    for i, ((g, _z, _az, nome, *_rest), log_rad, lo, hi) in enumerate(zip(live, radii, starts, bounds[1:])):
        try:
            c = nome.series_coefficients(_series_order(nome, math.exp(float(log_rad))))
            _shift_table_guard(hi - lo, widths[i], nome)
            coeffs.append(c)
        except EllipticBaileyError as exc:
            out[g] = exc.with_traceback(None)
            coeffs.append(None)
            # it takes no shift factors
            shifts[lo:hi] = 0.0
            widths[i] = 0
    # the shift-log sums, times sign(k); zero at the points of a group
    # without shifts, which leaves its values as they are
    shift = _shift_log_sums(live, z, sigma, k, shifts, widths, bounds, out) if max(widths) else None
    # each group's log values, from its block of the powers table (its
    # groups x their largest order x twice their largest size, at most
    # _PASS_BYTES); then the shifts and one exp over all the groups
    logs = []
    orders = [0 if c is None else c.size for c in coeffs]
    ready = [i for i, entry in enumerate(live) if out[entry[0]] is None]
    for cut in _blocks([1] * len(ready), [orders[i] for i in ready], [2 * sizes[i] for i in ready]):
        block = [ready[j] for j in cut]
        # group j of the block holds columns j W .. j W + 2R - 1: sigma, then pq/sigma
        width = 2 * max([sizes[i] for i in block])
        table = np.empty((max([orders[i] for i in block]), len(block) * width), dtype=complex)
        if len(block) > 1 and min([sizes[i] for i in block]) * 2 < width:
            table[0] = 0.0
        for j, i in enumerate(block):
            lo, hi, col = starts[i], bounds[i + 1], j * width
            table[0, col : col + hi - lo] = sigma[lo:hi]
            nome = live[i][3]
            np.divide(nome.p * nome.q, sigma[lo:hi], out=table[0, col + hi - lo : col + 2 * (hi - lo)])
        _fill_powers(table)
        for j, i in enumerate(block):
            rings, c = sizes[i], coeffs[i]
            series = c @ table[: c.size, j * width : j * width + 2 * rings]
            logs.append(series[:rings] - series[rings:])
    if not logs:
        return
    log_gamma = logs[0] if len(logs) == 1 else np.concatenate(logs)
    if shift is not None:
        # summed as logs, since their product over- or underflows where
        # Gamma does; the points of a group that failed take none
        if len(ready) < len(live):
            shift = np.concatenate([shift[starts[i] : bounds[i + 1]] for i in ready])
        log_gamma -= shift
    values = np.exp(log_gamma)
    for i in ready:
        out[live[i][0]], values = values[: sizes[i]], values[sizes[i] :]


def _shift_log_sums(live, z, sigma, k, shifts, widths, bounds, out) -> np.ndarray:
    """sign(k) times the sum over j < |k| of log theta(x u^j; v) at every
    point, x = z for k > 0 and x = sigma for k < 0, for the groups of
    ``live`` (as :func:`_gamma_series` takes them), each point's sum taken
    over its group's own width max|k| and 0 at a point without shifts.  A
    group whose theta order fails gets its error in ``out`` and takes no
    factor.

    The groups are taken in blocks of consecutive groups
    (:func:`_blocks`) whose (points x width) grids hold at most
    ``_PASS_BYTES`` bytes, the width being the block's largest, so that one
    wide group does not size the grids of every point of a pass.  A group's
    sums do not depend on the block it is in (:func:`_shift_log_block`)."""
    if z.size * max(widths) * 16 <= _PASS_BYTES:
        # the pass is one block
        sums = _shift_log_block(live, z, sigma, k, shifts, widths, bounds, out)
    else:
        sums = np.zeros(z.size, dtype=complex)
        for block in _blocks(np.diff(bounds).tolist(), widths, [1] * len(widths)):
            lo, hi = bounds[block[0]], bounds[block[-1] + 1]
            if max(widths[i] for i in block):
                sums[lo:hi] = _shift_log_block(
                    [live[i] for i in block], z[lo:hi], sigma[lo:hi], k[lo:hi], shifts[lo:hi],
                    [widths[i] for i in block], [bounds[i] - lo for i in (*block, block[-1] + 1)],
                    out)
    # an exact zero of a shift factor left a sum of -inf, which its sign
    # multiplies without a warning
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sign(k) * sums


def _shift_log_block(live, z, sigma, k, shifts, widths, bounds, out) -> np.ndarray:
    """The sums of :func:`_shift_log_sums` for one block of consecutive
    groups, before their sign, over the block's points alone; ``bounds``
    counts from the block's first point.

    Each group's products theta(y; v) = (y; v)_J (v/y; v)_J run to its own
    order J, taken over its own factors as :func:`theta` takes it: one
    :func:`_qpoch_rows` call per half, with one base and one order per row."""
    one = len(live) == 1
    steps = np.arange(max(widths))
    used = steps < shifts[:, None]
    vs = [entry[5] for entry in live]
    if one:
        x = (np.where(k > 0, z, sigma)[:, None] * live[0][4] ** steps)[used]
    else:
        at_point = np.repeat(np.arange(len(live)), [entry[1].size for entry in live])
        x = (np.where(k > 0, z, sigma)[:, None]
             * (np.array([entry[4] for entry in live])[:, None] ** steps)[at_point])[used]
        at_x = at_point[np.nonzero(used)[0]]
    # theta_truncation_order over each group's factors, with |v| from Python;
    # the tables of the block's (points x width) grid are dropped once read,
    # and each factor's v is gathered where it is read, so that the products
    # below run beside the mask ``used`` and the factors alone
    ax = np.abs(x)
    if one:
        tops = [np.maximum(ax, abs(vs[0]) / ax).max()]
    else:
        grid = np.zeros(used.shape)
        grid[used] = np.maximum(ax, np.array([abs(b) for b in vs])[at_x] / ax)
        tops = np.maximum.reduceat(grid.max(axis=1), bounds[:-1])
        del grid
    del ax
    orders = [0] * len(live)
    for i, (g, *_rest, b) in enumerate(live):
        if widths[i]:
            try:
                orders[i] = _qpoch_order(abs(b), float(tops[i]))
            except EllipticBaileyError as exc:
                out[g] = exc.with_traceback(None)
    theta = None
    # an exact zero of a shift factor is a zero of Gamma: its log is -inf,
    # and the value exp(-inf) = 0, without a warning where the log is taken
    with np.errstate(divide="ignore", invalid="ignore"):
        if max(orders):
            if one:
                at_x, by_order = 0, orders[0]
            else:
                by_order = np.array(orders)[at_x]
                if not by_order.all():
                    # the factors of a group whose theta order failed
                    kept = by_order > 0
                    used[used] = kept
                    x, at_x, by_order = x[kept], at_x[kept], by_order[kept]
            # a new array for the product: numpy's in-place complex multiply
            # rounds apart from it
            theta = _qpoch_rows(x, vs, at_x, by_order) * _qpoch_rows(
                (vs[0] if one else np.array(vs)[at_x]) / x, vs, at_x, by_order)
            if 0 in vs:
                theta = np.where((vs[0] if one else np.array(vs)[at_x]) == 0, 1.0 - x, theta)
        log_theta = np.zeros(used.shape, dtype=complex)
        if theta is not None:
            log_theta[used] = np.log(theta)
        # each point's sum over its group's width, a pairwise sum whose bits
        # depend on its length: the rows of one width are summed together
        if one:
            return log_theta.sum(axis=1)
        sums = np.zeros(z.size, dtype=complex)
        width_at = np.repeat([w if o else 0 for w, o in zip(widths, orders)], np.diff(bounds))
        for width in set(widths) - {0}:
            rows = np.flatnonzero(width_at == width)
            if rows.size:
                sums[rows] = log_theta[rows, :width].sum(axis=1)
        return sums


def _blocks(rows: list, a: list, b: list) -> list:
    """The items 0, 1, ... of ``rows``, ``a`` and ``b`` in order, cut into
    blocks whose tables, the block's rows in all x its largest a x its
    largest b complex entries, hold at most _PASS_BYTES bytes; a block
    holds at least one item."""
    blocks, block, total, wide, deep = [], [], 0, 0, 0
    for item in range(len(rows)):
        grown, widened, deepened = total + rows[item], max(wide, a[item]), max(deep, b[item])
        if block and grown * widened * deepened * 16 > _PASS_BYTES:
            blocks.append(block)
            block, grown, widened, deepened = [], rows[item], a[item], b[item]
        block.append(item)
        total, wide, deep = grown, widened, deepened
    if block:
        blocks.append(block)
    return blocks


def elliptic_gamma(z, nome: NomePair):
    """Elliptic gamma function Gamma(z; p, q).

    Sums the annulus log-series after a theta shift of z (see the module
    docstring); valid for every z off the pole lattice z = p^{-j} q^{-k},
    j, k >= 0.  Raises
    :class:`PoleProximityError` when a denominator factor is within the guard
    threshold of zero (the caller chose z too close to a pole), and so for
    any |z| above about 5e12, whatever the nomes, where the guard's reach
    1e-13 |z| is of order one (``_pole_guard``),
    :class:`DomainError` at z = 0, and, as ``build_M`` and ``build_D`` do
    for an overflowing entry, :class:`DegenerateParameterError` naming the
    first z whose value is not finite in double precision (near z = 0: at
    (p, q) = (0.2, 0.3), by z = 1e-10), without a numpy warning.  A value
    that underflows to 0 is returned, as Gamma has true zeros at
    z = p^{j+1} q^{k+1}, j, k >= 0.

    ``TRUNCATION_TOL`` bounds truncation only: the rounding of the theta
    shift factors adds to it, up to 1.9e-14 against a 40-digit product at
    q = 0.8 with points moved by up to 4 shifts of q from 0.3 <= |z| <= 1.5.
    """
    z_arr = np.asarray(z, dtype=complex)
    flat = z_arr.ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        out = _gamma_vec(flat, nome)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        i = bad[0]
        raise DegenerateParameterError(f"Gamma({complex(flat[i])}) = {complex(out[i])} is not finite")
    out = out.reshape(z_arr.shape)
    return out if z_arr.ndim else complex(out)


def _pochhammer_grid(bases, lengths, q) -> tuple[np.ndarray, np.ndarray]:
    """The points z q^j of theta-Pochhammer tables, one row per base point
    z, and the mask of their factors j < length.  ``bases`` is one table's
    base points, or a stack of tables (T, R); q is one q for every table,
    or one per table.  Each table's powers q^j are formed as
    ``q ** np.arange(width)`` forms them.  :func:`_guarded_pochhammer`
    evaluates the masked points."""
    bases = np.asarray(bases, dtype=complex)
    lengths = np.asarray(lengths)
    width = int(lengths.max())
    powers = np.asarray(q, dtype=complex)[..., None, None] ** np.arange(width)
    return bases[..., None] * powers, np.arange(width) < lengths[:, None]


def _guarded_pochhammer(bases, lengths, nome, guarded: int = 0, where: str = ""):
    """The one theta-Pochhammer path: factor tables and their sequences.

    ``nome`` is a NomePair, for one table of base points ``bases``, or a
    list of them, for a stack of tables (T, R), table i on ``nome[i]``;
    every table has the row lengths ``lengths``.  A table holds theta(z q^j;
    p), j < length, for each base point z, one row per base point (1 past a
    row's length), and its Pochhammer sequences [theta(z; p)_0, ...,
    theta(z; p)_length] are one cumulative product along the rows.  Every
    table's factors come from one :func:`_qpoch_rows` call on the halves
    (z; p)_J (p/z; p)_J, each table's rows on its own p and at its own
    order J, the order a :func:`theta` call on its factors takes
    (:func:`theta_truncation_order`); one table is a :func:`theta` call,
    the kernel's one-base mode.  Both modes give a row the same bits, so
    each table has the bits of a theta call on it alone, whatever tables
    share the call.

    A table fails, as theta fails on its factors, with :class:`DomainError`
    at a factor z = 0 and with :class:`TruncationLimitError` where its order
    passes ``MAX_TERMS``; and with :class:`DegenerateParameterError` where a
    factor in its first ``guarded`` rows is under ``THETA_GUARD``: a product
    of many small factors is fine, a single small one is not.  One table
    raises its error, else returns (factors, poch); a stack returns
    (factors, poch, errors), per table None or its error, a failed table's
    entries unspecified.
    """
    one = isinstance(nome, NomePair)
    nomes = [nome] if one else nome
    grid, used = _pochhammer_grid(np.asarray(bases, dtype=complex).reshape(len(nomes), -1),
                                  lengths, nome.q if one else [entry.q for entry in nomes])
    errors = [None] * len(nomes)
    if grid.size and len(nomes) == 1:
        factors = np.ones_like(grid)
        try:
            factors[0][used] = theta(grid[0][used], nomes[0].p)
        except (DomainError, TruncationLimitError) as exc:
            errors[0] = exc.with_traceback(None)
    else:
        flat, thetas, orders = [], [], []
        if grid.size:
            z = grid[:, used]
            az = np.abs(z)
            mod_p = [abs(entry.p) for entry in nomes]
            with np.errstate(divide="ignore"):
                # theta_truncation_order's scale per table; a table with z = 0 takes none
                scales = np.maximum(az, np.array(mod_p)[:, None] / az).max(axis=1).tolist()
            for i, entry in enumerate(nomes):
                if not z[i].all():
                    errors[i] = DomainError("theta(z; p) requires z != 0")
                elif entry.p == 0:
                    flat.append(i)
                else:
                    try:
                        orders.append(_qpoch_order(mod_p[i], scales[i]))
                    except TruncationLimitError as exc:
                        errors[i] = exc.with_traceback(None)
                    else:
                        thetas.append(i)
        if thetas:
            # (z; p)_J (p/z; p)_J, table i's rows on its own p at its own J;
            # the points and moduli are dropped before the products, and the
            # factor tables made after them, so that none is held where the
            # call's memory peaks
            p = [nomes[i].p for i in thetas]
            halves = np.empty((len(thetas), 2, z.shape[1]), dtype=complex)
            halves[:, 0] = z[thetas]
            del z, az
            np.divide(np.array(p)[:, None], halves[:, 0], out=halves[:, 1])
            at = np.repeat(np.arange(len(thetas)), halves[0].size).reshape(halves.shape)
            halves = _qpoch_rows(halves, p, at, np.array(orders)[at])
        factors = np.ones_like(grid)
        for i in flat:
            factors[i, used] = 1.0 - grid[i, used]
        if thetas:
            factors[np.array(thetas)[:, None], used] = halves[:, 0] * halves[:, 1]
    mods = np.abs(factors[:, :guarded])
    # a table's NaN factor hides its minimum, as np.min takes it, but no
    # other table's
    if mods.size and not (mods >= THETA_GUARD).all():
        for i in np.flatnonzero(mods.reshape(len(nomes), -1).min(axis=1) < THETA_GUARD):
            if errors[i] is None:
                at = np.unravel_index(np.argmin(mods[i]), mods[i].shape)
                errors[i] = DegenerateParameterError(
                    f"theta({complex(grid[i][at])}; p) = {mods[i][at]:.3e} in {where} is under the guard")
    poch = np.ones((*grid.shape[:2], grid.shape[2] + 1), dtype=complex)
    np.cumprod(factors, axis=2, out=poch[:, :, 1:])
    if one:
        if errors[0] is not None:
            raise errors[0]
        return factors[0], poch[0]
    return factors, poch, errors


def elliptic_pochhammer(z, n: int, nome: NomePair):
    """Elliptic Pochhammer symbol theta(z; p)_n with q-shifted factors.

    Returns prod_{j=0}^{n-1} theta(z q^j; p) for n > 0, the reciprocal product
    prod_{j=1}^{-n} theta(z q^{-j}; p)^{-1} for n < 0, and 1 for n = 0.
    Raises :class:`DegenerateParameterError` if a factor on the n < 0 branch
    vanishes within the guard threshold.
    """
    z = complex(z)
    if n >= 0:
        return complex(_guarded_pochhammer([z], [n], nome)[1][0, n])
    if nome.q == 0:
        raise DomainError("theta(z; p)_n with n < 0 requires q != 0")
    # theta(z)_n = 1 / theta(z q^n)_{-n}, whose factor i is theta(z q^{-j}), j = -n - i
    factors, poch = _guarded_pochhammer([z * nome.q**n], [-n], nome)
    small = np.abs(factors[0]) < THETA_GUARD
    if small.any():
        i = int(np.flatnonzero(small)[-1])
        raise DegenerateParameterError(
            f"theta(z q^-{-n - i}; p) = {factors[0, i]} is below the division guard"
        )
    return complex(1.0 / poch[0, -n])


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
    :func:`_quadratic_points`.  Where the product of the eight values is not
    finite, or underflows (to 0, or below the smallest normal double), though
    each of them may be neither, the ratio prod Gamma(s) / Gamma(z^2) is
    formed from a sum of logs instead, and the residual is |1 - ratio|."""
    lhs = complex(values[0])
    with np.errstate(all="ignore"):
        rhs = complex(values[1:].prod())
        if cmath.isfinite(rhs) and abs(rhs) >= sys.float_info.min:
            return abs(lhs - rhs) / abs(lhs)
        ratio = complex(np.exp(np.log(values[1:]).sum() - np.log(values[0])))
    return abs(1.0 - ratio)


def gamma_quadratic_check(z, nome: NomePair) -> float:
    """Relative residual of the quadratic transformation

        Gamma(z^2; p, q) = prod Gamma(s; p, q)  over the eight arguments
        s in {+-z, +-q^{1/2} z, +-p^{1/2} z, +-(pq)^{1/2} z}

    with principal square roots, from one gamma call.  Raises
    :class:`PoleProximityError` if any of the nine evaluation points sits on
    the pole lattice.
    """
    return _quadratic_residual(_gamma_vec(_quadratic_points(complex(z), nome), nome))
