"""Randomized verification campaigns.

A campaign draws admissible parameters for one identity family, runs the
check per draw, and collects :class:`VerificationReport` records.  An
identity's one record (``_IDENTITY``) holds its facts and its sampling
passes, and every identity is sampled the same way: a chunk of draws at a
time by one retry loop (:func:`_sample_draws`), each draw on its own
generator, and each draw's sampled values are handed to the identity's
runner.  The seed fully determines the draw sequence: per-draw generators
are spawned from pre-generated sub-seeds (:func:`_sub_seeds`), so reports
are bit-reproducible and independent of chunking and execution order.
Sampling and every chunk pass run in the calling thread; only the runner
calls may run on a thread pool, and the residue-reduction, star-triangle
and beta-integral runners only return the report their chunk pass made.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import repeat

import numpy as np

from . import bailey_algebra as ba
from . import contour as ct
from .errors import (
    ConstraintViolationError,
    DegenerateParameterError,
    DomainError,
    EllipticBaileyError,
    PoleProximityError,
    QuadratureConvergenceError,
)
from .report import (SUMMARY_SCHEMA_TAG, VerificationReport, _encode, _residual_ratio, _text,
                     relative_residual, worst)
from .special_functions import (
    NomePair,
    gamma_residue_constant,
    theta,  # unused here; perfbench/tracing.py wraps this binding
    _gamma_groups,
    _theta_pass,
    _quadratic_points,
    _quadratic_residual,
)

__all__ = ["IDENTITIES", "CampaignConfig", "CampaignSummary", "run_campaign", "summarize"]


@dataclass(frozen=True)
class _Identity:
    """One identity's campaign record: default tolerance and N, the largest
    N its runner honours (None: no bound), the names ``fixed`` may pin,
    which are exactly those the runner reads (a ``bounded`` one needs 0 <
    modulus < 1, a ``free`` one a nonzero value), the default tolerance at
    N = 0 where that check is exact up to rounding (None: ``tolerance``),
    whether every draw needs p != 0 (it evaluates elliptic gamma, which is
    undefined at p = 0), and the fixed names under which every draw needs it
    (a fixed y makes every discrete draw y-split, and that split divides by
    sqrt(p)).

    Then its sampling passes, as :func:`_sample_until` takes them:
    ``sample(cfg, rng)`` makes one attempt at a draw; ``evaluate`` takes a
    round's pending items together (a gamma-engine pass, a stacked
    DiscreteParams build under the conditioning cap, or the
    residue-reduction checks), or is None where an item is its own value;
    and ``finish`` takes the chunk's accepted draws and their draw indices
    (the special-functions thetas, where a failed product order ends the
    draw with its TruncationLimitError; the beta-integral and star-triangle
    checks, whose errors end their draws), or is None.  A pass reads the
    function it calls from its module when it runs."""

    tolerance: float
    N: int
    max_N: int | None
    bounded: tuple = ()
    free: tuple = ()
    tolerance_N0: float | None = None
    needs_p: bool = False
    needs_p_when_fixed: tuple = ()
    sample: object = None
    evaluate: object = None
    finish: object = None


# the sampler's attempts per draw, the discrete samplers' conditioning cap,
# star-triangle's spectator points and pole margin, and every campaign
# quadrature's tolerance
_RETRY_CAP = 100
_AMPLIFICATION_CAP = 1e5
# draws per chunk of a campaign, sampled together by _sample_until: one pass
# over the pending draws per sampling round, where the identity has one.  At
# 32 special-functions or residue-reduction draws (N <= 12) and
# special_functions._PASS_BYTES, a round's pass peaks under 1 MiB: a gamma
# pass takes its powers tables, shift grids and products in blocks of at
# most _PASS_BYTES bytes, and a stacked DiscreteParams build cuts its draws
# into such blocks
_DRAW_CHUNK = 32
_SPECTATORS = 3
_STAR_MARGIN = 0.85
_QUAD_REL_TOL = 1e-10


@dataclass
class CampaignConfig:
    """One campaign: which identity, how many draws, where to sample.

    ``seed`` is a non-negative integer that fully determines every draw.
    ``fixed`` pins named parameters instead of sampling them.  The
    configuration is checked here against the identity's record, so a
    negative seed, an N the runner does not honour, a name it never reads,
    a fixed nome of modulus >= 1, a fixed q = 0 (every identity divides by
    it or by theta(q; p)), a fixed p = 0 where the identity's record says
    every draw needs p != 0, a zero fixed parameter or a ``bounded`` one of
    modulus >= 1 raises :class:`DomainError` before any draw.  Unknown
    keys in ``from_mapping`` are hard errors.
    """

    identity: str = "matrix-bailey"
    draws: int = 10
    seed: int = 0
    N: int | None = None  # per-identity default when omitted
    tolerance: float | None = None
    p: complex | None = None
    q: complex | None = None
    allow_complex_nomes: bool = False
    fixed: dict = field(default_factory=dict)
    threads: int = 1

    def __post_init__(self):
        if self.identity not in _IDENTITY:
            raise DomainError(f"unknown identity {self.identity!r}; choose from {IDENTITIES}")
        spec = _IDENTITY[self.identity]
        if self.draws < 0 or (self.N is not None and self.N < 0):
            raise DomainError("draws and N must be >= 0")
        if self.seed < 0:
            raise DomainError("seed must be a non-negative integer")
        if spec.max_N is not None and self.effective_N > spec.max_N:
            admissible = f"N in 0..{spec.max_N}" if spec.max_N else "N = 0"
            raise DomainError(f"{self.identity} runs only at {admissible}, got N = {self.N}")
        unknown = sorted(set(self.fixed) - set(spec.bounded + spec.free))
        if unknown:
            names = ", ".join(spec.bounded + spec.free) or "nothing"
            raise DomainError(f"{self.identity} cannot fix {', '.join(unknown)}; [fixed] accepts {names}")
        for name, value in self.fixed.items():
            if name in spec.bounded and abs(complex(value)) >= 1.0:
                raise DomainError(f"fixed parameter {name} = {value} needs modulus < 1")
            if complex(value) == 0:
                raise DomainError(f"fixed parameter {name} = {value} needs a nonzero value")
        for name in ("p", "q"):
            val = getattr(self, name)
            if val is not None and abs(complex(val)) >= 1.0:
                raise DomainError(f"fixed nome {name} = {val} needs modulus < 1")
        if self.q is not None and complex(self.q) == 0:
            raise DomainError(f"fixed nome q = {self.q} needs a nonzero value")
        if self.p is not None and complex(self.p) == 0:
            if spec.needs_p:
                raise DomainError(f"{self.identity} needs a nonzero nome p, got fixed p = {self.p}")
            pinned = sorted(set(spec.needs_p_when_fixed) & set(self.fixed))
            if pinned:
                raise DomainError(f"{self.identity} with {', '.join(pinned)} fixed needs a nonzero "
                                  f"nome p, got fixed p = {self.p}")
        if self.threads < 1:
            raise DomainError("threads must be >= 1")
        if self.tolerance is not None and not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise DomainError(f"tolerance must be finite and positive, got {self.tolerance}")

    @property
    def effective_tolerance(self) -> float:
        spec = _IDENTITY[self.identity]
        default = spec.tolerance_N0 if self.effective_N == 0 and spec.tolerance_N0 else spec.tolerance
        return self.tolerance if self.tolerance is not None else default

    @property
    def effective_N(self) -> int:
        return self.N if self.N is not None else _IDENTITY[self.identity].N

    @classmethod
    def from_mapping(cls, mapping: dict) -> "CampaignConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        return cls(**mapping)


@dataclass
class CampaignSummary:
    identity: str
    n_reports: int
    n_pass: int
    n_fail: int
    n_error: int
    pass_rate: float
    max_residual: float
    median_residual: float
    rejected_draws: int
    failures: list

    def to_json(self) -> str:
        # the failure entries are encoded already, and writing leaves them as they are
        return _text({"schema": SUMMARY_SCHEMA_TAG, **vars(self)})


# --------------------------------------------------------------------------
# samplers
# --------------------------------------------------------------------------

def _uniform(rng, lo, hi):
    """``rng.uniform(lo, hi)``, bit for bit: numpy's own formula for it,
    lo + (hi - lo) * next_double, on ``rng.random()``, which is next_double,
    without the argument handling that makes a ``uniform`` call cost about
    three ``random`` calls."""
    return lo + (hi - lo) * rng.random()


def _unit_phase(rng):
    return np.exp(2j * np.pi * rng.random())


def _draw_nome(cfg: CampaignConfig, rng, *, p_range, q_range, q_real=False) -> NomePair:
    if cfg.p is not None:
        p = cfg.p
    else:
        p = _uniform(rng, *p_range)
        if cfg.allow_complex_nomes:
            p = p * _unit_phase(rng)
    if cfg.q is not None:
        q = cfg.q
    else:
        q = _uniform(rng, *q_range)
        if cfg.allow_complex_nomes and not q_real:
            q = q * _unit_phase(rng)
    return NomePair(p, q)


def _take(cfg, rng, name, sampler):
    if name in cfg.fixed:
        return complex(cfg.fixed[name])
    return sampler(rng)


class _Rejected(Exception):
    pass


# what makes a sampled draw inadmissible; any other error from ``build`` is a
# fault and becomes the draw's error report, not a silent resample
_REJECTIONS = (_Rejected, PoleProximityError, DegenerateParameterError, ConstraintViolationError)


def _retry_cap_error(rejects: int) -> ConstraintViolationError:
    return ConstraintViolationError(
        f"no admissible draw within retry cap {_RETRY_CAP} ({rejects} rejections)")


def _sample_until(cfg, rngs, build, evaluate=None, finish=None) -> list:
    """The draws of a chunk, draw i on its own stream rngs[i], each the first
    admissible attempt, with one ``evaluate`` pass per round over the draws
    still pending, then one ``finish`` pass over the draws accepted.

    ``build(rng)`` makes one attempt, returning the draw's head and the item
    the round's pass takes; ``evaluate(items)`` returns, per item, its value
    or its error, and with ``evaluate`` None an item is its own value.  A
    draw's values are its head followed by its item's value.  An attempt is
    rejected if ``build`` raises one of ``_REJECTIONS`` or its item comes
    back as one, and a rejected draw samples again from its own stream; at
    ``_RETRY_CAP`` rejections it gets the retry-cap error.  Any other error
    from ``build`` or from its item is the draw's fault.  ``finish(draws,
    positions)``, unless it is None, takes the values of the accepted draws
    and their positions in ``rngs``, and returns, per draw, the value to
    append, as an item's value is appended, or the error that ends the
    draw; that draw keeps its rejections, as one whose runner raises does.
    Returns, per draw, (values or error, rejections), with None for the
    rejections of a fault.  An error of a pass itself, outside every item,
    is raised.  ``cfg`` is unused; perfbench's tracer reads ``build`` at
    position 2."""
    outcomes = [None] * len(rngs)
    rejects = [0] * len(rngs)

    def reject(i):
        rejects[i] += 1
        if rejects[i] == _RETRY_CAP:
            outcomes[i] = (_retry_cap_error(rejects[i]), rejects[i])

    pending = range(len(rngs))
    while pending:
        heads, items = [], []
        for i in pending:
            try:
                head, item = build(rngs[i])
            except _REJECTIONS:
                reject(i)
            except Exception as exc:
                outcomes[i] = (exc, None)
            else:
                heads.append((i, head))
                items.append(item)
        for (i, head), value in zip(heads, items if evaluate is None else evaluate(items)):
            if isinstance(value, _REJECTIONS):
                reject(i)
            elif isinstance(value, Exception):
                outcomes[i] = (value, None)
            else:
                outcomes[i] = ((*head, value), rejects[i])
        pending = [i for i in pending if outcomes[i] is None]
    done = [i for i, (values, _rejected) in enumerate(outcomes) if not isinstance(values, Exception)]
    if done and finish is not None:
        for i, more in zip(done, finish([outcomes[i][0] for i in done], done)):
            values, rejected = outcomes[i]
            outcomes[i] = (more if isinstance(more, Exception) else (*values, more)), rejected
    return outcomes


# --------------------------------------------------------------------------
# per-identity samplers, each (cfg, rng) -> (head, item) for one attempt, and
# runners, each (cfg, values, draw_index) -> VerificationReport, where values
# are the draw's head and its item's value (see _sample_until); run_campaign
# stamps the draw index and the sampling's rejections on the report
# --------------------------------------------------------------------------

def _sample_special_functions(cfg: CampaignConfig, rng):
    """One attempt at a special-functions draw: its head (nome, z) and the
    group of its 14 gamma points z, qz, pz, pq/z, then z^2 and the eight
    quadratic-transformation arguments, then q."""
    nome = _draw_nome(cfg, rng, p_range=(0.05, 0.25), q_range=(0.1, 0.35))
    z = _uniform(rng, 0.3, 1.5) * _unit_phase(rng)
    points = np.concatenate([[z, nome.q * z, nome.p * z, nome.p * nome.q / z],
                             _quadratic_points(z, nome), [nome.q]])
    return (nome, z), (points, nome)


def _run_special_functions(cfg: CampaignConfig, values, idx: int) -> VerificationReport:
    """Inversion, both difference equations, the quadratic transformation
    and the residue limit at one point z.

    One gamma-engine pass of the chunk's sampling evaluates the 14 points of
    :func:`_sample_special_functions` for every pending draw of the chunk,
    each draw a group with its own nome, so its values have the bits of a
    pass on that draw alone.  A point on the pole lattice, or a value that
    underflows to zero or overflows, rejects the draw.  Base symmetry holds
    by construction of the engine, and ``TestBaseSymmetry`` in the tests
    guards it.  The residue limit rests on Gamma(q) = (p;p)_inf / (q;q)_inf,
    so Gamma(q) / (p;p)_inf^2 must equal lim (1 - z) Gamma(z) at z = 1,
    which :func:`gamma_residue_constant` builds from both products instead.
    The difference equations and the residue limit are three entries of one
    residual ratio.  theta(z; p), theta(z; q), (p; p)_inf and (q; q)_inf
    come from one product pass per chunk (:func:`special_functions._theta_pass`,
    which caches each nome's (p; p)_inf and (q; q)_inf on the way), with the
    bits of the scalar calls.
    """
    nome, z, gammas, (theta_p, theta_q) = values
    g, g_qz, g_pz, g_inv = (complex(v) for v in gammas[:4])
    res_fd_q, res_fd_p, res_limit = _residual_ratio(
        [g_qz, g_pz, complex(gammas[13]) / nome.pp_inf**2],
        [theta_p * g, theta_q * g, gamma_residue_constant(nome)]).tolist()
    res_inv = abs(g * g_inv - 1.0)
    res_quad = _quadratic_residual(gammas[4:13])
    return VerificationReport(
        identity="special-functions",
        params={"z": z, "p": nome.p, "q": nome.q},
        lhs=g,
        rhs=g,
        residual=worst(res_inv, res_fd_q, res_fd_p, res_quad, res_limit),
        tolerance=cfg.effective_tolerance,
        details={
            "inversion": res_inv,
            "fd_equation_q": res_fd_q,
            "fd_equation_p": res_fd_p,
            "quadratic_transformation": res_quad,
            "residue_limit": res_limit,
        },
    )


def _sample_beta_integral(cfg: CampaignConfig, rng):
    """One attempt at a beta-integral draw: its head (nome, tolerance) and its
    t1, ..., t5, whose check the chunk's finishing pass runs
    (:func:`contour._beta_integral_checks`)."""
    nome = _draw_nome(cfg, rng, p_range=(0.05, 0.12), q_range=(0.1, 0.2))
    ts = [
        _take(cfg, rng, f"t{j + 1}", lambda r: _uniform(r, 0.35, 0.7) * _unit_phase(r))
        for j in range(5)
    ]
    t6 = nome.p * nome.q / np.prod(ts)
    if not 0.1 <= abs(t6) <= 0.8:
        raise _Rejected
    return (nome, cfg.effective_tolerance), ts


def _sample_discrete(cfg: CampaignConfig, rng):
    """One attempt at a matrix-Bailey or Coxeter draw: its head, the bc mode,
    and the fields of its :class:`bailey_algebra.DiscreteParams`, which the
    round's stacked build takes (:meth:`bailey_algebra.DiscreteParams.stack`,
    with the conditioning cap ``_AMPLIFICATION_CAP``)."""
    nome = _draw_nome(cfg, rng, q_real=not cfg.allow_complex_nomes,
                      p_range=(0.05, 0.12), q_range=(0.25, 0.4))
    a = _take(cfg, rng, "a", lambda r: _uniform(r, 0.1, 0.8) * _unit_phase(r))
    k = _take(cfg, rng, "k", lambda r: _uniform(r, 0.1, 0.8) * _unit_phase(r))
    t = _take(cfg, rng, "t_tilde", lambda r: _uniform(r, 0.1, 0.8) * _unit_phase(r))
    # alternate between the y-split parametrization and a free (b, c)
    # obeying only the product rule; the identity must hold for both.  A
    # fixed y makes every draw y-split; the coin is drawn regardless, so
    # the stream of an unfixed campaign does not depend on this rule
    if rng.random() < 0.5 or "y" in cfg.fixed:
        y = _take(cfg, rng, "y", lambda r: _uniform(r, 0.5, 1.5) * _unit_phase(r))
        return ("y-split",), ba.DiscreteParams.y_split(a, k, t, y, cfg.effective_N, nome)
    b = _uniform(rng, 0.3, 1.2) * _unit_phase(rng)
    c = nome.q * a * t / (k * b)
    return ("free-bc",), dict(a=a, k=k, t_tilde=t, b=b, c=c, y=1.0, N=cfg.effective_N, nome=nome)


def _run_discrete(verify, cfg: CampaignConfig, values) -> VerificationReport:
    mode, params = values
    rep = verify(params, tolerance=cfg.effective_tolerance)
    rep.settings["bc_mode"] = mode
    return rep


def _sample_star_triangle(cfg: CampaignConfig, rng):
    """One attempt at a star-triangle draw: its head (nome, s, t, y,
    tolerance) and its spectators, whose check the chunk's finishing pass
    runs (:func:`contour._star_triangle_checks`)."""
    nome = _draw_nome(cfg, rng, p_range=(0.06, 0.12), q_range=(0.1, 0.18))
    s = _take(cfg, rng, "s", lambda r: _uniform(r, 0.35, 0.65) * _unit_phase(r))
    t = _take(cfg, rng, "t", lambda r: _uniform(r, 0.35, 0.65) * _unit_phase(r))
    y = _take(cfg, rng, "y", lambda r: _uniform(r, 0.75, 1.3) * _unit_phase(r))
    spectators = [_unit_phase(rng) for _ in range(_SPECTATORS)]
    for w in spectators:
        ct.OperatorParams(t=t, s=s, w=w, y=y).validate_star_triangle(nome, margin=_STAR_MARGIN)
    return (nome, s, t, y, cfg.effective_tolerance), spectators


def _finish_star_triangle(draws, indices) -> list:
    """The star-triangle checks of a chunk's accepted draws; the test function
    alternates with the draw index, the constant one at even indices and
    z + 1/z at odd ones."""
    return ct._star_triangle_checks([
        (s, t, y, spectators, ct.constant_one() if idx % 2 == 0 else ct.z_plus_inverse(), nome,
         _QUAD_REL_TOL, tolerance, _STAR_MARGIN)
        for (nome, s, t, y, tolerance, spectators), idx in zip(draws, indices)])


def _sample_residue_reduction(cfg: CampaignConfig, rng):
    """One attempt at a residue-reduction draw: the inputs (alpha, z0, t, N,
    nome, tolerance) of its check, as the item the round's pass takes
    (:func:`contour._residue_reduction_checks`, which evaluates the pending
    draws of a chunk together, each with the bits of its check alone).  A
    draw with a point on the pole lattice, a gamma value or residue term
    that is zero or not finite (an underflow at large N), or an M that
    fails a guard, is rejected and resampled; the check's report is the
    draw's value, so its runner makes no further call."""
    nome = _draw_nome(cfg, rng, q_real=True, p_range=(0.05, 0.15), q_range=(0.3, 0.5))
    a = _take(cfg, rng, "a", lambda r: _uniform(r, 0.2, 0.8) * _unit_phase(r))
    k = _take(cfg, rng, "k", lambda r: _uniform(r, 0.1, 0.7) * _unit_phase(r))
    z0 = complex(np.sqrt(a))
    t = complex(np.sqrt(k / a))
    coeffs = rng.normal(size=cfg.effective_N + 1) + 1j * rng.normal(size=cfg.effective_N + 1)
    alpha = ct.designated_poles(z0, cfg.effective_N, nome.q, coeffs)
    return (), (alpha, z0, t, cfg.effective_N, nome, cfg.effective_tolerance)


def _run_checked(cfg: CampaignConfig, values, idx: int) -> VerificationReport:
    """The report a chunk pass made for the draw, its last value."""
    return values[-1]


def _sample_cauchy_deformation(cfg: CampaignConfig, rng):
    n_poles = cfg.effective_N
    nome = _draw_nome(cfg, rng, q_real=True, p_range=(0.03, 0.08), q_range=(0.76, 0.86))
    z0 = _take(cfg, rng, "z0", lambda r: _uniform(r, 0.88, 0.94) * _unit_phase(r))
    x = _unit_phase(rng)
    pole_lo = abs(z0) * nome.q.real**n_poles
    t = _take(cfg, rng, "t", lambda r: _uniform(r, 0.02, 0.35 * pole_lo) * _unit_phase(r))
    if max(abs(t * x), abs(t / x)) >= 0.6 * pole_lo:
        raise _Rejected
    coeffs = rng.normal(size=n_poles + 1) + 1j * rng.normal(size=n_poles + 1)
    alpha = ct.designated_poles(z0, n_poles, nome.q, coeffs)
    if not ct.deformation_conditioning(alpha, t, x, None, nome) <= 0.1 * cfg.effective_tolerance:
        raise _Rejected
    return (nome, alpha, t), x


def _run_cauchy_deformation(cfg: CampaignConfig, values, idx: int) -> VerificationReport:
    nome, alpha, t, x = values
    return ct.contour_deformation_check(alpha, t, x, None, nome,
                                        rel_tol=_QUAD_REL_TOL,
                                        tolerance=cfg.effective_tolerance)


def _sample_finite_difference(cfg: CampaignConfig, rng):
    nome = _draw_nome(cfg, rng, q_real=True, p_range=(0.05, 0.15), q_range=(0.35, 0.5))
    return (nome,), _uniform(rng, 0.88, 0.95) * _unit_phase(rng)


def _run_finite_difference(cfg: CampaignConfig, values, idx: int) -> VerificationReport:
    nome, x = values
    f = lambda z: z + 1.0 / z
    if cfg.effective_N == 0:
        # f at the Python complex x, as finite_difference_M reads it: numpy's
        # complex 1 / x rounds apart from Python's
        x = complex(x)
        plus = ct.finite_difference_M(0, 1, x, f, nome)
        minus = ct.finite_difference_M(0, -1, x, f, nome)
        residual = relative_residual([plus, minus], [f(x), f(-x)])
        lhs, rhs = plus, complex(f(x))
        settings = {"mode": "identity/sign"}
    else:
        fd = ct.finite_difference_M(1, 1, x, f, nome)
        eps = (1e-2, 5e-3, 2.5e-3)
        vals = [ct.finite_difference_oracle(x, f, nome, e, rel_tol=_QUAD_REL_TOL) for e in eps]
        a1 = [2 * vals[i + 1] - vals[i] for i in range(2)]
        extrapolated = (4 * a1[1] - a1[0]) / 3
        residual = relative_residual(fd, extrapolated)
        lhs, rhs = fd, extrapolated
        settings = {"mode": "regularized-oracle", "eps": list(eps)}
    return VerificationReport(
        identity="finite-difference",
        params={"N": cfg.effective_N, "x": complex(x), "p": nome.p, "q": nome.q},
        lhs=complex(lhs),
        rhs=complex(rhs),
        residual=residual,
        tolerance=cfg.effective_tolerance,
        settings=settings,
    )


# matrix-bailey and coxeter draw alike; only their runners' checks differ
_DISCRETE = dict(tolerance=1e-9, N=4, max_N=None, bounded=("a", "k", "t_tilde"), free=("y",),
                 needs_p_when_fixed=("y",), sample=_sample_discrete,
                 evaluate=lambda drafts: ba.DiscreteParams.stack(drafts, _AMPLIFICATION_CAP))
_IDENTITY = {
    "special-functions": _Identity(
        1e-11, 0, 0, needs_p=True, sample=_sample_special_functions,
        evaluate=lambda groups: _gamma_groups(groups, "the special-functions draw"),
        finish=lambda draws, _indices: _theta_pass([(z, nome) for nome, z, _gammas in draws])),
    "beta-integral": _Identity(
        1e-9, 0, 0, ("t1", "t2", "t3", "t4", "t5"), needs_p=True, sample=_sample_beta_integral,
        finish=lambda draws, _indices: ct._beta_integral_checks(
            [(*ts, nome, _QUAD_REL_TOL, tolerance) for nome, tolerance, ts in draws])),
    "matrix-bailey": _Identity(**_DISCRETE),
    "star-triangle": _Identity(1e-8, 0, 0, ("s", "t"), ("y",), needs_p=True,
                               sample=_sample_star_triangle, finish=_finish_star_triangle),
    "coxeter": _Identity(**_DISCRETE),
    "residue-reduction": _Identity(1e-9, 4, None, ("a", "k"), sample=_sample_residue_reduction,
                                   evaluate=lambda checks: ct._residue_reduction_checks(checks)),
    "cauchy-deformation": _Identity(1e-8, 3, 3, ("z0", "t"), sample=_sample_cauchy_deformation),
    "finite-difference": _Identity(1e-5, 1, 1, tolerance_N0=1e-14,
                                   sample=_sample_finite_difference),
}

IDENTITIES = tuple(_IDENTITY)

_RUNNERS = {
    "special-functions": _run_special_functions,
    "beta-integral": _run_checked,
    # each reads its check from bailey_algebra when it runs, as perfbench's tracer wraps it there
    "matrix-bailey": lambda cfg, values, idx: _run_discrete(ba.verify_matrix_bailey, cfg, values),
    "star-triangle": _run_checked,
    "coxeter": lambda cfg, values, idx: _run_discrete(ba.verify_coxeter, cfg, values),
    "residue-reduction": _run_checked,
    "cauchy-deformation": _run_cauchy_deformation,
    "finite-difference": _run_finite_difference,
}


def _sub_seeds(cfg: CampaignConfig) -> np.ndarray:
    """The sub-seed of each of cfg's draws: draw i samples on the generator
    ``np.random.default_rng(int(_sub_seeds(cfg)[i]))``."""
    return np.random.default_rng(cfg.seed).integers(0, 2**63 - 1, size=cfg.draws, dtype=np.int64)


def _sample_draws(cfg: CampaignConfig, rngs, first: int = 0) -> list:
    """The outcomes of :func:`_sample_until` on a chunk of cfg's draws, one on
    each of ``rngs``, with the passes of the identity's record; the chunk's
    first draw has draw index ``first``, which offsets the positions the
    finishing pass takes."""
    spec = _IDENTITY[cfg.identity]
    finish = spec.finish
    return _sample_until(cfg, rngs, lambda rng: spec.sample(cfg, rng), spec.evaluate,
                         finish and (lambda draws, at: finish(draws, [first + i for i in at])))


def run_campaign(config: CampaignConfig) -> list[VerificationReport]:
    """Run all draws of a campaign; deterministic given the config.

    The draws are taken in order a chunk at a time, draw 0 alone and then
    ``_DRAW_CHUNK`` at a time, each chunk sampled in the calling thread by
    :func:`_sample_draws`: each draw on the generator of its own sub-seed
    (:func:`_sub_seeds`), each sampling round evaluating the chunk's pending
    draws together where the identity's record has a pass for it, a
    rejected draw sampling again on its own stream, and then the record's
    finishing pass taking the chunk's accepted draws and their draw indices
    together (see :class:`_Identity`).  A draw's values, rejections and
    errors are those of sampling and finishing it alone.  Should a pass fail
    outside every draw, the chunk is sampled again one draw at a time from
    fresh streams, so one bad draw never takes down another.  Each draw of
    the chunk then makes one ``_RUNNERS[identity](config, values, idx)``
    call, on a thread pool where ``threads`` > 1, except a draw whose
    sampling ended in an error, which is raised in its place; where a
    chunk pass made the draw's report, the runner returns it.

    Per-draw errors become error reports instead of aborting: library errors
    by their type, any other exception as an internal error.  Here alone a
    report gets ``settings["rejected"]``, the rejections of its draw's
    sampling, whether it passed, failed or errored, unless its sampling
    ended in a fault.  Each report's ``wall_time_s`` is the draw's runner
    call, timed here only, plus an equal share of its chunk's sampling.
    """
    runner = _RUNNERS[config.identity]
    threads = min(config.threads, _thread_cap())
    sub_seeds = _sub_seeds(config)

    def sampled(lo, hi):
        return _sample_draws(config, [np.random.default_rng(int(s)) for s in sub_seeds[lo:hi]], lo)

    def chunk(lo, hi):
        """The outcomes of sampling draws lo .. hi - 1, and its seconds per draw."""
        start = time.perf_counter()
        try:
            outcomes = sampled(lo, hi)
        except Exception:
            outcomes = []
            for i in range(lo, hi):
                try:
                    outcomes += sampled(i, i + 1)
                except Exception as exc:
                    outcomes.append((exc, None))
        return outcomes, (time.perf_counter() - start) / (hi - lo)

    def one(idx: int, outcome, share: float) -> VerificationReport:
        values, rejected = outcome
        start = time.perf_counter()
        err = None
        try:
            if isinstance(values, Exception):
                raise values
            rep = runner(config, values, idx)
        except QuadratureConvergenceError as exc:
            err = f"non-convergence: {exc}"
        except EllipticBaileyError as exc:
            err = f"{type(exc).__name__}: {exc}"
        except Exception as exc:
            err = f"internal error: {type(exc).__name__}: {exc}"
        if err is not None:
            rep = VerificationReport(
                identity=config.identity,
                params={"draw_seed": int(sub_seeds[idx])},
                lhs=None, rhs=None,
                residual=math.inf,
                tolerance=config.effective_tolerance,
                error=err,
            )
        # None where the draw's sampling ended in a fault
        if rejected is not None:
            rep.settings["rejected"] = rejected
        rep.wall_time_s = time.perf_counter() - start + share
        rep.draw_index = idx
        return rep

    def run(each) -> list[VerificationReport]:
        reports, lo = [], 0
        while lo < config.draws:
            # draw 0 alone first, so that the first runner call waits for one
            # draw's sampling
            hi = min(lo + _DRAW_CHUNK, config.draws) if lo else 1
            outcomes, share = chunk(lo, hi)
            for i, rep in enumerate(each(one, range(lo, hi), outcomes, repeat(share))):
                outcomes[i] = None  # keep no draw's values past its report
                reports.append(rep)
            lo = hi
        return reports

    if threads > 1 and config.draws > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return run(pool.map)
    return run(map)


def _thread_cap() -> int:
    """The ELLIPTIC_BAILEY_THREADS limit on campaign threads, else the CPU count."""
    cap = os.environ.get("ELLIPTIC_BAILEY_THREADS")
    if cap is None:
        return os.cpu_count() or 1
    try:
        value = int(cap)
    except ValueError:
        value = 0
    if value < 1:
        raise DomainError(f"ELLIPTIC_BAILEY_THREADS must be an integer >= 1, got {cap!r}")
    return value


def summarize(reports: list[VerificationReport]) -> CampaignSummary:
    """Pass rate, residual statistics, and a reproduction list of failures."""
    n_err = sum(1 for r in reports if r.error is not None)
    n_pass = sum(1 for r in reports if r.passed)
    residuals = [r.residual for r in reports if r.error is None]
    # with no residual to take, an errored campaign reads inf and an empty one 0
    no_residual = math.inf if n_err else 0.0
    failures = [
        {
            "draw_index": r.draw_index,
            "residual": _encode(float(r.residual)) if math.isfinite(r.residual) else None,
            "error": r.error,
            "params": _encode(r.params),
        }
        for r in reports
        if not r.passed
    ]
    return CampaignSummary(
        identity=reports[0].identity if reports else "",
        n_reports=len(reports),
        n_pass=n_pass,
        n_fail=len(reports) - n_pass - n_err,
        n_error=n_err,
        pass_rate=n_pass / len(reports) if reports else 0.0,
        max_residual=worst(*residuals) if residuals else no_residual,
        median_residual=float(np.median(residuals)) if residuals else no_residual,
        rejected_draws=sum(int(r.settings.get("rejected", 0)) for r in reports),
        failures=failures,
    )
