"""Randomized verification campaigns.

A campaign draws admissible parameters for one identity family, runs the
check per draw, and collects :class:`VerificationReport` records.  The seed
fully determines the draw sequence: per-draw generators are spawned from
pre-generated sub-seeds, so reports are bit-reproducible and independent of
execution order (draws may run on a thread pool).
"""

from __future__ import annotations

import bisect
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields

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
from .report import (SUMMARY_SCHEMA_TAG, VerificationReport, _canonical, _encode, _residual_ratio,
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
    """One identity's campaign facts: default tolerance and N, the largest N
    its runner honours (None: no bound), the names ``fixed`` may pin, which
    are exactly those the runner reads (a ``bounded`` one needs 0 < modulus
    < 1, a ``free`` one a nonzero value), the default tolerance at N = 0
    where that check is exact up to rounding (None: ``tolerance``), whether
    every draw needs p != 0 (it evaluates elliptic gamma, which is undefined
    at p = 0), and the fixed names under which every draw needs it (a fixed
    y makes every discrete draw y-split, and that split divides by sqrt(p))."""

    tolerance: float
    N: int
    max_N: int | None
    bounded: tuple = ()
    free: tuple = ()
    tolerance_N0: float | None = None
    needs_p: bool = False
    needs_p_when_fixed: tuple = ()


_IDENTITY = {
    "special-functions": _Identity(1e-11, 0, 0, needs_p=True),
    "beta-integral": _Identity(1e-9, 0, 0, ("t1", "t2", "t3", "t4", "t5"), needs_p=True),
    "matrix-bailey": _Identity(1e-9, 4, None, ("a", "k", "t_tilde"), ("y",),
                               needs_p_when_fixed=("y",)),
    "star-triangle": _Identity(1e-8, 0, 0, ("s", "t"), ("y",), needs_p=True),
    "coxeter": _Identity(1e-9, 4, None, ("a", "k", "t_tilde"), ("y",),
                         needs_p_when_fixed=("y",)),
    "residue-reduction": _Identity(1e-9, 4, None, ("a", "k")),
    "cauchy-deformation": _Identity(1e-8, 3, 3, ("z0", "t")),
    "finite-difference": _Identity(1e-5, 1, 1, tolerance_N0=1e-14),
}

IDENTITIES = tuple(_IDENTITY)

# the sampler's attempts per draw, the discrete samplers' conditioning cap,
# star-triangle's spectator points and every campaign quadrature's tolerance
_RETRY_CAP = 100
_AMPLIFICATION_CAP = 1e5
# draws per chunk of a chunked identity (_CHUNKED): one gamma-engine pass per
# sampling round of a chunk.  At 32 special-functions draws and
# special_functions._PASS_BYTES, no array of a pass reaches 1 MiB
_DRAW_CHUNK = 32
_SPECTATORS = 3
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
        # the failure entries are encoded already, and encoding leaves them as they are
        return _canonical({"schema": SUMMARY_SCHEMA_TAG, **_encode(asdict(self))})


# --------------------------------------------------------------------------
# samplers
# --------------------------------------------------------------------------

def _unit_phase(rng):
    return np.exp(2j * np.pi * rng.uniform())


def _draw_nome(cfg: CampaignConfig, rng, *, p_range, q_range, q_real=False) -> NomePair:
    if cfg.p is not None:
        p = cfg.p
    else:
        p = rng.uniform(*p_range)
        if cfg.allow_complex_nomes:
            p = p * _unit_phase(rng)
    if cfg.q is not None:
        q = cfg.q
    else:
        q = rng.uniform(*q_range)
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


# the rejections of the draw running on this thread, once its sampler has
# returned or given up: run_campaign copies them into the draw's report
_sampled = threading.local()


def _retry_cap_error(rejects: int) -> ConstraintViolationError:
    return ConstraintViolationError(
        f"no admissible draw within retry cap {_RETRY_CAP} ({rejects} rejections)")


def _sample_chunk(cfg, rngs, sample, where: str, finish) -> list:
    """The draws of a chunk, draw i on its own stream rngs[i], by the rules of
    :func:`_sample_until`, with one gamma-engine pass
    (:func:`special_functions._gamma_groups`) per round over the draws still
    pending, then one ``finish`` pass over the draws accepted.

    ``sample(cfg, rng)`` makes one attempt, returning the draw's head and
    the group (points, nome) of its gamma points; a draw's values
    are its head followed by the group's gamma values.  An attempt is
    rejected if ``sample`` raises one of ``_REJECTIONS`` or its group comes
    back as one (a point on the pole lattice, a value that is zero or not
    finite in ``where``), and a rejected draw samples again from its own
    stream; past ``_RETRY_CAP`` rejections it gets the retry-cap error.  Any
    other error from ``sample`` or from its group is the draw's fault.
    ``finish(draws)`` takes the values of the accepted draws and returns, per
    draw, the values to append, or the error that ends the draw; that draw
    keeps its rejections, as a runner that raises after sampling does.
    Returns, per draw, (values or error, rejections), with None for the
    rejections of a fault, as :func:`_sample_until` leaves them.  An error
    of the pass itself, outside every group, is raised."""
    outcomes = [None] * len(rngs)
    rejects = [0] * len(rngs)

    def reject(i):
        rejects[i] += 1
        if rejects[i] == _RETRY_CAP:
            outcomes[i] = (_retry_cap_error(rejects[i]), rejects[i])

    pending = range(len(rngs))
    while pending:
        heads, groups = [], []
        for i in pending:
            try:
                head, group = sample(cfg, rngs[i])
            except _REJECTIONS:
                reject(i)
            except Exception as exc:
                outcomes[i] = (exc, None)
            else:
                heads.append((i, head))
                groups.append(group)
        for (i, head), values in zip(heads, _gamma_groups(groups, where)):
            if isinstance(values, _REJECTIONS):
                reject(i)
            elif isinstance(values, Exception):
                outcomes[i] = (values, None)
            else:
                outcomes[i] = ((*head, values), rejects[i])
        pending = [i for i in pending if outcomes[i] is None]
    done = [i for i, (values, _rejected) in enumerate(outcomes) if not isinstance(values, Exception)]
    if done:
        for i, more in zip(done, finish([outcomes[i][0] for i in done])):
            values, rejected = outcomes[i]
            outcomes[i] = (more if isinstance(more, Exception) else (*values, *more)), rejected
    return outcomes


def _chunk_draw(cfg, rng, sample, where: str, finish):
    """The values of this runner call's draw: the outcome run_campaign
    sampled for it in its chunk, or, on a call outside a campaign, a
    one-draw chunk sampled now.  Sets ``_sampled.rejected`` as
    :func:`_sample_until` does, and raises the draw's recorded error."""
    outcome, _sampled.drawn = getattr(_sampled, "drawn", None), None
    if outcome is None:
        (outcome,) = _sample_chunk(cfg, [rng], sample, where, finish)
    values, _sampled.rejected = outcome
    if isinstance(values, Exception):
        raise values
    return values


def _sample_until(cfg, rng, build):
    """The first admissible ``build(rng)``, retried while it raises one of
    ``_REJECTIONS``; past ``_RETRY_CAP`` tries, a
    :class:`ConstraintViolationError`.  The rejection count goes to
    ``_sampled.rejected`` alone, which run_campaign copies into the draw's
    report.  ``cfg`` is unused; perfbench's tracer reads ``build`` at
    position 2."""
    rejects = 0
    for _ in range(_RETRY_CAP):
        try:
            out = build(rng)
        except _REJECTIONS:
            rejects += 1
        else:
            _sampled.rejected = rejects
            return out
    _sampled.rejected = rejects
    raise _retry_cap_error(rejects)


# --------------------------------------------------------------------------
# per-identity runners (each maps (cfg, rng, draw_index) -> VerificationReport;
# run_campaign stamps the draw index and the sampler's rejections on the report)
# --------------------------------------------------------------------------

def _sample_special_functions(cfg: CampaignConfig, rng):
    """One attempt at a special-functions draw: its head (nome, z) and the
    group of its 14 gamma points z, qz, pz, pq/z, then z^2 and the eight
    quadratic-transformation arguments, then q."""
    nome = _draw_nome(cfg, rng, p_range=(0.05, 0.25), q_range=(0.1, 0.35))
    z = rng.uniform(0.3, 1.5) * _unit_phase(rng)
    points = np.concatenate([[z, nome.q * z, nome.p * z, nome.p * nome.q / z],
                             _quadratic_points(z, nome), [nome.q]])
    return (nome, z), (points, nome)


def _special_functions_thetas(draws) -> list:
    """theta(z; p) and theta(z; q) of a chunk's accepted special-functions
    draws (nome, z, gamma values), from one product pass
    (:func:`special_functions._theta_pass`), which caches each nome's
    (p; p)_inf and (q; q)_inf on the way; a draw whose product order fails
    gets its :class:`TruncationLimitError`."""
    return _theta_pass([(z, nome) for nome, z, _values in draws])


def _run_special_functions(cfg: CampaignConfig, rng, idx: int) -> VerificationReport:
    """Inversion, both difference equations, the quadratic transformation
    and the residue limit at one point z.

    The draw is sampled a chunk at a time (:func:`_sample_chunk`, through
    run_campaign): one gamma-engine pass evaluates the 14 points of
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
    come from one product pass per chunk (:func:`_special_functions_thetas`),
    with the bits of the scalar calls.
    """
    nome, z, values, theta_p, theta_q = _chunk_draw(cfg, rng, *_CHUNKED["special-functions"])
    g, g_qz, g_pz, g_inv = (complex(v) for v in values[:4])
    res_fd_q, res_fd_p, res_limit = _residual_ratio(
        [g_qz, g_pz, complex(values[13]) / nome.pp_inf**2],
        [theta_p * g, theta_q * g, gamma_residue_constant(nome)]).tolist()
    res_inv = abs(g * g_inv - 1.0)
    res_quad = _quadratic_residual(values[4:13])
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


def _run_beta_integral(cfg: CampaignConfig, rng, idx: int) -> VerificationReport:
    def build(rng):
        nome = _draw_nome(cfg, rng, p_range=(0.05, 0.12), q_range=(0.1, 0.2))
        ts = [
            _take(cfg, rng, f"t{j + 1}", lambda r: r.uniform(0.35, 0.7) * _unit_phase(r))
            for j in range(5)
        ]
        t6 = nome.p * nome.q / np.prod(ts)
        if not 0.1 <= abs(t6) <= 0.8:
            raise _Rejected
        return nome, ts

    nome, ts = _sample_until(cfg, rng, build)
    return ct.elliptic_beta_integral(
        *ts, nome, rel_tol=_QUAD_REL_TOL, tolerance=cfg.effective_tolerance
    )


def _discrete_sampler(cfg: CampaignConfig, rng):
    def build(rng):
        nome = _draw_nome(cfg, rng, q_real=not cfg.allow_complex_nomes,
                          p_range=(0.05, 0.12), q_range=(0.25, 0.4))
        a = _take(cfg, rng, "a", lambda r: r.uniform(0.1, 0.8) * _unit_phase(r))
        k = _take(cfg, rng, "k", lambda r: r.uniform(0.1, 0.8) * _unit_phase(r))
        t = _take(cfg, rng, "t_tilde", lambda r: r.uniform(0.1, 0.8) * _unit_phase(r))
        # alternate between the y-split parametrization and a free (b, c)
        # obeying only the product rule; the identity must hold for both.  A
        # fixed y makes every draw y-split; the coin is drawn regardless, so
        # the stream of an unfixed campaign does not depend on this rule
        if rng.uniform() < 0.5 or "y" in cfg.fixed:
            y = _take(cfg, rng, "y", lambda r: r.uniform(0.5, 1.5) * _unit_phase(r))
            params = ba.DiscreteParams.from_y(a=a, k=k, t_tilde=t, y=y, N=cfg.effective_N, nome=nome)
            mode = "y-split"
        else:
            b = rng.uniform(0.3, 1.2) * _unit_phase(rng)
            c = nome.q * a * t / (k * b)
            params = ba.DiscreteParams(a=a, k=k, t_tilde=t, b=b, c=c, y=1.0, N=cfg.effective_N, nome=nome)
            mode = "free-bc"
        # NaN (overflow in the products at large N) must reject as well
        if not ba.conditioning_amplification(params) <= _AMPLIFICATION_CAP:
            raise _Rejected
        return params, mode

    return _sample_until(cfg, rng, build)


def _run_discrete(verify, cfg: CampaignConfig, rng) -> VerificationReport:
    params, mode = _discrete_sampler(cfg, rng)
    rep = verify(params, tolerance=cfg.effective_tolerance)
    rep.settings["bc_mode"] = mode
    return rep


def _run_matrix_bailey(cfg: CampaignConfig, rng, idx: int) -> VerificationReport:
    return _run_discrete(ba.verify_matrix_bailey, cfg, rng)


def _run_coxeter(cfg: CampaignConfig, rng, idx: int) -> VerificationReport:
    return _run_discrete(ba.verify_coxeter, cfg, rng)


def _run_star_triangle(cfg: CampaignConfig, rng, idx: int) -> VerificationReport:
    margin = 0.85

    def build(rng):
        nome = _draw_nome(cfg, rng, p_range=(0.06, 0.12), q_range=(0.1, 0.18))
        s = _take(cfg, rng, "s", lambda r: r.uniform(0.35, 0.65) * _unit_phase(r))
        t = _take(cfg, rng, "t", lambda r: r.uniform(0.35, 0.65) * _unit_phase(r))
        y = _take(cfg, rng, "y", lambda r: r.uniform(0.75, 1.3) * _unit_phase(r))
        spectators = [_unit_phase(rng) for _ in range(_SPECTATORS)]
        for w in spectators:
            ct.OperatorParams(t=t, s=s, w=w, y=y).validate_star_triangle(nome, margin=margin)
        return nome, s, t, y, spectators

    nome, s, t, y, spectators = _sample_until(cfg, rng, build)
    alpha = ct.constant_one() if idx % 2 == 0 else ct.z_plus_inverse()
    return ct.star_triangle_residual(
        s, t, y, spectators, alpha, nome,
        rel_tol=_QUAD_REL_TOL, tolerance=cfg.effective_tolerance, margin=margin,
    )


def _run_residue_reduction(cfg: CampaignConfig, rng, idx: int) -> VerificationReport:
    """The residue-sum to Bailey-matrix reduction at one (a, k, alpha).

    The check runs in the sampler's ``build``, so that a draw whose gamma
    batch has a zero or non-finite value (an underflow at large N) or a
    point on the pole lattice is rejected and resampled; the check's one
    gamma call is the draw's only one.
    """
    def build(rng):
        nome = _draw_nome(cfg, rng, q_real=True, p_range=(0.05, 0.15), q_range=(0.3, 0.5))
        a = _take(cfg, rng, "a", lambda r: r.uniform(0.2, 0.8) * _unit_phase(r))
        k = _take(cfg, rng, "k", lambda r: r.uniform(0.1, 0.7) * _unit_phase(r))
        z0 = complex(np.sqrt(a))
        t = complex(np.sqrt(k / a))
        coeffs = rng.normal(size=cfg.effective_N + 1) + 1j * rng.normal(size=cfg.effective_N + 1)
        alpha = ct.designated_poles(z0, cfg.effective_N, nome.q, coeffs)
        return ct.residue_matrix_reduction_check(alpha, z0, t, cfg.effective_N, nome,
                                                 tolerance=cfg.effective_tolerance)

    return _sample_until(cfg, rng, build)


def _run_cauchy_deformation(cfg: CampaignConfig, rng, idx: int) -> VerificationReport:
    n_poles = cfg.effective_N

    def build(rng):
        nome = _draw_nome(cfg, rng, q_real=True, p_range=(0.03, 0.08), q_range=(0.76, 0.86))
        z0 = _take(cfg, rng, "z0", lambda r: r.uniform(0.88, 0.94) * _unit_phase(r))
        x = _unit_phase(rng)
        pole_lo = abs(z0) * nome.q.real**n_poles
        t = _take(cfg, rng, "t", lambda r: r.uniform(0.02, 0.35 * pole_lo) * _unit_phase(r))
        if max(abs(t * x), abs(t / x)) >= 0.6 * pole_lo:
            raise _Rejected
        coeffs = rng.normal(size=n_poles + 1) + 1j * rng.normal(size=n_poles + 1)
        alpha = ct.designated_poles(z0, n_poles, nome.q, coeffs)
        if not ct.deformation_conditioning(alpha, t, x, None, nome) <= 0.1 * cfg.effective_tolerance:
            raise _Rejected
        return nome, alpha, t, x

    nome, alpha, t, x = _sample_until(cfg, rng, build)
    return ct.contour_deformation_check(alpha, t, x, None, nome,
                                        rel_tol=_QUAD_REL_TOL,
                                        tolerance=cfg.effective_tolerance)


def _run_finite_difference(cfg: CampaignConfig, rng, idx: int) -> VerificationReport:
    def build(rng):
        nome = _draw_nome(cfg, rng, q_real=True, p_range=(0.05, 0.15), q_range=(0.35, 0.5))
        x = rng.uniform(0.88, 0.95) * _unit_phase(rng)
        return nome, x

    nome, x = _sample_until(cfg, rng, build)
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


# identities whose draws run_campaign samples a chunk at a time: the sampler
# of one attempt, the ``where`` of its gamma values and the pass that
# finishes the chunk's accepted draws
_CHUNKED = {
    "special-functions": (_sample_special_functions, "the special-functions draw",
                          _special_functions_thetas),
}

_RUNNERS = {
    "special-functions": _run_special_functions,
    "beta-integral": _run_beta_integral,
    "matrix-bailey": _run_matrix_bailey,
    "star-triangle": _run_star_triangle,
    "coxeter": _run_coxeter,
    "residue-reduction": _run_residue_reduction,
    "cauchy-deformation": _run_cauchy_deformation,
    "finite-difference": _run_finite_difference,
}

def run_campaign(config: CampaignConfig) -> list[VerificationReport]:
    """Run all draws of a campaign; deterministic given the config.

    Every draw makes one ``_RUNNERS[identity]`` call, with the generator of
    its own sub-seed.  An identity in ``_CHUNKED`` has its draws sampled a
    chunk of ``_DRAW_CHUNK`` at a time, after a first chunk of draw 0 alone,
    when the chunk's first draw is reached (:func:`_sample_chunk`), and each
    runner call takes its draw's outcome; a draw's values, rejections and
    errors are those of sampling it alone.  Should a chunk's engine pass
    fail outside every draw, the chunk is sampled again one draw at a time
    from fresh streams, so one bad draw never takes down another; a draw
    whose sampling fails raises its error from its runner call.

    Per-draw errors become error reports instead of aborting: library errors
    by their type, any other exception as an internal error.  Here alone a
    report gets ``settings["rejected"]``, the rejections of its draw's
    sampler, whether it passed, failed or errored, once the sampler has
    returned or reached its retry cap.  Each report's ``wall_time_s`` is the
    draw's runner call, timed here only, plus, for a chunked identity, an
    equal share of its chunk's sampling.
    """
    runner = _RUNNERS[config.identity]
    master = np.random.default_rng(config.seed)
    sub_seeds = master.integers(0, 2**63 - 1, size=config.draws, dtype=np.int64)
    chunked = _CHUNKED.get(config.identity)
    # chunk c holds draws bounds[c] .. bounds[c + 1] - 1; the first holds
    # draw 0 alone, so that the first runner call waits for one draw's sampling
    bounds = [0, *range(1, config.draws, _DRAW_CHUNK), config.draws] if chunked else [0]
    chunks: dict = {}
    locks = [threading.Lock() for _ in bounds[1:]]

    def streams(lo, hi):
        return [np.random.default_rng(int(seed)) for seed in sub_seeds[lo:hi]]

    def sampled(idx):
        """(rng, outcome, sampling seconds per draw) of a chunked draw."""
        c = bisect.bisect_right(bounds, idx) - 1
        lo, hi, i = bounds[c], bounds[c + 1], idx - bounds[c]
        with locks[c]:
            if c not in chunks:
                start = time.perf_counter()
                rngs = streams(lo, hi)
                try:
                    outcomes = _sample_chunk(config, rngs, *chunked)
                except Exception:
                    rngs, outcomes = streams(lo, hi), []
                    for rng in rngs:
                        try:
                            outcomes += _sample_chunk(config, [rng], *chunked)
                        except Exception as exc:
                            outcomes.append((exc, None))
                chunks[c] = [rngs, outcomes, (time.perf_counter() - start) / (hi - lo), hi - lo]
            entry = chunks[c]
            out = entry[0][i], entry[1][i], entry[2]
            entry[0][i] = entry[1][i] = None
            entry[3] -= 1
            if not entry[3]:
                del chunks[c]
        return out

    def one(idx: int) -> VerificationReport:
        share = 0.0
        if chunked:
            rng, _sampled.drawn, share = sampled(idx)
        else:
            rng = np.random.default_rng(int(sub_seeds[idx]))
        start = time.perf_counter()
        err = _sampled.rejected = None
        try:
            rep = runner(config, rng, idx)
        except QuadratureConvergenceError as exc:
            err = f"non-convergence: {exc}"
        except EllipticBaileyError as exc:
            err = f"{type(exc).__name__}: {exc}"
        except Exception as exc:
            err = f"internal error: {type(exc).__name__}: {exc}"
        finally:
            # a runner that never claimed its draw leaves nothing for the next
            _sampled.drawn = None
        if err is not None:
            rep = VerificationReport(
                identity=config.identity,
                params={"draw_seed": int(sub_seeds[idx])},
                lhs=None, rhs=None,
                residual=math.inf,
                tolerance=config.effective_tolerance,
                error=err,
            )
        # None where the draw failed before its sampler returned or gave up
        if _sampled.rejected is not None:
            rep.settings["rejected"] = _sampled.rejected
        rep.wall_time_s = time.perf_counter() - start + share
        rep.draw_index = idx
        return rep

    threads = min(config.threads, _thread_cap())
    if threads > 1 and config.draws > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, range(config.draws)))
    return [one(i) for i in range(config.draws)]


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
