"""Randomized verification campaigns.

A campaign draws admissible parameters for one identity family, runs the
check per draw, and collects :class:`VerificationReport` records.  The seed
fully determines the draw sequence: per-draw generators are spawned from
pre-generated sub-seeds, so reports are bit-reproducible and independent of
execution order (draws may run on a thread pool).
"""

from __future__ import annotations

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
    theta,
    _nonzero_finite_gamma,
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
_SPECTATORS = 3
_QUAD_REL_TOL = 1e-10


@dataclass
class CampaignConfig:
    """One campaign: which identity, how many draws, where to sample.

    ``seed`` is a 64-bit integer that fully determines every draw.  ``fixed``
    pins named parameters instead of sampling them.  The configuration is
    checked here against the identity's record, so an N the runner does not
    honour, a name it never reads, a fixed nome of modulus >= 1, a fixed q = 0
    (every identity divides by it or by theta(q; p)), a fixed p = 0 where the
    identity's record says every draw needs p != 0, a zero fixed parameter
    or a ``bounded`` one of modulus >= 1 raises :class:`DomainError` before
    any draw.  Unknown keys in ``from_mapping`` are hard errors.
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
# returned or given up: run_campaign's error report keeps them
_sampled = threading.local()


def _sample_until(cfg, rng, build):
    # cfg is unused; perfbench's tracer reads ``build`` at position 2
    rejects = 0
    for _ in range(_RETRY_CAP):
        try:
            out = build(rng)
        except _REJECTIONS:
            rejects += 1
        else:
            _sampled.rejected = rejects
            return out, rejects
    _sampled.rejected = rejects
    raise ConstraintViolationError(
        f"no admissible draw within retry cap {_RETRY_CAP} ({rejects} rejections)"
    )


# --------------------------------------------------------------------------
# per-identity runners (each maps (cfg, rng, draw_index) -> VerificationReport;
# run_campaign stamps the draw index on the report)
# --------------------------------------------------------------------------

def _run_special_functions(cfg: CampaignConfig, rng, idx: int) -> VerificationReport:
    """Base symmetry, inversion, both difference equations, the quadratic
    transformation and the residue limit at one point z.

    The sampler's ``build`` evaluates every gamma value the draw needs in one
    engine call: z, qz, pz, pq/z, then z^2 and the eight
    quadratic-transformation arguments, then q, all at (p, q), and
    Gamma(z; q, p) for base symmetry, from the powers of z already in the
    call and the swapped pair's own series coefficients.  A point on the pole
    lattice, or a (p, q) value that underflows to zero or overflows, rejects
    the draw.  Gamma(z; q, p) shares the powers, the truncation order, the
    shift and the shift factors of Gamma(z; p, q), so base symmetry measures
    only how the two coefficient tables and their sums round; the symmetry
    itself is guarded by ``TestSwappedColumn`` in the tests, which compares
    the column with a call on the swapped pair.  The residue limit rests on
    Gamma(q) = (p;p)_inf / (q;q)_inf, so Gamma(q) / (p;p)_inf^2 must equal
    lim (1 - z) Gamma(z) at z = 1, which :func:`gamma_residue_constant`
    builds from both products instead.  Base symmetry, the difference
    equations and the residue limit are four entries of one residual ratio.
    """
    def build(rng):
        nome = _draw_nome(cfg, rng, p_range=(0.05, 0.25), q_range=(0.1, 0.35))
        z = rng.uniform(0.3, 1.5) * _unit_phase(rng)
        points = np.concatenate([[z, nome.q * z, nome.p * z, nome.p * nome.q / z],
                                 _quadratic_points(z, nome), [nome.q]])
        return nome, z, _nonzero_finite_gamma(points, nome, "the special-functions draw",
                                              swapped=[0])

    (nome, z, values), rejects = _sample_until(cfg, rng, build)
    g, g_qz, g_pz, g_inv = (complex(v) for v in values[:4])
    res_sym, res_fd_q, res_fd_p, res_limit = _residual_ratio(
        [g, g_qz, g_pz, complex(values[13]) / nome.pp_inf**2],
        [complex(values[14]), complex(theta(z, nome.p)) * g, complex(theta(z, nome.q)) * g,
         gamma_residue_constant(nome)]).tolist()
    res_inv = abs(g * g_inv - 1.0)
    res_quad = _quadratic_residual(values[4:13])
    return VerificationReport(
        identity="special-functions",
        params={"z": z, "p": nome.p, "q": nome.q},
        lhs=g,
        rhs=g,
        residual=worst(res_sym, res_inv, res_fd_q, res_fd_p, res_quad, res_limit),
        tolerance=cfg.effective_tolerance,
        settings={"rejected": rejects},
        details={
            "base_symmetry": res_sym,
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

    (nome, ts), rejects = _sample_until(cfg, rng, build)
    rep = ct.elliptic_beta_integral(
        *ts, nome, rel_tol=_QUAD_REL_TOL, tolerance=cfg.effective_tolerance
    )
    rep.settings["rejected"] = rejects
    return rep


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
    (params, mode), rejects = _discrete_sampler(cfg, rng)
    rep = verify(params, tolerance=cfg.effective_tolerance)
    rep.settings.update({"rejected": rejects, "bc_mode": mode})
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

    (nome, s, t, y, spectators), rejects = _sample_until(cfg, rng, build)
    alpha = ct.constant_one() if idx % 2 == 0 else ct.z_plus_inverse()
    rep = ct.star_triangle_residual(
        s, t, y, spectators, alpha, nome,
        rel_tol=_QUAD_REL_TOL, tolerance=cfg.effective_tolerance, margin=margin,
    )
    rep.settings["rejected"] = rejects
    return rep


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

    rep, rejects = _sample_until(cfg, rng, build)
    rep.settings["rejected"] = rejects
    return rep


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

    (nome, alpha, t, x), rejects = _sample_until(cfg, rng, build)
    rep = ct.contour_deformation_check(alpha, t, x, None, nome,
                                       rel_tol=_QUAD_REL_TOL,
                                       tolerance=cfg.effective_tolerance)
    rep.settings["rejected"] = rejects
    return rep


def _run_finite_difference(cfg: CampaignConfig, rng, idx: int) -> VerificationReport:
    def build(rng):
        nome = _draw_nome(cfg, rng, q_real=True, p_range=(0.05, 0.15), q_range=(0.35, 0.5))
        x = rng.uniform(0.88, 0.95) * _unit_phase(rng)
        return nome, x

    (nome, x), rejects = _sample_until(cfg, rng, build)
    f = lambda z: z + 1.0 / z
    if cfg.effective_N == 0:
        plus = ct.finite_difference_M(0, 1, x, f, nome)
        minus = ct.finite_difference_M(0, -1, x, f, nome)
        residual = relative_residual([plus, minus], [f(x), f(-x)])
        lhs, rhs = plus, complex(f(x))
        settings = {"mode": "identity/sign", "rejected": rejects}
    else:
        fd = ct.finite_difference_M(1, 1, x, f, nome)
        eps = (1e-2, 5e-3, 2.5e-3)
        vals = [ct.finite_difference_oracle(x, f, nome, e, rel_tol=_QUAD_REL_TOL) for e in eps]
        a1 = [2 * vals[i + 1] - vals[i] for i in range(2)]
        extrapolated = (4 * a1[1] - a1[0]) / 3
        residual = relative_residual(fd, extrapolated)
        lhs, rhs = fd, extrapolated
        settings = {"mode": "regularized-oracle", "eps": list(eps), "rejected": rejects}
    return VerificationReport(
        identity="finite-difference",
        params={"N": cfg.effective_N, "x": complex(x), "p": nome.p, "q": nome.q},
        lhs=complex(lhs),
        rhs=complex(rhs),
        residual=residual,
        tolerance=cfg.effective_tolerance,
        settings=settings,
    )


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

    Per-draw errors become error reports instead of aborting: library errors
    by their type, any other exception as an internal error.  An error
    report keeps the rejections of its draw's sampler, once the sampler has
    returned or reached its retry cap.  Each report's ``wall_time_s`` is the
    whole draw, sampling included, timed here only.
    """
    runner = _RUNNERS[config.identity]
    master = np.random.default_rng(config.seed)
    sub_seeds = master.integers(0, 2**63 - 1, size=config.draws, dtype=np.int64)

    def one(idx: int) -> VerificationReport:
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
        if err is not None:
            # an error after the sampler returned, or its retry cap, keeps
            # the draw's rejections
            rejected = _sampled.rejected
            rep = VerificationReport(
                identity=config.identity,
                params={"draw_seed": int(sub_seeds[idx])},
                lhs=None, rhs=None,
                residual=math.inf,
                tolerance=config.effective_tolerance,
                settings={} if rejected is None else {"rejected": rejected},
                error=err,
            )
        rep.wall_time_s = time.perf_counter() - start
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
