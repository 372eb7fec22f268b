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
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

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
from .report import VerificationReport, _encode, relative_residual
from .special_functions import (
    NomePair,
    elliptic_gamma,
    gamma_residue_constant,
    qpochhammer_inf,
    theta,
    _quadratic_points,
    _quadratic_residual,
)

__all__ = ["IDENTITIES", "CampaignConfig", "CampaignSummary", "run_campaign", "summarize"]

IDENTITIES = (
    "special-functions",
    "beta-integral",
    "matrix-bailey",
    "star-triangle",
    "coxeter",
    "residue-reduction",
    "cauchy-deformation",
    "finite-difference",
)

DEFAULT_TOLERANCES = {
    "special-functions": 1e-11,
    "beta-integral": 1e-9,
    "matrix-bailey": 1e-9,
    "star-triangle": 1e-8,
    "coxeter": 1e-9,
    "residue-reduction": 1e-9,
    "cauchy-deformation": 1e-8,
    "finite-difference": 1e-5,
}

DEFAULT_N = {
    "special-functions": 0,
    "beta-integral": 0,
    "matrix-bailey": 4,
    "star-triangle": 0,
    "coxeter": 4,
    "residue-reduction": 4,
    "cauchy-deformation": 3,
    "finite-difference": 1,
}


@dataclass
class CampaignConfig:
    """One campaign: which identity, how many draws, where to sample.

    ``seed`` is a 64-bit integer that fully determines every draw.  ``fixed``
    pins named parameters instead of sampling them (validated before the
    campaign starts).  Unknown keys in ``from_mapping`` are hard errors.
    """

    identity: str = "matrix-bailey"
    draws: int = 10
    seed: int = 0
    N: int | None = None  # per-identity default when omitted
    tolerance: float | None = None
    p: complex | None = None
    q: complex | None = None
    p_range: tuple | None = None  # overrides the identity's default sampling range
    q_range: tuple | None = None
    allow_complex_nomes: bool = False
    retry_cap: int = 100
    amplification_cap: float = 1e5
    spectators: int = 3
    quad_rel_tol: float = 1e-10
    fixed: dict = field(default_factory=dict)
    threads: int = 1

    def __post_init__(self):
        if self.identity not in IDENTITIES:
            raise DomainError(f"unknown identity {self.identity!r}; choose from {IDENTITIES}")
        if self.draws < 0 or (self.N is not None and self.N < 0) or self.retry_cap < 1:
            raise DomainError("draws and N must be >= 0, retry_cap >= 1")
        if self.threads < 1:
            raise DomainError("threads must be >= 1")
        if self.tolerance is not None and not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise DomainError(f"tolerance must be finite and positive, got {self.tolerance}")
        for name in ("p_range", "q_range"):
            bounds = getattr(self, name)
            if bounds is not None and not (len(bounds) == 2 and 0 <= bounds[0] < bounds[1] < 1):
                raise DomainError(f"{name} must be (lo, hi) with 0 <= lo < hi < 1, got {bounds}")
        if self.spectators < 1:
            raise DomainError("spectators must be >= 1")

    @property
    def effective_tolerance(self) -> float:
        return self.tolerance if self.tolerance is not None else DEFAULT_TOLERANCES[self.identity]

    @property
    def effective_N(self) -> int:
        return self.N if self.N is not None else DEFAULT_N[self.identity]

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

    def to_json_dict(self):
        return {
            "schema": "elliptic-bailey-summary/1",
            "identity": self.identity,
            "n_reports": self.n_reports,
            "n_pass": self.n_pass,
            "n_fail": self.n_fail,
            "n_error": self.n_error,
            "pass_rate": {"f": float(self.pass_rate).hex()},
            "max_residual": {"f": float(self.max_residual).hex()},
            "median_residual": {"f": float(self.median_residual).hex()},
            "rejected_draws": self.rejected_draws,
            "failures": self.failures,
        }


# --------------------------------------------------------------------------
# samplers
# --------------------------------------------------------------------------

def _unit_phase(rng):
    return np.exp(2j * np.pi * rng.uniform())


def _draw_nome(cfg: CampaignConfig, rng, q_real=False, p_range=None, q_range=None) -> NomePair:
    pr = cfg.p_range or p_range or (0.05, 0.12)
    qr = cfg.q_range or q_range or (0.2, 0.4)
    if cfg.p is not None:
        p = cfg.p
    else:
        p = rng.uniform(*pr)
        if cfg.allow_complex_nomes:
            p = p * _unit_phase(rng)
    if cfg.q is not None:
        q = cfg.q
    else:
        q = rng.uniform(*qr)
        if cfg.allow_complex_nomes and not q_real:
            q = q * _unit_phase(rng)
    return NomePair(p, q)


def _validate_fixed_moduli(cfg: CampaignConfig, names_below_one=()):
    for name in names_below_one:
        if name in cfg.fixed and abs(complex(cfg.fixed[name])) >= 1.0:
            raise ConstraintViolationError(
                f"fixed parameter {name} = {cfg.fixed[name]} has modulus >= 1"
            )
    for name in ("p", "q"):
        val = getattr(cfg, name)
        if val is not None and abs(complex(val)) >= 1.0:
            raise ConstraintViolationError(f"fixed nome {name} = {val} has modulus >= 1")


def _take(cfg, rng, name, sampler):
    if name in cfg.fixed:
        return complex(cfg.fixed[name])
    return sampler(rng)


class _Rejected(Exception):
    pass


# what makes a sampled draw inadmissible; any other error from ``build`` is a
# fault and becomes the draw's error report, not a silent resample
_REJECTIONS = (_Rejected, PoleProximityError, DegenerateParameterError, ConstraintViolationError)


def _sample_until(cfg, rng, build):
    rejects = 0
    for _ in range(cfg.retry_cap):
        try:
            return build(rng), rejects
        except _REJECTIONS:
            rejects += 1
    raise ConstraintViolationError(
        f"no admissible draw within retry cap {cfg.retry_cap} ({rejects} rejections)"
    )


# --------------------------------------------------------------------------
# per-identity runners (each maps (cfg, rng, draw_index) -> VerificationReport;
# run_campaign stamps the draw index on the report)
# --------------------------------------------------------------------------

def _run_special_functions(cfg: CampaignConfig, rng, idx: int) -> VerificationReport:
    """Base symmetry, inversion, both difference equations, the quadratic
    transformation and the residue limit at one point z.

    The sampler's ``build`` evaluates every gamma value the draw needs at
    (p, q) in one call: z, qz, pz, pq/z, then z^2 and the eight
    quadratic-transformation arguments.  A point on the pole lattice rejects
    the draw; the residuals are read from the values ``build`` returns, so the
    only other gamma call is the one at (q, p) for base symmetry.
    """
    start = time.perf_counter()

    def build(rng):
        nome = _draw_nome(cfg, rng, p_range=(0.05, 0.25), q_range=(0.1, 0.35))
        z = rng.uniform(0.3, 1.5) * _unit_phase(rng)
        points = np.concatenate([[z, nome.q * z, nome.p * z, nome.p * nome.q / z],
                                 _quadratic_points(z, nome)])
        return nome, z, elliptic_gamma(points, nome)

    (nome, z, values), rejects = _sample_until(cfg, rng, build)
    g, g_qz, g_pz, g_inv = (complex(v) for v in values[:4])
    res_sym = relative_residual(g, complex(elliptic_gamma(z, nome.swapped())))
    res_inv = abs(g * g_inv - 1.0)
    res_fd_q = relative_residual(g_qz, complex(theta(z, nome.p)) * g)
    res_fd_p = relative_residual(g_pz, complex(theta(z, nome.q)) * g)
    res_quad = _quadratic_residual(values[4:])
    res_limit = abs(
        gamma_residue_constant(nome)
        * qpochhammer_inf(nome.p, nome.p)
        * qpochhammer_inf(nome.q, nome.q)
        - 1.0
    )
    residual = max(res_sym, res_inv, res_fd_q, res_fd_p, res_quad, res_limit)
    return VerificationReport(
        identity="special-functions",
        params={"z": z, "p": nome.p, "q": nome.q},
        lhs=g,
        rhs=g,
        residual=residual,
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
        wall_time_s=time.perf_counter() - start,
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
        *ts, nome, rel_tol=cfg.quad_rel_tol, tolerance=cfg.effective_tolerance
    )
    rep.settings["rejected"] = rejects
    return rep


def _discrete_sampler(cfg: CampaignConfig, rng):
    def build(rng):
        nome = _draw_nome(cfg, rng, q_real=not cfg.allow_complex_nomes,
                          q_range=(0.25, 0.4))
        a = _take(cfg, rng, "a", lambda r: r.uniform(0.1, 0.8) * _unit_phase(r))
        k = _take(cfg, rng, "k", lambda r: r.uniform(0.1, 0.8) * _unit_phase(r))
        t = _take(cfg, rng, "t_tilde", lambda r: r.uniform(0.1, 0.8) * _unit_phase(r))
        # alternate between the y-split parametrization and a free (b, c)
        # obeying only the product rule; the identity must hold for both
        if rng.uniform() < 0.5:
            y = _take(cfg, rng, "y", lambda r: r.uniform(0.5, 1.5) * _unit_phase(r))
            params = ba.DiscreteParams.from_y(a=a, k=k, t_tilde=t, y=y, N=cfg.effective_N, nome=nome)
            mode = "y-split"
        else:
            b = rng.uniform(0.3, 1.2) * _unit_phase(rng)
            c = nome.q * a * t / (k * b)
            params = ba.DiscreteParams(a=a, k=k, t_tilde=t, b=b, c=c, y=1.0, N=cfg.effective_N, nome=nome)
            mode = "free-bc"
        # NaN (overflow in the products at large N) must reject as well
        if not ba.conditioning_amplification(params) <= cfg.amplification_cap:
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
        spectators = [_unit_phase(rng) for _ in range(cfg.spectators)]
        for w in spectators:
            ct.OperatorParams(t=t, s=s, w=w, y=y).validate_star_triangle(nome, margin=margin)
        return nome, s, t, y, spectators

    (nome, s, t, y, spectators), rejects = _sample_until(cfg, rng, build)
    alpha = ct.constant_one() if idx % 2 == 0 else ct.z_plus_inverse()
    rep = ct.star_triangle_residual(
        s, t, y, spectators, alpha, nome,
        rel_tol=cfg.quad_rel_tol, tolerance=cfg.effective_tolerance, margin=margin,
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
    n_poles = min(cfg.effective_N, 3)

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
        if ct.deformation_conditioning(alpha, t, x, None, nome) > 0.1 * cfg.effective_tolerance:
            raise _Rejected
        return nome, alpha, t, x

    (nome, alpha, t, x), rejects = _sample_until(cfg, rng, build)
    rep = ct.contour_deformation_check(alpha, t, x, None, nome,
                                       rel_tol=cfg.quad_rel_tol,
                                       tolerance=cfg.effective_tolerance)
    rep.settings["rejected"] = rejects
    return rep


def _run_finite_difference(cfg: CampaignConfig, rng, idx: int) -> VerificationReport:
    start = time.perf_counter()
    if cfg.effective_N not in (0, 1):
        raise ConstraintViolationError("finite-difference campaigns support N = 0 or 1")

    def build(rng):
        nome = _draw_nome(cfg, rng, q_real=True, p_range=(0.05, 0.15), q_range=(0.35, 0.5))
        x = rng.uniform(0.88, 0.95) * _unit_phase(rng)
        return nome, x

    (nome, x), rejects = _sample_until(cfg, rng, build)
    f = lambda z: z + 1.0 / z
    if cfg.effective_N == 0:
        plus = ct.finite_difference_M(0, 1, x, f, nome)
        minus = ct.finite_difference_M(0, -1, x, f, nome)
        residual = max(relative_residual(plus, f(x)), relative_residual(minus, f(-x)))
        lhs, rhs = plus, complex(f(x))
        settings = {"mode": "identity/sign", "rejected": rejects}
    else:
        fd = ct.finite_difference_M(1, 1, x, f, nome)
        eps = (1e-2, 5e-3, 2.5e-3)
        vals = [ct.finite_difference_oracle(x, f, nome, e, rel_tol=cfg.quad_rel_tol) for e in eps]
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
        tolerance=cfg.effective_tolerance if cfg.effective_N else 1e-14,
        settings=settings,
        wall_time_s=time.perf_counter() - start,
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

_FIXED_BELOW_ONE = {
    "special-functions": (),
    "beta-integral": ("t1", "t2", "t3", "t4", "t5"),
    "matrix-bailey": ("a", "k", "t_tilde"),
    "coxeter": ("a", "k", "t_tilde"),
    "star-triangle": ("s", "t"),
    "residue-reduction": ("a", "k"),
    "cauchy-deformation": ("z0", "t"),
    "finite-difference": (),
}


def run_campaign(config: CampaignConfig) -> list[VerificationReport]:
    """Run all draws of a campaign; deterministic given the config.

    Per-draw errors become error reports instead of aborting: library errors
    by their type, any other exception as an internal error.  An inadmissible
    fixed parameter yields a single validation-failure report and no draws.
    """
    try:
        _validate_fixed_moduli(config, _FIXED_BELOW_ONE[config.identity])
    except ConstraintViolationError as exc:
        return [
            VerificationReport(
                identity=config.identity,
                params=dict(config.fixed),
                lhs=None, rhs=None,
                residual=math.inf,
                tolerance=config.effective_tolerance,
                settings={"validation_failure": True},
                error=str(exc),
            )
        ]
    runner = _RUNNERS[config.identity]
    master = np.random.default_rng(config.seed)
    sub_seeds = master.integers(0, 2**63 - 1, size=config.draws, dtype=np.int64)

    def one(idx: int) -> VerificationReport:
        rng = np.random.default_rng(int(sub_seeds[idx]))
        start = time.perf_counter()
        err = None
        try:
            rep = runner(config, rng, idx)
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
                wall_time_s=time.perf_counter() - start,
                error=err,
            )
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
    if not reports:
        return CampaignSummary(
            identity="", n_reports=0, n_pass=0, n_fail=0, n_error=0,
            pass_rate=0.0, max_residual=0.0, median_residual=0.0,
            rejected_draws=0, failures=[],
        )
    n_err = sum(1 for r in reports if r.error is not None)
    n_pass = sum(1 for r in reports if r.passed)
    residuals = [r.residual for r in reports if r.error is None]
    failures = [
        {
            "draw_index": r.draw_index,
            "residual": None if not math.isfinite(r.residual) else {"f": float(r.residual).hex()},
            "error": r.error,
            "params": _encode(r.params),
        }
        for r in reports
        if not r.passed
    ]
    return CampaignSummary(
        identity=reports[0].identity,
        n_reports=len(reports),
        n_pass=n_pass,
        n_fail=len(reports) - n_pass - n_err,
        n_error=n_err,
        pass_rate=n_pass / len(reports),
        max_residual=max(residuals, default=math.inf if n_err else 0.0),
        median_residual=float(np.median(residuals)) if residuals else 0.0,
        rejected_draws=sum(int(r.settings.get("rejected", 0)) for r in reports),
        failures=failures,
    )
