"""The benchmark's workloads: the campaigns one round issues, and what the
traced run must see on each.

A round is a fixed list of ``verify`` campaigns; a run issues rounds back to
back.  Campaign seeds derive from the workload seed and the round number only,
so the same seed gives the same campaigns.  The number of rounds a run makes
depends only on ``--seconds`` (see ``Workload.rounds_for``), so the same seed
and length give the same draws, and the same count of failed draws.  With
seed 0, round 0 issues the acceptance suite's campaigns where one exists
(seeds 20108, 20300 + N, 20600); coxeter and residue-reduction use the seed
their acceptance criterion draws from (20500, 20800).

Each workload puts most of its time in one layer and almost none in another,
so an optimisation of that layer shows on one workload and is predicted to
leave another unchanged:

- lattice-q08: elliptic gamma on 9-point calls against ~3000-term lattices
  (q = 0.8), with no ring structure.
- rings-smallq: star-triangle at q <= 0.18, gamma on root-of-unity rings
  through ``_drive`` doubling and the n x n kernel row blocks.  It runs no
  second identity: mixing in the cheaper beta-integral draws put the median
  draw in the gap between the two latency clusters, where it moved 24% from
  seed to seed.
- discrete-n8: no gamma at all; theta, ``build_M``/``build_D`` and the
  sampler's conditioning estimate.
- pointwise-mix: hundreds of cheap draws per second, so per-call overhead and
  per-draw harness and report cost dominate.  Two special-functions draws
  (1.7-2.2 ms) to one residue-reduction draw (4.1-4.7 ms) keep the median
  draw inside the first cluster; at one to one it sat in the gap between
  them and moved 12% from seed to seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ROUND_STRIDE = 1000
SEED_STRIDE = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    # (identity, base seed, draws, extra argv)
    campaigns: tuple
    # raw seconds one round took on the 2-vCPU machine that recorded
    # baseline.json (median over seeds 0-9); sizes a run from --seconds
    round_s: float
    # rounds of the traced run: fixed, so its counts repeat exactly
    trace_rounds: int
    # bindings the traced run must hit, and bindings it must not hit
    hot: tuple
    cold: tuple = ()

    def rounds_for(self, seconds: float, min_draws: int) -> int:
        """Rounds that last about ``seconds`` on the reference machine and
        hold at least ``min_draws`` draws.  Fixed, rather than running until a
        deadline, so that two runs of one seed attempt the same draws."""
        per_round = sum(draws for _identity, _base, draws, _extra in self.campaigns)
        return max(1, round(seconds / self.round_s), math.ceil(min_draws / per_round))

    def round_argv(self, seed: int, rnd: int):
        for identity, base, draws, extra in self.campaigns:
            seed_arg = str(base + ROUND_STRIDE * rnd + SEED_STRIDE * seed)
            yield ["verify", identity, "--draws", str(draws), "--seed", seed_arg, "--json", *extra]


_GAMMA = ("special_functions._gamma_vec", "contour._gamma_vec")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lattice-q08",
            campaigns=(("special-functions", 20108, 100, ("--q", "0.8")),),
            round_s=0.59,
            trace_rounds=5,
            hot=("special_functions._gamma_vec", "harness.theta", "harness._sample_until",
                 "harness._RUNNERS[special-functions]", "report.VerificationReport.to_json",
                 "cli.run_campaign", "cli.main"),
        ),
        Workload(
            name="rings-smallq",
            campaigns=(("star-triangle", 20600, 10, ()),),
            round_s=0.73,
            trace_rounds=4,
            hot=("contour._gamma_vec", "special_functions._gamma_vec", "contour._m_apply_grid",
                 "contour._drive", "contour.theta", "contour.star_triangle_residual",
                 "harness._sample_until", "harness._RUNNERS[star-triangle]"),
        ),
        Workload(
            name="discrete-n8",
            campaigns=tuple(("matrix-bailey", 20300 + n, 50, ("--N", str(n))) for n in range(9))
            + (("coxeter", 20500, 50, ("--N", "8")),),
            round_s=3.69,
            trace_rounds=1,
            hot=("bailey_algebra.build_M", "bailey_algebra.build_D", "bailey_algebra.theta",
                 "bailey_algebra.theta_pochhammer_sequence", "bailey_algebra.elliptic_pochhammer",
                 "bailey_algebra._guarded_pochhammer", "special_functions.theta",
                 "bailey_algebra.conditioning_amplification", "bailey_algebra.verify_matrix_bailey",
                 "bailey_algebra.verify_coxeter", "bailey_algebra.DiscreteParams.__post_init__",
                 "harness._sample_until", "harness._RUNNERS[matrix-bailey]",
                 "harness._RUNNERS[coxeter]"),
            cold=_GAMMA,
        ),
        Workload(
            name="pointwise-mix",
            campaigns=(("special-functions", 20108, 100, ()),
                       ("residue-reduction", 20800, 50, ("--N", "4"))),
            round_s=0.41,
            trace_rounds=10,
            hot=("special_functions._gamma_vec", "harness.theta", "contour.elliptic_pochhammer",
                 "bailey_algebra.build_M", "contour.residue_matrix_reduction_check",
                 "harness._sample_until", "harness._RUNNERS[special-functions]",
                 "harness._RUNNERS[residue-reduction]", "report.VerificationReport.to_json"),
        ),
    )
}
