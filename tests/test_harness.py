import functools
import json
import math
import os
import warnings

import numpy as np
import pytest

from elliptic_bailey import harness as hmod
from elliptic_bailey.errors import DomainError
from elliptic_bailey.harness import CampaignConfig, CampaignSummary, run_campaign, summarize
from elliptic_bailey.report import VerificationReport
from elliptic_bailey.special_functions import elliptic_gamma


class TestCampaignConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(DomainError):
            CampaignConfig.from_mapping({"identity": "matrix-bailey", "bogus": 1})

    def test_unknown_identity_rejected(self):
        with pytest.raises(DomainError):
            CampaignConfig(identity="nonsense")

    def test_default_tolerances(self):
        assert CampaignConfig(identity="matrix-bailey").effective_tolerance == 1e-9
        assert CampaignConfig(identity="star-triangle").effective_tolerance == 1e-8
        assert CampaignConfig(identity="matrix-bailey", tolerance=1e-6).effective_tolerance == 1e-6

    def test_finite_difference_default_tolerance_at_N0(self):
        fd = "finite-difference"
        assert CampaignConfig(identity=fd, N=0).effective_tolerance == 1e-14
        assert CampaignConfig(identity=fd, N=1).effective_tolerance == 1e-5
        assert CampaignConfig(identity=fd).effective_tolerance == 1e-5
        assert CampaignConfig(identity=fd, N=0, tolerance=1e-3).effective_tolerance == 1e-3

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(DomainError, match="tolerance"):
            CampaignConfig(identity="matrix-bailey", tolerance=tol)

    @pytest.mark.parametrize("identity, N", [("cauchy-deformation", 3), ("finite-difference", 0),
                                             ("special-functions", 0), ("matrix-bailey", 40)])
    def test_N_inside_the_runners_range_accepted(self, identity, N):
        assert CampaignConfig(identity=identity, N=N).effective_N == N


class TestIdentityTable:
    def test_every_identity_has_a_runner(self):
        assert list(hmod._RUNNERS) == list(hmod.IDENTITIES)
        assert all(spec.sample for spec in hmod._IDENTITY.values())

    @pytest.mark.parametrize("identity", hmod.IDENTITIES)
    def test_fixable_names_are_the_names_the_runner_reads(self, monkeypatch, identity):
        read = set()
        take = hmod._take

        def recording(cfg, rng, name, sampler):
            read.add(name)
            return take(cfg, rng, name, sampler)

        monkeypatch.setattr(hmod, "_take", recording)
        spec = hmod._IDENTITY[identity]
        run_campaign(CampaignConfig(identity=identity, seed=3, draws=4, N=min(spec.N, 2)))
        assert read == set(spec.bounded + spec.free)

    def test_fixed_y_makes_every_discrete_draw_y_split(self):
        cfg = dict(identity="matrix-bailey", draws=6, seed=3, N=2)
        free = run_campaign(CampaignConfig(**cfg))
        fixed = run_campaign(CampaignConfig(**cfg, fixed={"y": 1.2}))
        assert {r.settings["bc_mode"] for r in free} == {"y-split", "free-bc"}
        assert all(r.settings["bc_mode"] == "y-split" and r.params["y"] == 1.2 for r in fixed)
        assert all(r.passed for r in fixed)
        # each draw keeps the nome and the a, k, t_tilde it had without the fixed y
        for a, b in zip(free, fixed):
            assert [a.params[k] for k in ("p", "q", "a", "k", "t_tilde")] == \
                   [b.params[k] for k in ("p", "q", "a", "k", "t_tilde")]

    def test_finite_difference_N0_honours_a_configured_tolerance(self):
        cfg = dict(identity="finite-difference", draws=1, seed=3, N=0)
        (default,) = run_campaign(CampaignConfig(**cfg))
        (configured,) = run_campaign(CampaignConfig(**cfg, tolerance=1e-3))
        assert default.tolerance == 1e-14
        assert configured.tolerance == 1e-3


class TestThreadCap:
    def test_unset_caps_at_cpu_count(self, monkeypatch):
        monkeypatch.delenv("ELLIPTIC_BAILEY_THREADS", raising=False)
        assert hmod._thread_cap() == (os.cpu_count() or 1)

    def test_valid_value(self, monkeypatch):
        monkeypatch.setenv("ELLIPTIC_BAILEY_THREADS", "3")
        assert hmod._thread_cap() == 3

    @pytest.mark.parametrize("raw", ["abc", "2.5", "0", "-4", ""])
    def test_malformed_or_below_one_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("ELLIPTIC_BAILEY_THREADS", raw)
        with pytest.raises(DomainError, match="ELLIPTIC_BAILEY_THREADS"):
            hmod._thread_cap()


class TestSampler:
    def test_nan_conditioning_is_rejected(self):
        # At N = 8, draw 4 of seed 4 first samples parameters whose M-matrix
        # products overflow, so the conditioning estimate is NaN; that draw
        # must be resampled, not admitted and failed with a NaN residual.
        reports = run_campaign(CampaignConfig(identity="matrix-bailey", N=8, seed=4, draws=5))
        assert reports[4].passed
        assert reports[4].settings["rejected"] >= 1

    def test_overflowing_draw_reaches_the_cap_without_warnings(self, monkeypatch):
        # the same campaign with RuntimeWarning as an error: the overflowing
        # attempt's amplification is non-finite and rejected by the cap in
        # the chunk's stacked build, and no numpy warning is raised on the way
        capped = []
        stack = hmod.ba.DiscreteParams.stack

        def recorded(drafts, cap=None):
            out = stack(drafts, cap)
            capped.extend(str(params) for params in out if isinstance(params, Exception)
                          and "conditioning amplification" in str(params))
            return out

        monkeypatch.setattr(hmod.ba.DiscreteParams, "stack", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            reports = run_campaign(CampaignConfig(identity="matrix-bailey", N=8, seed=4, draws=5))
        assert all(r.passed for r in reports)
        assert reports[4].settings["rejected"] >= 1
        assert any(amplification in message for message in capped
                   for amplification in ("amplification nan", "amplification inf"))

    def test_library_fault_is_reported_not_resampled(self, monkeypatch):
        # a TruncationLimitError while sampling is a fault, not an inadmissible
        # draw: one attempt per draw, and the error report names it
        from elliptic_bailey.errors import TruncationLimitError

        attempts = []

        def faulty(cfg, rng, **kwargs):
            attempts.append(1)
            raise TruncationLimitError("series needs 600001 terms")

        monkeypatch.setattr(hmod, "_draw_nome", faulty)
        reports = run_campaign(CampaignConfig(identity="star-triangle", seed=3, draws=2))
        assert len(attempts) == 2
        assert all(r.error == "TruncationLimitError: series needs 600001 terms" for r in reports)
        assert all(not r.passed for r in reports)

    @pytest.mark.parametrize("error", ["PoleProximityError", "DegenerateParameterError",
                                       "ConstraintViolationError"])
    def test_admissibility_errors_are_resampled(self, monkeypatch, error):
        from elliptic_bailey import errors

        draw_nome = hmod._draw_nome
        attempts = []

        def first_fails(cfg, rng, **kwargs):
            attempts.append(1)
            if len(attempts) == 1:
                raise getattr(errors, error)("inadmissible")
            return draw_nome(cfg, rng, **kwargs)

        monkeypatch.setattr(hmod, "_draw_nome", first_fails)
        reports = run_campaign(CampaignConfig(identity="special-functions", seed=3, draws=1))
        assert reports[0].passed
        assert reports[0].settings["rejected"] == 1


    def test_nan_deformation_conditioning_is_rejected(self, monkeypatch):
        # the Cauchy sampler's gate admits an estimate only if it is <= the cap
        monkeypatch.setattr(hmod.ct, "deformation_conditioning", lambda *args: math.nan)
        (rep,) = run_campaign(CampaignConfig(identity="cauchy-deformation", seed=1, draws=1))
        assert rep.error == ("ConstraintViolationError: no admissible draw within retry cap 100"
                             " (100 rejections)")

    def test_retry_cap_error_reports_keep_their_rejections(self, monkeypatch):
        # every draw of this campaign exhausts the retry cap
        reports = run_campaign(CampaignConfig(identity="star-triangle", draws=3, seed=1,
                                              p=0.6, q=0.6))
        assert all(r.error.endswith("(100 rejections)") for r in reports)
        assert [r.settings for r in reports] == [{"rejected": 100}] * 3
        assert summarize(reports).rejected_draws == 300

        # the same error type from the runner is no retry-cap error: the draw
        # keeps the rejections of its sampling, which ran first, and made none
        def boom(cfg, values, idx):
            raise hmod.ConstraintViolationError("not from the sampler")

        monkeypatch.setitem(hmod._RUNNERS, "star-triangle", boom)
        (rep,) = run_campaign(CampaignConfig(identity="star-triangle", draws=1))
        assert rep.error == "ConstraintViolationError: not from the sampler"
        assert rep.settings == {"rejected": 0}

    def test_error_after_sampling_keeps_its_rejections(self, monkeypatch):
        cfg = CampaignConfig(identity="cauchy-deformation", draws=6, seed=1)
        passed = run_campaign(cfg)
        assert all(r.passed for r in passed)
        assert summarize(passed).rejected_draws == 2

        def no_convergence(*args, **kwargs):
            raise hmod.QuadratureConvergenceError("deformation check did not converge")

        monkeypatch.setattr(hmod.ct, "contour_deformation_check", no_convergence)
        errored = run_campaign(cfg)
        assert all(r.error == "non-convergence: deformation check did not converge"
                   for r in errored)
        assert [r.settings for r in errored] == [{"rejected": r.settings["rejected"]}
                                                 for r in passed]
        assert summarize(errored).rejected_draws == 2


class TestPointwiseBatching:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_special_functions_draw_makes_one_engine_call_per_nome_pair(self, monkeypatch,
                                                                         threads):
        # a campaign's draws are sampled a chunk at a time, in order, after a
        # first chunk of draw 0 alone: one engine pass per chunk, one group
        # per draw with the draw's own nome pair, whatever the threads
        engine = hmod._gamma_groups
        calls = []

        def spy(groups, where=None):
            calls.append([((nome.p, nome.q), np.size(z)) for z, nome in groups])
            return engine(groups, where)

        monkeypatch.setattr(hmod, "_gamma_groups", spy)
        monkeypatch.setenv("ELLIPTIC_BAILEY_THREADS", "2")
        draws = hmod._DRAW_CHUNK + 3
        reports = run_campaign(CampaignConfig(identity="special-functions", seed=3, draws=draws,
                                              threads=threads))
        assert all(r.passed and r.settings["rejected"] == 0 for r in reports)
        # the sampler's 14 points
        groups = [((r.params["p"], r.params["q"]), 14) for r in reports]
        assert calls == [groups[:1], groups[1 : 1 + hmod._DRAW_CHUNK], groups[1 + hmod._DRAW_CHUNK :]]

    def test_residue_limit_fails_when_only_qq_inf_is_off(self, monkeypatch):
        # (q; q)_inf enters gamma_residue_constant but not the gamma engine,
        # so an error in it alone must show in residue_limit.  The chunk's
        # theta pass forms it as a row of its batched products
        from elliptic_bailey import special_functions

        cfg = CampaignConfig(identity="special-functions", seed=3, draws=1)
        (reference,) = run_campaign(cfg)
        q = reference.params["q"]
        rows = special_functions._qpoch_rows

        def perturbed_rows(x, bases, at, orders):
            values = rows(x, bases, at, orders)
            return np.where((x == q) & (np.asarray(bases)[at] == q), values * (1 + 1e-9), values)

        # the one kernel every product is formed in, so that a check
        # rebuilding the constant from the same products would see the same
        # error and cancel it
        monkeypatch.setattr(special_functions, "_qpoch_rows", perturbed_rows)
        (rep,) = run_campaign(cfg)
        assert reference.passed and reference.details["residue_limit"] < 1e-14
        assert not rep.passed
        assert rep.details["residue_limit"] == pytest.approx(1e-9, rel=1e-3)
        assert rep.residual == rep.details["residue_limit"]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_special_functions_thetas_come_from_one_pass_per_chunk(self, monkeypatch, threads):
        # theta(z; p), theta(z; q), (p; p)_inf and (q; q)_inf of every draw
        # of a chunk from one batched product pass, and no scalar call
        from elliptic_bailey import special_functions

        thetas = hmod._theta_pass
        passes, scalar = [], []

        def spy(draws):
            passes.append([((nome.p, nome.q), z) for z, nome in draws])
            return thetas(draws)

        def counted(name, f):
            def call(*args):
                scalar.append(name)
                return f(*args)
            return call

        monkeypatch.setattr(hmod, "_theta_pass", spy)
        for module in (special_functions, hmod):
            monkeypatch.setattr(module, "theta", counted("theta", special_functions.theta))
        monkeypatch.setattr(special_functions, "qpochhammer_inf",
                            counted("qpochhammer_inf", special_functions.qpochhammer_inf))
        monkeypatch.setenv("ELLIPTIC_BAILEY_THREADS", "2")
        draws = hmod._DRAW_CHUNK + 3
        reports = run_campaign(CampaignConfig(identity="special-functions", seed=3, draws=draws,
                                              threads=threads))
        assert all(r.passed for r in reports)
        heads = [((r.params["p"], r.params["q"]), r.params["z"]) for r in reports]
        assert passes == [heads[:1], heads[1 : 1 + hmod._DRAW_CHUNK], heads[1 + hmod._DRAW_CHUNK :]]
        assert scalar == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowing_residue_draw_is_rejected(self):
        # draw 83 of `verify residue-reduction --N 8 --seed 29800` first samples
        # a with Gamma(q^-16 / a) = 0 in double precision; it was an internal
        # error (complex division by zero), and must be resampled instead
        reports = run_campaign(CampaignConfig(identity="residue-reduction", N=8, seed=29800, draws=84))
        assert all(r.error is None for r in reports)
        assert reports[83].passed
        assert reports[83].settings["rejected"] == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_residue_draws_are_rejected(self):
        # at N = 12 most first samples overflow a gamma value of the residue
        # sum; they were internal errors under the warning filter, and must
        # be resampled instead
        reports = run_campaign(CampaignConfig(identity="residue-reduction", N=12, seed=7, draws=30))
        assert [r.error for r in reports if r.error] == []
        assert sum(r.settings["rejected"] for r in reports) > 0


class TestChunkSampler:
    # draw 0, a full chunk and a short one
    CFG = dict(identity="special-functions", seed=11, draws=hmod._DRAW_CHUNK + 8)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_fault_in_one_draw_of_a_chunk_stays_in_that_draw(self, monkeypatch, threads):
        # the chunk's engine pass raises for one draw's group; the chunk is
        # sampled again one draw at a time, and only that draw errors
        reference = run_campaign(CampaignConfig(**self.CFG))
        bad = reference[5].params["p"]
        engine = hmod._gamma_groups

        def faulty(groups, where=None):
            if any(nome.p == bad for _z, nome in groups):
                raise ValueError("stub fault")
            return engine(groups, where)

        monkeypatch.setattr(hmod, "_gamma_groups", faulty)
        monkeypatch.setenv("ELLIPTIC_BAILEY_THREADS", "2")
        reports = run_campaign(CampaignConfig(**self.CFG, threads=threads))
        assert [r.draw_index for r in reports] == list(range(self.CFG["draws"]))
        assert reports[5].error == "internal error: ValueError: stub fault"
        assert "rejected" not in reports[5].settings
        assert [r.to_json() for i, r in enumerate(reports) if i != 5] == [
            r.to_json() for i, r in enumerate(reference) if i != 5]

    def test_a_draw_whose_product_order_fails_keeps_its_rejections(self, monkeypatch):
        # an order past MAX_TERMS in the chunk's theta pass ends that draw
        # alone, with the rejections its sampling made, as a runner that
        # raised after sampling recorded them; draw 9 was rejected once
        from elliptic_bailey.errors import TruncationLimitError

        cfg = CampaignConfig(identity="special-functions", draws=20, seed=3, p=0.95, q=0.9)
        reference = run_campaign(cfg)
        bad = reference[9].params["z"]
        thetas = hmod._theta_pass

        def failing(draws):
            return [TruncationLimitError("stub order") if z == bad else out
                    for (z, _nome), out in zip(draws, thetas(draws))]

        monkeypatch.setattr(hmod, "_theta_pass", failing)
        reports = run_campaign(cfg)
        assert reports[9].error == "TruncationLimitError: stub order"
        assert reports[9].settings == {"rejected": 1} == reference[9].settings
        assert [r.to_json() for i, r in enumerate(reports) if i != 9] == [
            r.to_json() for i, r in enumerate(reference) if i != 9]

    def test_a_theta_order_fault_in_a_stacked_build_stays_in_its_draw(self, monkeypatch):
        # one draw's theta order fails inside the chunk's stacked build: that
        # draw alone ends with the error, and, as a fault while sampling, no
        # rejection count; the other draws of its chunk and block keep their
        # bytes
        from elliptic_bailey import special_functions
        from elliptic_bailey.errors import TruncationLimitError

        cfg = CampaignConfig(identity="matrix-bailey", N=3, draws=40, seed=5)
        reference = run_campaign(cfg)
        bad = abs(reference[9].params["p"])
        order = special_functions._qpoch_order

        def failing(base_mod, scale):
            if base_mod == bad:
                raise TruncationLimitError("stub order")
            return order(base_mod, scale)

        monkeypatch.setattr(special_functions, "_qpoch_order", failing)
        reports = run_campaign(cfg)
        assert reports[9].error == "TruncationLimitError: stub order"
        assert "rejected" not in reports[9].settings
        assert [r.to_json() for i, r in enumerate(reports) if i != 9] == [
            r.to_json() for i, r in enumerate(reference) if i != 9]

    def test_a_one_draw_sampling_and_its_runner_give_the_campaign_draw(self):
        # a one-draw chunk, then the runner, with the bits of the campaign's draw
        cfg = CampaignConfig(**self.CFG)
        (first,) = run_campaign(CampaignConfig(**{**self.CFG, "draws": 1}))
        seed = hmod._sub_seeds(cfg)[0]
        ((values, rejected),) = hmod._sample_draws(cfg, [np.random.default_rng(int(seed))])
        rep = hmod._RUNNERS["special-functions"](cfg, values, 0)
        rep.draw_index, rep.settings["rejected"] = 0, rejected
        assert rep.to_json() == first.to_json()

    @pytest.mark.parametrize("fields", [
        dict(identity="special-functions", q=0.8),
        dict(identity="special-functions"),
        # a round's residue checks share one gamma pass, whose shift grids at
        # N = 12 span ~30 shifts a point
        dict(identity="residue-reduction", N=4),
        dict(identity="residue-reduction", N=12),
    ], ids=["lattice-q08", "default-box", "residue-N4", "residue-N12"])
    def test_a_chunk_pass_allocates_under_1_mib(self, fields):
        # releasing a larger array would move the C allocator's mmap
        # threshold for whatever runs next; the peak over one whole chunk
        # sampling bounds every array it allocates
        import tracemalloc

        cfg = CampaignConfig(**fields, draws=hmod._DRAW_CHUNK)
        seeds = hmod._sub_seeds(cfg)
        rngs = [np.random.default_rng(int(seed)) for seed in seeds]
        tracemalloc.start()
        try:
            outcomes = hmod._sample_draws(cfg, rngs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(isinstance(values, tuple) for values, _rejected in outcomes)
        assert peak < 1 << 20

    # one draw checked alone peaks at <= 155 KiB (beta-integral) and at
    # ~300 KiB (star-triangle; 1.6 MiB at n = 512, whose M(t) apply holds a
    # kernel block of contour._ROW_CHUNK rows)
    @pytest.mark.parametrize("identity, bound", [("star-triangle", 2 << 20),
                                                 ("beta-integral", 1 << 20)])
    def test_a_quadrature_chunk_pass_peaks_under_its_bound(self, identity, bound):
        # the chunk's checks run in its finishing pass, a block of draws at a
        # time; a first campaign makes the lazy imports and caches the pass
        # reads, which one chunk sampled alone would count
        import tracemalloc

        run_campaign(CampaignConfig(identity=identity, draws=2))
        cfg = CampaignConfig(identity=identity, draws=hmod._DRAW_CHUNK)
        seeds = hmod._sub_seeds(cfg)
        rngs = [np.random.default_rng(int(seed)) for seed in seeds]
        tracemalloc.start()
        try:
            outcomes = hmod._sample_draws(cfg, rngs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(values[-1].passed for values, _rejected in outcomes)
        assert peak < bound

    @staticmethod
    def _discrete_chunk_memory(identity):
        """(outcomes, bytes kept, peak bytes) of sampling one N = 8 chunk
        under tracemalloc."""
        import tracemalloc

        cfg = CampaignConfig(identity=identity, N=8, draws=hmod._DRAW_CHUNK)
        seeds = hmod._sub_seeds(cfg)
        rngs = [np.random.default_rng(int(seed)) for seed in seeds]
        tracemalloc.start()
        try:
            outcomes = hmod._sample_draws(cfg, rngs)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        built = [values[1] for values, _rejected in outcomes]
        assert all(isinstance(params, hmod.ba.DiscreteParams) for params in built)
        assert sum(rejected for _values, rejected in outcomes) > 0
        return built, kept, peak

    @pytest.mark.parametrize("identity", ["matrix-bailey", "coxeter"])
    def test_a_discrete_chunk_peaks_under_1_mib(self, identity):
        # ~0.99 MB of a 1.05 MB bound: its 32 accepted draws keep ~0.40 MB of
        # memos, and the peak falls in a block's special_functions._qpoch_rows
        # call, while the stacked build holds neither its points nor its
        # factor tables
        _built, _kept, peak = self._discrete_chunk_memory(identity)
        assert peak < 1 << 20

    @pytest.mark.parametrize("identity", ["matrix-bailey", "coxeter"])
    def test_a_discrete_chunk_allocates_under_1_mib_past_what_it_keeps(self, identity):
        # the peak past the memos the chunk's draws keep bounds every array
        # the build allocated and freed, and no table a draw keeps is larger
        # than special_functions._PASS_BYTES; a draw keeps only what its
        # checks read (~13 KB at N = 8)
        built, kept, peak = self._discrete_chunk_memory(identity)
        assert kept < 1 << 19
        assert peak - kept < 1 << 20
        for params in built:
            for memo in (*params.matrices.values(), *params.diagonals.values(), params.key_lhs):
                assert memo.base.nbytes <= hmod.ba._PASS_BYTES


class TestOneSampler:
    # draw 0, a full chunk and a chunk of one
    DRAWS = hmod._DRAW_CHUNK + 2

    @staticmethod
    def _each_alone(cfg):
        """The canonical reports of cfg's draws, each sampled alone on its
        sub-seed's stream, then run, with its rejections and index stamped."""
        seeds = hmod._sub_seeds(cfg)
        out = []
        for idx, seed in enumerate(seeds):
            ((values, rejected),) = hmod._sample_draws(cfg, [np.random.default_rng(int(seed))], idx)
            rep = hmod._RUNNERS[cfg.identity](cfg, values, idx)
            rep.settings["rejected"], rep.draw_index = rejected, idx
            out.append(rep.to_json())
        return out

    @pytest.mark.parametrize("identity", hmod.IDENTITIES)
    def test_a_campaign_draw_is_its_draw_sampled_alone(self, identity):
        cfg = CampaignConfig(identity=identity, seed=5, draws=self.DRAWS)
        reports = run_campaign(cfg)
        assert all(r.error is None for r in reports)
        assert [r.to_json() for r in reports] == self._each_alone(cfg)

    @pytest.mark.parametrize("N, seed, rejected", [(8, 36, 1), (10, 0, 23)])
    def test_a_residue_campaign_with_rejections_is_each_draw_sampled_alone(self, N, seed,
                                                                           rejected):
        # a rejected draw samples again in the next round's pass, beside the
        # other draws of its chunk still pending
        cfg = CampaignConfig(identity="residue-reduction", N=N, seed=seed, draws=self.DRAWS)
        reports = run_campaign(cfg)
        assert all(r.error is None for r in reports)
        assert sum(r.settings["rejected"] for r in reports) == rejected
        assert [r.to_json() for r in reports] == self._each_alone(cfg)

    def test_a_threaded_campaign_whose_check_runs_in_its_sampler(self, monkeypatch):
        # residue-reduction's check is the item of its sampling attempt
        monkeypatch.setenv("ELLIPTIC_BAILEY_THREADS", "2")
        cfg = CampaignConfig(identity="residue-reduction", seed=5, draws=self.DRAWS, threads=2)
        reports = run_campaign(cfg)
        assert all(r.error is None for r in reports)
        assert [r.to_json() for r in reports] == self._each_alone(cfg)


@functools.cache
def _near_unit_nome_campaign():
    # `verify special-functions --draws 20 --seed 3 --p 0.95 --q 0.9`; the
    # product in the quadratic transformation overflows on draws 11, 13 and
    # 19; the reports, and every warning the campaign issued
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reports = run_campaign(CampaignConfig(identity="special-functions", draws=20, seed=3,
                                              p=0.95, q=0.9))
    return reports, caught


class TestVerdictFold:
    _COMPONENTS = ["inversion", "fd_equation_q", "fd_equation_p", "quadratic_transformation",
                   "residue_limit"]

    def test_a_nan_special_functions_component_fails_its_draw(self, monkeypatch, nan_on_call):
        cfg = CampaignConfig(identity="special-functions", seed=3, draws=1)
        gammas = hmod._gamma_groups

        ratio = hmod._residual_ratio

        def nan_inverse(groups, where=None):
            out = gammas(groups, where)
            for values in out:
                values[3] = math.nan  # Gamma(pq/z), read by the inversion alone
            return out

        def nan_entry(i):
            def poisoned(lhs, rhs):
                out = ratio(lhs, rhs).copy()
                out[i] = math.nan
                return out
            return poisoned

        # the entries of the one residual ratio, in order: the two difference
        # equations, the residue limit
        poisons = {
            "inversion": ("_gamma_groups", nan_inverse),
            "fd_equation_q": ("_residual_ratio", nan_entry(0)),
            "fd_equation_p": ("_residual_ratio", nan_entry(1)),
            "quadratic_transformation": ("_quadratic_residual", 0),
            "residue_limit": ("_residual_ratio", nan_entry(2)),
        }
        assert list(poisons) == self._COMPONENTS
        for component, (name, poison) in poisons.items():
            with monkeypatch.context() as m:
                if not callable(poison):
                    poison = nan_on_call(getattr(hmod, name), poison)
                m.setattr(hmod, name, poison)
                (rep,) = run_campaign(cfg)
            assert math.isnan(rep.details[component]), component
            assert math.isnan(rep.residual) and not rep.passed, component
            others = [rep.details[c] for c in self._COMPONENTS if c != component]
            assert all(v < 1e-11 for v in others), component

    def test_overflowing_quadratic_product_is_compared_in_log_form(self):
        # the product of the eight gamma values overflows on draws 11, 13 and
        # 19, where each value is finite; the ratio to Gamma(z^2) from a sum
        # of logs gives them a residual, and a draw whose product is finite
        # keeps the direct difference
        reports, caught = _near_unit_nome_campaign()
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert all(r.error is None for r in reports)
        for idx in (11, 13, 19):
            quadratic = reports[idx].details["quadratic_transformation"]
            assert math.isfinite(quadratic) and quadratic < 1e-11
        assert math.isfinite(summarize(reports).max_residual)
        nome = hmod.NomePair(0.2, 0.3)
        values = elliptic_gamma(hmod._quadratic_points(0.6 + 0.2j, nome), nome)
        lhs, rhs = complex(values[0]), complex(values[1:].prod())
        assert hmod._quadratic_residual(values) == abs(lhs - rhs) / abs(lhs)

    def test_underflowing_gamma_value_is_rejected(self):
        # draw 9 first samples a z whose Gamma(z^2) underflows to 0; the
        # quadratic residual divided by it (an internal ZeroDivisionError)
        rep = _near_unit_nome_campaign()[0][9]
        assert rep.error is None and rep.passed
        assert rep.settings["rejected"] == 1

    def test_finite_difference_N0_is_exact(self):
        # M(+-1) f at N = 0 is f(+-x): the prefactor Gamma(x^-2) / Gamma(x^-2)
        # is 1, and f is compared at the x finite_difference_M reads
        reports = run_campaign(CampaignConfig(identity="finite-difference", N=0, seed=1, draws=100))
        assert [r.residual for r in reports] == [0.0] * 100
        assert all(r.lhs == r.rhs for r in reports)

    def test_finite_difference_N0_degenerate_prefactor_is_a_library_error(self):
        # near q = 1 a gamma value of the prefactor underflows or overflows;
        # it divided 0 by 0 or overflowed (internal errors under the warning filter)
        reports = run_campaign(CampaignConfig(identity="finite-difference", N=0, q=0.99999,
                                              draws=4, seed=1))
        for rep in reports:
            assert rep.error.startswith("DegenerateParameterError: Gamma("), rep.error
            assert rep.error.endswith("is zero or not finite in the finite-difference prefactor")


class TestDeterminism:
    def test_identical_configs_identical_reports(self):
        cfg = dict(identity="matrix-bailey", seed=314, draws=6, N=5)
        first = [r.to_json() for r in run_campaign(CampaignConfig(**cfg))]
        second = [r.to_json() for r in run_campaign(CampaignConfig(**cfg))]
        assert first == second

    def test_different_seeds_differ(self):
        a = [r.to_json() for r in run_campaign(CampaignConfig(identity="matrix-bailey", seed=1, draws=3, N=3))]
        b = [r.to_json() for r in run_campaign(CampaignConfig(identity="matrix-bailey", seed=2, draws=3, N=3))]
        assert a != b

    @pytest.mark.parametrize("identity", hmod.IDENTITIES)
    def test_threaded_run_matches_sequential(self, monkeypatch, identity):
        monkeypatch.setenv("ELLIPTIC_BAILEY_THREADS", "3")
        cfg = dict(identity=identity, seed=99, draws=12)
        seq = [r.to_json() for r in run_campaign(CampaignConfig(**cfg, threads=1))]
        par = [r.to_json() for r in run_campaign(CampaignConfig(**cfg, threads=3))]
        assert seq == par

    def test_env_var_caps_threads(self, monkeypatch):
        monkeypatch.setenv("ELLIPTIC_BAILEY_THREADS", "1")
        cfg = dict(identity="special-functions", seed=99, draws=4)
        capped = [r.to_json() for r in run_campaign(CampaignConfig(**cfg, threads=8))]
        seq = [r.to_json() for r in run_campaign(CampaignConfig(**cfg, threads=1))]
        assert capped == seq


class TestValidationAndErrors:
    def test_inadmissible_fixed_parameter(self):
        with pytest.raises(DomainError, match=r"\bt = 1.2 needs modulus < 1"):
            CampaignConfig(identity="star-triangle", draws=5, fixed={"t": 1.2})

    @pytest.mark.parametrize("identity", ["matrix-bailey", "star-triangle"])
    def test_fixed_y_of_modulus_two_is_admissible(self, identity):
        cfg = CampaignConfig(identity=identity, draws=1, seed=4, fixed={"y": 2.0})
        (rep,) = run_campaign(cfg)
        assert rep.error is None and rep.params["y"] == 2.0

    @pytest.mark.parametrize("identity", ["matrix-bailey", "coxeter"])
    def test_y_split_draw_at_p_zero_records_a_library_error(self, identity):
        reports = run_campaign(CampaignConfig(identity=identity, draws=4, seed=1, N=2, p=0))
        split = [r for r in reports if r.error is not None]
        assert [r.draw_index for r in split] == [0]
        assert split[0].error == "DomainError: derive_bc requires p != 0 (c divides by sqrt(p))"
        assert all(r.passed and r.settings["bc_mode"] == "free-bc" for r in reports[1:])

    def test_a_star_triangle_draw_whose_D_overflows_is_degenerate(self):
        # at q = 0.999 a spectator's D(t; y, w), a product of four finite gamma
        # values, overflows: the check ends the draw, which keeps its
        # rejections, and no warning leaves it
        (rep,) = run_campaign(CampaignConfig(identity="star-triangle", q=0.999, draws=1, seed=1))
        assert rep.error.startswith("DegenerateParameterError: D(t; y, w) = ")
        assert rep.settings == {"rejected": 21}

    def test_error_isolation(self):
        # an impossible fixed parameter set errors every draw via the retry
        # cap, without aborting the campaign
        cfg = CampaignConfig(
            identity="matrix-bailey", draws=3, N=2,
            fixed={"a": 0.5, "k": 0.5},  # a = k makes theta(k/a) = theta(1) = 0
        )
        reports = run_campaign(cfg)
        assert len(reports) == 3
        assert all(r.error is not None for r in reports)
        assert [r.draw_index for r in reports] == [0, 1, 2]

    def test_nonconvergence_captured_per_draw(self, monkeypatch):
        from elliptic_bailey import harness as hmod
        from elliptic_bailey.errors import QuadratureConvergenceError

        def boom(cfg, values, idx):
            raise QuadratureConvergenceError("stub hit the node cap")

        monkeypatch.setitem(hmod._RUNNERS, "beta-integral", boom)
        reports = run_campaign(CampaignConfig(identity="beta-integral", draws=2))
        assert all(r.error.startswith("non-convergence") for r in reports)
        assert all(not r.passed for r in reports)
        # run_campaign times every draw, an error report's too
        assert all(r.wall_time_s > 0.0 for r in reports)

    def test_error_report_carries_the_tolerance_a_pass_would(self, monkeypatch):
        def boom(cfg, values, idx):
            raise ValueError("stub fault")

        monkeypatch.setitem(hmod._RUNNERS, "finite-difference", boom)
        (rep,) = run_campaign(CampaignConfig(identity="finite-difference", N=0, draws=1))
        assert rep.error is not None
        assert rep.tolerance == 1e-14


class TestInternalErrors:
    CFG = dict(identity="special-functions", seed=11, draws=3)

    def _flaky_runner(self, monkeypatch):
        real = hmod._RUNNERS["special-functions"]

        def flaky(cfg, values, idx):
            if idx == 1:
                raise ValueError("stub failure")
            return real(cfg, values, idx)

        monkeypatch.setitem(hmod._RUNNERS, "special-functions", flaky)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_non_library_exception_stays_in_its_draw(self, monkeypatch, threads):
        reference = run_campaign(CampaignConfig(**self.CFG))
        self._flaky_runner(monkeypatch)
        monkeypatch.setenv("ELLIPTIC_BAILEY_THREADS", "2")
        reports = run_campaign(CampaignConfig(**self.CFG, threads=threads))
        assert [r.draw_index for r in reports] == [0, 1, 2]
        assert reports[1].error == "internal error: ValueError: stub failure"
        assert not reports[1].passed
        for i in (0, 2):
            assert reports[i].to_json() == reference[i].to_json()

    def test_verify_exits_1_on_internal_error(self, monkeypatch, capsys):
        from elliptic_bailey import cli

        self._flaky_runner(monkeypatch)
        code = cli.main(["verify", "special-functions", "--draws", "3", "--seed", "11", "--json"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert len(lines) == 4
        assert json.loads(lines[-1])["n_error"] == 1

    def test_base_exception_propagates(self, monkeypatch):
        class Stop(BaseException):
            pass

        def stop(cfg, values, idx):
            raise Stop

        monkeypatch.setitem(hmod._RUNNERS, "special-functions", stop)
        with pytest.raises(Stop):
            run_campaign(CampaignConfig(identity="special-functions", draws=2))


class TestSummarize:
    def test_empty(self):
        s = summarize([])
        assert s.n_reports == 0 and s.pass_rate == 0.0 and s.failures == []
        # the summary line ``verify --draws 0 --json`` prints
        assert s.to_json() == (
            '{"failures":[],"identity":"","max_residual":{"f":"0x0.0p+0"},'
            '"median_residual":{"f":"0x0.0p+0"},"n_error":0,"n_fail":0,"n_pass":0,'
            '"n_reports":0,"pass_rate":{"f":"0x0.0p+0"},"rejected_draws":0,'
            '"schema":"elliptic-bailey-summary/1"}'
        )

    def test_all_pass_rate(self):
        reports = run_campaign(CampaignConfig(identity="matrix-bailey", seed=7, draws=4, N=3))
        s = summarize(reports)
        assert s.pass_rate == 1.0
        assert s.n_fail == 0 and s.n_error == 0
        assert s.max_residual < 1e-9

    def test_mixed_campaign_failure_entries(self):
        good = VerificationReport(
            identity="demo", params={"a": 1.0 + 2.0j}, lhs=1.0, rhs=1.0,
            residual=1e-12, tolerance=1e-9, draw_index=0,
        )
        bad = VerificationReport(
            identity="demo", params={"a": 3.0 + 0.5j}, lhs=1.0, rhs=2.0,
            residual=0.5, tolerance=1e-9, draw_index=1,
        )
        errored = VerificationReport(
            identity="demo", params={}, lhs=None, rhs=None,
            residual=math.inf, tolerance=1e-9, error="boom", draw_index=2,
        )
        s = summarize([good, bad, errored])
        assert s.n_pass == 1 and s.n_fail == 1 and s.n_error == 1
        assert [f["draw_index"] for f in s.failures] == [1, 2]
        assert s.failures[0]["params"]["a"] == {"c": [(3.0).hex(), (0.5).hex()]}


    def test_all_error_campaign_reads_inf_residuals(self):
        errored = VerificationReport(identity="demo", params={}, lhs=None, rhs=None,
                                     residual=math.inf, tolerance=1e-9, error="boom")
        s = summarize([errored, errored])
        assert s.max_residual == s.median_residual == math.inf

    def test_max_residual_is_nan_whatever_the_order(self):
        def report(residual, error=None):
            return VerificationReport(identity="demo", params={}, lhs=None, rhs=None,
                                      residual=residual, tolerance=1e-9, error=error)

        for at in range(4):
            residuals = [1e-12, 4e-10, 3e-10, 2e-11]
            residuals[at] = math.nan
            reports = [report(r) for r in residuals] + [report(math.inf, error="boom")]
            s = summarize(reports)
            assert math.isnan(s.max_residual), at
            assert s.n_fail == 1 and s.n_error == 1


class TestReportSerialization:
    def test_round_trip_is_lossless(self):
        reports = run_campaign(CampaignConfig(identity="matrix-bailey", seed=5, draws=2, N=4))
        for rep in reports:
            back = VerificationReport.from_json(rep.to_json())
            assert back.to_json() == rep.to_json()
            assert back.residual == rep.residual
            assert back.params == rep.params

    def test_timing_excluded_by_default(self):
        reports = run_campaign(CampaignConfig(identity="special-functions", seed=5, draws=1))
        assert "wall_time_s" not in reports[0].to_json()
        assert "wall_time_s" in reports[0].to_json(include_timing=True)
        assert reports[0].wall_time_s > 0.0

    def test_pass_iff_residual_below_tolerance(self):
        rep = VerificationReport(
            identity="demo", params={}, lhs=1.0, rhs=1.0,
            residual=1e-10, tolerance=1e-9,
        )
        assert rep.passed
        rep.residual = 1e-8
        assert not rep.passed
