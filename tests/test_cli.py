import argparse
import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from elliptic_bailey import cli, special_functions
from elliptic_bailey.cli import main, parse_complex, CliError
from elliptic_bailey.harness import _IDENTITY, IDENTITIES, CampaignConfig

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
GOLDEN = Path(__file__).resolve().parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestComplexParsing:
    def test_forms(self):
        assert parse_complex("0.5") == 0.5
        assert parse_complex("-0.3") == -0.3
        assert parse_complex("0.5+0.2i") == 0.5 + 0.2j
        assert parse_complex("0.5-0.2i") == 0.5 - 0.2j
        assert parse_complex("1e-2+3e-1i") == 0.01 + 0.3j

    def test_rejects_spaces_and_garbage(self):
        with pytest.raises(CliError):
            parse_complex("0.5 + 0.2i")
        with pytest.raises(CliError):
            parse_complex("spam")

    @pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-inf", "nan+0.2i", "0.5-infi", "1e309"])
    def test_rejects_a_value_that_is_not_finite(self, text):
        with pytest.raises(CliError, match=re.escape(f"complex number '{text}' is not finite")):
            parse_complex(text)


class TestParser:
    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        # two main calls share one parser, and a usage error in the first
        # leaves the second's parse as a fresh parser's
        argv = ["verify", "coxeter", "--N", "0", "--draws", "1", "--seed", "7", "--json"]
        fresh = cli.build_parser.__wrapped__().parse_args(argv)
        parsers, parsed = [], []
        parse_args = argparse.ArgumentParser.parse_args

        def recording(self, args=None, namespace=None):
            parsers.append(self)
            parsed.append(parse_args(self, args, namespace))
            return parsed[-1]

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
        code, _, err = run_cli(capsys, "verify", "coxeter", "--draws", "many", "--p", "0.5")
        assert code == 2 and "invalid int value: 'many'" in err
        assert run_cli(capsys, *argv)[0] == 0
        assert len(parsers) == 2 and parsers[0] is parsers[1]
        assert parsed == [fresh]


class TestVerify:
    def test_json_line_count_and_exit(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "matrix-bailey", "--N", "4",
                               "--draws", "5", "--seed", "42", "--json")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6  # 5 reports + summary
        docs = [json.loads(line) for line in lines]
        assert all(d["schema"] == "elliptic-bailey-report/1" for d in docs[:-1])
        assert docs[-1]["schema"] == "elliptic-bailey-summary/1"
        assert docs[-1]["n_pass"] == 5

    def test_scalar_coxeter_residual_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "coxeter", "--N", "0",
                               "--draws", "1", "--seed", "7", "--json")
        assert code == 0
        rep = json.loads(out.strip().splitlines()[0])
        assert float.fromhex(rep["residual"]["f"]) == 0.0

    def test_missing_config_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "beta-integral", "--config", "missing.toml")
        assert code == 2
        assert "not found" in err

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[campaign]\ndraws = 3\nwibble = 1\n")
        code, _, err = run_cli(capsys, "verify", "matrix-bailey", "--config", str(cfg))
        assert code == 2
        assert "wibble" in err

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[campaign]\ndraws = 2\nseed = 9\nn = 3\n")
        code, out, _ = run_cli(capsys, "verify", "matrix-bailey",
                               "--config", str(cfg), "--draws", "1", "--json")
        assert code == 0
        assert len(out.strip().splitlines()) == 2  # flag overrode draws

    def test_failure_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "matrix-bailey", "--N", "3",
                               "--draws", "2", "--seed", "3", "--tol", "1e-30")
        assert code == 1

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tolerance_exits_2(self, capsys, tol):
        code, out, err = run_cli(capsys, "verify", "matrix-bailey", "--draws", "2", "--tol", tol)
        assert code == 2
        assert "tolerance" in err
        assert out == ""

    def test_inadmissible_fixed_parameter(self, capsys, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[campaign]\ndraws = 4\n\n[fixed]\nt = 1.2\n")
        code, out, err = run_cli(capsys, "verify", "star-triangle", "--config", str(cfg), "--json")
        assert code == 2
        assert out == ""
        assert "fixed parameter t = " in err

    @pytest.mark.parametrize("argv, ini, named", [
        (("special-functions", "--p", "1.5"), "", "nome p = "),
        (("beta-integral", "--q", "-1"), "", "nome q = "),
        (("matrix-bailey",), "[fixed]\na = 1\n", "parameter a = "),
        (("star-triangle",), "[campaign]\nretry_cap = 5\n", "retry_cap"),
        (("special-functions",), "[campaign]\nidentity = matrix-bailey\n",
         "identity matrix-bailey but the command runs special-functions"),
        (("special-functions",), "[campaign]\nallow_complex_nomes = maybe\n",
         "allow_complex_nomes: 'maybe'"),
        # elliptic gamma is undefined at p = 0, and a fixed y makes every
        # discrete draw y-split, which divides by sqrt(p)
        (("special-functions", "--p", "0"), "", "special-functions needs a nonzero nome p"),
        (("star-triangle", "--p", "0"), "", "star-triangle needs a nonzero nome p"),
        (("beta-integral", "--p", "0"), "", "beta-integral needs a nonzero nome p"),
        (("coxeter", "--p", "0"), "[fixed]\ny = 1.1\n", "coxeter with y fixed needs a nonzero nome p"),
        # numpy's generator rejects a negative seed with a raw ValueError
        (("matrix-bailey", "--seed", "-1"), "", "seed must be a non-negative integer"),
        (("matrix-bailey",), "[campaign]\nseed = -1\n", "seed must be a non-negative integer"),
        # a nan or infinite value is refused where it is parsed
        (("special-functions", "--p", "nan"), "", "argument --p: complex number 'nan' is not finite"),
        (("special-functions",), "[campaign]\nq = inf\n", "complex number 'inf' is not finite"),
        (("matrix-bailey",), "[fixed]\na = nan+0.5i\n", "complex number 'nan+0.5i' is not finite"),
    ])
    def test_config_error_exits_2_before_any_draw(self, capsys, tmp_path, monkeypatch,
                                                  argv, ini, named):
        monkeypatch.setattr(cli, "run_campaign", lambda config: pytest.fail("a draw ran"))
        if ini:
            cfg = tmp_path / "c.ini"
            cfg.write_text(ini)
            argv += ("--config", str(cfg))
        code, out, err = run_cli(capsys, "verify", *argv, "--draws", "2", "--json")
        assert code == 2
        assert out == ""
        assert named in err

    def test_campaign_keys_mirror_the_verify_flags(self):
        # the CLI contract: INI [campaign] keys mirror the flags one-to-one
        verify = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices["verify"]
        dests = {a.dest for a in verify._actions} - {"help", "config", "json", "timing", "verbose"}
        fields = {f.name for f in dataclasses.fields(CampaignConfig)} - {"fixed"}
        assert dests == set(cli._CAMPAIGN_KEYS) == fields

    @pytest.mark.parametrize("ini, complex_nomes", [
        ("identity = special-functions\n", False),
        ("allow_complex_nomes = on\n", True),
        ("allow_complex_nomes = Yes\n", True),
        ("allow_complex_nomes = 0\n", False),
        ("allow_complex_nomes = off\n", False),
    ])
    def test_config_identity_and_boolean_spellings(self, capsys, tmp_path, monkeypatch,
                                                   ini, complex_nomes):
        configs = []
        monkeypatch.setattr(cli, "run_campaign", lambda config: configs.append(config) or [])
        cfg = tmp_path / "c.ini"
        cfg.write_text("[campaign]\n" + ini)
        assert main(["verify", "special-functions", "--config", str(cfg), "--json"]) == 0
        capsys.readouterr()
        (config,) = configs
        assert config.identity == "special-functions"
        assert config.allow_complex_nomes is complex_nomes

    @pytest.mark.parametrize("identity", IDENTITIES)
    def test_timing_covers_every_identity(self, capsys, identity):
        code, out, _ = run_cli(capsys, "verify", identity, "--draws", "1", "--seed", "2",
                               "--json", "--timing")
        rep = json.loads(out.splitlines()[0])
        assert rep["error"] is None
        assert float.fromhex(rep["wall_time_s"]["f"]) > 0.0

    @pytest.mark.parametrize("argv, admissible", [
        (("finite-difference", "--N", "2"), "N in 0..1"),
        (("cauchy-deformation", "--N", "7"), "N in 0..3"),
        (("cauchy-deformation", "--N", "4"), "N in 0..3"),
        (("star-triangle", "--N", "5"), "N = 0"),
        (("special-functions", "--N", "1"), "N = 0"),
    ])
    def test_N_the_runner_does_not_honour_exits_2(self, capsys, argv, admissible):
        code, out, err = run_cli(capsys, "verify", *argv, "--draws", "2", "--json")
        assert code == 2
        assert out == ""
        assert admissible in err

    @pytest.mark.parametrize("identity, name, accepts", [
        ("beta-integral", "t9", "t1, t2, t3, t4, t5"),
        ("beta-integral", "a", "t1, t2, t3, t4, t5"),
        ("matrix-bailey", "t", "a, k, t_tilde, y"),
        ("special-functions", "z", "nothing"),
    ])
    def test_fixed_name_the_runner_never_reads_exits_2(self, capsys, tmp_path, identity, name,
                                                        accepts):
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[campaign]\ndraws = 2\n\n[fixed]\n{name} = 0.5\n")
        code, out, err = run_cli(capsys, "verify", identity, "--config", str(cfg), "--json")
        assert code == 2
        assert out == ""
        assert f"[fixed] accepts {accepts}" in err

    @pytest.mark.parametrize("identity, name", [
        (identity, name) for identity, spec in _IDENTITY.items() for name in spec.bounded + spec.free
    ])
    def test_zero_fixed_value_exits_2_before_any_draw(self, capsys, tmp_path, monkeypatch,
                                                      identity, name):
        monkeypatch.setattr(cli, "run_campaign", lambda config: pytest.fail("a draw ran"))
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[campaign]\ndraws = 2\n\n[fixed]\n{name} = 0\n")
        code, out, err = run_cli(capsys, "verify", identity, "--config", str(cfg), "--json")
        assert code == 2
        assert out == ""
        assert f"fixed parameter {name} = " in err

    @pytest.mark.parametrize("identity", IDENTITIES)
    def test_fixed_q_zero_exits_2_before_any_draw(self, capsys, monkeypatch, identity):
        # every identity divides by q or by theta(q; p); p = 0 stays admissible
        # wherever the identity's record does not need p
        monkeypatch.setattr(cli, "run_campaign", lambda config: pytest.fail("a draw ran"))
        code, out, err = run_cli(capsys, "verify", identity, "--q", "0", "--draws", "2", "--json")
        assert code == 2
        assert out == ""
        assert "fixed nome q = " in err
        if not _IDENTITY[identity].needs_p:
            assert CampaignConfig(identity=identity, p=0.0).p == 0.0

    def test_every_benchmark_campaign_passes_the_config_boundary(self, capsys, monkeypatch):
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # the dataclass looks it up
        spec.loader.exec_module(workloads)
        configs = []
        monkeypatch.setattr(cli, "run_campaign", lambda config: configs.append(config) or [])
        argvs = [argv for w in workloads.WORKLOADS.values() for argv in w.round_argv(0, 0)]
        assert argvs
        for argv in argvs:
            assert main(argv) == 0, argv
        capsys.readouterr()
        assert [c.identity for c in configs] == [argv[1] for argv in argvs]

    def test_byte_identical_reruns(self, capsys):
        args = ("verify", "special-functions", "--draws", "6", "--seed", "123", "--json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    # two runs of today's code agree with each other whatever it computes;
    # the committed output pins every value, residual and encoded bit
    @pytest.mark.parametrize("golden, argv", [
        ("special-functions-seed20108.jsonl",
         ("special-functions", "--draws", "20", "--seed", "20108")),
        ("residue-reduction-N4-seed20800.jsonl",
         ("residue-reduction", "--N", "4", "--draws", "10", "--seed", "20800")),
        ("matrix-bailey-N8-seed20308.jsonl",
         ("matrix-bailey", "--N", "8", "--draws", "20", "--seed", "20308")),
        ("coxeter-N8-seed20500.jsonl",
         ("coxeter", "--N", "8", "--draws", "20", "--seed", "20500")),
        ("matrix-bailey-N5-seed21000-complex.jsonl",
         ("matrix-bailey", "--N", "5", "--draws", "20", "--seed", "21000", "--complex-nomes")),
        ("beta-integral-seed20205.jsonl", ("beta-integral", "--draws", "4", "--seed", "20205")),
        ("star-triangle-seed20600.jsonl", ("star-triangle", "--draws", "4", "--seed", "20600")),
        # perfbench's rings-smallq campaign at seed 0, round 0; draw 6 takes
        # its last bits from the shift products of a one-group gamma call
        ("star-triangle-seed20600-draws10.jsonl",
         ("star-triangle", "--draws", "10", "--seed", "20600")),
        # draw 0 alone, a full chunk of _DRAW_CHUNK draws, then one draw; at
        # complex nomes kappa is no longer imaginary, and numpy's product of
        # complex arrays rounds apart from its product of scalars there
        ("star-triangle-seed20600-draws34.jsonl",
         ("star-triangle", "--draws", "34", "--seed", "20600")),
        ("beta-integral-seed20205-draws34.jsonl",
         ("beta-integral", "--draws", "34", "--seed", "20205")),
        ("star-triangle-seed20600-draws34-complex.jsonl",
         ("star-triangle", "--draws", "34", "--seed", "20600", "--complex-nomes")),
        ("beta-integral-seed20205-draws34-complex.jsonl",
         ("beta-integral", "--draws", "34", "--seed", "20205", "--complex-nomes")),
        ("cauchy-deformation-seed20700.jsonl",
         ("cauchy-deformation", "--draws", "3", "--seed", "20700")),
        ("finite-difference-seed20900.jsonl",
         ("finite-difference", "--draws", "4", "--seed", "20900")),
    ])
    def test_json_matches_the_committed_output(self, capsys, golden, argv):
        code, out, _ = run_cli(capsys, "verify", *argv, "--json")
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    # the summary's failure list, for failed draws and for draws that exhaust
    # the retry cap
    @pytest.mark.parametrize("golden, argv", [
        ("special-functions-seed5-tol1e-15.jsonl",
         ("special-functions", "--draws", "12", "--seed", "5", "--tol", "1e-15")),
        ("star-triangle-seed1-p06-q06.jsonl",
         ("star-triangle", "--draws", "2", "--seed", "1", "--p", "0.6", "--q", "0.6")),
    ])
    def test_failing_json_matches_the_committed_output(self, capsys, golden, argv):
        code, out, _ = run_cli(capsys, "verify", *argv, "--json")
        assert code == 1
        assert out == (GOLDEN / golden).read_text()

    # special-functions campaigns recorded before their draws were sampled a
    # chunk at a time: complex nomes, two threads over a draw count that is
    # not a multiple of the chunk, near-unit nomes with one rejection (draw
    # 9), and a fixed p = 0.999 where every draw reaches the retry cap; and
    # two recorded before a chunk's thetas came from one product pass:
    # lattice-q08's first campaign, and q = 0.99, whose theta products of
    # ~3800 factors span several blocks of the pass
    @pytest.mark.parametrize("golden, argv, code", [
        ("special-functions-seed21-complex.jsonl",
         ("--draws", "20", "--seed", "21", "--complex-nomes"), 0),
        ("special-functions-seed22-threads2.jsonl",
         ("--draws", "35", "--seed", "22", "--threads", "2"), 0),
        ("special-functions-seed3-p095-q09.jsonl",
         ("--draws", "20", "--seed", "3", "--p", "0.95", "--q", "0.9"), 0),
        ("special-functions-seed1-p0999.jsonl", ("--draws", "2", "--seed", "1", "--p", "0.999"), 1),
        ("special-functions-seed20108-q08.jsonl",
         ("--draws", "40", "--seed", "20108", "--q", "0.8"), 0),
        ("special-functions-seed20199-q099.jsonl",
         ("--draws", "20", "--seed", "20199", "--q", "0.99"), 0),
    ])
    def test_chunked_special_functions_match_the_committed_output(self, capsys, golden, argv, code):
        got, out, _ = run_cli(capsys, "verify", "special-functions", *argv, "--json")
        assert got == code
        assert out == (GOLDEN / golden).read_text()

    def test_a_shift_table_past_max_terms_ends_each_draw_at_once(self, capsys):
        # at p = 0.99999 each draw's 14 points take ~1e5 theta shifts apiece;
        # before the cap every attempt built those tables, and two draws ran
        # for minutes
        import time

        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "verify", "special-functions", "--draws", "2", "--seed", "1",
                               "--p", "0.99999", "--json")
        assert time.perf_counter() - start < 5.0
        assert code == 1
        reports = [json.loads(line) for line in out.splitlines()[:-1]]
        assert len(reports) == 2
        assert all(r["error"].startswith("TruncationLimitError: theta shift factors need a 14 x ")
                   for r in reports)

    # next to the unit circle a check's gamma rings overflow (beta) or its
    # fixed gamma values leave the double range (star-triangle); each draw
    # ends at once with a library error, with no warning, where the rings
    # ran to the node cap and the fixed values divided by zero
    @pytest.mark.parametrize("argv, error", [
        (("beta-integral", "--q", "0.999"),
         "DegenerateParameterError: Gamma on the ring of scale "),
        (("star-triangle", "--q", "0.9999"), "DegenerateParameterError: Gamma("),
    ], ids=["beta-integral", "star-triangle"])
    def test_a_near_unit_campaign_ends_each_draw_with_a_library_error(self, capsys, argv, error):
        import time

        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", *argv, "--draws", "3", "--seed", "1", "--json")
        assert time.perf_counter() - start < 0.5
        assert code == 1
        assert err == ""
        reports = [json.loads(line) for line in out.splitlines()[:-1]]
        assert len(reports) == 3
        assert all(r["error"].startswith(error) for r in reports)

    # each quadrature keeps its node history for one integral only; a history
    # that leaked into the next draw or the next run would show here
    @pytest.mark.parametrize("identity", ["star-triangle", "cauchy-deformation", "beta-integral",
                                          "finite-difference"])
    def test_integral_identities_rerun_byte_identically(self, capsys, identity):
        args = ("verify", identity, "--draws", "3", "--seed", "5", "--json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert len(out1.strip().splitlines()) == 4
        assert out1 == out2

    def test_fifty_draw_campaign_emits_51_lines(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "matrix-bailey", "--N", "6",
                               "--draws", "50", "--seed", "42", "--json")
        assert code == 0
        assert len(out.strip().splitlines()) == 51


class TestEval:
    def test_theta_zero(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "theta", "--z", "1", "--p", "0.2")
        assert code == 0
        assert out.splitlines()[0].endswith("= 0.0")

    @pytest.mark.parametrize("argv", [
        ("theta", "--z", "0.01", "--p", "0.5"),
        ("theta", "--z", "3+1i", "--p", "0.2-0.1i"),
        ("pochhammer", "--z", "3", "--n", "4", "--p", "0.5", "--q", "0.5"),
        ("pochhammer", "--z", "0.3", "--n", "-3", "--p", "0.5", "--q", "0.5"),
        ("m-entry", "--N", "2", "--m", "1", "--a", "0.3", "--k", "0.7", "--p", "0.1", "--q", "0.2"),
        ("d-entry", "--m", "3", "--a", "0.4", "--b", "0.5", "--c", "0.9", "--p", "0.1", "--q", "0.2"),
        # no theta call, so no order is printed
        ("m-entry", "--N", "2", "--m", "3", "--a", "0.3", "--k", "0.7", "--p", "0.1", "--q", "0.2"),
        ("d-entry", "--m", "0", "--a", "0.4", "--b", "0.5", "--c", "0.9", "--p", "0.1", "--q", "0.2"),
    ])
    def test_printed_theta_order_is_the_order_used(self, capsys, monkeypatch, argv):
        # records the product length of every _qpoch_rows call that forms
        # thetas: theta's own, and a theta-Pochhammer table's
        rows = special_functions._qpoch_rows
        used = set()

        def recording(x, bases, at, orders):
            if sys._getframe(1).f_code.co_name in ("theta", "_guarded_pochhammer"):
                used.add(orders)
            return rows(x, bases, at, orders)

        monkeypatch.setattr(special_functions, "_qpoch_rows", recording)
        code, out, _ = run_cli(capsys, "eval", *argv)
        assert code == 0
        printed = {int(line.rstrip("]").split()[-1]) for line in out.splitlines()[1:]}
        assert used == printed
        assert len(used) <= 1

    def test_pochhammer_of_order_zero_prints_no_theta_order(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "pochhammer", "--z", "3", "--n", "0",
                               "--p", "0.5", "--q", "0.5")
        assert code == 0
        assert out.splitlines() == ["theta(3.0)_0 = 1.0"]

    def test_m_entry_triangular_zero(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "m-entry", "--N", "2", "--m", "3",
                               "--a", "0.3", "--k", "0.7", "--p", "0.1", "--q", "0.2")
        assert code == 0
        assert out.splitlines()[0].endswith("= 0.0")

    def test_gamma_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "gamma", "--z", "0.5", "--p", "0.1", "--q", "0.2")
        assert code == 0
        from elliptic_bailey.special_functions import NomePair, elliptic_gamma

        val = float(out.splitlines()[0].split("=")[1].strip())
        assert abs(val - elliptic_gamma(0.5, NomePair(0.1, 0.2)).real) < 1e-15
        assert "truncation orders" in out

    def test_domain_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "gamma", "--z", "1.0", "--p", "0.1", "--q", "0.2")
        assert code == 2

    def test_gamma_beyond_the_double_range_exits_2(self, capsys):
        # the value overflows; it printed nan-nani with RuntimeWarnings before
        code, out, err = run_cli(capsys, "eval", "gamma", "--z", "1e-40", "--p", "0.2", "--q", "0.3")
        assert code == 2
        assert out == ""
        assert "Gamma((1e-40+0j))" in err and "not finite" in err

    def test_theta_beyond_the_double_range_exits_2(self, capsys):
        # the product's tail bound overflows; it ended in a ValueError traceback
        code, out, err = run_cli(capsys, "eval", "theta", "--z", "1e308", "--p", "0.1")
        assert code == 2
        assert out == ""
        assert err == ("error: q-Pochhammer tail bound inf is not finite (base 0.1); "
                       "no truncation order bounds it\n")

    @pytest.mark.parametrize("argv, label", [
        (("theta", "--z", "1e30", "--p", "0.5"), "theta(1e+30; 0.5)"),
        (("theta", "--z", "1e-200", "--p", "0.5"), "theta(1e-200; 0.5)"),
        (("theta", "--z", "1e150", "--p", "0.01"), "theta(1e+150; 0.01)"),
        (("pochhammer", "--z", "1e30", "--n", "3", "--p", "0.5", "--q", "0.3"), "theta(1e+30)_3"),
    ])
    def test_a_product_beyond_the_double_range_exits_2(self, capsys, argv, label):
        # the product overflows to nan; it printed nan-nani and exited 0 before
        code, out, err = run_cli(capsys, "eval", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {label} = (nan+nanj) is not finite\n"

    def test_a_product_beyond_the_double_range_prints_no_warning(self):
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-m", "elliptic_bailey.cli", "eval", "theta",
                               "--z", "1e30", "--p", "0.5"], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: theta(1e+30; 0.5) = (nan+nanj) is not finite\n"

    def test_non_finite_argument_exits_2_before_any_arithmetic(self, capsys, monkeypatch):
        # theta's p / z warned on nan before its error message
        monkeypatch.setattr(cli, "theta", lambda *args: pytest.fail("theta ran"))
        code, out, err = run_cli(capsys, "eval", "theta", "--z", "nan", "--p", "0.1")
        assert (code, out) == (2, "")
        assert err.endswith("error: argument --z: complex number 'nan' is not finite\n")

    def test_non_finite_argument_prints_no_warning(self):
        # in a process of its own, where numpy's warnings reach stderr
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-m", "elliptic_bailey.cli", "eval", "theta",
                               "--z", "nan", "--p", "0.1"], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "RuntimeWarning" not in proc.stderr
        assert "complex number 'nan' is not finite" in proc.stderr

    def test_unparsable_argument_is_a_usage_error(self, capsys):
        # the parser's CliError ended in a traceback and exit code 1
        code, out, err = run_cli(capsys, "eval", "theta", "--z", "0.5 + 0.2i", "--p", "0.1")
        assert (code, out) == (2, "")
        assert "argument --z: complex literal may not contain spaces" in err

    def test_missing_argument_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "gamma", "--p", "0.1", "--q", "0.2")
        assert code == 2
        assert "--z" in err

    def test_d_entry(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "d-entry", "--m", "0", "--a", "0.4",
                               "--b", "0.5", "--c", "0.9", "--p", "0.1", "--q", "0.2")
        assert code == 0
        assert out.splitlines()[0].endswith("= 1.0")

    def test_d_entry_overflow_exits_2(self, capsys):
        # theta(b)_8 theta(c)_8 overflows at p = 0.5; the entry is not a number
        code, out, err = run_cli(capsys, "eval", "d-entry", "--m", "8", "--a", "0.5", "--b", "0.3",
                                 "--c", "0.7", "--p", "0.5", "--q", "0.1")
        assert code == 2
        assert out == ""
        assert "overflows" in err

    def test_nonconvergence_exit_code(self, capsys, monkeypatch):
        import math
        from elliptic_bailey import cli
        from elliptic_bailey.report import VerificationReport

        def fake_run(config):
            return [VerificationReport(
                identity=config.identity, params={}, lhs=None, rhs=None,
                residual=math.inf, tolerance=1e-9, draw_index=0,
                error="non-convergence: stub integral hit the node cap",
            )]

        monkeypatch.setattr(cli, "run_campaign", fake_run)
        code, _, _ = run_cli(capsys, "verify", "beta-integral", "--draws", "1")
        assert code == 3
