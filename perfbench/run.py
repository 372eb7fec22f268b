"""Campaign benchmark for elliptic-bailey.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  One client in one process issues verification
campaigns back to back, each only after the previous one returns (closed
loop), by calling ``elliptic_bailey.cli.main(["verify", ..., "--json"])``
in-process with stdout captured.  Campaigns run at the default threads=1.

``--trace 0`` runs a fixed number of rounds of campaigns, sized to last about
``--seconds`` on the machine that recorded ``baseline.json`` and to hold
enough draws for the tail percentile, and reports the end-to-end metrics.
The count is fixed rather than time-bound so that two runs of one seed make
the same draws and report the same ``attempted`` and ``failed``.
``--trace 1`` runs the workload's fixed number of rounds twice, once plain and
once with every layer wrapped (see ``tracing.py``), and reports the per-layer
metrics; the ratio of the two times is the tracing overhead.

``draws_per_s``, ``draw_p50_ms`` and ``draw_tail_ms`` are reported at a
reference machine speed.  The speed of a shared virtual machine drifts by
+-20% over seconds, far more than a code change should be allowed to hide
in.  So a fixed probe (interpreter loop plus complex vector work, 3.5-5 ms)
runs before the first campaign and after each one, and every campaign's time,
and its draws' latencies, are scaled by PROBE_REF_S over the median of the
probes taken within PROBE_WINDOW_S of it.  ``draw_tail_ms`` is the median,
over blocks of whole rounds, of each block's TAIL_PCT-th percentile, so a
slowdown shorter than a block moves one block and not the metric.
``setup_s`` stays raw.  Raw values of every time are kept in the details
file and on stderr.

Every campaign's JSON is checked (one report per draw, a summary that agrees
with them, an exit code that agrees with the summary, and each ``pass`` equal
to ``error is None and residual < tolerance``).  A draw that fails or errors
counts in ``failed``; a malformed or inconsistent output makes ``correct``
false.  The SHA-256 of round 0's output is the workload's fingerprint; it is
compared with the value stored in ``baseline.json`` and with earlier runs of
the same seed, and a mismatch is reported but is not a failure.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable report goes
to standard error, and the details of the run to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
TAIL_PCT = 95             # percentile of draw latency reported as draw_tail_ms
TAIL_BEYOND = 10          # draws each tail block must put beyond TAIL_PCT
SETUP_SAMPLES = 9         # fresh interpreters timed for setup_s, after one warm-up
# the probe's median duration on the 2-vCPU machine that recorded baseline.json
PROBE_REF_S = 0.0047
# a campaign's speed is the median of the probes taken within this many
# seconds of it; the machine's speed phases last several seconds
PROBE_WINDOW_S = 1.0

# layer-share check: the workload's named spans must hold at least this share
# of self time in the traced run
LAYER_MAP = {
    "lattice-q08": (("special_functions.gamma",), 0.80),
    "discrete-n8": (("special_functions.theta", "special_functions.pochhammer",
                     "bailey_algebra.*"), 0.50),
}

SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
from elliptic_bailey import cli, harness
class FirstDraw(BaseException):
    pass
def first_draw(*args):
    raise FirstDraw
for name in list(harness._RUNNERS):
    harness._RUNNERS[name] = first_draw
try:
    cli.main(sys.argv[2:])
except FirstDraw:
    print(time.monotonic_ns())
"""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        return _fail("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "elliptic_bailey").is_dir():
        return _fail(f"no elliptic_bailey sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    bench = Bench(workload, args.seed)
    result = bench.traced() if args.trace else bench.untraced(args.seconds)
    bench.report(result, args.trace)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


class Bench:
    def __init__(self, workload, seed):
        from elliptic_bailey import cli, harness

        self.cli, self.harness = cli, harness
        self.workload, self.seed = workload, seed
        self.problems: list = []
        self.originals = dict(harness._RUNNERS)
        self.machine = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        }

    # -------------------------------------------------------------- the loop

    def loop(self, rounds):
        """Issue ``rounds`` rounds of campaigns back to back."""
        latencies: list = []

        def timed(runner):
            def run(cfg, rng, idx):
                start = time.perf_counter()
                try:
                    return runner(cfg, rng, idx)
                finally:
                    latencies.append(time.perf_counter() - start)
            return run

        runners = self.harness._RUNNERS
        saved = dict(runners)
        for name, runner in saved.items():
            runners[name] = timed(runner)
        draws = failed = 0
        round_ends: list = []   # len(latencies) after each round
        spans: list = []    # (start, end, first latency, end latency) per campaign
        probes = [(time.perf_counter(), probe())]
        fingerprint = hashlib.sha256()
        try:
            for rnd in range(rounds):
                for argv in self.workload.round_argv(self.seed, rnd):
                    first = len(latencies)
                    t0 = time.perf_counter()
                    buf = io.StringIO()
                    with redirect_stdout(buf):
                        code = self.cli.main(argv)
                    out = buf.getvalue()
                    n, bad = self.check(argv, code, out)
                    spans.append((t0, time.perf_counter(), first, len(latencies)))
                    probes.append((time.perf_counter(), probe()))
                    draws += n
                    failed += bad
                    if rnd == 0:
                        fingerprint.update(out.encode())
                round_ends.append(len(latencies))
        finally:
            runners.update(saved)
        raw_s = ref_s = 0.0
        ref_ms, factors = [], []
        for t0, t1, first, end in spans:
            factor = _speed_factor(probes, t0, t1)
            factors.append(factor)
            raw_s += t1 - t0
            ref_s += (t1 - t0) * factor
            ref_ms += [x * factor * 1e3 for x in latencies[first:end]]
        if len(latencies) != draws:
            self.problems.append(f"{len(latencies)} runner calls for {draws} draws")
        return {"raw_s": raw_s, "ref_s": ref_s, "draws": draws, "failed": failed, "rounds": rounds,
                "fingerprint": fingerprint.hexdigest(), "ref_ms": ref_ms,
                "raw_ms": [x * 1e3 for x in latencies], "round_ends": round_ends,
                "speed_factor_median": statistics.median(factors)}

    def check(self, argv, code, out):
        """Validate one campaign's JSON; return (draws, failed or errored draws)."""
        want = int(argv[argv.index("--draws") + 1])
        try:
            lines = out.splitlines()
            summary = json.loads(lines[-1])
            reports = [json.loads(line) for line in lines[:-1]]
            passed = [r["pass"] for r in reports]
            errors = [r["error"] for r in reports]
            recomputed = [
                r["error"] is None and _hexf(r["residual"]) < _hexf(r["tolerance"]) for r in reports
            ]
            if any(e is not None and e.startswith("non-convergence") for e in errors):
                want_code = 3
            else:
                want_code = 1 if not all(passed) else 0
            ok = (
                summary["schema"].startswith("elliptic-bailey-summary/")
                and all(r["schema"].startswith("elliptic-bailey-report/") for r in reports)
                and [r["draw_index"] for r in reports] == list(range(want))
                and summary["n_reports"] == want
                and summary["n_pass"] == sum(passed)
                and summary["n_error"] == sum(e is not None for e in errors)
                and passed == recomputed
                and code == want_code
            )
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            self.problems.append(f"{' '.join(argv)}: unreadable output ({exc!r})")
            return want, want
        if not ok:
            self.problems.append(f"{' '.join(argv)}: inconsistent output (exit code {code})")
        return want, want - sum(passed)

    # ----------------------------------------------------------------- modes

    def untraced(self, seconds):
        setup = self.setup_times()
        run = self.loop(self.workload.rounds_for(seconds, _draws_for_tail()))
        metrics = {
            "draws_per_s": _metric(run["draws"] / run["ref_s"], "1/s"),
            "draw_p50_ms": _metric(statistics.median(run["ref_ms"]), "ms"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        tail = _tail(run["ref_ms"], run["round_ends"])
        if tail is not None:
            metrics["draw_tail_ms"] = _metric(tail, "ms")
        return self._result(run, metrics, details={
            "raw": {
                "draws_per_s": run["draws"] / run["raw_s"],
                "draw_p50_ms": statistics.median(run["raw_ms"]),
                "draw_tail_ms": _tail(run["raw_ms"], run["round_ends"]),
            },
            "setup_samples_s": setup,
            "tail": {"percentile": TAIL_PCT, "draws": len(run["raw_ms"]),
                     "block_draws": [len(b) for b in _tail_blocks(run["raw_ms"], run["round_ends"])],
                     "absent": tail is None},
        })

    def traced(self):
        from tracing import MODULES, Tracer

        rounds = self.workload.trace_rounds
        plain = self.loop(rounds)
        tracer = Tracer()
        try:
            traced = self.loop(rounds)
        finally:
            unrestored = tracer.restore()
        if unrestored or self.harness._RUNNERS != self.originals:
            self.problems.append(f"originals not restored: {unrestored or 'harness._RUNNERS'}")
        if plain["fingerprint"] != traced["fingerprint"]:
            self.problems.append("round-0 output differs between the plain and the traced pass")
        if (plain["draws"], plain["failed"]) != (traced["draws"], traced["failed"]):
            self.problems.append("plain and traced passes disagree on draws or failures")
        values, bases = tracer.metrics()
        by_span, by_module = tracer.self_shares()
        metrics = {name: _metric(v, _unit(name)) for name, v in values.items()}
        metrics["trace.overhead_ratio"] = _metric(traced["ref_s"] / plain["ref_s"], "ratio")
        for module in MODULES:
            metrics[f"{module}.self_share"] = _metric(by_module.get(module, 0.0), "ratio")
        spans_path = OUT_DIR / f"spans-{self.workload.name}-seed{self.seed}.jsonl.gz"
        tracer.write_spans(spans_path)
        return self._result(traced, metrics, details={
            "plain_draws_per_s": plain["draws"] / plain["ref_s"],
            "traced_draws_per_s": traced["draws"] / traced["ref_s"],
            "ratio_bases": bases,
            "self_share_by_span": by_span,
            "hits": dict(tracer.hits),
            "coverage_failures": self.coverage(tracer, values),
            "layer_map": self.layer_map(by_span),
            "spans_file": str(spans_path.relative_to(ROOT)),
        })

    def _result(self, run, metrics, details):
        stored = _stored_fingerprint(self.workload.name, self.seed)
        return {
            "correct": not self.problems,
            "attempted": run["draws"],
            "failed": run["failed"],
            "metrics": metrics,
            "workload": self.workload.name,
            "seed": self.seed,
            "rounds": run["rounds"],
            "raw_wall_s": run["raw_s"],
            "speed_factor_median": run["speed_factor_median"],
            "fail_share": run["failed"] / run["draws"],
            "fingerprint": run["fingerprint"],
            "fingerprint_vs_stored": (
                "no stored value for this seed" if stored is None
                else "match" if stored == run["fingerprint"] else f"MISMATCH (stored {stored})"
            ),
            "fingerprint_vs_earlier_runs": _remember_fingerprint(
                self.workload.name, self.seed, run["fingerprint"]),
            "problems": self.problems,
            "machine": self.machine,
            **details,
        }

    # ---------------------------------------------------------------- checks

    def coverage(self, tracer, values):
        """Bindings the workload must hit but missed, or must miss but hit."""
        out = [f"{b} not hit" for b in self.workload.hot if tracer.hits[b] == 0]
        out += [f"{b} hit {tracer.hits[b]} times" for b in self.workload.cold if tracer.hits[b]]
        if self.workload.cold and values["special_functions.gamma.points"] != 0:
            out.append(f"gamma points = {values['special_functions.gamma.points']}, expected 0")
        return out

    def layer_map(self, by_span):
        spec = LAYER_MAP.get(self.workload.name)
        if spec is None:
            return None
        names, floor = spec
        share = sum(
            v for span, v in by_span.items()
            if any(span == n or (n.endswith("*") and span.startswith(n[:-1])) for n in names)
        )
        return {"spans": names, "share": share, "floor": floor, "confirmed": share >= floor}

    def setup_times(self):
        """Seconds from spawning a fresh interpreter to its first draw."""
        argv = next(self.workload.round_argv(self.seed, 0))
        times = []
        for i in range(SETUP_SAMPLES + 1):
            start = time.monotonic_ns()
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CHILD, str(SRC), *argv],
                capture_output=True, text=True, timeout=120, cwd=ROOT,
            )
            lines = proc.stdout.split()
            if proc.returncode != 0 or not lines:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
            if i:  # the first spawn only warms the file cache
                times.append((int(lines[-1]) - start) / 1e9)
        return times

    # ---------------------------------------------------------------- output

    def report(self, result, trace):
        err = sys.stderr
        print(f"perfbench {result['workload']} seed={result['seed']} trace={trace} "
              f"rounds={result['rounds']} draws={result['attempted']} "
              f"raw wall={result['raw_wall_s']:.2f}s speed factor "
              f"{result['speed_factor_median']:.3f} machine={result['machine']}", file=err)
        for name, m in result["metrics"].items():
            raw = result.get("raw", {}).get(name)
            raw_txt = f"   (raw {raw:.6g})" if raw is not None else ""
            print(f"  {name:42s} {m['value']:.6g} {m['unit']}{raw_txt}", file=err)
        print(f"  {'fail_share':42s} {result['fail_share']:.6g} share "
              f"({result['failed']} of {result['attempted']} draws failed or errored)", file=err)
        if not trace:
            t = result["tail"]
            state = "ABSENT: too few draws" if t["absent"] else "ok"
            print(f"  draw_tail_ms is the median of p{t['percentile']} over "
                  f"{len(t['block_draws'])} blocks of {t['block_draws']} draws "
                  f"(of {t['draws']}; {state})", file=err)
        else:
            print(f"  tracing overhead: {result['plain_draws_per_s']:.4g} draws/s plain, "
                  f"{result['traced_draws_per_s']:.4g} traced", file=err)
            for name, base in result["ratio_bases"].items():
                value = result["metrics"][base]["value"]
                state = "; absent, reads 0" if value == 0 else ""
                print(f"  {name} has base {base} = {value:.6g}{state}", file=err)
            shares = sorted(result["self_share_by_span"].items(), key=lambda kv: -kv[1])
            print("  self-time share: " + ", ".join(f"{k} {v:.1%}" for k, v in shares), file=err)
            cov = result["coverage_failures"]
            print("  coverage: " + ("ok" if not cov else "FAIL: " + "; ".join(cov)), file=err)
            lm = result["layer_map"]
            if lm is not None:
                verdict = "confirmed" if lm["confirmed"] else "NOT CONFIRMED"
                print(f"  layer map {verdict}: {' + '.join(lm['spans'])} = {lm['share']:.1%} "
                      f"of self time (expected >= {lm['floor']:.0%})", file=err)
        print(f"  fingerprint {result['fingerprint'][:16]}: {result['fingerprint_vs_stored']}; "
              f"earlier runs of this seed: {result['fingerprint_vs_earlier_runs']}", file=err)
        for problem in result["problems"]:
            print(f"  PROBLEM: {problem}", file=err)
        path = OUT_DIR / f"{result['workload']}-seed{result['seed']}-trace{trace}.json"
        skip = ("ref_ms", "raw_ms")
        path.write_text(json.dumps({k: v for k, v in result.items() if k not in skip},
                                   indent=1, default=str))


# -------------------------------------------------------------------- helpers

@functools.lru_cache(maxsize=1)
def _probe_grid():
    return 0.1 * np.exp(1j * np.linspace(0.0, 6.0, 256))[:, None] * np.exp(
        1j * np.linspace(0.0, 1.0, 256))[None, :]


def probe() -> float:
    """Seconds for a fixed mix of interpreter and complex-vector work."""
    grid = _probe_grid()
    start = time.perf_counter()
    acc = 0
    for k in range(20_000):
        acc += k * k
    np.log1p(-grid).sum()
    return time.perf_counter() - start


def _speed_factor(probes, t0, t1) -> float:
    """PROBE_REF_S over the median probe taken within PROBE_WINDOW_S of [t0, t1]
    (``probes`` is a time-ordered list of (taken at, seconds)); at least the
    nearest probe on each side counts."""
    times = [t for t, _d in probes]
    lo = min(bisect.bisect_left(times, t0 - PROBE_WINDOW_S), bisect.bisect_left(times, t0) - 1)
    hi = max(bisect.bisect_right(times, t1 + PROBE_WINDOW_S), bisect.bisect_right(times, t1) + 1)
    return PROBE_REF_S / statistics.median(d for _t, d in probes[max(lo, 0):hi])


def _hexf(value) -> float:
    return float.fromhex(value["f"])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _rank(n: int, pct: int) -> int:
    """Nearest-rank position (1-based) of the pct-th percentile of n values."""
    return max(1, math.ceil(pct * n / 100))


def _draws_for_tail() -> int:
    """Fewest draws that put TAIL_BEYOND draws beyond the TAIL_PCT-th percentile."""
    n = TAIL_BEYOND
    while n - _rank(n, TAIL_PCT) < TAIL_BEYOND:
        n += 1
    return n


def _percentile(sorted_values, pct):
    return sorted_values[_rank(len(sorted_values), pct) - 1]


def _tail(values, round_ends):
    """Median over _tail_blocks of each block's TAIL_PCT-th percentile."""
    blocks = _tail_blocks(values, round_ends)
    if not blocks:
        return None
    return statistics.median(_percentile(sorted(b), TAIL_PCT) for b in blocks)


def _tail_blocks(values, round_ends):
    """Split the draws, in run order, into blocks of whole rounds that each hold
    at least _draws_for_tail() draws; a shorter remainder joins the last block."""
    need = _draws_for_tail()
    blocks, start = [], 0
    for end in round_ends:
        if end - start >= need:
            blocks.append(values[start:end])
            start = end
    if blocks:
        blocks[-1] += values[start:]
    return blocks


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ns_per_term"):
        return "ns"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


def _stored_fingerprint(workload, seed):
    stored = json.loads((BENCH_DIR / "baseline.json").read_text())["fingerprints"]
    return stored.get(workload, {}).get(str(seed))


def _remember_fingerprint(workload, seed, digest):
    """Compare with earlier runs of the same seed in this checkout, then record."""
    path = OUT_DIR / "fingerprints.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    earlier = seen.setdefault(workload, {}).get(str(seed))
    seen[workload][str(seed)] = digest
    path.write_text(json.dumps(seen, indent=1, sort_keys=True))
    if earlier is None:
        return "none yet"
    return "match" if earlier == digest else f"MISMATCH (earlier {earlier})"


if __name__ == "__main__":
    sys.exit(main())
