"""Run the benchmark once per workload and seed, and summarise each metric.

    python3 perfbench/collect.py [--workloads a,b] [--seeds 0-9] [--trace 0|1]
                                 [--against earlier.json] [--out file.json]

Runs ``run.py`` one run at a time, for ``run_seconds`` from ``BENCHMARK.json``
(never two at once, so runs do not share the two cores).  For every workload
and metric it prints the median, the quartiles and the spread, which is the
distance between the quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median.  With
``--against`` it also compares with an earlier summary: fingerprints and
counts must repeat exactly for the same seed, and each end-to-end median
may not be worse than the earlier one by more than its bound in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--against", type=Path)
    ap.add_argument("--out", type=Path,
                    default=BENCH_DIR / "out" / f"collect-{time.strftime('%Y%m%d-%H%M%S')}.json")
    args = ap.parse_args(argv)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m for m in spec[kind]}

    runs: dict = {}
    for name in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            took = time.monotonic() - start
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            detail = json.loads((BENCH_DIR / "out" / f"{name}-seed{seed}-trace{args.trace}.json")
                                .read_text())
            runs.setdefault(name, {})[str(seed)] = {
                "correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"], "took_s": took,
                "fingerprint": detail["fingerprint"],
                "values": {k: v["value"] for k, v in result["metrics"].items()},
            }
            print(f"{name} seed {seed}: {took:.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)

    summary = {"trace": args.trace, "seconds": spec["run_seconds"], "runs": runs, "stats": {}}
    for name, by_seed in runs.items():
        stats = summary["stats"][name] = {}
        for metric in metrics:
            values = [r["values"][metric] for r in by_seed.values() if metric in r["values"]]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            stats[metric] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0}
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1))

    for name, stats in summary["stats"].items():
        print(f"\n{name}")
        for metric, s in stats.items():
            bound = metrics[metric].get("bound")
            flag = ""
            if bound is not None and metric != "setup_s" and s["spread"] > bound / 3:
                flag = "  spread above a third of the bound"
            print(f"  {metric:42s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.3f}" + (f" (bound {bound})" if bound else "") + flag)
    if args.against:
        return _compare(summary, json.loads(args.against.read_text()), metrics)
    return 0


def _compare(new, old, metrics) -> int:
    bad = 0
    print("\ncompared with the earlier summary:")
    for name, by_seed in new["runs"].items():
        for seed, run in by_seed.items():
            before = old["runs"].get(name, {}).get(seed)
            if before is None:
                continue
            if run["fingerprint"] != before["fingerprint"]:
                bad += 1
                print(f"  {name} seed {seed}: fingerprint MISMATCH")
            for metric, value in run["values"].items():
                if metrics[metric]["unit"] in ("count", "B") and value != before["values"].get(metric):
                    bad += 1
                    print(f"  {name} seed {seed}: {metric} {value} != {before['values'].get(metric)}")
        for metric, s in new["stats"].get(name, {}).items():
            prev = old["stats"].get(name, {}).get(metric)
            bound = metrics[metric].get("bound")
            if prev is None or bound is None:
                continue
            change = (s["median"] - prev["median"]) / prev["median"]
            worse = -change if metrics[metric]["better"] == "higher" else change
            verdict = "WORSE BEYOND BOUND" if worse > bound else "within bound"
            bad += worse > bound
            print(f"  {name} {metric}: median {prev['median']:.6g} -> {s['median']:.6g} "
                  f"({change:+.1%}; {verdict} {bound})")
    print("  fingerprints and counts repeat; medians within bounds" if not bad
          else f"  {bad} differences")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
