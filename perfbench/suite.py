"""Run workloads over several seeds, one process per run, and report spreads.

    python3 perfbench/suite.py                       # every workload, seed 1
    python3 perfbench/suite.py --seeds 1 2 3 4 5 6 7 8 9 10 --save a.json
    python3 perfbench/suite.py --seeds 11 12 13 14 15 16 17 18 19 20 --compare a.json

Every workload of BENCHMARK.json runs for its ``run_seconds``, untraced;
traced runs go through ``run.py --trace 1``. For each workload and
end-to-end metric it prints the median and the inter-quartile distance as a
share of the median (``statistics.quantiles`` with n=4), against the
metric's bound: BENCHMARK.json for the metrics every workload reports,
``REPORT_BOUNDS`` for those only some workloads print.
``--compare`` also checks that no median got worse than the saved one by
more than the bound, and that seeds run in both sets reproduce ``EXACT``
metrics. Runs are sequential, so they never compete for a core.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Bounds for the end-to-end metrics that are printed but not in
# BENCHMARK.json: those not every workload has, and the forward medians. At
# d=32 a forward's speed can switch between two levels for seconds at a
# time on a shared host, so pipeline_small's medians are too unsteady for a
# gate.
REPORT_BOUNDS = {"pipeline_s": (0.25, "lower"),
                 "pretrain_windows_per_s": (0.25, "higher"),
                 "finetune_windows_per_s": (0.25, "higher"),
                 "prune_windows_per_s": (0.25, "higher"),
                 "analyze_windows_per_s": (0.25, "higher"),
                 "dense_fwd_ms.p50": (0.25, "lower"),
                 "sliced_fwd_ms.p50": (0.25, "lower"),
                 "dense_fwd_ms.p90": (0.25, "lower"),
                 "sliced_fwd_ms.p90": (0.25, "lower")}
# Quality figures depend on the seed's data, so they are compared seed by
# seed: the same code and seed must reproduce them exactly.
EXACT = ("test_mse",)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall_s = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, _unit, _n = line.split()
            printed[name] = float(value)
    for line in lines:
        if line.startswith("failed "):
            print(f"  {workload} seed {seed}: {line}", file=sys.stderr)
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "wall_s": wall_s, "metrics": printed}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", nargs="+", type=int, default=[1])
    p.add_argument("--save", help="write every run's results to this JSON file")
    p.add_argument("--compare", help="JSON file saved by an earlier --save")
    args = p.parse_args(argv)

    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    bounds.update(REPORT_BOUNDS)
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    results = {}
    ok = True
    for wl in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            r = run_once(wl, seed, spec["run_seconds"])
            print(f"{wl} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} wall {r['wall_s']:.1f} s", flush=True)
            ok &= r["correct"]
            runs.append(r)
        results[wl] = runs
        if len(runs) < 2:
            continue
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            med = statistics.median(values)
            line = f"  {wl:15s} {name:24s} median {med:.6g}"
            if name in bounds and med != 0:
                bound, better = bounds[name]
                s = spread(values)
                line += f"  spread {s:.3f} (bound {bound}, target < {bound / 3:.3f})"
                if s > bound:
                    line += "  SPREAD OVER BOUND"
                    ok = False
                if wl in earlier:
                    before = statistics.median(r["metrics"][name] for r in earlier[wl])
                    worse = (med - before) / before if better == "lower" else (before - med) / before
                    line += f"  vs earlier {worse:+.3f}"
                    if worse > bound:
                        line += "  WORSE THAN BOUND"
                        ok = False
            print(line, flush=True)
        for name in EXACT:
            before = {r["seed"]: r["metrics"].get(name) for r in earlier.get(wl, [])}
            changed = [r["seed"] for r in runs
                       if r["seed"] in before and r["metrics"].get(name) != before[r["seed"]]]
            if changed:
                print(f"  {wl:15s} {name} differs from the earlier run for seeds {changed}")
                ok = False
    if args.save:
        Path(args.save).write_text(json.dumps(results, indent=1), encoding="utf-8")
    print("all runs correct and within bounds" if ok else "FAILED", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
