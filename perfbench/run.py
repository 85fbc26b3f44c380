"""prunecast benchmark: one workload, in this process, from the sources in ``src/``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: pipeline_small, infer_wide, train_wide (see workloads.py). BLAS
is pinned to one thread through environment variables set before numpy is
imported, and the process starts no threads or subprocesses.

With ``--trace 0`` the workload runs unwrapped and every end-to-end metric
is printed, one line each with its unit and sample count; the last line is
one JSON object with the metrics of BENCHMARK.json. With ``--trace 1`` the
workload's set-up and fixed core run unwrapped, then with every public
entry point of every prunecast module wrapped, then unwrapped again; the
spans go to ``.perfbench_out/<workload>/spans.tsv`` and the last line
carries the per-layer metrics. Outputs of the program land under ``.perfbench_out/``.

``python3 perfbench/suite.py`` runs every workload, each in its own process,
and reports spreads over seeds; ``python3 -m pytest perfbench/tests`` tests
the benchmark itself.
"""

import os
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

# setup_s starts here. numpy and the standard library are loaded already:
# their import time is large and noisy, and no change to prunecast moves it.
IMPORT_T0 = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# setup_s is prunecast's imports plus the median time of the workload's
# set-up, repeated in a window before and a window after the measured loop.
SETUP_WINDOW_S = 1.0
MIN_SETUPS = 3
# The end-to-end metrics every workload reports (BENCHMARK.json end_to_end).
E2E = {"setup_s": "s", "peak_rss_mb": "MB", "windows_per_s": "1/s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit(root: Path) -> str | None:
    """HEAD's commit, read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def openblas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(seed: int) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"commit": git_commit(ROOT), "seed": seed,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "blas_threads_in_effect": openblas_threads(),
            "nproc": os.cpu_count()}


def rusage():
    return resource.getrusage(resource.RUSAGE_SELF)


def run_setups(wl, seed: int, out: Path):
    """Set the workload up again and again for SETUP_WINDOW_S seconds, and at
    least MIN_SETUPS times; return the last state and every set-up's time."""
    state, times = None, []
    start = time.perf_counter()
    while len(times) < MIN_SETUPS or time.perf_counter() - start < SETUP_WINDOW_S:
        # Free the last state, reference cycles included, so that set-ups
        # never hold two states at once and add nothing to peak_rss_mb.
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup(seed, out)
        times.append(time.perf_counter() - t0)
    return state, times


def measure(wl, args, out: Path, import_s: float):
    from workloads import Recorder

    # Set-ups run before the measured loop and again after it: the machine's
    # speed drifts over seconds, and a median over both windows follows that
    # drift less than one burst of set-ups does.
    state, times = run_setups(wl, args.seed, out)
    rec = Recorder()
    report = wl.measure(state, args.seconds, rec)
    report["peak_rss_mb"] = (rusage().ru_maxrss / 1024.0, "MB", 1)
    state = None
    times += run_setups(wl, args.seed, out)[1]
    report["setup_s"] = (import_s + statistics.median(times), "s", len(times))
    report["fail_ratio"] = (rec.failed / max(rec.attempted, 1), "ratio", rec.attempted)
    return rec, report, E2E


def trace(wl, args, out: Path):
    import layers
    import shapes
    from spans import Tracer, write_spans
    from workloads import Recorder

    # Set-up and core run unwrapped, wrapped, and unwrapped again, after a
    # warm-up pass that takes the first-call costs (heap growth, lazy
    # imports). Comparing the wrapped pass with the mean of the passes on
    # either side keeps slow drift of the machine out of the overhead.
    rec = Recorder()
    wl.core(wl.setup(args.seed, out), rec)
    untraced_s = []
    fwd = {"dense": [], "sliced": []}
    state = None

    def plain_pass():
        # The unwrapped passes also count the page faults of the timed
        # forwards and prune/finetune steps, and of nothing else.
        nonlocal state
        rec.samples.clear()
        t0 = time.perf_counter()
        state = wl.setup(args.seed, out)
        rec.count_faults = True
        wl.core(state, rec)
        rec.count_faults = False
        untraced_s.append(time.perf_counter() - t0)
        for kind in fwd:
            fwd[kind] += rec.samples[f"{kind}_fwd_s"]

    plain_pass()
    tracer = Tracer()
    layers.install(tracer)
    try:
        t0 = time.perf_counter()
        wl.core(wl.setup(args.seed, out), rec)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    plain_pass()
    spans = tracer.finished_spans()
    write_spans(out / "spans.tsv", spans)

    m = layers.span_metrics(spans)
    m["trace.overhead_ratio"] = traced_s / statistics.mean(untraced_s)
    m["process.minflt_per_step"] = rec.step_faults / max(rec.steps, 1)
    if getattr(state, "fwd", None) is not None:
        dense, sliced, batch = state.fwd
        dense_shapes = shapes.dense_shapes(dense, batch)
        sliced_shapes = shapes.sliced_shapes(sliced, batch)
        m["slicing.flop_fraction"] = shapes.flops(sliced_shapes) / shapes.flops(dense_shapes)
        for prefix, kind, shp in (("model", "dense", dense_shapes),
                                  ("slicing", "sliced", sliced_shapes)):
            m[f"{prefix}.fwd_over_floor"] = (statistics.median(fwd[kind])
                                             / shapes.matmul_floor_s(shp, repeats=5))
    report = {name: (m[name], unit, 1) for name, unit in layers.METRICS.items() if name in m}
    return rec, report, layers.METRICS


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "prunecast" / "__init__.py").is_file():
        print(f"error: no prunecast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import prunecast
    from workloads import WORKLOADS

    if Path(prunecast.__file__).resolve().parent != SRC / "prunecast":
        print(f"error: prunecast imported from {prunecast.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - IMPORT_T0
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    out = OUT / wl.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if args.trace:
        rec, report, contract = trace(wl, args, out)
    else:
        rec, report, contract = measure(wl, args, out, import_s)
    if threading.active_count() != 1:
        rec.fail("process", f"{threading.active_count()} threads running")

    print(f"# perfbench {wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    for name, (value, unit, n) in report.items():
        print(f"metric {name} {value!r} {unit} n={n}")
    for err in rec.errors:
        print(f"failed {err}")
    # A metric the failures left unmeasured is null, and the run not correct.
    metrics = {name: {"value": report[name][0] if name in report else None, "unit": unit}
               for name, unit in contract.items()}
    for v in metrics.values():
        if isinstance(v["value"], float) and not math.isfinite(v["value"]):
            v["value"] = None
    print(json.dumps({"correct": rec.failed == 0 and all(
                          v["value"] is not None for v in metrics.values()),
                      "attempted": max(rec.attempted, 1), "failed": rec.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
