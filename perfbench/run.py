"""promptcl benchmark: run one workload in this process and report it.

    python3 perfbench/run.py --workload stream-5x4 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is loaded from ``src/``
and nowhere else. With ``--trace 0`` the run measures the end-to-end metrics
with tracing off; with ``--trace 1`` it wraps the package's entry points and
reports the per-layer metrics. Every line but the last is a human-readable
report (environment, each metric with unit, sample count and check result);
the last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""
import os
import sys

# BLAS and OpenMP size their pools when numpy loads, so pin them first
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import functools  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
# printed in the table but left out of the JSON metrics: with ~1,400 samples
# the predict tail is p99.3, which host bursts move by up to 30% between runs
TABLE_ONLY = {"predict_ms_tail"}


def load_package():
    """Import promptcl from this checkout's ``src``; exit 1 if it is absent."""
    pkg = os.path.join(SRC, "promptcl")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        raise SystemExit(f"perfbench: no package source at {pkg}")
    sys.path.insert(0, SRC)
    import promptcl
    if os.path.dirname(os.path.abspath(promptcl.__file__)) != pkg:
        raise SystemExit(f"perfbench: promptcl was imported from {promptcl.__file__}")


def remove_out(out):
    """Delete a run's output directory, and the shared parent once empty."""
    shutil.rmtree(out, ignore_errors=True)
    try:
        os.rmdir(OUT_ROOT)
    except OSError:
        pass


def blas_threads():
    """Threads numpy's OpenBLAS will use, or None if it cannot be asked."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    try:
        fn = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    fn.argtypes = []
    fn.restype = ctypes.c_int
    return fn()


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(),
            "pinned": {v: os.environ[v] for v in THREAD_VARS}}


def tail_ms(latencies):
    """(value, percentile): the highest percentile with >= 10 samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1] * 1e3, 100.0
    return xs[n - 11] * 1e3, 100.0 * (n - 10) / n


def run_untraced(wl, args, judge, out):
    import workloads as W
    setups = []
    for _ in range(wl.setup_reps):
        t0 = time.perf_counter()
        ctx = W.setup(wl, args.seed, out)
        setups.append(time.perf_counter() - t0)
    quality, problems = W.prepare(wl, ctx, judge)
    ops = []
    start = time.perf_counter()
    while True:  # stop before an operation that would overrun --seconds
        ops.append(W.op(wl, ctx, judge))
        elapsed = time.perf_counter() - start
        if elapsed * (len(ops) + 1) / len(ops) > args.seconds:
            break
    timed = [o.seconds for o in ops if o.seconds is not None]
    lat = [x for o in ops for x in o.latencies]
    queries = sum(o.queries for o in ops)
    rows = [("setup_s", statistics.median(setups), "s", len(setups), "")]
    if timed:
        rows.append(("run_s", statistics.median(timed), "s", len(timed), ""))
    if lat:
        tail, pct = tail_ms(lat)
        rows += [("predict_qps", queries / sum(lat), "1/s", len(lat),
                  f"{queries} queries"),
                 ("predict_ms_p50", statistics.median(lat) * 1e3, "ms", len(lat), ""),
                 ("predict_ms_tail", tail, "ms", len(lat), f"p{pct:.2f}")]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rows.append(("peak_rss_mb", rss_kb / 1024, "MB", 1, ""))
    return rows, quality + [q for o in ops for q in o.quality], problems, ops, []


def run_traced(wl, args, judge, out):
    import tracer as T
    import workloads as W
    tracer = T.Tracer()
    tracer.install()
    try:
        ctx = W.setup(wl, args.seed, out)
        quality, problems = W.prepare(wl, ctx, judge)
    finally:
        tracer.restore()
    plain = [W.op(wl, ctx, judge) for _ in range(wl.trace_ops)]
    tracer.install()
    try:
        traced = [W.op(wl, ctx, judge) for _ in range(wl.trace_ops)]
    finally:
        tracer.restore()
    ops = plain + traced
    values = tracer.metrics()
    if all(o.seconds is not None for o in ops):  # else the failures are counted
        t_run = statistics.median(o.seconds for o in traced)
        t_plain = statistics.median(o.seconds for o in plain)
        values.update({"trace.run_s": t_run, "trace.untraced_run_s": t_plain,
                       "trace.overhead_s": t_run - t_plain})
    units = {name: unit for name, unit, _ in T.metric_specs()}
    rows = [(name, values[name], units[name], 1, "") for name, _, _ in T.metric_specs()
            if name in values]
    notes = [f"entry point not found, reported as 0: {m}" for m in sorted(tracer.missing)]
    notes += [f"op not in the per-layer list (counted in autodiff.nodes): {op}"
              for op in tracer.unknown_ops()]
    return rows, quality + [q for o in ops for q in o.quality], problems, ops, notes


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None):
    import workloads as W
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    wl = W.WORKLOADS[args.workload]
    judge = functools.partial(W.quality_problems, W.load_reference(), wl, args.seed)
    out = os.path.join(OUT_ROOT, f"{wl.name}-{os.getpid()}")
    t0 = time.perf_counter()
    try:
        if args.trace:
            rows, quality, problems, ops, notes = run_traced(wl, args, judge, out)
        else:
            rows, quality, problems, ops, notes = run_untraced(wl, args, judge, out)
    finally:
        remove_out(out)
    attempted = sum(o.attempted for o in ops)
    failed = sum(o.failed for o in ops)
    problems = problems + [p for o in ops for p in o.problems]
    correct = failed == 0 and not problems

    env = environment()
    print(f"# perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} wall_s={time.perf_counter() - t0:.1f}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# check correct={correct} attempted={attempted} failed={failed}")
    for p in sorted(set(problems)):
        print(f"# problem: {p}")
    for note in notes:
        print(f"# note: {note}")
    check = "ok" if correct else "FAIL"
    print(f"{'metric':34} {'value':>14} {'unit':6} {'samples':>7} {'check':5}  note")
    for name, value, unit, n, note in rows:
        print(f"{name:34} {fmt(value):>14} {unit:6} {n:>7} {check:5}  {note}")
    for key in W.QUALITY:
        vals = [q[key] for q in quality]
        if vals:
            print(f"{key:34} {fmt(statistics.fmean(vals)):>14} {'ratio':6} "
                  f"{len(vals):>7} {check:5}  quality guard (mean)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, value, unit, _, _ in rows
                                  if name not in TABLE_ONLY}}))
    return 0


if __name__ == "__main__":
    load_package()
    sys.exit(main())
