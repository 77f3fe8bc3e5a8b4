"""bouex benchmark: one workload, closed loop, one process, one thread.

    python3 perfbench/run.py --workload extremes|prefactor|forest \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: bouex is imported from ./src, and
the run stops with a non-zero exit code if that tree is missing.  Each op
starts when the previous one finishes; BLAS threads are capped at the number
of usable cores.

--trace 0 reports the end-to-end metrics: setup_s (median of several fresh
processes that import bouex and build the workload inputs), wall_s (median
seconds of one pass over the fixed op list) and peak_rss_mb.  --trace 1
alternates an untraced and a traced pass over the same inputs, requires their
outputs to be bit-identical, and reports the per-layer metrics with
trace.overhead_frac and process.cpu_util.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
``failed / attempted`` is the share of ops that raised, exited non-zero or
broke an exact output property.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_RUNS = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


def cap_blas_threads():
    """Cap BLAS/OpenMP pools at the usable cores; must run before numpy loads."""
    ncpu = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        os.environ[var] = str(min(int(cur), ncpu) if cur.isdigit() and int(cur) > 0 else ncpu)


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreter processes."""
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def keep_going(start, last, seconds) -> bool:
    """Start another pass only if it should end within the measuring time."""
    return time.perf_counter() - start + last <= seconds


def measure(ops, outdir, seconds):
    from workloads import run_pass

    passes = []
    start = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(ops(k, outdir)))
        k += 1
        if not keep_going(start, time.perf_counter() - t0, seconds):
            return passes


def traced(ops, outdir, seconds):
    """Pairs of untraced and traced passes over the pass-0 inputs."""
    from tracer import Tracer
    from workloads import run_pass

    tracer = Tracer()
    plain, with_trace, summaries, neutral = [], [], [], True
    cpu = wall = 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        c0 = os.times()
        p = run_pass(ops(0, outdir), fingerprints=True)
        c1 = os.times()
        cpu += (c1.user + c1.system) - (c0.user + c0.system)
        wall += c1.elapsed - c0.elapsed
        with tracer:
            t = run_pass(ops(0, outdir), tracer=tracer, fingerprints=True)
        summaries.append(tracer.summary(t.observed))
        neutral &= p.fingerprints == t.fingerprints
        plain.append(p)
        with_trace.append(t)
        if not keep_going(start, time.perf_counter() - t0, seconds):
            break
    metrics = {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
    metrics["trace.overhead_frac"] = statistics.median(
        t.seconds / p.seconds for p, t in zip(plain, with_trace)) - 1.0
    metrics["process.cpu_util"] = cpu / wall
    if not neutral:
        print("tracer changed an op output", file=sys.stderr)
    return metrics, plain + with_trace, neutral


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bouex", "__init__.py")):
        print(f"no bouex source tree at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    cap_blas_threads()
    sys.path.insert(0, SRC)
    import bouex
    import workloads
    from tracer import unit

    if not os.path.abspath(bouex.__file__).startswith(SRC + os.sep):
        print(f"bouex imported from {bouex.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    ops = workloads.build(args.workload, args.seed)
    outdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.trace:
            metrics, passes, correct = traced(ops, outdir, args.seconds)
            units = {name: unit(name) for name in metrics}
        else:
            setup_s = setup_seconds(args.workload, args.seed)
            passes = measure(ops, outdir, args.seconds)
            rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                         resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            metrics = {"setup_s": setup_s,
                       "wall_s": statistics.median(p.seconds for p in passes),
                       "peak_rss_mb": rss_kb / 1024.0}
            units = END_TO_END_UNITS
            correct = True
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    for f in failures:
        print("failed op:", f, file=sys.stderr)
    print(f"{args.workload}: {len(passes)} passes, {attempted} ops, "
          f"fail_frac {len(failures) / attempted:.4g}")
    print("  pass seconds:", " ".join(f"{p.seconds:.3f}" for p in passes))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": bool(correct and not failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
