"""Alternating parent/change pairs of the committed benchmark, summarised.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_<n>.json \
        [--pairs 10] [--seconds 35] [--seed0 1] [--workloads extremes ...] \
        [--workdir DIR] [--note TEXT]

Run it from the root of a git checkout.  It exports both commits with
`git archive` into a fresh directory under --workdir, so each side runs
its own committed `perfbench/run.py` and `src`, as the benchmark does; the
directory is removed when the run ends, also on an error, Ctrl-C or
SIGTERM.  For each workload and pair it runs both sides with the same
seed, one after the other, alternating which side goes first; workload
w's pair p has seed seed0 + w * pairs + p.  It writes the host (usable
cores, Python, numpy and scipy), the last JSON line of every run and a
summary: for each end-to-end metric of BENCHMARK.json, each side's median
and quartiles (statistics.quantiles, n=4) and the pairs the change won by
the metric's "better" direction (ties count for neither side), and the
failed ops of each side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version


def export(rev: str, workdir: str) -> str:
    """A fresh directory holding the committed files of rev."""
    root = tempfile.mkdtemp(prefix=f"bench-{rev[:12]}-", dir=workdir)
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", root], input=archive, check=True)
    return root


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The last JSON line that perfbench/run.py prints in root."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True, timeout=20 * seconds + 600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {root} exited {out.returncode}:\n"
                           f"{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(runs: list, metrics: dict) -> dict:
    """Per workload: each metric's medians, quartiles and pairs won, and failed ops."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        sides = {side: sorted((r for r in runs if r["workload"] == workload
                               and r["side"] == side), key=lambda r: r["pair"])
                 for side in ("parent", "change")}
        entry = {}
        for name, better in metrics.items():
            vals = {side: [r["result"]["metrics"][name]["value"] for r in rs]
                    for side, rs in sides.items()}
            sign = 1.0 if better == "lower" else -1.0
            won = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
            stats = {}
            for side, v in vals.items():
                q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
                stats.update({f"{side}_median": statistics.median(v),
                              f"{side}_q1": q1, f"{side}_q3": q3})
            entry[name] = {**stats, "pairs_won_by_change": won, "pairs": len(vals["parent"])}
        entry["failed_ops"] = {side: sum(r["result"]["failed"] for r in rs)
                               for side, rs in sides.items()}
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", default=["extremes", "prefactor", "forest"])
    ap.add_argument("--workdir", default=tempfile.gettempdir())
    ap.add_argument("--note", default="")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the exports are removed and a running
    # side is killed (subprocess.run kills its child when interrupted)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    revs = {side: subprocess.run(["git", "rev-parse", "--short", rev], check=True,
                                 capture_output=True, text=True).stdout.strip()
            for side, rev in (("parent", args.parent), ("change", args.change))}
    with tempfile.TemporaryDirectory(prefix="bench-", dir=args.workdir) as workdir:
        roots = {side: export(rev, workdir) for side, rev in revs.items()}
        with open(os.path.join(roots["change"], "BENCHMARK.json")) as f:
            metrics = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

        runs = []
        for w, workload in enumerate(args.workloads):
            for pair in range(args.pairs):
                seed = args.seed0 + w * args.pairs + pair
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(roots[side], workload, seed, args.seconds)
                    runs.append({"workload": workload, "pair": pair + 1, "side": side,
                                 "seed": seed, "result": result})
                    values = " ".join(f"{k}={v['value']:.4g}"
                                      for k, v in result["metrics"].items())
                    print(f"{workload} pair {pair + 1} {side}: {values} failed={result['failed']}",
                          flush=True)
                with open(args.out, "w") as f:  # partial results survive an interrupted run
                    json.dump(_record(args, revs, runs, metrics), f, indent=1)
        print(json.dumps(_record(args, revs, runs, metrics)["summary"], indent=1))
    return 0


def _host() -> str:
    """The usable cores (what `bouex.cloud._WORKERS` counts), the machine and
    the versions of Python, numpy and scipy that both sides run on."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (f"{cores} usable of {os.cpu_count()} CPUs, {platform.machine()}, "
            f"Python {platform.python_version()}, numpy {version('numpy')}, "
            f"scipy {version('scipy')}")


def _record(args, revs, runs, metrics) -> dict:
    return {
        "description": args.note,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}",
        "pairs_command": (f"python3 tools/bench_pairs.py {args.parent} {args.change} "
                          f"--out {os.path.basename(args.out)} --pairs {args.pairs} "
                          f"--seconds {args.seconds:g} --seed0 {args.seed0} "
                          f"--workloads {' '.join(args.workloads)}"),
        "host": _host(),
        "parent": revs["parent"],
        "change": revs["change"],
        "summary": summarize(runs, metrics),
        "runs": runs,
    }


if __name__ == "__main__":
    sys.exit(main())
