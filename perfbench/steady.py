#!/usr/bin/env python3
"""Steadiness check: run workloads N times and report each metric's spread.

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...]
        [--trace 0|1] [--first-seed 1] [--fixed-seed] [--json FILE]

Every run lasts BENCHMARK.json's run_seconds. Run i uses seed
first_seed + i (first_seed every time with --fixed-seed).
For every workload x metric it prints the median, the quartiles that
statistics.quantiles(values, n=4) gives and the spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json: "ok" below a third of the
bound, "within bound" below the bound. It then names every metric whose
spread exceeds its bound and, with --fixed-seed, every count that does not
repeat exactly, and exits 1 if there is any. --json writes the medians and
quartiles (the form of baseline.json).
"""

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True

import metrics  # noqa: E402
import plan  # noqa: E402
from stats import spread  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    choices=plan.WORKLOADS + plan.EXTRA_WORKLOADS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--fixed-seed", action="store_true")
    ap.add_argument("--json", help="write the summary to this file")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    counts = {name for name, unit in metrics.PER_LAYER if unit == "count"}
    problems = []
    summary = {}
    for workload in args.workload or plan.WORKLOADS:
        values = defaultdict(list)
        for i in range(args.runs):
            seed = args.first_seed + (0 if args.fixed_seed else i)
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                problems.append(f"{workload}: seed {seed} exited "
                                f"{proc.returncode}")
                sys.stderr.write(proc.stderr[-4000:])
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
            print(f"# {workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if k in bounds), file=sys.stderr, flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med, q1, q3, s = spread(vals)
            summary.setdefault(workload, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": s,
                "runs": len(vals)}
            verdict = ""
            if name in bounds:
                bound = bounds[name]
                verdict = (f"bound {bound:.2f} " +
                           ("ok" if s < bound / 3 else
                            "within bound" if s <= bound else "UNSTEADY"))
                if s > bound:
                    problems.append(f"{workload} {name}: spread {s:.3f} "
                                    f"exceeds bound {bound}")
            elif args.fixed_seed and name in counts and len(set(vals)) > 1:
                verdict = "NOT REPEATED"
                problems.append(f"{workload} {name}: count varies {sorted(set(vals))}")
            print(f"{workload:15s} {name:36s} median {med:<12.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {s:6.3f}  {verdict}",
                  flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    for p in problems:
        print(f"unsteady: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
