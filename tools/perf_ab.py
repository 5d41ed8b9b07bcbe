#!/usr/bin/env python3
"""A/B the repository benchmark between a parent commit and this checkout.

    python3 tools/perf_ab.py --parent REF --out BENCH_PRn.json \\
        --change TEXT [--seed 5]

Exports REF with `git archive` into a temporary directory, then runs
`perfbench/run.py --trace 0` there (the parent) and in this checkout (the
change) in 10 alternating pairs per BENCHMARK.json workload: odd pairs run
the parent first, even pairs the change. Workloads, run length, units,
`better` and bounds come from BENCHMARK.json. Per-layer numbers stay
`perfbench/run.py --trace 1`.

It writes a pedsim-perfbench-ab-v1 file holding every run record
{correct, attempted, failed, metrics, exit} and, per workload and
end-to-end metric, each side's median and quartiles (perfbench/stats.py
`spread`), change_over_parent, change_better_pairs (ties count for
neither side), pairs and a verdict, the first of these that holds:

  unresolved     the parent's (q3 - q1) / median exceeds the bound, and
                 not every change run beats every parent run
  regression     the change median is worse than the parent's by more
                 than the bound
  gain           the change wins at least 9 of 10 pairs, the medians
                 differ by more than the parent's q3 - q1, and the change
                 failed no more operations than the parent
  no regression  otherwise

Exit status: 2 when a tracked file under perfbench/ or BENCHMARK.json
differs between the two sides (both must run the same benchmark), or on
an export or usage error; 1 when any run fails or any metric reads
regression; 0 otherwise.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from stats import spread  # noqa: E402

SCHEMA = "pedsim-perfbench-ab-v1"
PAIRS = 10
BENCHMARK_FILES = ("perfbench", "BENCHMARK.json")


def git(root, *args):
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=True).stdout


def export(root, ref, dest):
    """Extract `git archive` of `ref` into `dest`; return its commit."""
    sha = git(root, "rev-parse", "--verify", "--quiet",
              ref + "^{commit}").strip()
    tar = subprocess.run(["git", "-C", str(root), "archive", sha],
                         check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True,
                   capture_output=True)
    return sha


def benchmark_diff(root, parent_dir, sha):
    """Tracked benchmark files whose bytes differ between the parent
    export and this checkout's working tree, or exist on one side only."""
    change = git(root, "ls-files", "--", *BENCHMARK_FILES).split()
    parent = git(root, "ls-tree", "-r", "--name-only", sha, "--",
                 *BENCHMARK_FILES).split()

    def read(path):
        return path.read_bytes() if path.is_file() else None

    return [name for name in sorted(set(change) | set(parent))
            if read(root / name) != read(parent_dir / name)]


def run_benchmark(checkout, workload, seed, seconds):
    """One untraced perfbench/run.py run in `checkout`, as a run record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else {}
    except ValueError:
        out = {}
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
    return {
        "correct": out.get("correct", False),
        "attempted": out.get("attempted", 0),
        "failed": out.get("failed", 0),
        "metrics": {n: m["value"] for n, m in out.get("metrics", {}).items()},
        "exit": proc.returncode,
    }


def run_pairs(workload, seed, seconds, sides, run):
    """PAIRS pairs of `run`, parent first in odd pairs, change first in
    even ones. `sides` maps "parent" and "change" to a checkout."""
    runs = []
    for pair in range(1, PAIRS + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        record = {"pair": pair, "first": order[0]}
        for side in order:
            record[side] = run(sides[side], workload, seed, seconds)
            print(f"perf_ab: {workload} pair {pair}/{PAIRS} {side}: exit "
                  f"{record[side]['exit']}, {record[side]['metrics']}",
                  file=sys.stderr, flush=True)
        runs.append(record)
    return runs


def summarise(runs, metric):
    """Summary and verdict of one end-to-end metric (a BENCHMARK.json
    entry) over the pairs in which both sides report it."""
    name, bound = metric["name"], metric["bound"]
    sign = 1 if metric["better"] == "higher" else -1
    both = [r for r in runs if name in r["parent"]["metrics"]
            and name in r["change"]["metrics"]]
    out = {"unit": metric["unit"], "better": metric["better"]}
    if len(both) < 2:
        return {**out, "pairs": len(both), "verdict": "unresolved"}
    parent = [r["parent"]["metrics"][name] for r in both]
    change = [r["change"]["metrics"][name] for r in both]
    p_med, p_q1, p_q3, p_spread = spread(parent)
    c_med, c_q1, c_q3, _ = spread(change)
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    failed = {side: sum(r[side]["failed"] for r in runs)
              for side in ("parent", "change")}

    every_run_beats = (min(sign * c for c in change) >
                       max(sign * p for p in parent))
    if p_spread > bound and not every_run_beats:
        verdict = "unresolved"
    elif sign * (p_med - c_med) > bound * abs(p_med):
        verdict = "regression"
    elif (10 * won >= 9 * len(both) and sign * (c_med - p_med) > p_q3 - p_q1
          and failed["change"] <= failed["parent"]):
        verdict = "gain"
    else:
        verdict = "no regression"
    return {
        **out,
        "parent_median": p_med,
        "parent_quartiles": [p_q1, p_q3],
        "change_median": c_med,
        "change_quartiles": [c_q1, c_q3],
        "change_over_parent": round(c_med / p_med, 4) if p_med else None,
        "change_better_pairs": won,
        "pairs": len(both),
        "verdict": verdict,
    }


def host():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            model = next(line.split(":", 1)[1].strip() for line in f
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{os.cpu_count()} logical CPUs, {model} ({platform.machine()})"


def main(argv=None, root=ROOT, run=run_benchmark):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent")
    ap.add_argument("--out", required=True, help="A/B file to write")
    ap.add_argument("--change", required=True,
                    help="one line saying what the change does")
    ap.add_argument("--seed", type=int, default=5,
                    help="workload seed (default 5)")
    args = ap.parse_args(argv)
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="perf_ab-") as tmp:
        parent_dir = Path(tmp)
        try:
            sha = export(root, args.parent, parent_dir)
        except (OSError, subprocess.CalledProcessError) as e:
            print(f"perf_ab: cannot export {args.parent}: {e}",
                  file=sys.stderr)
            return 2
        differ = benchmark_diff(root, parent_dir, sha)
        for name in differ:
            print(f"perf_ab: {name} differs between {args.parent} and this "
                  "checkout; both sides must run the same benchmark",
                  file=sys.stderr)
        if differ:
            return 2
        sides = {"parent": parent_dir, "change": root}
        series = []
        for workload in bench["workloads"]:
            runs = run_pairs(workload["name"], args.seed, seconds, sides, run)
            series.append({
                "workload": workload["name"],
                "seed": args.seed,
                "seconds": seconds,
                "trace": 0,
                "summary": {m["name"]: summarise(runs, m)
                            for m in bench["end_to_end"]},
                "runs": runs,
            })

    doc = {
        "schema": SCHEMA,
        "change": args.change,
        "parent": sha,
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed}"
                   f" --seconds {seconds} --trace 0",
        "host": host(),
        "method": f"tools/perf_ab.py: {PAIRS} alternating pairs per "
                  "workload of the parent (a git archive export) and this "
                  "checkout, odd pairs parent first, even pairs change "
                  "first, untraced. Medians and quartiles from "
                  "perfbench/stats.py spread (statistics.quantiles, "
                  "exclusive method).",
        "series": series,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")

    status = 0
    print(f"{'workload':14s} {'metric':16s} {'change/parent':>13s} "
          f"{'won':>5s}  verdict")
    for s in series:
        for name, m in s["summary"].items():
            won = f"{m.get('change_better_pairs', '-')}/{m['pairs']}"
            print(f"{s['workload']:14s} {name:16s} "
                  f"{m.get('change_over_parent')!s:>13s} {won:>5s}  "
                  f"{m['verdict']}")
            if m["verdict"] == "regression":
                status = 1
        for r in s["runs"]:
            for side in ("parent", "change"):
                if r[side]["exit"] != 0 or not r[side]["correct"]:
                    print(f"perf_ab: {s['workload']} pair {r['pair']} {side} "
                          f"failed (exit {r[side]['exit']})", file=sys.stderr)
                    status = 1
    print(f"wrote {args.out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
