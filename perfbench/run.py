#!/usr/bin/env python3
"""The repository benchmark, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the pedsim library, pedsim_server and the harness (Release) into
.bench_build/ from the checkout's own sources, generates the workload's
inputs from --seed (plan.py), runs the harness and checks every result
against its oracle. It prints a readout, with the metrics under the names
of each workload (steps_per_s, jobs_per_s, failed_frac, ...), and as its
last line one JSON object
{"correct", "attempted", "failed", "metrics"} holding the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1). It exits
non-zero when any result fails or differs from its oracle.

--trace 1 runs the workload twice, untraced and then with an obs::Tracer
per phase, and folds the traces into self times per layer (spans.py).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

import metrics  # noqa: E402
import plan  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
HARNESS_TIMEOUT_S = 170


def build():
    """Configure once, then bring the harness and the server up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no pedsim sources (CMakeLists.txt, src/) in {ROOT}")
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "perfbench_harness", "pedsim_server", "--parallel", "4"],
                   stdout=sys.stderr, check=True)


class Server:
    """pedsim_server with 2 executors. The socket path is relative to the
    checkout, where both processes run, to stay inside the Unix socket
    path limit."""

    def __init__(self, run_dir):
        sock = run_dir / "server.sock"
        self.socket = os.path.relpath(sock, ROOT)
        self.proc = subprocess.Popen(
            [str(BUILD / "pedsim" / "pedsim_server"),
             f"--socket={self.socket}", "--threads=2"],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 30
        while not sock.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("pedsim_server did not start")
            time.sleep(0.01)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for pedsim_server")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def run_harness(workload, lines, run_dir, traced):
    """One harness run of the plan, with a fresh server for server_mix.
    Returns the raw samples and, when traced, the folded trace phases."""
    work = run_dir / ("traced" if traced else "untraced")
    work.mkdir()
    server = Server(work) if workload == "server_mix" else None
    try:
        if server:
            lines = lines + [f"socket {server.socket}"]
        (work / "plan.txt").write_text("\n".join(lines) + "\n")
        cmd = [str(BUILD / "perfbench_harness"), f"--plan={work / 'plan.txt'}",
               f"--out={work / 'raw.json'}"]
        if traced:
            (work / "trace").mkdir()
            cmd.append(f"--trace-dir={work / 'trace'}")
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, check=True,
                       timeout=HARNESS_TIMEOUT_S)
        raw = json.loads((work / "raw.json").read_text())
        if server:
            raw["server_peak_rss_mb"] = server.peak_rss_mb()
    finally:
        if server:
            server.stop()
    folds = {}
    if traced:
        for path in sorted((work / "trace").glob("*.json")):
            folds[path.stem] = spans.fold(spans.load(path))
    return raw, folds


def report(args):
    lines = plan.make_plan(args.workload, args.seed, args.seconds)
    run_dir = BUILD / "runs" / str(os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        untraced, _ = run_harness(args.workload, lines, run_dir, traced=False)
        attempted, problems = metrics.check(untraced)
        if args.trace:
            traced, folds = run_harness(args.workload, lines, run_dir,
                                        traced=True)
            more, traced_problems = metrics.check(traced)
            attempted += more
            problems += traced_problems
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for p in problems:
        print(f"perfbench: FAILED {p}", file=sys.stderr)
    failed = len(problems)

    print(f"{args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for name, value, unit in metrics.named_metrics(untraced, attempted, failed):
        print(f"  {name:34s} {value:14.6g} {unit}")
    if args.trace:
        values = metrics.per_layer(untraced, traced, folds)
        units = dict(metrics.PER_LAYER)
        for name, share in metrics.field_shares(untraced)[:3]:
            print(f"  grid.fields_s share {name:22s} {share:8.1%}")
    else:
        values = metrics.end_to_end(untraced)
        units = dict(metrics.END_TO_END)
    for name, value in values.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True,
                    choices=plan.WORKLOADS + plan.EXTRA_WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        build()
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    try:
        return report(args)
    except (OSError, RuntimeError, ValueError, KeyError, ZeroDivisionError,
            subprocess.SubprocessError) as e:
        print(f"perfbench: {args.workload}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
