"""Self-tests of tools/perf_ab.py: no build and no benchmark run.

    python3 -m unittest discover -s tools
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True

import perf_ab  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in BENCH["end_to_end"]}
THROUGHPUT = METRICS["throughput"]


def committed(name):
    return json.loads((ROOT / name).read_text())


def series(doc, workload, seed=5, revision=None):
    return next(s for s in doc["series"]
                if s["workload"] == workload and s["seed"] == seed
                and s["trace"] == 0 and s.get("revision") == revision)


def side(values, failed=0):
    return {"correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": values, "exit": 0 if failed == 0 else 1}


def pairs(parent, change, name="throughput"):
    return [{"pair": i + 1, "parent": side({name: p}),
             "change": side({name: c})}
            for i, (p, c) in enumerate(zip(parent, change))]


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


class CommittedRuns(unittest.TestCase):
    def test_resummarising_pr13_and_pr14_reproduces_their_summaries(self):
        checked = 0
        for name in ("BENCH_PR13.json", "BENCH_PR14.json"):
            for s in committed(name)["series"]:
                if s["trace"] != 0:
                    continue
                for metric, stored in s["summary"].items():
                    got = perf_ab.summarise(s["runs"], METRICS[metric])
                    where = f"{name} {s['workload']} seed {s['seed']} {metric}"
                    for key in ("parent_median", "change_median"):
                        self.assertEqual(round(got[key], 6), stored[key],
                                         f"{where} {key}")
                    for key in ("parent_quartiles", "change_quartiles"):
                        self.assertEqual([round(q, 6) for q in got[key]],
                                         stored[key], f"{where} {key}")
                    for key in ("change_over_parent", "change_better_pairs",
                                "pairs", "unit", "better"):
                        self.assertEqual(got[key], stored[key],
                                         f"{where} {key}")
                    checked += 1
        self.assertEqual(checked, 30)

    def test_pr14_paper_sparse_throughput_is_a_gain(self):
        s = series(committed("BENCH_PR14.json"), "paper_sparse")
        got = perf_ab.summarise(s["runs"], THROUGHPUT)
        self.assertEqual((got["change_better_pairs"], got["pairs"]), (10, 10))
        self.assertEqual(got["verdict"], "gain")

    def test_pr15_paper_sparse_throughput_is_unresolved(self):
        s = series(committed("BENCH_PR15.json"), "paper_sparse",
                   revision="final")
        got = perf_ab.summarise(s["runs"], THROUGHPUT)
        q1, q3 = got["parent_quartiles"]
        self.assertAlmostEqual((q3 - q1) / got["parent_median"], 0.273,
                               places=3)
        self.assertEqual(got["verdict"], "unresolved")

    def test_pr16_paper_sparse_throughput_is_no_regression(self):
        s = series(committed("BENCH_PR16.json"), "paper_sparse",
                   revision="final")
        got = perf_ab.summarise(s["runs"], THROUGHPUT)
        self.assertEqual(got["verdict"], "no regression")


class Verdicts(unittest.TestCase):
    def test_median_worse_by_more_than_the_bound_is_a_regression(self):
        slower = [p * 0.7 for p in PARENT]
        got = perf_ab.summarise(pairs(PARENT, slower), THROUGHPUT)
        self.assertEqual(got["verdict"], "regression")
        lower = METRICS["latency_p50_ms"]
        got = perf_ab.summarise(pairs(PARENT, [p * 1.3 for p in PARENT],
                                      "latency_p50_ms"), lower)
        self.assertEqual(got["verdict"], "regression")

    def test_within_the_bound_is_no_regression(self):
        got = perf_ab.summarise(pairs(PARENT, [p * 0.9 for p in PARENT]),
                                THROUGHPUT)
        self.assertEqual(got["verdict"], "no regression")

    def test_every_change_run_beating_every_parent_run_lifts_unresolved(self):
        noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0,
                 100.0]
        got = perf_ab.summarise(pairs(noisy, [v * 1.1 for v in noisy]),
                                THROUGHPUT)
        self.assertEqual(got["verdict"], "unresolved")
        got = perf_ab.summarise(pairs(noisy, [150.0 + i for i in range(10)]),
                                THROUGHPUT)
        self.assertEqual(got["verdict"], "gain")

    def test_ties_count_for_neither_side(self):
        change = PARENT[:5] + [p + 1.0 for p in PARENT[5:]]
        got = perf_ab.summarise(pairs(PARENT, change), THROUGHPUT)
        self.assertEqual(got["change_better_pairs"], 5)
        got = perf_ab.summarise(pairs(PARENT, PARENT), THROUGHPUT)
        self.assertEqual(got["change_better_pairs"], 0)
        self.assertEqual(got["change_over_parent"], 1.0)
        self.assertEqual(got["verdict"], "no regression")

    def test_a_gain_needs_nine_pairs_and_a_median_gap_past_the_iqr(self):
        faster = [p + 5.0 for p in PARENT]
        self.assertEqual(perf_ab.summarise(pairs(PARENT, faster),
                                           THROUGHPUT)["verdict"], "gain")
        eight = faster[:8] + PARENT[8:]
        self.assertEqual(perf_ab.summarise(pairs(PARENT, eight),
                                           THROUGHPUT)["verdict"],
                         "no regression")
        nudged = [p + 0.01 for p in PARENT]
        self.assertEqual(perf_ab.summarise(pairs(PARENT, nudged),
                                           THROUGHPUT)["verdict"],
                         "no regression")

    def test_a_gain_needs_no_more_failed_operations(self):
        runs = pairs(PARENT, [p + 5.0 for p in PARENT])
        runs[0]["change"]["failed"] = 1
        self.assertEqual(perf_ab.summarise(runs, THROUGHPUT)["verdict"],
                         "no regression")


def fake_metrics(scale):
    return {name: 10.0 * scale for name in METRICS}


class Command(unittest.TestCase):
    """perf_ab.main against a throwaway git repository holding the
    benchmark files, with a fake runner in place of perfbench/run.py."""

    def setUp(self):
        self.dir = Path(tempfile.mkdtemp(prefix="perf_ab_test-"))
        self.repo = self.dir / "repo"
        (self.repo / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", self.repo)
        (self.repo / "perfbench" / "run.py").write_text("# benchmark\n")
        self.git("init", "-q")
        self.git("add", "-A")
        self.git("-c", "user.name=perf_ab", "-c", "user.email=perf_ab@test",
                 "-c", "commit.gpgsign=false", "commit", "-q", "-m", "base")
        self.out = self.dir / "ab.json"
        self.calls = []

    def tearDown(self):
        shutil.rmtree(self.dir)

    def git(self, *args):
        subprocess.run(["git", "-C", str(self.repo), *args], check=True)

    def run_main(self, run, parent="HEAD"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            status = perf_ab.main(["--parent", parent, "--out",
                                   str(self.out), "--change", "test"],
                                  root=self.repo, run=run)
        return status, err.getvalue()

    def fake_run(self, checkout, workload, seed, seconds):
        who = "change" if Path(checkout) == self.repo else "parent"
        self.calls.append((workload, who))
        return side(fake_metrics(1.0))

    def test_odd_pairs_run_the_parent_first_and_even_pairs_the_change(self):
        status, _ = self.run_main(self.fake_run)
        self.assertEqual(status, 0)
        workloads = [w["name"] for w in BENCH["workloads"]]
        expected = []
        for workload in workloads:
            for pair in range(1, perf_ab.PAIRS + 1):
                order = ("parent", "change") if pair % 2 else \
                    ("change", "parent")
                expected += [(workload, who) for who in order]
        self.assertEqual(self.calls, expected)
        doc = json.loads(self.out.read_text())
        self.assertEqual(doc["schema"], perf_ab.SCHEMA)
        self.assertEqual([s["workload"] for s in doc["series"]], workloads)
        for s in doc["series"]:
            self.assertEqual(s["seed"], 5)
            self.assertEqual(s["seconds"], BENCH["run_seconds"])
            self.assertEqual([r["first"] for r in s["runs"]],
                             ["parent", "change"] * (perf_ab.PAIRS // 2))
            self.assertEqual(set(s["summary"]), set(METRICS))

    def test_a_failed_run_is_recorded_and_exits_1(self):
        def run(checkout, workload, seed, seconds):
            record = self.fake_run(checkout, workload, seed, seconds)
            if len(self.calls) == 3:
                record.update(correct=False, failed=1, exit=1)
            return record

        status, err = self.run_main(run)
        self.assertEqual(status, 1)
        self.assertIn("failed", err)
        runs = json.loads(self.out.read_text())["series"][0]["runs"]
        self.assertEqual(runs[1]["change"]["exit"], 1)
        self.assertFalse(runs[1]["change"]["correct"])

    def test_a_changed_benchmark_file_exits_2_naming_it(self):
        (self.repo / "perfbench" / "run.py").write_text("# edited\n")
        status, err = self.run_main(self.fake_run)
        self.assertEqual(status, 2)
        self.assertIn("perfbench/run.py", err)
        self.assertEqual(self.calls, [])
        self.assertFalse(self.out.exists())

    def test_an_unknown_parent_exits_2(self):
        status, err = self.run_main(self.fake_run, parent="no-such-ref")
        self.assertEqual(status, 2)
        self.assertIn("no-such-ref", err)


if __name__ == "__main__":
    unittest.main()
