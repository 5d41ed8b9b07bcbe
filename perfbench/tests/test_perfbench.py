"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench/tests

Percentile selection, self-time folding of nested and cross-thread spans,
plans (job lists included) that repeat exactly from a seed, failure
accounting with an injected fingerprint mismatch, and agreement between
the metric tables and BENCHMARK.json.
"""

import collections
import json
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import metrics  # noqa: E402
import plan  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_picks_a_sample(self):
        data = list(range(100, 0, -1))
        self.assertEqual(stats.percentile(data, 50), 50)
        self.assertEqual(stats.percentile(data, 95), 95)
        self.assertEqual(stats.percentile(data, 100), 100)
        self.assertEqual(stats.percentile(data, 1), 1)

    def test_small_samples(self):
        self.assertEqual(stats.percentile([7.5], 95), 7.5)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 50), 2)
        self.assertEqual(stats.percentile(list(range(1, 21)), 95), 19)
        self.assertEqual(stats.percentile(list(range(1, 21)), 90), 18)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 0)

    def test_spread_uses_statistics_quartiles(self):
        values = [10.0, 11.0, 9.5, 10.5, 12.0, 10.2, 9.8, 10.1, 10.9, 11.4]
        med, q1, q3, s = stats.spread(values)
        want_q1, _, want_q3 = statistics.quantiles(values, n=4)
        self.assertEqual((q1, q3), (want_q1, want_q3))
        self.assertEqual(med, statistics.median(values))
        self.assertAlmostEqual(s, (want_q3 - want_q1) / med)


def span(name, ts, dur, tid=0):
    return {"name": name, "ph": "X", "pid": 1, "tid": tid, "ts": ts,
            "dur": dur}


class FoldTest(unittest.TestCase):
    def test_nested_spans_subtract_their_children(self):
        table = spans.fold([
            span("step", 0.0, 100.0),
            span("stage/initial_calc", 10.0, 30.0),
            span("simt/launch", 15.0, 10.0),
            span("stage/movement", 50.0, 40.0),
        ])
        self.assertAlmostEqual(table["step"]["total_us"], 100.0)
        self.assertAlmostEqual(table["step"]["self_us"], 30.0)
        self.assertAlmostEqual(table["stage/initial_calc"]["self_us"], 20.0)
        self.assertAlmostEqual(table["simt/launch"]["self_us"], 10.0)
        self.assertAlmostEqual(table["stage/movement"]["self_us"], 40.0)

    def test_back_to_back_spans_are_siblings(self):
        table = spans.fold([
            span("step", 0.0, 10.0),
            span("step", 10.0, 10.0),
            span("stage/reset", 10.001, 4.0),
        ])
        self.assertEqual(spans.steps(table), 2)
        self.assertAlmostEqual(table["step"]["self_us"], 16.0)
        self.assertAlmostEqual(table["stage/reset"]["self_us"], 4.0)

    def test_worker_thread_spans_fold_on_their_own_thread(self):
        table = spans.fold([
            span("stage/movement", 0.0, 100.0, tid=0),
            span("pool/task", 10.0, 40.0, tid=0),
            span("pool/queue_wait", 5.0, 5.0, tid=1),
            span("pool/task", 12.0, 60.0, tid=1),
            span("simt/block_slice", 15.0, 50.0, tid=1),
        ])
        # Only the caller's own task nests inside its stage.
        self.assertAlmostEqual(table["stage/movement"]["self_us"], 60.0)
        self.assertEqual(table["pool/task"]["count"], 2)
        self.assertAlmostEqual(table["pool/task"]["total_us"], 100.0)
        self.assertAlmostEqual(table["pool/task"]["self_us"], 50.0)
        self.assertAlmostEqual(table["pool/queue_wait"]["self_us"], 5.0)
        self.assertAlmostEqual(table["simt/block_slice"]["self_us"], 50.0)


class PlanTest(unittest.TestCase):
    def test_every_plan_repeats_exactly_from_its_seed(self):
        for workload in plan.WORKLOADS + plan.EXTRA_WORKLOADS:
            with self.subTest(workload=workload):
                first = plan.make_plan(workload, 3, 10)
                self.assertEqual(first, plan.make_plan(workload, 3, 10))
                self.assertNotEqual(first, plan.make_plan(workload, 4, 10))

    def test_server_job_list_mixes_registry_and_skewed_text_jobs(self):
        jobs = [line.split() for line in plan.make_plan("server_mix", 11, 10)
                if line.startswith("job ")]
        self.assertEqual(len(jobs), plan.JOBS)
        text = [j for j in jobs if j[1] == "T"]
        self.assertTrue(0.07 < len(text) / len(jobs) < 0.13)
        drawn = collections.Counter(j[2] for j in text)
        self.assertGreater(drawn["v0"], 3 * drawn[f"v{plan.VARIANTS - 1}"])

    def test_unknown_workload_is_rejected(self):
        with self.assertRaises(ValueError):
            plan.make_plan("nope", 1, 10)


def paper_raw():
    """A clean harness result of a two-engine paper workload."""
    def run(step_ms):
        return {"seed": 9, "fingerprint": "00000000000000aa",
                "engine_mb": 1.0, "proposals": 10, "moves": 8,
                "step_ms": step_ms}
    return {
        "kind": "paper",
        "setup": [{"fields_s": 0.001, "placement_s": 0.01,
                   "fields_built": 1}] * 3,
        "engines": [
            {"id": "cpu1", "threads": 1, "steps": 5,
             "runs": [run([1.0, 2.0, 3.0])]},
            {"id": "cpu4", "threads": 4, "steps": 5,
             "runs": [run([0.5, 1.0, 1.5])]},
        ],
        "oracle": [{"seed": 9, "fingerprints": {"5": "00000000000000aa"}}],
        "peak_rss_mb": 12.0,
    }


def job(i, **fields):
    j = {"job": i, "key": "R:corridor_small", "seed": 1, "oracle": "0a",
         "submit_ms": 0.0, "accept_ms": 0.1, "first_step_ms": 1.0,
         "done_ms": 2.0, "queue_depth": 1, "retries": 0, "cache_hit": True,
         "fingerprint": "0a"}
    j.update(fields)
    return j


class CheckTest(unittest.TestCase):
    def test_clean_paper_run(self):
        self.assertEqual(metrics.check(paper_raw()), (2, []))

    def test_injected_fingerprint_mismatch_is_a_failure(self):
        raw = paper_raw()
        raw["engines"][1]["runs"][0]["fingerprint"] = "00000000000000ab"
        attempted, problems = metrics.check(raw)
        self.assertEqual(attempted, 2)
        self.assertEqual(len(problems), 1)
        self.assertIn("cpu4", problems[0])

    def test_thrown_run_and_missing_oracle_are_failures(self):
        raw = paper_raw()
        raw["engines"][0]["runs"][0] = {"seed": 9, "error": "boom"}
        raw["oracle"][0]["fingerprints"] = {}
        self.assertEqual(len(metrics.check(raw)[1]), 2)

    def test_server_job_errors_rejections_and_mismatches_count(self):
        rejected = job(2, error="rejected: unknown registry scenario")
        del rejected["fingerprint"]
        raw = {"kind": "server", "fatal": ["server closed the connection"],
               "jobs": [job(0), job(1, fingerprint="0b"), rejected]}
        attempted, problems = metrics.check(raw)
        self.assertEqual(attempted, 4)
        self.assertEqual(len(problems), 3)

    def test_end_to_end_of_a_paper_run(self):
        m = metrics.end_to_end(paper_raw())
        self.assertEqual(list(m), [name for name, _ in metrics.END_TO_END])
        self.assertAlmostEqual(m["throughput"], 500.0)  # 3 steps in 6 ms
        self.assertEqual(m["latency_p50_ms"], 2.0)
        self.assertEqual(m["latency_p95_ms"], 3.0)
        self.assertAlmostEqual(m["setup_s"], 0.011)
        self.assertEqual(m["peak_rss_mb"], 12.0)

    def test_trace_overhead_compares_the_halves_of_one_run(self):
        raw = paper_raw()
        for eng in raw["engines"]:
            run = eng["runs"][0]
            run["traced_step_ms"] = [1.1 * ms for ms in run["step_ms"]]
        # Median steps 2.0 + 1.0 ms untraced against 2.2 + 1.1 ms traced.
        self.assertAlmostEqual(metrics.trace_overhead_pct(raw), 10.0)
        sweep = {"kind": "sweep", "runs": [
            {"scenario": s, "seed": 1, "traced": on, "fingerprint": "0a",
             "fields_s": 0.0, "run_s": t}
            for s, on, t in (("a", False, 1.0), ("a", True, 1.5),
                             ("b", False, 3.0), ("c", True, 9.0))]}
        # Only "a" ran both ways.
        self.assertAlmostEqual(metrics.trace_overhead_pct(sweep), 50.0)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         metrics.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         metrics.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(plan.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
