"""The benchmark's metrics, computed from the harness's raw samples.

Every workload reports every metric. End-to-end metrics come from an
untraced run; per-layer metrics from a traced run and the untraced run
made before it. A layer that does no work on a workload reads 0 there.
check() does the failure accounting: every result against its oracle.
"""

import statistics

import spans
from stats import percentile

# (name, unit) in BENCHMARK.json order; the tests keep the two in step.
END_TO_END = [
    ("throughput", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

ENGINES = ("cpu1", "cpu4", "sharded4", "simt")
STAGES = ("reset", "initial_calc", "tour_construction", "movement",
          "finish_step")

PER_LAYER = (
    [(f"core.step_ms_p{q}.{e}", "ms") for e in ENGINES for q in (50, 90)]
    + [(f"core.{s}_ms", "ms") for s in STAGES]
    + [
        ("core.preamble_ms", "ms"),
        ("core.move_ratio", "ratio"),
        ("grid.fields_s", "s"),
        ("grid.fields_built", "count"),
        ("grid.placement_s", "s"),
        ("exec.queue_wait_ms", "ms"),
        ("exec.task_ms", "ms"),
        ("exec.tasks_per_step", "count"),
        ("exec.parallel_eff", "ratio"),
        ("backend.halo_ms", "ms"),
    ]
    + [(f"backend.engine_mb.{e}", "MB") for e in ENGINES]
    + [
        ("simt.launch_ms", "ms"),
        ("simt.launch_share", "ratio"),
        ("simt.launches_per_step", "count"),
        ("simt.blocks_per_step", "count"),
        ("simt.warp_instructions_per_step", "count"),
        ("simt.global_transactions_per_step", "count"),
        ("simt.modeled_ms_per_step", "ms"),
        ("simt.occupied_block_frac", "ratio"),
        ("scenario.run_s", "s"),
        ("scenario.runs", "count"),
        ("io.parse_ms", "ms"),
    ]
    + [(f"server.{p}_ms_p{q}", "ms")
       for p in ("admit", "wait", "stream") for q in (50, 95)]
    + [
        ("server.queue_depth_p50", "count"),
        ("server.cache_hit_ratio", "ratio"),
        ("server.retries", "count"),
        ("server.cache_entries", "count"),
        ("obs.trace_overhead_pct", "%"),
    ]
)


def check(raw):
    """(attempted, problems) over every checked operation of a harness run.
    A thrown run, a job error, an unrecovered rejection, a lost connection
    or a fingerprint that differs from its oracle's is a problem."""
    ops = []
    if raw["kind"] == "paper":
        oracle = {o["seed"]: o["fingerprints"] for o in raw["oracle"]}
        for eng in raw["engines"]:
            at = str(eng["steps"])
            for run in eng["runs"]:
                ops.append((f"{eng['id']} seed {run['seed']}",
                            run.get("error"), run.get("fingerprint"),
                            oracle.get(run["seed"], {}).get(at)))
    elif raw["kind"] == "sweep":
        for r in raw["runs"]:
            ops.append((f"{r['scenario']} pass {r['pass']}", r.get("error"),
                        r.get("fingerprint"), r["oracle"]))
    else:
        for j in raw["jobs"]:
            ops.append((f"job {j['job']} ({j['key']})", j.get("error"),
                        j.get("fingerprint"), j["oracle"]))
    problems = [f"connection: {f}" for f in raw.get("fatal", [])]
    for what, error, got, want in ops:
        if error:
            problems.append(f"{what}: {error}")
        elif got is None or got != want:
            problems.append(f"{what}: fingerprint {got} != oracle {want}")
    return max(len(ops) + len(raw.get("fatal", [])), 1), problems


def _median(values):
    return statistics.median(values) if values else 0.0


def _engine(raw, engine_id):
    for eng in raw.get("engines", []):
        if eng["id"] == engine_id:
            return eng
    return None


def _step_ms(eng):
    if eng is None:
        return []
    return [ms for run in eng["runs"] for ms in run.get("step_ms", [])]


def _ok(items):
    """Runs or jobs that completed without an error."""
    return [x for x in items if "fingerprint" in x]


def _pass_sums(raw, *keys):
    """Per-pass sums of registry_sweep run fields."""
    sums = {}
    for r in _ok(raw["runs"]):
        sums[r["pass"]] = sums.get(r["pass"], 0.0) + sum(r[k] for k in keys)
    return list(sums.values())


def latency_samples(raw):
    """Time per unit of work, ms: a cpu 1-thread step() call (paper_*), a
    cold registry run, prepare_scenario + run_prepared (registry_sweep), or
    a server job, submit -> kDone (server_mix)."""
    if raw["kind"] == "paper":
        return _step_ms(_engine(raw, "cpu1"))
    if raw["kind"] == "sweep":
        return [1e3 * (r["fields_s"] + r["run_s"]) for r in _ok(raw["runs"])]
    return [j["done_ms"] - j["submit_ms"] for j in _ok(raw["jobs"])]


def _setup_s(raw):
    if raw["kind"] == "sweep":
        return _median(_pass_sums(raw, "fields_s", "placement_s"))
    return _median([r["fields_s"] + r["placement_s"] for r in raw["setup"]])


def _block_rate(eng, block=5):
    """Median over blocks of `block` consecutive timed steps of steps per
    second."""
    rates = []
    for run in eng["runs"] if eng else []:
        ms = run.get("step_ms", [])
        rates += [1e3 * len(ms[i:i + block]) / sum(ms[i:i + block])
                  for i in range(0, len(ms), block)]
    return statistics.median(rates) if rates else 0.0


def throughput(raw):
    """Units of work per second as a median over windows of the run: blocks
    of 5 cpu 1-thread steps (paper_*), passes (registry_sweep) or blocks of
    25 consecutive job completions (server_mix). A burst of host noise
    moves it only when it covers half the run."""
    if raw["kind"] == "paper":
        return _block_rate(_engine(raw, "cpu1"))
    if raw["kind"] == "sweep":
        passes = {}
        for r in _ok(raw["runs"]):
            n, t = passes.get(r["pass"], (0, 0.0))
            passes[r["pass"]] = (n + 1, t + r["fields_s"] + r["run_s"])
        return statistics.median(n / t for n, t in passes.values())
    done = sorted(j["done_ms"] for j in _ok(raw["jobs"]))
    if len(done) <= 25:
        return len(done) / raw["wall_s"]
    return statistics.median(25e3 / (done[i] - done[i - 25])
                             for i in range(25, len(done), 25))


def end_to_end(raw):
    """The END_TO_END metrics of an untraced run."""
    samples = latency_samples(raw)
    return {
        "throughput": throughput(raw),
        "latency_p50_ms": percentile(samples, 50),
        "latency_p95_ms": percentile(samples, 95),
        "setup_s": _setup_s(raw),
        "peak_rss_mb": raw.get("server_peak_rss_mb", raw["peak_rss_mb"]),
    }


def named_metrics(raw, attempted, failed):
    """The workload's end-to-end figures under workload-specific names
    (steps_per_s, runs_per_s, jobs_per_s, failed_frac, ...), for the
    readout: [(name, value, unit)]."""
    out = []
    if raw["kind"] == "paper":
        for eng, name in (("cpu1", "steps_per_s"), ("cpu4", "mt_steps_per_s"),
                          ("sharded4", "sharded_steps_per_s"),
                          ("simt", "simt_steps_per_s")):
            out.append((name, _block_rate(_engine(raw, eng)), "steps/s"))
    elif raw["kind"] == "sweep":
        runs = _ok(raw["runs"])
        out.append(("steps_per_s", sum(r["steps"] for r in runs) /
                    sum(r["step_s"] for r in runs), "steps/s"))
        out.append(("runs_per_s", throughput(raw), "runs/s"))
    else:
        lat = latency_samples(raw)
        out.append(("jobs_per_s", throughput(raw), "jobs/s"))
        out.append((f"job_p50_ms (n={len(lat)})", percentile(lat, 50), "ms"))
        out.append((f"job_p95_ms (n={len(lat)})", percentile(lat, 95), "ms"))
    out.append(("setup_s", _setup_s(raw), "s"))
    out.append(("peak_rss_mb",
                raw.get("server_peak_rss_mb", raw["peak_rss_mb"]), "MB"))
    out.append(("failed_frac", failed / attempted, "ratio"))
    return out


def field_shares(raw):
    """registry_sweep: each scenario's share of the summed prepare_scenario
    time, largest first."""
    per = {}
    for r in _ok(raw.get("runs", [])):
        per[r["scenario"]] = per.get(r["scenario"], 0.0) + r["fields_s"]
    total = sum(per.values())
    if not total:
        return []
    return sorted(((k, v / total) for k, v in per.items()), key=lambda kv: -kv[1])


def _per_step(table, name, key="self_us"):
    n = spans.steps(table)
    return table.get(name, {}).get(key, 0.0) / n / 1e3 if n else 0.0


def trace_overhead_pct(traced):
    """Tracing's cost, from the traced run alone. That run traces every
    other timed step of each engine (paper_*), every other pass
    (registry_sweep) or every other half second of the client loop
    (server_mix), so host drift lands on both halves alike. The work is
    grouped by engine, (scenario, seed) or job key, and the result is 100 x
    (traced / untraced - 1) of the groups' summed median times."""
    samples = []  # (group, traced, time)
    if traced["kind"] == "paper":
        for eng in traced["engines"]:
            for run in eng["runs"]:
                samples += [(eng["id"], False, ms) for ms in run.get("step_ms", [])]
                samples += [(eng["id"], True, ms)
                            for ms in run.get("traced_step_ms", [])]
    elif traced["kind"] == "sweep":
        samples = [((r["scenario"], r["seed"]), r["traced"],
                    r["fields_s"] + r["run_s"]) for r in _ok(traced["runs"])]
    else:
        samples = [(j["key"], j["traced"], j["done_ms"] - j["submit_ms"])
                   for j in _ok(traced["jobs"])]
    halves = {}  # group -> (untraced times, traced times)
    for group, on, t in samples:
        halves.setdefault(group, ([], []))[on].append(t)
    on = off = 0.0
    for untraced, with_trace in halves.values():
        if untraced and with_trace:
            off += statistics.median(untraced)
            on += statistics.median(with_trace)
    return 100.0 * (on / off - 1.0) if off else 0.0


def per_layer(untraced, traced, folds):
    """The PER_LAYER metrics; `folds` maps each phase of the traced run
    (setup, cpu1, cpu4, sharded4, simt, sweep, server) to its spans.fold
    table."""
    m = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    kind = untraced["kind"]

    if kind == "sweep":
        runs = _ok(untraced["runs"])
        m["grid.fields_s"] = _median(_pass_sums(untraced, "fields_s"))
        m["grid.placement_s"] = _median(_pass_sums(untraced, "placement_s"))
        m["grid.fields_built"] = sum(r["fields_built"] for r in runs
                                     if r["pass"] == 0)
        m["scenario.run_s"] = _median(_pass_sums(untraced, "run_s"))
        m["scenario.runs"] = len(runs)
        moves = sum(r["moves"] for r in runs)
        proposals = moves + sum(r["conflicts"] for r in runs)
        m["core.move_ratio"] = moves / proposals if proposals else 0.0
        stages = folds.get("sweep", {})
    else:
        setup = untraced["setup"]
        m["grid.fields_s"] = _median([r["fields_s"] for r in setup])
        m["grid.placement_s"] = _median([r["placement_s"] for r in setup])
        m["grid.fields_built"] = setup[0]["fields_built"]
        stages = folds.get("cpu1", {})

    for stage in STAGES:
        m[f"core.{stage}_ms"] = _per_step(stages, f"stage/{stage}")
    if spans.steps(stages):
        preamble = stages["step"]["self_us"] + sum(
            row["total_us"] for name, row in stages.items()
            if name.startswith("step/"))
        m["core.preamble_ms"] = preamble / spans.steps(stages) / 1e3

    if kind == "paper":
        for e in ENGINES:
            eng = _engine(untraced, e)
            ms = _step_ms(eng)
            if ms:
                m[f"core.step_ms_p50.{e}"] = percentile(ms, 50)
                m[f"core.step_ms_p90.{e}"] = percentile(ms, 90)
                m[f"backend.engine_mb.{e}"] = _median(
                    [r["engine_mb"] for r in eng["runs"] if "engine_mb" in r])
        cpu1 = _engine(untraced, "cpu1")["runs"]
        proposals = sum(r.get("proposals", 0) for r in cpu1)
        if proposals:
            m["core.move_ratio"] = sum(r.get("moves", 0) for r in cpu1) / proposals
        if m["core.step_ms_p50.cpu4"]:
            m["exec.parallel_eff"] = (m["core.step_ms_p50.cpu1"] /
                                      (4 * m["core.step_ms_p50.cpu4"]))
        pool = folds.get("cpu4", {})
        m["exec.queue_wait_ms"] = _per_step(pool, "pool/queue_wait", "total_us")
        m["exec.task_ms"] = _per_step(pool, "pool/task", "total_us")
        if spans.steps(pool):
            m["exec.tasks_per_step"] = (pool.get("pool/task", {}).get("count", 0)
                                        / spans.steps(pool))
        m["backend.halo_ms"] = _per_step(folds.get("sharded4", {}), "stage/reset")
        simt_fold = folds.get("simt", {})
        m["simt.launch_ms"] = _per_step(simt_fold, "simt/launch", "total_us")
        step_us = simt_fold.get("step", {}).get("total_us", 0.0)
        if step_us:
            m["simt.launch_share"] = (simt_fold.get("simt/launch", {})
                                      .get("total_us", 0.0) / step_us)
        simt = _engine(untraced, "simt")
        runs = [r for r in simt["runs"] if "simt" in r] if simt else []
        steps = sum(len(r["step_ms"]) for r in runs)
        if steps:
            def total(key):
                return sum(r["simt"][key] for r in runs)
            m["simt.launches_per_step"] = total("launches") / steps
            m["simt.blocks_per_step"] = total("blocks") / steps
            m["simt.warp_instructions_per_step"] = total("warp_instructions") / steps
            m["simt.global_transactions_per_step"] = (
                total("global_transactions") / steps)
            m["simt.modeled_ms_per_step"] = 1e3 * total("modeled_s") / steps
            m["simt.occupied_block_frac"] = total("occupied_blocks") / sum(
                r["simt"]["grid_blocks"] * len(r["step_ms"]) for r in runs)

    if kind == "server":
        jobs = _ok(untraced["jobs"])
        for phase, a, b in (("admit", "submit_ms", "accept_ms"),
                            ("wait", "accept_ms", "first_step_ms"),
                            ("stream", "first_step_ms", "done_ms")):
            d = [j[b] - j[a] for j in jobs if j[a] >= 0 and j[b] >= 0]
            if d:
                m[f"server.{phase}_ms_p50"] = percentile(d, 50)
                m[f"server.{phase}_ms_p95"] = percentile(d, 95)
        if jobs:
            m["server.queue_depth_p50"] = percentile(
                [j["queue_depth"] for j in jobs], 50)
            m["server.cache_hit_ratio"] = (sum(j["cache_hit"] for j in jobs)
                                           / len(jobs))
        m["server.retries"] = sum(j["retries"] for j in untraced["jobs"])
        m["server.cache_entries"] = untraced["cache_entries"]
        m["io.parse_ms"] = untraced["parse_ms"]
        m["scenario.run_s"] = untraced["oracle_run_s"]
        m["scenario.runs"] = untraced["oracle_runs"]

    m["obs.trace_overhead_pct"] = trace_overhead_pct(traced)
    return m
