// Batch scenario suite: run scenario x model x engine combinations from
// the built-in registry (or user scenario files) with deterministic
// per-repeat seeds, and print the aggregated metrics table. The per-run
// fingerprint column makes cross-engine bit-parity visible at a glance;
// the doors/cycles/movers/anticipate/waypoints and steps_per_s columns
// make throughput-vs-event-count (and throughput-vs-waypoint-count — see
// also waypoint_sweep) measurable across the dynamic-environment and
// multi-goal scenarios.
//
//   ./scenario_suite                        # full registry, both engines
//   ./scenario_suite --backend=cpu          # CPU only
//   ./scenario_suite --backend=sharded-cpu:4  # cpu engine, 4 row bands
//   ./scenario_suite --models=lem,aco       # force both models everywhere
//   ./scenario_suite --steps=100 --repeats=3
//   ./scenario_suite --threads=4             # batch runs as pool jobs
//   ./scenario_suite --file=my.scenario     # run a scenario file instead
//   ./scenario_suite --csv=out.csv          # also dump CSV
//   ./scenario_suite --json=BENCH.json      # perf-trajectory artifact
//   ./scenario_suite --server=/tmp/pedsim.sock  # submit to a pedsim_server
//   ./scenario_suite --trace=out.json --metrics   # observability
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "backend/cli.hpp"
#include "io/args.hpp"
#include "io/csv.hpp"
#include "io/json.hpp"
#include "io/scenario_file.hpp"
#include "obs/cli.hpp"
#include "obs/clock.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "server/client.hpp"

using namespace pedsim;

namespace {

std::vector<std::string> split_csv(const std::string& s) {
    std::vector<std::string> out;
    std::string cur;
    for (const char ch : s) {
        if (ch == ',') {
            if (!cur.empty()) out.push_back(cur);
            cur.clear();
        } else {
            cur += ch;
        }
    }
    if (!cur.empty()) out.push_back(cur);
    return out;
}

/// One (scenario, engine, model, threads, steps) combination aggregated
/// over its repeats. Medians — not means — feed the perf trajectory: a
/// single preempted repeat shifts a mean but not a median, so BENCH_*.json
/// files diff meaningfully across PRs even from noisy hosts. Fingerprints
/// are per-run (repeats draw distinct seeds via repeat_seed), so the
/// aggregate carries timing only.
struct Aggregate {
    std::string scenario;
    std::string engine;
    std::string model;
    int threads = 0;
    int steps = 0;
    std::vector<double> wall_s;
    std::vector<double> steps_per_s;
    double median_wall_s = 0.0;
    double median_steps_per_s = 0.0;
};

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Group records by combination in first-seen order (the runner expands
/// repeats innermost-adjacent, but grouping by key is robust to any
/// expansion order) and compute the medians.
std::vector<Aggregate> aggregate(
    const std::vector<scenario::RunRecord>& records) {
    std::vector<Aggregate> groups;
    for (const auto& r : records) {
        const std::string engine = scenario::engine_label(r.engine, r.bands);
        const std::string model =
            r.model == core::Model::kLem ? "lem" : "aco";
        Aggregate* g = nullptr;
        for (auto& cand : groups) {
            if (cand.scenario == r.scenario && cand.engine == engine &&
                cand.model == model && cand.threads == r.engine_threads &&
                cand.steps == r.steps) {
                g = &cand;
                break;
            }
        }
        if (g == nullptr) {
            groups.push_back(
                {r.scenario, engine, model, r.engine_threads, r.steps,
                 {}, {}, 0.0, 0.0});
            g = &groups.back();
        }
        g->wall_s.push_back(r.result.wall_seconds);
        g->steps_per_s.push_back(
            r.result.wall_seconds > 0.0
                ? r.result.steps_run / r.result.wall_seconds
                : 0.0);
    }
    for (auto& g : groups) {
        g.median_wall_s = median(g.wall_s);
        g.median_steps_per_s = median(g.steps_per_s);
    }
    return groups;
}

std::string aggregate_table(const std::vector<Aggregate>& groups) {
    std::string out =
        "\naggregates (median over repeats)\n"
        "scenario              engine  model  threads  steps  repeats  "
        "median_wall_s  median_steps_per_s\n";
    for (const auto& g : groups) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%-21s %-7s %-6s %7d  %5d  %7zu  %13.4f  %18.1f\n",
                      g.scenario.c_str(), g.engine.c_str(), g.model.c_str(),
                      g.threads, g.steps, g.wall_s.size(), g.median_wall_s,
                      g.median_steps_per_s);
        out += line;
    }
    return out;
}

/// The perf-trajectory artifact (schema "pedsim-bench-v1", documented in
/// docs/OBSERVABILITY.md): one run object per scenario x engine x repeat
/// with setup/stepping wall time split and throughput. Key set and
/// meanings are stable across PRs so BENCH_*.json files diff cleanly.
std::string bench_json(const std::vector<scenario::RunRecord>& records,
                       const std::vector<Aggregate>& aggregates,
                       const scenario::RunnerOptions& opts,
                       double batch_wall_s) {
    io::JsonWriter w;
    w.begin_object();
    w.key("schema");
    w.value("pedsim-bench-v1");
    w.key("suite");
    w.value("scenario_suite");
    w.key("threads");
    w.value(opts.threads);
    w.key("engine_threads");
    w.value(opts.engine_threads);
    w.key("repeats");
    w.value(opts.repeats);
    w.key("batch_wall_s");
    w.value(batch_wall_s);
    w.key("runs");
    w.begin_array();
    for (const auto& r : records) {
        const double sps = r.result.wall_seconds > 0.0
                               ? r.result.steps_run / r.result.wall_seconds
                               : 0.0;
        char fp[20];
        std::snprintf(fp, sizeof(fp), "%016" PRIx64, r.fingerprint);
        w.begin_object();
        w.key("scenario");
        w.value(r.scenario);
        w.key("engine");
        w.value(scenario::engine_label(r.engine, r.bands));
        w.key("model");
        w.value(r.model == core::Model::kLem ? "lem" : "aco");
        w.key("seed");
        w.value(r.seed);
        w.key("steps");
        w.value(r.steps);
        w.key("threads");
        w.value(r.engine_threads);
        w.key("doors");
        w.value(r.door_events);
        w.key("cycles");
        w.value(r.cycle_events);
        w.key("movers");
        w.value(r.mover_events);
        w.key("anticipate");
        w.value(r.anticipate_horizon);
        w.key("waypoints");
        w.value(r.waypoint_cells);
        w.key("crossed");
        w.value(static_cast<std::int64_t>(r.result.crossed_total()));
        w.key("moves");
        w.value(r.result.total_moves);
        w.key("conflicts");
        w.value(r.result.total_conflicts);
        w.key("setup_s");
        w.value(r.setup_seconds);
        w.key("wall_s");
        w.value(r.result.wall_seconds);
        w.key("steps_per_s");
        w.value(sps);
        w.key("modeled_s");
        w.value(r.result.modeled_device_seconds);
        w.key("fingerprint");
        w.value(fp);
        w.end_object();
    }
    w.end_array();
    // Per-combination medians over repeats: the stable per-PR signal that
    // tools/bench_compare.py (and any trend tooling) should prefer over
    // the raw runs when repeats > 1.
    w.key("aggregates");
    w.begin_array();
    for (const auto& g : aggregates) {
        w.begin_object();
        w.key("scenario");
        w.value(g.scenario);
        w.key("engine");
        w.value(g.engine);
        w.key("model");
        w.value(g.model);
        w.key("threads");
        w.value(g.threads);
        w.key("steps");
        w.value(g.steps);
        w.key("repeats");
        w.value(static_cast<std::int64_t>(g.wall_s.size()));
        w.key("median_wall_s");
        w.value(g.median_wall_s);
        w.key("median_steps_per_s");
        w.value(g.median_steps_per_s);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
}

/// Remote execution: submit exactly the batch run() would execute — the
/// same plan() expansion in the same order — to a resident pedsim_server
/// and rebuild full RunRecords from the streamed results. Registry
/// scenarios go by name (so the server's warm cache keys them against
/// other clients' submissions of the same built-in); file scenarios are
/// serialized to scenario text. Fingerprints are the in-process ones
/// bit-for-bit or the server is broken (docs/SERVER.md).
std::vector<scenario::RunRecord> run_remote(
    const scenario::ScenarioRunner& runner,
    const std::vector<scenario::Scenario>& scenarios,
    const std::vector<bool>& from_registry, const std::string& socket_path,
    const scenario::RunnerOptions& opts) {
    const auto jobs = runner.plan(scenarios);
    std::vector<server::protocol::JobRequest> reqs;
    reqs.reserve(jobs.size());
    for (const auto& job : jobs) {
        server::protocol::JobRequest req;
        req.registry = from_registry[job.scenario];
        req.scenario = req.registry
                           ? scenarios[job.scenario].name
                           : io::scenario_to_text(scenarios[job.scenario]);
        req.engine = job.engine;
        req.model = job.model;
        req.seed = job.seed;
        req.steps = job.steps;
        req.engine_threads = opts.engine_threads;
        reqs.push_back(std::move(req));
    }

    server::Client client(socket_path);
    const auto remote = client.run_batch(reqs);

    std::vector<scenario::RunRecord> records(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const auto& r = remote[j];
        if (r.failed) {
            const auto& s = scenarios[jobs[j].scenario];
            throw std::runtime_error("remote job " + std::to_string(j) +
                                     " (scenario '" + s.name +
                                     "') failed: " + r.error);
        }
        const auto& s = scenarios[jobs[j].scenario];
        auto& rec = records[j];
        // Scenario-derived columns come from the local parse (identical
        // to what the server parsed — same text/name); run-derived ones
        // from the server's DoneMsg.
        rec.scenario = s.name;
        rec.engine = jobs[j].engine.type;
        rec.bands = r.bands;
        rec.model = jobs[j].model;
        rec.seed = jobs[j].seed;
        rec.steps = jobs[j].steps;
        rec.door_events = static_cast<int>(s.sim.doors.size());
        rec.cycle_events = static_cast<int>(s.sim.cycles.size());
        rec.mover_events = static_cast<int>(s.sim.movers.size());
        rec.anticipate_horizon = s.sim.anticipate.horizon;
        rec.waypoint_cells =
            static_cast<int>(s.sim.layout.waypoints[0].size() +
                             s.sim.layout.waypoints[1].size());
        rec.engine_threads = r.engine_threads;
        rec.setup_seconds = r.setup_seconds;
        rec.result = r.result;
        rec.fingerprint = r.fingerprint;
    }
    return records;
}

}  // namespace

int main(int argc, char** argv) {
    const io::ArgParser args(argc, argv);
    if (args.has("help")) {
        std::puts(
            "scenario_suite — batch scenario x model x engine runner\n"
            "  [name...]        registry scenarios to run (default: all)\n"
            "  --file=PATH      add a scenario file to the batch\n"
            "  --backend=LIST   cpu, gpu-simt, sharded-cpu[:<bands>]\n"
            "                   (default cpu,gpu-simt)\n"
            "  --models=LIST    lem,aco (default: each scenario's own)\n"
            "  --steps=N        override every scenario's step budget\n"
            "  --repeats=N      independent repetitions (default 1; >1\n"
            "                   adds a median-aggregate table, CSV median\n"
            "                   columns and a JSON `aggregates` array)\n"
            "  --threads=N      batch-level pool jobs (default: hardware\n"
            "                   concurrency; results identical at any N)\n"
            "  --engine-threads=N  threads inside each engine (default:\n"
            "                   each scenario's own policy; only effective\n"
            "                   with --threads=1 — in a parallel batch,\n"
            "                   nested dispatches run inline)\n"
            "  --csv=PATH       also write the records as CSV\n"
            "  --json=PATH      write the perf-trajectory JSON artifact\n"
            "                   (schema pedsim-bench-v1)\n"
            "  --server=SOCK    submit the batch to a resident\n"
            "                   pedsim_server on that Unix socket instead\n"
            "                   of running in-process (same plan, same\n"
            "                   order, bit-identical fingerprints)");
        std::puts(obs::cli_help());
        return 0;
    }

    scenario::RunnerOptions opts;
    try {
        opts.engines = backend::engines_from_args(args, opts.engines);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    for (const auto& m : split_csv(args.get("models", ""))) {
        if (m == "lem") {
            opts.models.push_back(core::Model::kLem);
        } else if (m == "aco") {
            opts.models.push_back(core::Model::kAco);
        } else {
            std::fprintf(stderr, "unknown model: %s\n", m.c_str());
            return 1;
        }
    }
    opts.steps_override = args.get_int32("steps", 0);
    opts.repeats = args.get_int32("repeats", 1);
    opts.threads = args.get_threads();
    opts.engine_threads =
        args.get_int32("engine-threads", 0);

    std::vector<scenario::Scenario> scenarios;
    std::vector<bool> from_registry;  // remote submission: by name vs text
    if (args.positional().empty() && !args.has("file")) {
        scenarios = scenario::all();
        from_registry.assign(scenarios.size(), true);
    }
    for (const auto& name : args.positional()) {
        if (!scenario::has(name)) {
            std::fprintf(stderr, "unknown scenario: %s\n", name.c_str());
            return 1;
        }
        scenarios.push_back(scenario::get(name));
        from_registry.push_back(true);
    }
    if (args.has("file")) {
        try {
            scenarios.push_back(io::load_scenario_file(args.get("file")));
            from_registry.push_back(false);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
    }

    obs::ObsSession session(args);
    const scenario::ScenarioRunner runner(opts);
    const obs::Stopwatch batch_watch;
    std::vector<scenario::RunRecord> records;
    if (args.has("server")) {
        try {
            records = run_remote(runner, scenarios, from_registry,
                                 args.get("server"), opts);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
    } else {
        records = runner.run(scenarios);
    }
    const double batch_wall = batch_watch.seconds();
    session.finish();
    std::fputs(scenario::ScenarioRunner::summary_table(records).c_str(),
               stdout);
    const auto aggregates = aggregate(records);
    if (opts.repeats > 1) {
        std::fputs(aggregate_table(aggregates).c_str(), stdout);
    }
    std::printf("\nbatch: %zu runs in %.3f s at %d thread(s)\n",
                records.size(), batch_wall, opts.threads);

    if (args.has("csv")) {
        io::CsvWriter csv(args.get("csv"));
        // The median columns ride AFTER fingerprint (column 20): the CI
        // thread-count diff cuts columns 1-5,7-14,20 by position, so new
        // columns must only ever append.
        csv.header({"scenario", "engine", "model", "seed", "steps",
                    "threads", "doors", "cycles", "movers", "anticipate",
                    "waypoints", "crossed", "moves", "conflicts", "setup_s",
                    "wall_s", "steps_per_s", "modeled_s", "batch_wall_s",
                    "fingerprint", "median_wall_s", "median_steps_per_s"});
        for (const auto& r : records) {
            char fp[20];
            std::snprintf(fp, sizeof(fp), "%016llx",
                          static_cast<unsigned long long>(r.fingerprint));
            const double sps =
                r.result.wall_seconds > 0.0
                    ? r.result.steps_run / r.result.wall_seconds
                    : 0.0;
            const std::string engine = scenario::engine_label(r.engine, r.bands);
            const std::string model =
                r.model == core::Model::kLem ? "lem" : "aco";
            double med_wall = r.result.wall_seconds;
            double med_sps = sps;
            for (const auto& g : aggregates) {
                if (g.scenario == r.scenario && g.engine == engine &&
                    g.model == model && g.threads == r.engine_threads &&
                    g.steps == r.steps) {
                    med_wall = g.median_wall_s;
                    med_sps = g.median_steps_per_s;
                    break;
                }
            }
            csv.row(r.scenario, engine, model, r.seed,
                    r.steps, opts.threads, r.door_events, r.cycle_events,
                    r.mover_events, r.anticipate_horizon, r.waypoint_cells,
                    r.result.crossed_total(), r.result.total_moves,
                    r.result.total_conflicts, r.setup_seconds,
                    r.result.wall_seconds, sps,
                    r.result.modeled_device_seconds, batch_wall, fp,
                    med_wall, med_sps);
        }
        std::printf("\nwrote %s\n", args.get("csv").c_str());
    }

    if (args.has("json")) {
        const std::string path = args.get("json");
        std::ofstream out(path);
        out << bench_json(records, aggregates, opts, batch_wall) << "\n";
        out.close();
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        std::printf("\nwrote %s\n", path.c_str());
    }
    return 0;
}
