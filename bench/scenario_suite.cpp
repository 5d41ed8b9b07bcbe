// Batch scenario suite: run scenario x model x engine combinations from
// the built-in registry (or user scenario files) at each scenario's own
// seed, and print one metrics row per run. The per-run fingerprint
// column makes cross-engine bit-parity visible at a glance; the
// doors/cycles/movers/anticipate/waypoints and steps_per_s columns
// make throughput-vs-event-count (and throughput-vs-waypoint-count — see
// also waypoint_sweep) measurable across the dynamic-environment and
// multi-goal scenarios.
//
//   ./scenario_suite                        # full registry, both engines
//   ./scenario_suite --backend=cpu          # CPU only
//   ./scenario_suite --backend=sharded-cpu:4  # cpu engine, 4 row bands
//   ./scenario_suite --models=lem,aco       # force both models everywhere
//   ./scenario_suite --steps=100
//   ./scenario_suite --threads=4             # batch runs as pool jobs
//   ./scenario_suite --file=my.scenario     # run a scenario file instead
//   ./scenario_suite --csv=out.csv          # also dump CSV
//   ./scenario_suite --server=/tmp/pedsim.sock  # submit to a pedsim_server
//   ./scenario_suite --trace=out.json --metrics   # observability
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/cli.hpp"
#include "io/args.hpp"
#include "io/csv.hpp"
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
            "                   (default 0: each scenario's own)\n"
            "  --threads=N      batch-level pool jobs (default: hardware\n"
            "                   concurrency; results identical at any N)\n"
            "  --engine-threads=N  threads inside each engine (default:\n"
            "                   each scenario's own policy; only effective\n"
            "                   with --threads=1 — in a parallel batch,\n"
            "                   nested dispatches run inline)\n"
            "  --csv=PATH       also write the records as CSV\n"
            "  --server=SOCK    submit the batch to a resident\n"
            "                   pedsim_server on that Unix socket instead\n"
            "                   of running in-process (same plan, same\n"
            "                   order, bit-identical fingerprints)");
        std::puts(obs::cli_help());
        return 0;
    }

    scenario::RunnerOptions opts;
    try {
        // io::ArgParser ignores unknown flags, so the removed ones would
        // otherwise run the full registry silently.
        for (const char* removed : {"json", "repeats"}) {
            if (args.has(removed)) {
                throw std::invalid_argument(
                    std::string("--") + removed +
                    " was removed; perfbench/run.py and tools/perf_ab.py "
                    "measure performance");
            }
        }
        opts.engines = backend::engines_from_args(args, opts.engines);
        for (const auto& m : split_csv(args.get("models", ""))) {
            if (m == "lem") {
                opts.models.push_back(core::Model::kLem);
            } else if (m == "aco") {
                opts.models.push_back(core::Model::kAco);
            } else {
                throw std::invalid_argument("unknown model: " + m);
            }
        }
        opts.steps_override = args.get_int32("steps", 0, 0);
        opts.threads = args.get_threads();
        opts.engine_threads = args.get_int32("engine-threads", 0, 0);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }

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
    std::printf("\nbatch: %zu runs in %.3f s at %d thread(s)\n",
                records.size(), batch_wall, opts.threads);

    if (args.has("csv")) {
        io::CsvWriter csv(args.get("csv"));
        // CI's fingerprint diffs cut columns 1-5,7-14,20 by position, so
        // new columns may only append after fingerprint (column 20).
        csv.header({"scenario", "engine", "model", "seed", "steps",
                    "threads", "doors", "cycles", "movers", "anticipate",
                    "waypoints", "crossed", "moves", "conflicts", "setup_s",
                    "wall_s", "steps_per_s", "modeled_s", "batch_wall_s",
                    "fingerprint"});
        for (const auto& r : records) {
            char fp[20];
            std::snprintf(fp, sizeof(fp), "%016llx",
                          static_cast<unsigned long long>(r.fingerprint));
            const double sps =
                r.result.wall_seconds > 0.0
                    ? r.result.steps_run / r.result.wall_seconds
                    : 0.0;
            csv.row(r.scenario, backend::engine_label(r.engine, r.bands),
                    r.model == core::Model::kLem ? "lem" : "aco", r.seed,
                    r.steps, opts.threads, r.door_events, r.cycle_events,
                    r.mover_events, r.anticipate_horizon, r.waypoint_cells,
                    r.result.crossed_total(), r.result.total_moves,
                    r.result.total_conflicts, r.setup_seconds,
                    r.result.wall_seconds, sps,
                    r.result.modeled_device_seconds, batch_wall, fp);
        }
        std::printf("\nwrote %s\n", args.get("csv").c_str());
    }
    return 0;
}
