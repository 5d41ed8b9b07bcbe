#include "scenario/runner.hpp"

#include <cinttypes>
#include <cstdio>

#include "exec/thread_pool.hpp"
#include "io/table.hpp"
#include "obs/clock.hpp"
#include "scenario/registry.hpp"

namespace pedsim::scenario {

namespace {

inline void fnv_mix(std::uint64_t& h, std::uint64_t v) {
    constexpr std::uint64_t kPrime = 0x100000001B3ull;
    for (int byte = 0; byte < 8; ++byte) {
        h ^= (v >> (8 * byte)) & 0xFFu;
        h *= kPrime;
    }
}

}  // namespace

std::uint64_t position_fingerprint(const core::Simulator& sim) {
    std::uint64_t h = 0xCBF29CE484222325ull;  // FNV offset basis
    const auto& p = sim.properties();
    for (std::size_t i = 1; i < p.rows(); ++i) {
        fnv_mix(h, static_cast<std::uint64_t>(i));
        fnv_mix(h, static_cast<std::uint64_t>(
                       static_cast<std::int64_t>(p.row[i])));
        fnv_mix(h, static_cast<std::uint64_t>(
                       static_cast<std::int64_t>(p.col[i])));
        fnv_mix(h, p.active[i]);
        fnv_mix(h, p.crossed[i]);
    }
    return h;
}

PreparedScenario prepare_scenario(const Scenario& s) {
    // The schedule is a pure function of grid/layout/events — model,
    // seed, step budget and thread count never reach it — so one build
    // serves every job permutation of the scenario.
    return {s, std::make_shared<const core::DoorSchedule>(s.sim)};
}

ScenarioRunner::ScenarioRunner(RunnerOptions opts) : opts_(std::move(opts)) {}

RunRecord ScenarioRunner::run_one(const Scenario& s,
                                  backend::DeviceType engine,
                                  core::Model model, std::uint64_t seed,
                                  int steps) const {
    return run_prepared({s, nullptr}, engine, model, seed, steps);
}

RunRecord ScenarioRunner::run_prepared(const PreparedScenario& p,
                                       backend::DeviceType engine,
                                       core::Model model, std::uint64_t seed,
                                       int steps,
                                       const core::StepObserver& observer)
    const {
    const Scenario& s = p.scenario;
    // Anything thrown below (setup validation, engine construction, the
    // run itself) surfaces with the run's coordinates attached: a batch
    // executes on pool workers, and a bare rethrow would leave a failing
    // golden/property run anonymous.
    try {
        core::SimConfig cfg = s.sim;
        cfg.model = model;
        cfg.seed = seed;
        if (opts_.engine_threads > 0) cfg.exec.threads = opts_.engine_threads;
        const obs::Stopwatch setup_watch;
        const auto sim = backend::make_engine(engine, cfg, p.schedule);
        const double setup_seconds = setup_watch.seconds();
        RunRecord rec;
        rec.scenario = s.name;
        rec.engine = engine;
        rec.model = model;
        rec.seed = seed;
        rec.steps = steps;
        rec.door_events = static_cast<int>(cfg.doors.size());
        rec.cycle_events = static_cast<int>(cfg.cycles.size());
        rec.mover_events = static_cast<int>(cfg.movers.size());
        rec.anticipate_horizon = cfg.anticipate.horizon;
        rec.waypoint_cells =
            static_cast<int>(cfg.layout.waypoints[0].size() +
                             cfg.layout.waypoints[1].size());
        rec.engine_threads = cfg.exec.threads;
        rec.setup_seconds = setup_seconds;
        rec.result = sim->run(steps, observer);
        rec.fingerprint = position_fingerprint(*sim);
        return rec;
    } catch (const std::exception& e) {
        throw std::runtime_error(
            "scenario '" + s.name + "' (" + backend::device_name(engine) +
            ", " + (model == core::Model::kLem ? "lem" : "aco") +
            ", seed " + std::to_string(seed) + "): " + e.what());
    }
}

std::vector<ScenarioRunner::JobSpec> ScenarioRunner::plan(
    const std::vector<Scenario>& scenarios) const {
    // Expand the scenario x model x engine nest into a flat job list; job
    // j writes records[j], so the collected batch keeps the serial
    // nesting order at any thread count (and a remote batch submits in
    // the identical order).
    std::vector<JobSpec> jobs;
    for (std::size_t si = 0; si < scenarios.size(); ++si) {
        const auto& s = scenarios[si];
        const int steps =
            opts_.steps_override > 0 ? opts_.steps_override : s.default_steps;
        const std::vector<core::Model> models =
            opts_.models.empty() ? std::vector<core::Model>{s.sim.model}
                                 : opts_.models;
        for (const auto model : models) {
            for (const auto engine : opts_.engines) {
                jobs.push_back({si, engine, model, s.sim.seed, steps});
            }
        }
    }
    return jobs;
}

std::vector<RunRecord> ScenarioRunner::run(
    const std::vector<Scenario>& scenarios) const {
    const auto jobs = plan(scenarios);
    std::vector<RunRecord> records(jobs.size());
    const exec::ExecPolicy policy{opts_.threads};
    const auto execute = [&](int j) {
        const auto& job = jobs[static_cast<std::size_t>(j)];
        records[static_cast<std::size_t>(j)] =
            run_one(scenarios[job.scenario], job.engine, job.model, job.seed,
                    job.steps);
    };
    if (policy.serial() || jobs.size() <= 1) {
        // Keep serial batches thread-free (no pool is ever created).
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            execute(static_cast<int>(j));
        }
        return records;
    }
    exec::ThreadPool::shared().run(static_cast<int>(jobs.size()),
                                   policy.effective_threads(), execute);
    return records;
}

std::vector<RunRecord> ScenarioRunner::run_registry() const {
    return run(all());
}

std::string ScenarioRunner::summary_table(
    const std::vector<RunRecord>& records) {
    io::TablePrinter table({"scenario", "engine", "model", "seed", "steps",
                            "doors", "cycles", "movers", "antic", "wps",
                            "crossed", "moves", "conflicts", "setup_s",
                            "wall_s", "steps_per_s", "modeled_s",
                            "fingerprint"});
    for (const auto& r : records) {
        char fp[20];
        std::snprintf(fp, sizeof(fp), "%016" PRIx64, r.fingerprint);
        const double sps = r.result.wall_seconds > 0.0
                               ? r.result.steps_run / r.result.wall_seconds
                               : 0.0;
        table.add_row(
            {r.scenario, backend::device_name(r.engine),
             r.model == core::Model::kLem ? "lem" : "aco",
             std::to_string(r.seed), std::to_string(r.steps),
             std::to_string(r.door_events), std::to_string(r.cycle_events),
             std::to_string(r.mover_events),
             std::to_string(r.anticipate_horizon),
             std::to_string(r.waypoint_cells),
             io::TablePrinter::integer(
                 static_cast<long long>(r.result.crossed_total())),
             io::TablePrinter::integer(
                 static_cast<long long>(r.result.total_moves)),
             io::TablePrinter::integer(
                 static_cast<long long>(r.result.total_conflicts)),
             io::TablePrinter::num(r.setup_seconds, 3),
             io::TablePrinter::num(r.result.wall_seconds, 3),
             io::TablePrinter::num(sps, 1),
             io::TablePrinter::num(r.result.modeled_device_seconds, 3), fp});
    }
    return table.str();
}

}  // namespace pedsim::scenario
