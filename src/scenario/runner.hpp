// Batch scenario runner: executes scenario x model x engine combinations
// at each scenario's own seed, collects RunResult counters plus an
// agent-position fingerprint per run (the cross-engine bit-parity witness),
// and renders a metrics table.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "backend/device.hpp"
#include "core/simulator.hpp"
#include "scenario/scenario.hpp"

namespace pedsim::scenario {

/// Engine selection is the backend layer's: the runner adds batch
/// orchestration on top of backend::make_engine(), nothing engine-shaped
/// of its own.
struct RunnerOptions {
    std::vector<backend::DeviceType> engines{backend::DeviceType::kCpu,
                                             backend::DeviceType::kSimt};
    /// Models to force per scenario; empty = each scenario's own model.
    std::vector<core::Model> models;
    /// Step budget override; 0 = each scenario's default_steps.
    int steps_override = 0;
    /// Batch parallelism: runs are embarrassingly parallel (per-run RNG
    /// streams, per-run engines), so they execute as exec::ThreadPool jobs
    /// with results collected in the serial batch order. 1 = serial,
    /// 0 = hardware concurrency.
    int threads = 1;
    /// Override each run's engine-internal thread count; 0 keeps the
    /// scenario's own `sim.exec` policy. Nested parallelism is safe (inner
    /// dispatches run inline on the batch worker) but usually wasteful —
    /// prefer batch-level threads for sweeps.
    int engine_threads = 0;
};

struct RunRecord {
    std::string scenario;
    backend::DeviceType engine = backend::DeviceType::kCpu;
    core::Model model = core::Model::kLem;
    std::uint64_t seed = 0;
    int steps = 0;
    /// Authored dynamic-geometry events in the run's config (the
    /// dynamic-environment workload axes: throughput-vs-event-count comes
    /// from these columns). Doors count pre-expansion; cycles/movers count
    /// authored generators, not the DoorEvents they expand to.
    int door_events = 0;
    int cycle_events = 0;
    int mover_events = 0;
    /// Anticipatory-routing horizon of the run (0 = blending off).
    int anticipate_horizon = 0;
    /// Authored waypoint-chain cells across both groups (0 = no chains) —
    /// the multi-goal workload axis for throughput-vs-waypoint sweeps.
    int waypoint_cells = 0;
    /// Engine-internal thread count the run actually used.
    int engine_threads = 0;
    /// Wall time of engine construction — scenario validation, event
    /// expansion and every phase's geodesic field build. Kept separate
    /// from result.wall_seconds (stepping only): field precompute can
    /// dwarf stepping for event-heavy scenarios, and folding it into the
    /// stepping column would corrupt steps_per_s trend lines.
    double setup_seconds = 0.0;
    core::RunResult result;
    /// Position fingerprint of the final state; equal across engines for
    /// the same (scenario, model, seed, steps).
    std::uint64_t fingerprint = 0;
};

/// FNV-1a over every agent's (index, row, col, active, crossed) — a
/// bit-exact witness of the final simulation state.
std::uint64_t position_fingerprint(const core::Simulator& sim);

/// A scenario with the expensive half of its setup precomputed: the
/// immutable door schedule carrying every phase's geodesic distance field
/// and the chained waypoint field sets. Engines built against it skip
/// the field precompute entirely; because the schedule never depends
/// on seed/model/steps/threads, one PreparedScenario serves every job
/// permutation of the scenario — the unit a resident server's warm cache
/// stores. A null schedule means "cold": each engine builds its own,
/// which is bit-identical (the schedule is a pure function of the
/// scenario), just slower.
struct PreparedScenario {
    Scenario scenario;
    std::shared_ptr<const core::DoorSchedule> schedule;
};

/// Build the shared schedule for `s` (runs core::validate, so it throws
/// std::invalid_argument on a config the engines would reject). Its
/// fields are interned through `store` when one is given (a server passes
/// the one its cache entries share), else through a private store.
PreparedScenario prepare_scenario(const Scenario& s,
                                  grid::FieldStore* store = nullptr);

class ScenarioRunner {
  public:
    explicit ScenarioRunner(RunnerOptions opts = {});

    /// One run of one combination (cold: setup and stepping together).
    [[nodiscard]] RunRecord run_one(const Scenario& s,
                                    backend::DeviceType engine,
                                    core::Model model, std::uint64_t seed,
                                    int steps) const;

    /// One run against precomputed setup: engine construction reuses
    /// p.schedule (when non-null), so only placement + stepping remain.
    /// Bit-identical to run_one for the same coordinates — the warm-cache
    /// correctness property the server tests pin. A non-null observer
    /// sees every StepResult as it is produced (the server's incremental
    /// streaming hook); observers never influence the simulation, so the
    /// record is identical with or without one.
    [[nodiscard]] RunRecord run_prepared(
        const PreparedScenario& p, backend::DeviceType engine,
        core::Model model, std::uint64_t seed, int steps,
        const core::StepObserver& observer = nullptr) const;

    /// One job of the flat batch expansion (scenario x model x engine, in
    /// that nesting order). Exposed so remote execution
    /// (scenario_suite --server) submits exactly the batch run() would
    /// execute in-process.
    struct JobSpec {
        std::size_t scenario = 0;  ///< index into the scenarios vector
        backend::DeviceType engine = backend::DeviceType::kCpu;
        core::Model model = core::Model::kLem;
        std::uint64_t seed = 0;
        int steps = 0;
    };
    [[nodiscard]] std::vector<JobSpec> plan(
        const std::vector<Scenario>& scenarios) const;

    /// The full batch over the given scenarios.
    [[nodiscard]] std::vector<RunRecord> run(
        const std::vector<Scenario>& scenarios) const;

    /// Metrics table (one row per run).
    static std::string summary_table(const std::vector<RunRecord>& records);

  private:
    RunnerOptions opts_;
};

}  // namespace pedsim::scenario
