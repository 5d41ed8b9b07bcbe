// Throughput vs waypoint-chain length: the multi-goal workload axis.
//
// One corridor, both groups routed through K ordered waypoints zigzagging
// across the travel direction, K swept from 0 (the plain corridor) up to
// --max-waypoints. Each extra waypoint adds one precomputed geodesic
// field (setup cost, reported as setup_s) and switches more of the
// per-step candidate scoring from the shared goal field to per-agent
// chained fields — this sweep makes both costs, and the crossing
// throughput impact, measurable on both engines.
//
//   ./waypoint_sweep                         # defaults: 0..6, both engines
//   ./waypoint_sweep --max-waypoints=8 --steps=200 --threads=4
//   ./waypoint_sweep --csv=waypoints.csv
#include <cstdio>
#include <string>

#include "backend/cli.hpp"
#include "backend/device.hpp"
#include "io/args.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "obs/cli.hpp"
#include "obs/clock.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

using namespace pedsim;

namespace {

/// The sweep scenario: a 64x64 corridor whose groups slalom through k
/// waypoints spaced evenly along the travel direction, alternating
/// between the left and right third of the grid.
scenario::Scenario make_case(int k, int agents, int threads) {
    scenario::Scenario s;
    s.name = "wps_" + std::to_string(k);
    s.sim.grid.rows = s.sim.grid.cols = 64;
    s.sim.agents_per_side = static_cast<std::size_t>(agents);
    s.sim.exec.threads = threads;
    s.sim.layout.waypoint_radius = 6;
    for (int j = 0; j < k; ++j) {
        const int row = 8 + (j + 1) * 48 / (k + 1);
        const int col = (j % 2 == 0) ? 18 : 46;
        scenario::add_waypoint(s.sim.layout, s.sim.grid, grid::Group::kTop,
                               row, col);
        scenario::add_waypoint(s.sim.layout, s.sim.grid,
                               grid::Group::kBottom, 63 - row, 63 - col);
    }
    scenario::canonicalize(s.sim.layout, s.sim.grid);
    return s;
}

}  // namespace

int main(int argc, char** argv) {
    const io::ArgParser args(argc, argv);
    if (args.has("help")) {
        std::puts(
            "waypoint_sweep — throughput vs waypoint-chain length\n"
            "  --max-waypoints=K  sweep chains of 0..K cells (default 6)\n"
            "  --agents=N         agents per side (default 150)\n"
            "  --steps=N          steps per run (default 200)\n"
            "  --threads=N        engine threads (default 1; 0 = hardware\n"
            "                     concurrency)\n"
            "  --backend=LIST     cpu, gpu-simt\n"
            "                     (default cpu,gpu-simt)\n"
            "  --csv=PATH         also write the records as CSV");
        std::puts(obs::cli_help());
        return 0;
    }
    obs::ObsSession session(args);
    const int max_wps = args.get_int32("max-waypoints", 6, 0);
    const int agents = args.get_int32("agents", 150, 1);
    const int steps = args.get_int32("steps", 200, 1);
    const int threads = args.get_int32("threads", 1, 0);

    const std::vector<backend::DeviceType> engines =
        backend::engines_from_args(
            args, {backend::DeviceType::kCpu, backend::DeviceType::kSimt});

    io::TablePrinter table({"waypoints", "engine", "setup_s", "steps_per_s",
                            "moves_per_s", "crossed", "advances",
                            "fingerprint"});
    struct Row {
        int k;
        std::string engine;
        double setup_s, sps, mps;
        std::size_t crossed;
        long long advances;
        std::uint64_t fp;
    };
    std::vector<Row> rows;

    for (int k = 0; k <= max_wps; ++k) {
        const auto s = make_case(k, agents, threads);
        for (const auto engine : engines) {
            const obs::Stopwatch setup_watch;
            const auto sim = backend::make_engine(engine, s.sim);
            const double setup_s = setup_watch.seconds();
            long long advances = 0;
            const auto rr =
                sim->run(steps, [&](const core::StepResult& sr) {
                    advances += sr.waypoint_advances;
                    return true;
                });
            const double sps =
                rr.wall_seconds > 0.0 ? rr.steps_run / rr.wall_seconds : 0.0;
            const double mps = rr.wall_seconds > 0.0
                                   ? static_cast<double>(rr.total_moves) /
                                         rr.wall_seconds
                                   : 0.0;
            rows.push_back({k, backend::device_name(engine), setup_s, sps,
                            mps, rr.crossed_total(), advances,
                            scenario::position_fingerprint(*sim)});
            char fp[20];
            std::snprintf(fp, sizeof(fp), "%016llx",
                          static_cast<unsigned long long>(rows.back().fp));
            table.add_row({std::to_string(k), rows.back().engine,
                           io::TablePrinter::num(setup_s, 4),
                           io::TablePrinter::num(sps, 1),
                           io::TablePrinter::num(mps, 0),
                           std::to_string(rows.back().crossed),
                           std::to_string(advances), fp});
        }
    }
    session.finish();
    std::fputs(table.str().c_str(), stdout);

    if (args.has("csv")) {
        io::CsvWriter csv(args.get("csv"));
        csv.header({"waypoints", "engine", "threads", "agents_per_side",
                    "steps", "setup_s", "steps_per_s", "moves_per_s",
                    "crossed", "waypoint_advances", "fingerprint"});
        for (const auto& r : rows) {
            char fp[20];
            std::snprintf(fp, sizeof(fp), "%016llx",
                          static_cast<unsigned long long>(r.fp));
            csv.row(r.k, r.engine, threads, agents, steps, r.setup_s, r.sps,
                    r.mps, r.crossed, r.advances, fp);
        }
        std::printf("\nwrote %s\n", args.get("csv").c_str());
    }
    return 0;
}
