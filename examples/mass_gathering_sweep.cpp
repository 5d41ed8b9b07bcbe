// Mass-gathering density sweep: the workload the paper's introduction
// motivates ("mass-gatherings, sporting events ... as the density of the
// crowd increases, the vulnerability towards an adverse event increases").
//
// Sweeps crowd density, reports throughput, time-to-half-crossing, mean
// conflicts and the gridlock onset for both movement models — a compact
// planning table for a venue operator.
//
//   ./mass_gathering_sweep [--grid=128] [--steps=1500] [--densities=8]
//       [--seed=3] [--out=mass_gathering.csv]
#include <cstdio>

#include "backend/device.hpp"
#include "core/cpu_simulator.hpp"
#include "core/metrics.hpp"
#include "io/args.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"

using namespace pedsim;

int main(int argc, char** argv) {
    const io::ArgParser args(argc, argv);
    if (args.has("help")) {
        std::puts(
            "mass_gathering_sweep — density sweep with flow diagnostics\n"
            "  --grid=N       grid edge (default 128)\n"
            "  --steps=N      steps per scenario (default 1500)\n"
            "  --densities=N  number of density levels (default 8)\n"
            "  --seed=N       RNG seed\n"
            "  --out=PATH     CSV output path");
        return 0;
    }

    const int grid = args.get_int32("grid", 128);
    const int steps = args.get_int32("steps", 1500, 1);
    const int levels = args.get_int32("densities", 8, 1);
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 3));

    std::printf(
        "mass gathering sweep: %dx%d corridor, %d steps, %d density "
        "levels\n\n",
        grid, grid, steps, levels);

    io::CsvWriter csv(args.get("out", "mass_gathering.csv"));
    csv.header({"model", "fill_pct", "agents", "throughput",
                "steps_to_half", "conflict_rate", "gridlocked"});
    io::TablePrinter table({"model", "fill%", "agents", "crossed",
                            "t_half", "conflicts/step", "gridlock"});

    const auto cells = static_cast<double>(grid) * grid;
    for (const auto model : {core::Model::kLem, core::Model::kAco}) {
        const char* name = model == core::Model::kLem ? "LEM" : "ACO";
        for (int level = 1; level <= levels; ++level) {
            const double fill = 0.05 * level;  // 5% .. 40% of the grid
            core::SimConfig cfg;
            cfg.grid.rows = cfg.grid.cols = grid;
            cfg.model = model;
            cfg.agents_per_side =
                static_cast<std::size_t>(fill * cells / 2.0);
            cfg.seed = seed + static_cast<std::uint64_t>(level);
            cfg.exec.threads = args.get_threads();

            const auto sim = backend::make_cpu(cfg);
            core::ThroughputRecorder rec;
            core::GridlockDetector gridlock(100);
            std::uint64_t conflicts = 0;
            auto rec_obs = rec.observer();
            const auto rr = sim->run(
                steps, [&](const core::StepResult& sr) {
                    conflicts += static_cast<std::uint64_t>(sr.conflicts);
                    gridlock.update(sr);
                    return rec_obs(sr);
                });

            const auto population = 2 * cfg.agents_per_side;
            const auto t_half = rec.steps_to_fraction(population, 0.5);
            const double conflict_rate =
                static_cast<double>(conflicts) / rr.steps_run;

            csv.row(name, 100.0 * fill, population, rr.crossed_total(),
                    t_half, conflict_rate, gridlock.gridlocked() ? 1 : 0);
            table.add_row(
                {name, io::TablePrinter::num(100.0 * fill, 0),
                 std::to_string(population),
                 std::to_string(rr.crossed_total()),
                 t_half >= 0 ? std::to_string(t_half) : std::string("-"),
                 io::TablePrinter::num(conflict_rate, 1),
                 gridlock.gridlocked() ? "YES" : "no"});
        }
    }
    table.print();
    std::printf(
        "\nReading: t_half = steps until half the crowd crossed; '-' means "
        "the scenario never got there (congestion/gridlock).\n");
    return 0;
}
