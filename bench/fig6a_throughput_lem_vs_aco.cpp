// Figure 6a: pedestrian throughput (agents that reach the far side within
// the step budget) of the LEM- and ACO-based models, for density scenarios
// 1..20 (total agents 2,560..51,200 on the 480x480 grid), averaged over
// repetitions.
//
// Paper result: identical at low density; from scenario ~10 the ACO model
// pulls far ahead (25,600 vs 17,417 at scenario 10; 28,160 vs 5,272 at 11);
// both collapse toward gridlock beyond ~51,200 agents; ACO +39.6% overall.
//
// The engines are bit-identical for a given seed (tested property), so the
// default uses the fast sequential engine; pass --backend=gpu to run the
// instrumented SIMT engine instead. Default shrinks the grid with density
// held fixed so crossings happen within a short step budget; --paper runs
// the original 480x480 / 25,000-step / 10-repeat protocol.
//
// Two flow readings per model ride on the same runs: steps until half
// the crowd has crossed (the largest over repeats; -1 when any repeat
// never gets there) and conflicts per step (mean over repeats). No step
// of this workload stands still while agents remain on the grid
// (docs/REPRODUCTION.md has the proof), so the collapse shows in these
// readings and in throughput, never as gridlock.
// --max_density=36 reaches 40% of the grid's cells.
//
//   ./fig6a_throughput_lem_vs_aco [--paper] [--grid=128] [--steps=1500]
//       [--repeats=2] [--max_density=20] [--backend=cpu|gpu]
//       [--out=fig6a.csv]
#include <algorithm>

#include "backend/cli.hpp"
#include "backend/device.hpp"
#include "bench_common.hpp"
#include "core/metrics.hpp"

using namespace pedsim;

int main(int argc, char** argv) try {
    const io::ArgParser args(argc, argv);
    obs::ObsSession session(args);
    const bool paper = args.get_bool("paper", false);
    const int grid = args.get_grid(paper ? 480 : 128);
    const int steps = args.get_steps(paper ? 25000 : 1500);
    const int repeats = args.get_int32("repeats", paper ? 10 : 2, 1);
    const int max_density =
        args.get_int32("max_density", 20, 1, bench::kMaxDensity);
    const backend::DeviceType engine =
        backend::engines_from_args(args, {backend::DeviceType::kCpu})
            .front();

    bench::print_protocol(
        "Figure 6a — throughput, LEM vs ACO",
        std::to_string(grid) + "x" + std::to_string(grid) + " grid, " +
            std::to_string(steps) + " steps, " + std::to_string(repeats) +
            " repeats, densities 1.." + std::to_string(max_density) +
            " (engine: " + backend::device_name(engine) +
            "; engines are bit-identical)");

    io::CsvWriter csv(bench::csv_path(args, "fig6a.csv"));
    csv.header({"scenario", "total_agents", "threads", "lem_throughput",
                "aco_throughput", "lem_steps_to_half", "aco_steps_to_half",
                "lem_conflicts_per_step", "aco_conflicts_per_step"});
    io::TablePrinter table({"scenario", "total_agents", "LEM", "ACO",
                            "ACO/LEM", "t_half LEM", "t_half ACO",
                            "conflicts/step LEM", "conflicts/step ACO"});

    // Per model, over one density's repeats.
    struct Readings {
        double throughput = 0.0;
        std::int64_t steps_to_half = 0;
        double conflicts_per_step = 0.0;
    };
    const auto t_half_cell = [](std::int64_t t) {
        return t >= 0 ? std::to_string(t) : std::string("-");
    };

    double lem_sum = 0.0, aco_sum = 0.0;
    for (int d = 1; d <= max_density; ++d) {
        core::SimConfig cfg;
        cfg.grid.rows = cfg.grid.cols = grid;
        cfg.agents_per_side =
            paper ? bench::paper_agents_per_side(d)
                  : bench::scaled_agents_per_side(d, grid);
        const int threads = bench::apply_threads(args, cfg);
        const std::size_t population = 2 * cfg.agents_per_side;

        Readings by_model[2];
        for (const auto model : {core::Model::kLem, core::Model::kAco}) {
            cfg.model = model;
            Readings& r = by_model[model == core::Model::kAco];
            double acc = 0.0;
            for (int rep = 0; rep < repeats; ++rep) {
                cfg.seed = 1000 + static_cast<std::uint64_t>(100 * d + rep);
                auto sim = backend::make_engine(engine, cfg);
                core::ThroughputRecorder crossings;
                const auto rr = sim->run(steps, crossings.observer());
                acc += static_cast<double>(rr.crossed_total());
                const auto t = crossings.steps_to_fraction(population, 0.5);
                r.steps_to_half = t < 0 || r.steps_to_half < 0
                                      ? -1
                                      : std::max(r.steps_to_half, t);
                r.conflicts_per_step +=
                    static_cast<double>(rr.total_conflicts) / rr.steps_run;
            }
            r.throughput = acc / repeats;
            r.conflicts_per_step /= repeats;
        }
        const Readings& lem = by_model[0];
        const Readings& aco = by_model[1];
        lem_sum += lem.throughput;
        aco_sum += aco.throughput;
        csv.row(d, population, threads, lem.throughput, aco.throughput,
                lem.steps_to_half, aco.steps_to_half, lem.conflicts_per_step,
                aco.conflicts_per_step);
        table.add_row(
            {std::to_string(d), std::to_string(population),
             io::TablePrinter::num(lem.throughput, 0),
             io::TablePrinter::num(aco.throughput, 0),
             lem.throughput > 0
                 ? io::TablePrinter::num(aco.throughput / lem.throughput, 2)
                 : std::string("-"),
             t_half_cell(lem.steps_to_half), t_half_cell(aco.steps_to_half),
             io::TablePrinter::num(lem.conflicts_per_step, 1),
             io::TablePrinter::num(aco.conflicts_per_step, 1)});
    }
    table.print();
    const double overall =
        lem_sum > 0 ? 100.0 * (aco_sum / lem_sum - 1.0) : 0.0;
    std::printf(
        "\noverall ACO throughput vs LEM: %+.1f%% (paper: +39.6%%; equal at "
        "low density, ACO ahead at medium, both gridlock when congested)\n",
        overall);
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
}
