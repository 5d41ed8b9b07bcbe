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
// instrumented SIMT engine instead (any backend registry name works,
// e.g. --backend=sharded-cpu:4). Default shrinks the grid with density
// held fixed so crossings happen within a short step budget; --paper runs
// the original 480x480 / 25,000-step / 10-repeat protocol.
//
//   ./fig6a_throughput_lem_vs_aco [--paper] [--grid=128] [--steps=1500]
//       [--repeats=2] [--max_density=20] [--backend=cpu|gpu]
//       [--out=fig6a.csv]
#include "backend/cli.hpp"
#include "backend/device.hpp"
#include "bench_common.hpp"

using namespace pedsim;

int main(int argc, char** argv) {
    const io::ArgParser args(argc, argv);
    obs::ObsSession session(args);
    const bool paper = args.get_bool("paper", false);
    const int grid = args.get_int32("grid", paper ? 480 : 128);
    const int steps =
        args.get_int32("steps", paper ? 25000 : 1500);
    const int repeats = args.get_int32("repeats", paper ? 10 : 2, 1);
    const int max_density =
        args.get_int32("max_density", 20, 1, bench::kMaxDensity);
    const backend::EngineSelect engine =
        backend::engines_from_args(args, {backend::DeviceType::kCpu})
            .front();

    bench::print_protocol(
        "Figure 6a — throughput, LEM vs ACO",
        std::to_string(grid) + "x" + std::to_string(grid) + " grid, " +
            std::to_string(steps) + " steps, " + std::to_string(repeats) +
            " repeats, densities 1.." + std::to_string(max_density) +
            " (engine: " +
            backend::engine_label(engine.type, engine.bands) +
            "; engines are bit-identical)");

    io::CsvWriter csv(bench::csv_path(args, "fig6a.csv"));
    csv.header({"scenario", "total_agents", "threads", "lem_throughput",
                "aco_throughput"});
    io::TablePrinter table(
        {"scenario", "total_agents", "LEM", "ACO", "ACO/LEM"});

    double lem_sum = 0.0, aco_sum = 0.0;
    for (int d = 1; d <= max_density; ++d) {
        core::SimConfig cfg;
        cfg.grid.rows = cfg.grid.cols = grid;
        cfg.agents_per_side =
            paper ? bench::paper_agents_per_side(d)
                  : bench::scaled_agents_per_side(d, grid);
        const int threads = bench::apply_threads(args, cfg);

        double mean_tp[2] = {0, 0};
        for (const auto model : {core::Model::kLem, core::Model::kAco}) {
            cfg.model = model;
            double acc = 0.0;
            for (int rep = 0; rep < repeats; ++rep) {
                cfg.seed = 1000 + static_cast<std::uint64_t>(100 * d + rep);
                auto sim = backend::make_engine(engine, cfg);
                const auto rr = sim->run(steps);
                acc += static_cast<double>(rr.crossed_total());
            }
            mean_tp[model == core::Model::kAco] = acc / repeats;
        }
        lem_sum += mean_tp[0];
        aco_sum += mean_tp[1];
        csv.row(d, 2 * cfg.agents_per_side, threads, mean_tp[0], mean_tp[1]);
        table.add_row(
            {std::to_string(d), std::to_string(2 * cfg.agents_per_side),
             io::TablePrinter::num(mean_tp[0], 0),
             io::TablePrinter::num(mean_tp[1], 0),
             mean_tp[0] > 0
                 ? io::TablePrinter::num(mean_tp[1] / mean_tp[0], 2)
                 : std::string("-")});
    }
    table.print();
    const double overall =
        lem_sum > 0 ? 100.0 * (aco_sum / lem_sum - 1.0) : 0.0;
    std::printf(
        "\noverall ACO throughput vs LEM: %+.1f%% (paper: +39.6%%; equal at "
        "low density, ACO ahead at medium, both gridlock when congested)\n",
        overall);
    return 0;
}
