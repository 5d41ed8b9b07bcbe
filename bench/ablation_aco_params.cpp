// Ablation: ACO parameter sensitivity (alpha, beta, rho, q) and the
// forward-priority rule.
//
// The paper does not publish its alpha/beta/rho/Q; the ablation_aco_params
// row of docs/REPRODUCTION.md records our defaults. This bench shows how
// the Fig. 6a medium-density throughput responds to each parameter,
// justifying the calibration, and quantifies the forward-priority
// modification (section III).
//
//   ./ablation_aco_params [--grid=128] [--steps=1500] [--density=15]
//       [--repeats=2]
#include "backend/device.hpp"
#include "bench_common.hpp"

using namespace pedsim;

namespace {

double run_throughput(core::SimConfig cfg, int steps, int repeats) {
    double acc = 0.0;
    for (int rep = 0; rep < repeats; ++rep) {
        cfg.seed = 31 + static_cast<std::uint64_t>(rep);
        auto sim = backend::make_engine(backend::DeviceType::kCpu, cfg);
        acc += static_cast<double>(sim->run(steps).crossed_total());
    }
    return acc / repeats;
}

}  // namespace

int main(int argc, char** argv) try {
    const io::ArgParser args(argc, argv);
    const int grid = args.get_grid(128);
    const int steps = args.get_steps(1500);
    const int density = args.get_int32("density", 15, 1, bench::kMaxDensity);
    const int repeats = args.get_int32("repeats", 2, 1);

    core::SimConfig base;
    base.grid.rows = base.grid.cols = grid;
    base.model = core::Model::kAco;
    base.agents_per_side = bench::scaled_agents_per_side(density, grid);
    const int threads = bench::apply_threads(args, base);

    bench::print_protocol(
        "Ablation — ACO parameters at the Fig. 6a medium density",
        std::to_string(grid) + "x" + std::to_string(grid) + " grid, " +
            std::to_string(2 * base.agents_per_side) + " agents, " +
            std::to_string(steps) + " steps, " + std::to_string(repeats) +
            " repeats (sequential engine; bit-identical to gpu-simt)");

    io::CsvWriter csv(bench::csv_path(args, "ablation_aco_params.csv"));
    csv.header({"parameter", "value", "threads", "throughput"});
    io::TablePrinter table({"parameter", "value", "throughput"});

    const auto report = [&](const std::string& name, const std::string& val,
                            const core::SimConfig& cfg) {
        const double tp = run_throughput(cfg, steps, repeats);
        csv.row(name, val, threads, tp);
        table.add_row({name, val, io::TablePrinter::num(tp, 0)});
    };

    report("baseline", "alpha=1 beta=2 rho=0.1 q=1", base);

    for (const double alpha : {0.0, 0.5, 2.0, 4.0}) {
        auto cfg = base;
        cfg.aco.alpha = alpha;
        report("alpha", io::TablePrinter::num(alpha, 1), cfg);
    }
    for (const double beta : {0.5, 1.0, 4.0, 8.0}) {
        auto cfg = base;
        cfg.aco.beta = beta;
        report("beta", io::TablePrinter::num(beta, 1), cfg);
    }
    for (const double rho : {0.01, 0.05, 0.3, 0.7}) {
        auto cfg = base;
        cfg.aco.rho = rho;
        report("rho", io::TablePrinter::num(rho, 2), cfg);
    }
    for (const double q : {0.1, 0.5, 2.0, 10.0}) {
        auto cfg = base;
        cfg.aco.q = q;
        report("q", io::TablePrinter::num(q, 1), cfg);
    }
    {
        auto cfg = base;
        cfg.forward_priority = false;
        report("forward_priority", "off", cfg);
        auto lem = base;
        lem.model = core::Model::kLem;
        report("model", "LEM (reference)", lem);
    }
    table.print();
    std::printf(
        "\nalpha=0 removes the pheromone term (pure goal heuristic); large "
        "rho erases trails each step. The baseline row justifies the "
        "defaults (docs/REPRODUCTION.md, ablation_aco_params row).\n");
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
}
