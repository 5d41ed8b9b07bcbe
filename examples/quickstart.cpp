// Quickstart: the minimal tour of the public API.
//
// Builds a small bi-directional scenario, runs both movement models on both
// engines, and prints throughput plus the GPU engine's modeled kernel
// profile. The engines must end every run in the same positions, or it
// exits 1. Run with no arguments; see --help for the knobs.
//
//   ./quickstart [--agents=640] [--steps=400] [--grid=96] [--seed=42]
#include <cstdio>
#include <stdexcept>
#include <string>

#include "backend/device.hpp"
#include "core/cpu_simulator.hpp"
#include "core/gpu_simulator.hpp"
#include "core/metrics.hpp"
#include "io/args.hpp"
#include "io/table.hpp"
#include "obs/cli.hpp"
#include "scenario/runner.hpp"

using namespace pedsim;

int main(int argc, char** argv) try {
    const io::ArgParser args(argc, argv);
    if (args.has("help")) {
        std::puts(
            "quickstart — minimal pedsim API tour\n"
            "  --agents=N   agents per side (default 640)\n"
            "  --steps=N    simulation steps (default 400)\n"
            "  --grid=N     square grid edge, multiple of 16 (default 96)\n"
            "  --seed=N     RNG seed (default 42)\n"
            "  --threads=N  host threads for both engines (default: hardware\n"
            "               concurrency; results identical at any N)");
        std::puts(obs::cli_help());
        return 0;
    }
    obs::ObsSession session(args);

    core::SimConfig cfg;
    cfg.grid.rows = cfg.grid.cols = args.get_grid(96);
    cfg.agents_per_side =
        static_cast<std::size_t>(args.get_int32("agents", 640, 1));
    cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
    cfg.exec.threads = args.get_threads();
    const int steps = args.get_steps(400);

    std::printf(
        "pedsim quickstart: %dx%d grid, %zu agents/side, %d steps, "
        "%d host thread(s)\n\n",
        cfg.grid.rows, cfg.grid.cols, cfg.agents_per_side, steps,
        cfg.exec.effective_threads());

    io::TablePrinter table(
        {"model", "engine", "crossed", "moves", "wall_s", "modeled_s"});
    for (const auto model : {core::Model::kLem, core::Model::kAco}) {
        cfg.model = model;
        const char* model_name = model == core::Model::kLem ? "LEM" : "ACO";

        auto cpu = backend::make_engine(backend::DeviceType::kCpu, cfg);
        const auto cpu_result = cpu->run(steps);
        table.add_row({model_name, "cpu",
                       std::to_string(cpu_result.crossed_total()),
                       std::to_string(cpu_result.total_moves),
                       io::TablePrinter::num(cpu_result.wall_seconds, 3), "-"});

        auto gpu = backend::make_simt(cfg);
        const auto gpu_result = gpu->run(steps);
        table.add_row(
            {model_name, "gpu-simt",
             std::to_string(gpu_result.crossed_total()),
             std::to_string(gpu_result.total_moves),
             io::TablePrinter::num(gpu_result.wall_seconds, 3),
             io::TablePrinter::num(gpu_result.modeled_device_seconds, 4)});

        if (scenario::position_fingerprint(*gpu) !=
            scenario::position_fingerprint(*cpu)) {
            throw std::runtime_error(std::string("engines disagree for ") +
                                     model_name +
                                     ": cpu and gpu-simt end in different "
                                     "positions");
        }
    }
    table.print();

    // Peek at the GPU engine's kernel profile for one ACO run.
    cfg.model = core::Model::kAco;
    const auto gpu = backend::make_simt(cfg);
    gpu->run(steps / 4);
    std::printf("\nModeled kernel profile (ACO, %d steps):\n", steps / 4);
    io::TablePrinter prof({"kernel", "launches(block)", "modeled_ms",
                           "divergence", "gld_MB"});
    for (const auto& k : gpu->launch_log().by_kernel()) {
        prof.add_row(
            {k.kernel_name,
             std::to_string(k.block_x) + "x" + std::to_string(k.block_y),
             io::TablePrinter::num(k.modeled_seconds * 1e3, 2),
             io::TablePrinter::num(k.stats.divergence_rate(), 4),
             io::TablePrinter::num(
                 static_cast<double>(k.stats.global_load_bytes) / 1e6, 1)});
    }
    prof.print();
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
}
