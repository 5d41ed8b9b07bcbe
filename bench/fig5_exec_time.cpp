// Figure 5: execution time of the LEM- and ACO-based simulations on the
// GPU (5a), of the ACO simulation on CPU vs GPU (5b), and the GPU speedup
// over the single-threaded CPU (5c), as functions of the total agent count
// (2,560 .. 102,400; 25,000 steps).
//
// Paper results:
//   5a: the two curves nearly coincide, ACO ~11% above LEM from its extra
//       pheromone work;
//   5b: 837.5 s CPU vs 46.66 s GPU at 2,560 agents; 1,449 s vs 126.7 s at
//       102,400;
//   5c: ~18x at 2,560 agents, decaying to ~11x at 102,400.
//
// Method: the three figures are views of the same windows. Per density,
// three windows of --measure steps after --warmup steps run, each
// extrapolated linearly to --steps (time/step is near-stationary at fixed
// density):
//   - LEM on the SIMT device simulator: modeled GTX 560 Ti seconds (5a);
//   - ACO on the SIMT device simulator: modeled GTX 560 Ti seconds (5a,
//     and 5b's GPU column), plus modeled i7-930 sequential seconds from
//     the same operation counts (5b's CPU column);
//   - ACO on the sequential host engine: this host's wall time, a
//     reference column in 5b (a modern host says nothing about a 2011
//     CPU, so both sides of the comparison are era-consistent models).
// 5c is 5b's CPU seconds over its GPU seconds. Its decline comes from the
// GPU's fixed per-step launch cost amortizing while the sequential work
// grows with agents faster than the GPU's added kernel work.
//
//   ./fig5_exec_time [--paper] [--measure=12] [--warmup=5]
//       [--densities=1,5,10,20,30,40] [--steps=25000] [--out=fig5.csv]
#include "backend/device.hpp"
#include "bench_common.hpp"

using namespace pedsim;

int main(int argc, char** argv) try {
    const io::ArgParser args(argc, argv);
    obs::ObsSession session(args);
    const bool paper = args.get_bool("paper", false);
    const int warmup = args.get_int32("warmup", 5, 0);
    const int measure = args.get_int32("measure", paper ? 50 : 12, 1);
    const int full_steps = args.get_steps(25000);
    const auto densities = bench::parse_densities(
        args.get("densities", paper ? "1,2,4,6,8,10,12,16,20,24,28,32,36,40"
                                    : "1,5,10,20,30,40"));

    bench::print_protocol(
        "Figure 5 — execution time: LEM vs ACO on the GPU, ACO on CPU vs "
        "GPU, GPU speedup",
        "480x480 grid, " + std::to_string(full_steps) +
            " steps extrapolated from " + std::to_string(measure) +
            " measured steps after " + std::to_string(warmup) +
            " warmup; per density one LEM and one ACO window on the GTX 560 "
            "Ti timing model (the ACO window's operation counts also drive "
            "the i7-930 model) and one ACO window of the sequential host "
            "engine");

    io::CsvWriter csv(bench::csv_path(args, "fig5.csv"));
    csv.header({"total_agents", "threads", "lem_gpu_seconds",
                "aco_gpu_seconds", "aco_overhead_pct", "aco_cpu_seconds",
                "host_wall_seconds", "speedup"});
    io::TablePrinter fig5a(
        {"total_agents", "LEM_s", "ACO_s", "ACO_overhead_%"});
    io::TablePrinter fig5b({"total_agents", "CPU_s(i7-930)",
                            "GPU_s(GTX560Ti)", "host_wall_s"});
    io::TablePrinter fig5c({"total_agents", "speedup_x"});

    const simt::TimingModel fermi(simt::DeviceSpec::gtx560ti());
    const auto steps = static_cast<double>(full_steps);
    double first = 0.0, last = 0.0;
    for (const int d : densities) {
        core::SimConfig cfg;
        cfg.agents_per_side = bench::paper_agents_per_side(d);
        cfg.seed = 42 + static_cast<std::uint64_t>(d);
        const int threads = bench::apply_threads(args, cfg);

        cfg.model = core::Model::kLem;
        const double lem_s =
            bench::gpu_window(*backend::make_simt(cfg), warmup, measure)
                .seconds_per_step(fermi) *
            steps;
        cfg.model = core::Model::kAco;
        const auto aco =
            bench::gpu_window(*backend::make_simt(cfg), warmup, measure);
        const double gpu_s = aco.seconds_per_step(fermi) * steps;
        const double cpu_s =
            simt::SequentialCostModel{}.seconds(aco.stats()) / measure *
            steps;
        const double host_s =
            bench::timed_run(
                *backend::make_engine(backend::DeviceType::kCpu, cfg),
                warmup, measure) *
            steps;

        const double overhead = 100.0 * (gpu_s / lem_s - 1.0);
        const double speedup = cpu_s / gpu_s;
        if (first == 0.0) first = speedup;
        last = speedup;

        const auto agents = std::to_string(2 * cfg.agents_per_side);
        csv.row(2 * cfg.agents_per_side, threads, lem_s, gpu_s, overhead,
                cpu_s, host_s, speedup);
        fig5a.add_row({agents, io::TablePrinter::num(lem_s, 2),
                       io::TablePrinter::num(gpu_s, 2),
                       io::TablePrinter::num(overhead, 1)});
        fig5b.add_row({agents, io::TablePrinter::num(cpu_s, 2),
                       io::TablePrinter::num(gpu_s, 2),
                       io::TablePrinter::num(host_s, 2)});
        fig5c.add_row({agents, io::TablePrinter::num(speedup, 1)});
    }

    std::printf("Fig. 5a — GPU execution time, LEM vs ACO\n\n");
    fig5a.print();
    std::printf(
        "\npaper: curves nearly coincide; ACO ~11%% above LEM overall.\n\n"
        "Fig. 5b — ACO execution time, CPU (i7-930 model) vs GPU (GTX 560 "
        "Ti model); host wall time of the sequential engine for "
        "reference\n\n");
    fig5b.print();
    std::printf(
        "\npaper: 837.5 s CPU vs 46.66 s GPU at 2,560 agents; 1,449 s vs "
        "126.7 s at 102,400.\n\n"
        "Fig. 5c — speedup of GPU over single-threaded CPU (ACO)\n\n");
    fig5c.print();
    std::printf(
        "\nshape check: speedup declines with population (paper: 18x -> "
        "11x); this run: %.1fx -> %.1fx\n",
        first, last);
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
}
