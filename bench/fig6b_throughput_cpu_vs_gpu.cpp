// Figure 6b: throughput of the ACO simulation on CPU vs GPU, with the
// paper's statistical validation — a binomial GLM of crossing probability
// on agent count plus a CPU/GPU indicator; the indicator's test came out
// insignificant (paper p = 0.6145), i.e. the platforms agree.
//
// Two comparisons are reported:
//  1. same-seed: our engines are bit-identical by construction, so the
//     platform difference is exactly zero — a strictly stronger result
//     than the paper's (their CURAND streams could not match the CPU's);
//  2. seed-decoupled: the GPU engine runs with an offset seed, modelling
//     the paper's situation of equal-distribution-but-different-draws;
//     the GLM indicator should stay insignificant (large p).
//
// Following the paper, scenarios where (nearly) everyone or (nearly)
// no-one crosses are dropped before fitting ("we suppress the first 10
// and the last 10 scenarios").
//
//   ./fig6b_throughput_cpu_vs_gpu [--paper] [--grid=96] [--steps=700]
//       [--repeats=1] [--max_density=20] [--out=fig6b.csv]
#include "backend/device.hpp"
#include "bench_common.hpp"
#include "stats/glm.hpp"

using namespace pedsim;

int main(int argc, char** argv) try {
    const io::ArgParser args(argc, argv);
    obs::ObsSession session(args);
    const bool paper = args.get_bool("paper", false);
    const int grid = args.get_grid(paper ? 480 : 96);
    const int steps = args.get_steps(paper ? 25000 : 700);
    const int repeats = args.get_int32("repeats", paper ? 10 : 1, 1);
    const int max_density =
        args.get_int32("max_density", paper ? 40 : 20, 1, bench::kMaxDensity);

    bench::print_protocol(
        "Figure 6b — ACO throughput, CPU vs GPU engine + binomial GLM",
        std::to_string(grid) + "x" + std::to_string(grid) + " grid, " +
            std::to_string(steps) + " steps, " + std::to_string(repeats) +
            " repeats, densities 1.." + std::to_string(max_density));

    io::CsvWriter csv(bench::csv_path(args, "fig6b.csv"));
    csv.header({"scenario", "total_agents", "threads", "cpu_throughput",
                "gpu_throughput_same_seed", "gpu_throughput_offset_seed"});
    io::TablePrinter table({"scenario", "total_agents", "CPU", "GPU(same)",
                            "GPU(offset)"});

    std::vector<stats::BinomialObservation> glm_data;
    bool any_same_seed_mismatch = false;

    for (int d = 1; d <= max_density; ++d) {
        core::SimConfig cfg;
        cfg.grid.rows = cfg.grid.cols = grid;
        cfg.model = core::Model::kAco;
        cfg.agents_per_side = paper
                                  ? bench::paper_agents_per_side(d)
                                  : bench::scaled_agents_per_side(d, grid);
        const auto total = 2 * cfg.agents_per_side;
        const int threads = bench::apply_threads(args, cfg);

        double cpu_tp = 0.0, gpu_same_tp = 0.0, gpu_off_tp = 0.0;
        for (int rep = 0; rep < repeats; ++rep) {
            const auto seed = 2000 + static_cast<std::uint64_t>(100 * d + rep);

            cfg.seed = seed;
            auto cpu = backend::make_engine(backend::DeviceType::kCpu, cfg);
            const auto rc = cpu->run(steps);
            cpu_tp += static_cast<double>(rc.crossed_total());

            const auto gpu_same = backend::make_simt(cfg);
            const auto rs = gpu_same->run(steps);
            gpu_same_tp += static_cast<double>(rs.crossed_total());
            any_same_seed_mismatch |=
                rs.crossed_total() != rc.crossed_total();

            cfg.seed = seed + 7777;  // decoupled draws, same distribution
            const auto gpu_off = backend::make_simt(cfg);
            const auto ro = gpu_off->run(steps);
            gpu_off_tp += static_cast<double>(ro.crossed_total());

            // GLM rows (per repeat): covariates = agents (scaled), platform.
            const double x_agents = static_cast<double>(total) / 10000.0;
            glm_data.push_back({static_cast<double>(rc.crossed_total()),
                                static_cast<double>(total),
                                {x_agents, 0.0}});
            glm_data.push_back({static_cast<double>(ro.crossed_total()),
                                static_cast<double>(total),
                                {x_agents, 1.0}});
        }
        cpu_tp /= repeats;
        gpu_same_tp /= repeats;
        gpu_off_tp /= repeats;
        csv.row(d, total, threads, cpu_tp, gpu_same_tp, gpu_off_tp);
        table.add_row({std::to_string(d), std::to_string(total),
                       io::TablePrinter::num(cpu_tp, 0),
                       io::TablePrinter::num(gpu_same_tp, 0),
                       io::TablePrinter::num(gpu_off_tp, 0)});
    }
    table.print();

    std::printf("\nsame-seed engines bit-identical: %s\n",
                any_same_seed_mismatch ? "NO (BUG!)" : "yes");

    // Paper protocol: drop saturated scenarios before fitting.
    std::vector<stats::BinomialObservation> informative;
    for (const auto& obs : glm_data) {
        const double rate = obs.successes / obs.trials;
        if (rate > 0.02 && rate < 0.98) informative.push_back(obs);
    }
    if (informative.size() >= 6) {
        const auto fit = stats::BinomialGlm().fit(informative);
        std::printf(
            "quasi-binomial GLM (crossing ~ agents + platform), %zu "
            "informative rows, dispersion %.1f:\n  platform coefficient = "
            "%+.4f (se %.4f), t = %+.3f on %.0f df, p = %.4f\n",
            informative.size(), fit.dispersion, fit.beta[2],
            fit.quasi_std_error[2], fit.t_value[2], fit.df_residual,
            fit.quasi_p_value[2]);
        std::printf(
            "  (plain binomial Wald p = %.4f — overpowered: crossings "
            "within a run are correlated, hence the dispersion "
            "correction / the paper's t-test)\n",
            fit.p_value[2]);
        std::printf(
            "paper: p = 0.6145 — no significant platform effect. %s\n",
            fit.quasi_p_value[2] > 0.05 ? "REPRODUCED (insignificant)"
                                        : "NOT reproduced (significant!)");
    } else {
        std::printf(
            "too few informative scenarios for the GLM at this scale; rerun "
            "with more densities/steps (e.g. --paper).\n");
    }
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
}
