// Shared plumbing for the figure-reproduction harnesses.
//
// Paper evaluation protocol (sections V-VI): 480x480 grid, total agents
// 2,560..102,400 in steps of 2,560 (half per side), 25,000 steps, 10
// repetitions. Full-scale runs take hours on the instrumented device
// simulator, so each harness defaults to a scaled protocol (measure a
// step window, extrapolate linearly; or shrink the grid with density held
// fixed) and exposes --paper to run the original numbers. Every default is
// printed so a reader can tell exactly what was run.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "core/cpu_simulator.hpp"
#include "core/gpu_simulator.hpp"
#include "io/args.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "obs/cli.hpp"
#include "obs/clock.hpp"

namespace pedsim::bench {

/// The paper's population sweep: density index d in 1..kMaxDensity has
/// 2,560 * d total agents (1,280 * d per side).
inline constexpr int kMaxDensity = 40;

inline std::size_t paper_agents_per_side(int density_index) {
    return static_cast<std::size_t>(1280) *
           static_cast<std::size_t>(density_index);
}

/// Scale a paper population to a smaller grid at equal area density.
inline std::size_t scaled_agents_per_side(int density_index, int grid_edge) {
    const double scale = static_cast<double>(grid_edge) *
                         static_cast<double>(grid_edge) / (480.0 * 480.0);
    const auto scaled = static_cast<std::size_t>(
        static_cast<double>(paper_agents_per_side(density_index)) * scale);
    return scaled == 0 ? 1 : scaled;
}

/// Host wall seconds per step over `measure` steps, after `warmup`
/// unmeasured ones. Host seconds come from core::Simulator::run, which
/// reads the shared obs::Stopwatch clock — bench columns and trace spans
/// agree on time.
inline double timed_run(core::Simulator& sim, int warmup, int measure) {
    sim.run(warmup);
    return sim.run(measure).wall_seconds / measure;
}

/// Measured window on the GPU engine: per-step modeled device seconds,
/// and per-step modeled sequential (i7-930) seconds from the same
/// operation counts.
struct GpuWindow {
    double gpu_seconds_per_step = 0.0;
    double cpu_model_seconds_per_step = 0.0;
};

inline GpuWindow gpu_window(core::GpuSimulator& sim, int warmup,
                            int measure) {
    sim.run(warmup);
    const auto before = sim.launch_log().records().size();
    const double m0 = sim.modeled_seconds();
    sim.run(measure);
    simt::KernelStats stats;
    const auto& recs = sim.launch_log().records();
    for (std::size_t i = before; i < recs.size(); ++i) {
        stats.merge(recs[i].stats);
    }
    return {(sim.modeled_seconds() - m0) / measure,
            simt::SequentialCostModel{}.seconds(stats) / measure};
}

/// CSV output directory (bench binaries drop series next to the binary).
inline std::string csv_path(const io::ArgParser& args,
                            const std::string& name) {
    return args.get("out", name);
}

/// Shared `--threads` plumbing: apply the flag (default: hardware
/// concurrency) to a config's host exec policy and return the count for
/// the CSV `threads` column, so speedup trajectories stay comparable
/// across runs. Results are bit-identical at any thread count.
inline int apply_threads(const io::ArgParser& args, core::SimConfig& cfg) {
    const int threads = args.get_threads();
    cfg.exec.threads = threads;
    return threads;
}

inline void print_protocol(const char* figure, const std::string& detail) {
    std::printf("== %s ==\n%s\n\n", figure, detail.c_str());
}

}  // namespace pedsim::bench
