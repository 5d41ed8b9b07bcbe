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
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cpu_simulator.hpp"
#include "io/args.hpp"
#include "io/csv.hpp"
#include "io/strict_parse.hpp"
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

/// `--densities`: comma-separated density indices of the paper's sweep.
inline std::vector<int> parse_densities(const std::string& csv) {
    std::vector<int> out;
    std::size_t pos = 0;
    for (;;) {
        const auto comma = csv.find(',', pos);
        const auto item = csv.substr(
            pos, comma == std::string::npos ? csv.npos : comma - pos);
        long long d = 0;
        if (!io::strict_stoll(item, d) || d < 1 || d > kMaxDensity) {
            throw std::invalid_argument(
                "--densities: expected density indices in [1, " +
                std::to_string(kMaxDensity) + "], got '" + item + "'");
        }
        out.push_back(static_cast<int>(d));
        if (comma == std::string::npos) return out;
        pos = comma + 1;
    }
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
