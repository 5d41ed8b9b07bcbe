// Execution statistics collected by the SIMT simulator.
//
// The functional layer executes kernels exactly; these counters record the
// warp-level behaviour (divergence, coalescing, instruction volume) that
// the paper's optimizations target, and feed the analytic timing model.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pedsim::simt {

struct KernelStats {
    std::uint64_t blocks = 0;
    std::uint64_t warps = 0;
    std::uint64_t threads = 0;

    /// Warp-level instruction issues: per warp, the maximum lane
    /// instruction count (lockstep execution).
    std::uint64_t warp_instructions = 0;
    /// Total per-lane instruction estimates (the sequential work volume —
    /// what a single-threaded CPU would execute; feeds the CPU cost model).
    std::uint64_t lane_instructions = 0;
    /// Warp-level branch evaluations and how many of them diverged
    /// (some lanes took the branch, some did not).
    std::uint64_t branch_evals = 0;
    std::uint64_t divergent_branches = 0;

    /// Global ("device DRAM") traffic. Transactions follow the coalescing
    /// model: distinct 128-byte segments touched by a warp per access site.
    std::uint64_t global_load_bytes = 0;
    std::uint64_t global_store_bytes = 0;
    std::uint64_t global_transactions = 0;

    /// On-chip shared-memory traffic (latency-free in the model; tracked
    /// for the tiling ablation's reuse ratio).
    std::uint64_t shared_load_bytes = 0;
    std::uint64_t shared_store_bytes = 0;

    /// Atomic operations (zero in the paper's design — scatter-to-gather
    /// exists to keep it so; fig5_exec_time's IV.d table re-costs the
    /// movement kernel with one per proposal).
    std::uint64_t atomics = 0;

    /// Philox blocks consumed (CURAND stand-in cost accounting).
    std::uint64_t rng_draws = 0;

    void merge(const KernelStats& o) {
        combine(o, [](std::uint64_t& a, std::uint64_t b) { a += b; });
    }
    /// The inverse of merge: take back counts merged in earlier (a
    /// re-cost swaps one part of a launch's counts for another).
    void subtract(const KernelStats& o) {
        combine(o, [](std::uint64_t& a, std::uint64_t b) { a -= b; });
    }

    [[nodiscard]] double divergence_rate() const {
        return branch_evals == 0
                   ? 0.0
                   : static_cast<double>(divergent_branches) /
                         static_cast<double>(branch_evals);
    }

  private:
    template <typename Op>
    void combine(const KernelStats& o, Op op) {
        op(blocks, o.blocks);
        op(warps, o.warps);
        op(threads, o.threads);
        op(warp_instructions, o.warp_instructions);
        op(lane_instructions, o.lane_instructions);
        op(branch_evals, o.branch_evals);
        op(divergent_branches, o.divergent_branches);
        op(global_load_bytes, o.global_load_bytes);
        op(global_store_bytes, o.global_store_bytes);
        op(global_transactions, o.global_transactions);
        op(shared_load_bytes, o.shared_load_bytes);
        op(shared_store_bytes, o.shared_store_bytes);
        op(atomics, o.atomics);
        op(rng_draws, o.rng_draws);
    }
};

/// One kernel launch: identity, geometry, counters, modeled time.
struct LaunchRecord {
    std::string kernel_name;
    int grid_x = 0, grid_y = 0;
    int block_x = 0, block_y = 0;
    KernelStats stats;
    double modeled_seconds = 0.0;
};

/// Per-simulation accumulation of launches, aggregated by kernel name.
class LaunchLog {
  public:
    void add(LaunchRecord rec);
    [[nodiscard]] const std::vector<LaunchRecord>& records() const {
        return records_;
    }
    [[nodiscard]] double total_modeled_seconds() const;
    [[nodiscard]] KernelStats total_stats() const;
    /// Aggregate (summed stats/seconds) per distinct kernel name,
    /// insertion-ordered.
    [[nodiscard]] std::vector<LaunchRecord> by_kernel() const;

  private:
    std::vector<LaunchRecord> records_;
};

}  // namespace pedsim::simt
