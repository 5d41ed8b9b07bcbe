// Analytic timing model: KernelStats -> modeled seconds on a DeviceSpec.
//
// The model is deliberately simple and fully documented, because the
// reproduction claims *shape*, not absolute seconds (docs/REPRODUCTION.md):
//
//   t_compute = warp_issues * warp_size / lane_ops_per_sec
//               where warp_issues includes the divergence penalty
//   t_memory  = transactions * transaction_bytes / dram_bandwidth
//   t_kernel  = launch_overhead + max(t_compute, t_memory)
//
// Compute and memory overlap (max) as on hardware with enough warps in
// flight to hide latency, which the paper's 100%-occupancy configuration
// targets. Atomics serialize: each charges a fixed latency.
#pragma once

#include "simt/device_spec.hpp"
#include "simt/stats.hpp"

namespace pedsim::simt {

struct TimingBreakdown {
    double compute_seconds = 0.0;
    double memory_seconds = 0.0;
    double atomic_seconds = 0.0;
    double launch_seconds = 0.0;
    double total_seconds = 0.0;
};

class TimingModel {
  public:
    explicit TimingModel(DeviceSpec spec) : spec_(std::move(spec)) {}

    [[nodiscard]] const DeviceSpec& spec() const { return spec_; }

    [[nodiscard]] TimingBreakdown breakdown(const KernelStats& ks) const {
        TimingBreakdown b;
        const double warp_issues =
            static_cast<double>(ks.warp_instructions) +
            spec_.divergence_penalty_instr *
                static_cast<double>(ks.divergent_branches);
        b.compute_seconds =
            warp_issues * spec_.warp_size / spec_.lane_ops_per_sec();
        b.memory_seconds =
            static_cast<double>(ks.global_transactions) *
            spec_.memory_transaction_bytes / (spec_.dram_bandwidth_gbs * 1e9);
        // Fermi global atomics: ~300+ cycle round trips, serialized per
        // contended address; charge a flat per-op latency at DRAM speed.
        constexpr double kAtomicLatencySeconds = 400e-9 / 2;  // amortized
        b.atomic_seconds =
            static_cast<double>(ks.atomics) * kAtomicLatencySeconds /
            static_cast<double>(spec_.sm_count);
        b.launch_seconds = spec_.launch_overhead_us * 1e-6;
        b.total_seconds = b.launch_seconds +
                          std::max(b.compute_seconds, b.memory_seconds) +
                          b.atomic_seconds;
        return b;
    }

    [[nodiscard]] double seconds(const KernelStats& ks) const {
        return breakdown(ks).total_seconds;
    }

  private:
    DeviceSpec spec_;
};

/// Sequential (single-threaded) cost model for the paper's CPU baseline.
///
/// The same kernel stats drive it: `lane_instructions` is the total work
/// volume a sequential loop executes. `cycles_per_op` folds in everything
/// our coarse instruction estimates miss on a real scalar core (address
/// arithmetic, branch misses, the gap between one "counted op" and the
/// machine instructions it expands to); the default is calibrated so the
/// low-density Fig. 5b point lands near the paper's i7-930 measurement.
/// Fig. 5b also reports this host's *measured* wall time — the model
/// exists so the CPU-vs-GPU comparison is era-consistent (a 2026 host
/// against a 2011 GPU model says nothing about the paper's claim).
struct SequentialCostModel {
    DeviceSpec cpu = DeviceSpec::corei7_930();
    double cycles_per_op = 4.5;

    [[nodiscard]] double seconds(const KernelStats& ks) const {
        const double compute =
            static_cast<double>(ks.lane_instructions) * cycles_per_op /
            (cpu.clock_ghz * 1e9);
        const double memory =
            static_cast<double>(ks.global_load_bytes + ks.global_store_bytes) /
            (cpu.dram_bandwidth_gbs * 1e9);
        // A scalar core overlaps memory poorly; costs add.
        return compute + memory;
    }
};

}  // namespace pedsim::simt
