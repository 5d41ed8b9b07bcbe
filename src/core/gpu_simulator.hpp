// Data-driven SIMT engine: the paper's GPU implementation (section IV)
// executed on the simt device simulator.
//
// Per step it launches the paper's kernels:
//   support_reset        — clear scan counts + FUTURE fields,
//   initial_calc         — 16x16 blocks, 18x18 halo tiles, scan-row fill,
//   tour_construction    — 8 lanes/agent, 32 agents/block, warp reduction,
//   movement             — scatter-to-gather winner election, no atomics.
// Functional results are bit-identical to CpuSimulator (same pure rules,
// same stream keys); the launch log additionally captures divergence,
// coalescing and modeled kernel time for the Fig. 5 benches.
//
// Kernels launch on, and are timed for, the paper's GTX 560 Ti
// (simt::DeviceSpec::gtx560ti()). Another device's time is a re-cost of
// the launch log's stats with that device's simt::TimingModel: a launch
// reads only the spec's warp size and transaction bytes, which the
// modeled GPUs share.
#pragma once

#include "core/scan_matrix.hpp"
#include "core/simulator.hpp"
#include "simt/device_spec.hpp"
#include "simt/launch.hpp"
#include "simt/stats.hpp"
#include "simt/timing_model.hpp"

namespace pedsim::core {

struct GpuOptions {
    /// Paper's warp-remapped halo load; false = naive boundary-thread
    /// loads (tiling ablation).
    bool remapped_halo_load = true;
    /// Model the movement stage with per-proposer global atomics instead
    /// of scatter-to-gather (conflict-resolution ablation). Semantics stay
    /// gather-based (deterministic); only the cost model changes, the way
    /// the paper argues atomics *would* have serialized.
    bool atomic_movement = false;
};

class GpuSimulator final : public Simulator {
  public:
    GpuSimulator(const SimConfig& config, GpuOptions options = {});
    /// Warm-setup variant: reuse a precomputed door schedule (see the
    /// Simulator base-class contract).
    GpuSimulator(const SimConfig& config, GpuOptions options,
                 std::shared_ptr<const DoorSchedule> warm);

    [[nodiscard]] const simt::LaunchLog& launch_log() const { return log_; }
    [[nodiscard]] double modeled_seconds() const override {
        return log_.total_modeled_seconds();
    }

  protected:
    void stage_reset() override;
    void stage_initial_calc() override;
    void stage_tour_construction() override;
    void stage_movement(std::vector<Move>& out_moves) override;

  private:
    void record(const char* name, simt::Dim2 grid, simt::Dim2 block,
                simt::KernelStats stats);

    GpuOptions options_;
    simt::TimingModel timing_;
    simt::LaunchLog log_;
    /// The scan matrix in global memory: initial_calc stores each agent's
    /// candidate row, tour_construction reads it back.
    ScanMatrix scan_;
    /// Per-cell winner buffer written by the movement kernel
    /// (0 = no move into this cell).
    std::vector<std::int32_t> winner_;
};

}  // namespace pedsim::core
