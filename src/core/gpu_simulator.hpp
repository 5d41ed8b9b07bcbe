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

#include <string_view>

#include "core/scan_matrix.hpp"
#include "core/simulator.hpp"
#include "simt/device_spec.hpp"
#include "simt/launch.hpp"
#include "simt/stats.hpp"
#include "simt/timing_model.hpp"

namespace pedsim::core {

class GpuSimulator final : public Simulator {
  public:
    /// The optional `warm` schedule skips the field precompute (see the
    /// Simulator base-class contract).
    explicit GpuSimulator(const SimConfig& config,
                          std::shared_ptr<const DoorSchedule> warm = nullptr);

    [[nodiscard]] const simt::LaunchLog& launch_log() const { return log_; }
    [[nodiscard]] double modeled_seconds() const override {
        return log_.total_modeled_seconds();
    }

    /// Operation counts of one tiled kernel's halo-staging phase alone
    /// (`kernel` is "initial_calc" or "movement"), launched over this
    /// engine's grid and buffers with the paper's warp-remapped loader or
    /// the naive boundary-thread loader (section IV.b). Staging reads no
    /// agent state, so these counts are the same at every step: swapping
    /// the remapped counts for the naive ones in a launch record re-costs
    /// that launch for the naive load.
    [[nodiscard]] simt::KernelStats staging_stats(std::string_view kernel,
                                                  bool remapped) const;

  protected:
    void stage_reset() override;
    void stage_initial_calc() override;
    void stage_tour_construction() override;
    void stage_movement(std::vector<Move>& out_moves) override;

  private:
    void record(const char* name, simt::Dim2 grid, simt::Dim2 block,
                simt::KernelStats stats);

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
