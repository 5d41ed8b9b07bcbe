// Host CPU engine (the paper's single-threaded baseline, now range-based).
//
// Each stage is decomposed over explicit [begin, end) row/agent slices —
// the host-side analogue of the paper's 16x16 tile decomposition. With
// `SimConfig::exec.threads == 1` the slices collapse to the seed's plain
// row-major loops (the measured Fig. 5b/5c comparator); at N threads the
// slices run on the exec::ThreadPool and, because every stochastic choice
// is a pure function of (seed, entity, step) and per-slice movement
// scratch is merged in slice order, the results stay bit-identical.
#pragma once

#include "core/simulator.hpp"

namespace pedsim::core {

class CpuSimulator final : public Simulator {
  public:
    explicit CpuSimulator(const SimConfig& config) : Simulator(config) {}
    /// Warm-setup variant: reuse a precomputed door schedule (see the
    /// base-class contract).
    CpuSimulator(const SimConfig& config,
                 std::shared_ptr<const DoorSchedule> warm)
        : Simulator(config, std::move(warm)) {}

  protected:
    void stage_reset() override;
    void stage_initial_calc() override;
    void stage_tour_construction() override;
    void stage_movement(std::vector<Move>& out_moves) override;

  private:
    // Range-based stage bodies: each computes one contiguous slice and
    // only writes state owned by entities inside the slice.
    void initial_calc_rows(int begin_row, int end_row);
    void tour_construction_agents(std::size_t begin, std::size_t end);
};

}  // namespace pedsim::core
