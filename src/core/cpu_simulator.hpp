// Host CPU engine (the paper's single-threaded baseline, now range-based).
//
// Each stage is decomposed over explicit [begin, end) agent/row slices —
// the host-side analogue of the paper's 16x16 tile decomposition — planned
// by exec::plan_slices from `SimConfig::exec`. With `exec.threads == 1`
// the slices collapse to the seed's plain loops (the measured Fig. 5b/5c
// comparator); at N threads the slices run on the exec::ThreadPool and,
// because every stochastic choice is a pure function of (seed, entity,
// step) and per-slice move lists are merged in slice order, the results
// stay bit-identical. Initial calculation runs inside tour construction:
// one pass over the agent table builds a candidate row only for agents
// whose decision draws.
#pragma once

#include "core/simulator.hpp"
#include "exec/thread_pool.hpp"

namespace pedsim::core {

class CpuSimulator final : public Simulator {
  public:
    /// `warm` reuses a precomputed door schedule (see the base-class
    /// contract).
    CpuSimulator(const SimConfig& config,
                 std::shared_ptr<const DoorSchedule> warm);

  protected:
    void stage_reset() override;
    void stage_tour_construction() override;
    void stage_movement(std::vector<Move>& out_moves) override;

  private:
    /// True when `count` slices run on the shared pool rather than
    /// inline in slice order.
    [[nodiscard]] bool parallel(std::size_t count) const {
        return count > 1 && config_.exec.effective_threads() > 1;
    }
};

}  // namespace pedsim::core
