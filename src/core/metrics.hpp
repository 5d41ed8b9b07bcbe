// Run-level instrumentation: per-step throughput series and gridlock
// detection (fig6a_throughput_lem_vs_aco's flow columns).
#pragma once

#include <cstdint>
#include <vector>

#include "core/simulator.hpp"

namespace pedsim::core {

/// Records the per-step crossing counts of a run (the paper's throughput:
/// "the number of pedestrians able to cross the environment and reach the
/// other side and the number of time steps required").
class ThroughputRecorder {
  public:
    /// Returns an observer to pass to Simulator::run. The recorder must
    /// outlive the run.
    [[nodiscard]] StepObserver observer();

    /// First step at which at least `fraction` of `population` had crossed,
    /// or -1 if never reached.
    [[nodiscard]] std::int64_t steps_to_fraction(std::size_t population,
                                                 double fraction) const;

  private:
    std::vector<int> per_step_;
};

/// Detects total gridlock: `window` consecutive steps in which agents
/// remain on the grid and none moves (paper section VI observes this above
/// 51,200 agents). A drained grid makes no moves either; it is not
/// gridlock.
class GridlockDetector {
  public:
    explicit GridlockDetector(int window = 50) : window_(window) {}
    /// Feed a step result and the agents still on the grid after it
    /// (Simulator::properties().active_count()); returns true once
    /// gridlock is established.
    bool update(const StepResult& sr, std::size_t agents_on_grid);
    [[nodiscard]] bool gridlocked() const { return gridlocked_; }

  private:
    int window_;
    int quiet_ = 0;
    bool gridlocked_ = false;
};

}  // namespace pedsim::core
