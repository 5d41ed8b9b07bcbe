// Run-level instrumentation: the per-step throughput series behind
// fig6a_throughput_lem_vs_aco's steps-to-half column.
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

}  // namespace pedsim::core
