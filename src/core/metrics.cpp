#include "core/metrics.hpp"

namespace pedsim::core {

StepObserver ThroughputRecorder::observer() {
    return [this](const StepResult& sr) {
        const int crossings = sr.crossed_top + sr.crossed_bottom;
        per_step_.push_back(crossings);
        return true;
    };
}

std::int64_t ThroughputRecorder::steps_to_fraction(std::size_t population,
                                                   double fraction) const {
    const auto target = static_cast<std::uint64_t>(
        fraction * static_cast<double>(population));
    std::uint64_t acc = 0;
    for (std::size_t s = 0; s < per_step_.size(); ++s) {
        acc += static_cast<std::uint64_t>(per_step_[s]);
        if (acc >= target) return static_cast<std::int64_t>(s);
    }
    return -1;
}

}  // namespace pedsim::core
