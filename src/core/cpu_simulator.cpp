#include "core/cpu_simulator.hpp"

#include "core/rules.hpp"
#include "exec/thread_pool.hpp"

namespace pedsim::core {

void CpuSimulator::stage_reset() { props_.reset_futures(); }

void CpuSimulator::tour_construction_agents(std::size_t begin,
                                            std::size_t end) {
    const EnvEmpty empty(env_);
    for (std::size_t i = begin; i < end; ++i) {
        if (props_.active[i] == 0) continue;
        decide_host(static_cast<std::int32_t>(i), empty);
    }
}

void CpuSimulator::stage_tour_construction() {
    exec::for_slices(config_.exec, 1,
                     static_cast<std::int64_t>(props_.rows()),
                     [this](int, std::int64_t b, std::int64_t e) {
                         tour_construction_agents(
                             static_cast<std::size_t>(b),
                             static_cast<std::size_t>(e));
                     });
}

void CpuSimulator::stage_movement(std::vector<Move>& out_moves) {
    const EnvEmpty empty(env_);
    const EnvIndex index(env_);
    const auto slices = exec::plan_slices(config_.exec, 0, env_.rows());
    if (slices.size() <= 1) {
        resolve_proposals(empty, index, 0, env_.rows(), out_moves);
        return;
    }
    // Per-slice scratch, merged in slice order: the concatenation of
    // contiguous row bands reproduces the serial row-major move order.
    std::vector<std::vector<Move>> parts(slices.size());
    exec::ThreadPool::shared().run(
        static_cast<int>(slices.size()), config_.exec.effective_threads(),
        [&](int s) {
            const auto& sl = slices[static_cast<std::size_t>(s)];
            resolve_proposals(empty, index, static_cast<int>(sl.begin),
                              static_cast<int>(sl.end),
                              parts[static_cast<std::size_t>(s)]);
        });
    for (const auto& part : parts) {
        out_moves.insert(out_moves.end(), part.begin(), part.end());
    }
}

}  // namespace pedsim::core
