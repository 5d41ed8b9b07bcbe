#include "core/cpu_simulator.hpp"

#include <utility>

#include "core/rules.hpp"

namespace pedsim::core {

CpuSimulator::CpuSimulator(const SimConfig& config,
                           std::shared_ptr<const DoorSchedule> warm)
    : Simulator(config, std::move(warm)) {
    allocate_proposal_planes();
}

void CpuSimulator::stage_reset() { props_.reset_futures(); }

void CpuSimulator::stage_tour_construction() {
    // The fused initial calc + tour construction: each agent writes only
    // its own property row, so agent slices are disjoint.
    const auto agents = exec::plan_slices(
        config_.exec, 1, static_cast<std::int64_t>(props_.rows()));
    const EnvEmpty empty(env_);
    const auto body = [&](const exec::Slice& sl) {
        for (auto i = static_cast<std::size_t>(sl.begin);
             i < static_cast<std::size_t>(sl.end); ++i) {
            if (props_.active[i] == 0) continue;
            decide_host(static_cast<std::int32_t>(i), empty);
        }
    };
    if (!parallel(agents.size())) {
        for (const auto& sl : agents) body(sl);
        return;
    }
    exec::ThreadPool::shared().run(
        static_cast<int>(agents.size()), config_.exec.effective_threads(),
        [&](int s) { body(agents[static_cast<std::size_t>(s)]); });
}

void CpuSimulator::stage_movement(std::vector<Move>& out_moves) {
    // Each cell belongs to exactly one row slice, so no move is emitted
    // twice, and its stream is keyed on the global cell whatever slice
    // resolves it. Slices append in slice order — inline, or through
    // per-slice scratch on the pool — and the concatenation of contiguous
    // row ranges is the serial row-major move order.
    const auto rows = exec::plan_slices(config_.exec, 0, env_.rows());
    if (!parallel(rows.size())) {
        for (const auto& sl : rows) {
            resolve_proposals(static_cast<int>(sl.begin),
                              static_cast<int>(sl.end), out_moves);
        }
        return;
    }
    std::vector<std::vector<Move>> parts(rows.size());
    exec::ThreadPool::shared().run(
        static_cast<int>(rows.size()), config_.exec.effective_threads(),
        [&](int s) {
            const auto& sl = rows[static_cast<std::size_t>(s)];
            resolve_proposals(static_cast<int>(sl.begin),
                              static_cast<int>(sl.end),
                              parts[static_cast<std::size_t>(s)]);
        });
    for (const auto& part : parts) {
        out_moves.insert(out_moves.end(), part.begin(), part.end());
    }
}

}  // namespace pedsim::core
