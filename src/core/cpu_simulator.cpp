#include "core/cpu_simulator.hpp"

#include "core/rules.hpp"
#include "exec/thread_pool.hpp"
#include "simd/row_ops.hpp"

namespace pedsim::core {

void CpuSimulator::stage_reset() {
    scan_.reset();
    props_.reset_futures();
}

void CpuSimulator::initial_calc_rows(int begin_row, int end_row) {
    // Mask sweep of occupied cells: one SIMD pass turns each padded
    // occupancy row into an agent bitmask, and only set bits run the
    // scalar body — bit-exact with the old cell loop because it skipped
    // exactly the cells with index_at <= 0, and iteration stays
    // column-ascending (words ascending, count-trailing-zeros per word).
    // Writes land in the cell's own agent row, so slices are disjoint.
    const int nwords = env_.bit_words();
    std::vector<std::uint64_t> agents(static_cast<std::size_t>(nwords));
    for (int r = begin_row; r < end_row; ++r) {
        simd::agent_bits(env_.occ_row_padded(r), env_.stride(),
                         grid::kWallOcc, agents.data());
        simd::for_each_set_bit(agents.data(), nwords, [&](int p) {
            const int c = p - 1;  // padded byte position -> logical column
            const std::int32_t i = env_.index_at(r, c);
            const auto idx = static_cast<std::size_t>(i);
            const grid::Group g = props_.group_of(i);

            const auto fwd = grid::kNeighborOffsets[static_cast<std::size_t>(
                grid::forward_neighbor(g))];
            const bool front_empty =
                env_.walkable_halo(r + fwd.dr, c + fwd.dc);
            props_.front_blocked[idx] = front_empty ? 0 : 1;

            const bool panicked = panic_applies(r, c);
            props_.panicked[idx] = panicked ? 1 : 0;
            // Waypoint-pending agents always need their scan row: forward
            // priority is suspended while a chain steers them.
            if (!panicked && config_.forward_priority && front_empty &&
                !waypoint_pending(i)) {
                return;
            }

            scan_.count(i) =
                static_cast<std::int8_t>(fill_scan_row(i, r, c, g));
        });
    }
}

void CpuSimulator::stage_initial_calc() {
    exec::for_slices(config_.exec, 0, env_.rows(),
                     [this](int, std::int64_t b, std::int64_t e) {
                         initial_calc_rows(static_cast<int>(b),
                                           static_cast<int>(e));
                     });
}

void CpuSimulator::tour_construction_agents(std::size_t begin,
                                            std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
        if (props_.active[i] == 0) continue;
        decide_future(static_cast<std::int32_t>(i));
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
