#include "simt/occupancy.hpp"

#include <algorithm>
#include <stdexcept>

namespace pedsim::simt {

SmLimits SmLimits::cc20() { return SmLimits{}; }

namespace {
std::int64_t round_up(std::int64_t v, std::int64_t unit) {
    return unit <= 0 ? v : ((v + unit - 1) / unit) * unit;
}
}  // namespace

OccupancyResult occupancy(const SmLimits& limits, int threads_per_block,
                          int regs_per_thread,
                          std::int64_t shared_bytes_per_block) {
    if (threads_per_block <= 0 ||
        threads_per_block > limits.max_threads_per_block) {
        throw std::invalid_argument("occupancy: bad threads_per_block");
    }
    const int warps_per_block =
        (threads_per_block + limits.warp_size - 1) / limits.warp_size;

    OccupancyResult r;
    using Limiter = OccupancyResult::Limiter;

    int blocks_by_warps = limits.max_warps_per_sm / warps_per_block;
    blocks_by_warps = std::min(
        blocks_by_warps, limits.max_threads_per_sm / threads_per_block);
    int blocks_by_blocks = limits.max_blocks_per_sm;

    int blocks_by_regs = blocks_by_warps;
    if (regs_per_thread > 0) {
        // Fermi allocates registers per warp at `register_alloc_unit`
        // granularity.
        const std::int64_t regs_per_warp =
            round_up(static_cast<std::int64_t>(regs_per_thread) *
                         limits.warp_size,
                     limits.register_alloc_unit);
        const std::int64_t regs_per_block = regs_per_warp * warps_per_block;
        blocks_by_regs = regs_per_block == 0
                             ? blocks_by_warps
                             : static_cast<int>(limits.registers_per_sm /
                                                regs_per_block);
    }

    int blocks_by_shared = blocks_by_warps;
    if (shared_bytes_per_block > 0) {
        const std::int64_t shared_per_block =
            round_up(shared_bytes_per_block, limits.shared_mem_alloc_unit);
        blocks_by_shared =
            static_cast<int>(limits.shared_mem_per_sm / shared_per_block);
    }

    const int blocks = std::max(
        0, std::min({blocks_by_warps, blocks_by_blocks, blocks_by_regs,
                     blocks_by_shared}));
    r.active_blocks_per_sm = blocks;
    r.active_warps_per_sm = blocks * warps_per_block;
    r.active_threads_per_sm = blocks * threads_per_block;
    r.occupancy = static_cast<double>(r.active_warps_per_sm) /
                  static_cast<double>(limits.max_warps_per_sm);

    if (blocks == blocks_by_regs && blocks < blocks_by_warps) {
        r.limiter = Limiter::kRegisters;
    } else if (blocks == blocks_by_shared && blocks < blocks_by_warps) {
        r.limiter = Limiter::kSharedMem;
    } else if (blocks == blocks_by_blocks && blocks < blocks_by_warps) {
        r.limiter = Limiter::kBlocks;
    } else if (r.occupancy < 1.0) {
        r.limiter = Limiter::kWarps;
    }
    return r;
}

}  // namespace pedsim::simt
