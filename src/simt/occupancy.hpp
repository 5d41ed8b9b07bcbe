// CUDA occupancy calculator for compute capability 2.0 (Fermi).
//
// The paper sizes every kernel at 256 threads/block, citing the NVIDIA
// Occupancy Calculator: on CC 2.0 that is the largest block size that still
// reaches 100% occupancy given the per-SM limits. This module reproduces
// the calculator so tests can verify the claim and the tour-construction
// kernel's register/shared-memory budgeting can be checked automatically.
#pragma once

#include <cstdint>

namespace pedsim::simt {

/// Per-SM resource limits of a compute capability.
struct SmLimits {
    int max_threads_per_sm = 1536;
    int max_warps_per_sm = 48;
    int max_blocks_per_sm = 8;
    int max_threads_per_block = 1024;
    std::int64_t registers_per_sm = 32768;
    std::int64_t shared_mem_per_sm = 49152;
    int warp_size = 32;
    int register_alloc_unit = 64;     ///< registers, warp granularity
    int shared_mem_alloc_unit = 128;  ///< bytes

    /// Fermi CC 2.0 (the paper's GTX 560 Ti).
    static SmLimits cc20();
};

struct OccupancyResult {
    int active_blocks_per_sm = 0;
    int active_warps_per_sm = 0;
    int active_threads_per_sm = 0;
    double occupancy = 0.0;  ///< active warps / max warps
    /// Which resource capped the block count.
    enum class Limiter { kNone, kWarps, kBlocks, kRegisters, kSharedMem } limiter =
        Limiter::kNone;
};

/// Occupancy for a kernel configuration on the given architecture.
/// `threads_per_block` must be positive and within the block limit;
/// `regs_per_thread` and `shared_bytes_per_block` may be zero.
OccupancyResult occupancy(const SmLimits& limits, int threads_per_block,
                          int regs_per_thread,
                          std::int64_t shared_bytes_per_block);

}  // namespace pedsim::simt
