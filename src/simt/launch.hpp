// Functional SIMT kernel execution with warp-level instrumentation.
//
// Kernels are written as phase-structured functors: the body is split at
// every __syncthreads() boundary into numbered phases, and the launcher
// runs phase p for *all* threads of a block before any thread enters phase
// p+1 — exactly the barrier semantics the paper's tiled kernels rely on
// (load 18x18 halo tile, sync, compute).
//
// Within a phase, threads execute warp by warp (32 consecutive threads in
// row-major thread order). Each thread reports its dynamic instruction
// estimate, branch outcomes and memory accesses through ThreadCtx; after a
// warp retires, the tracker folds lane data into warp-level counters:
//   - warp_instructions = max lane instruction count (lockstep issue),
//   - a branch site is divergent when its lanes disagree,
//   - global accesses coalesce into distinct 128-byte segments per site.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simt/device_spec.hpp"
#include "simt/stats.hpp"

namespace pedsim::simt {

struct Dim2 {
    int x = 1;
    int y = 1;
    [[nodiscard]] int count() const { return x * y; }
};

/// Per-warp bookkeeping for one phase. Branch sites and access sites are
/// small dense integers chosen by the kernel author (an enum per kernel).
class WarpTracker {
  public:
    static constexpr int kMaxSites = 16;
    static constexpr int kMaxSegmentsPerSite = 64;

    explicit WarpTracker(int transaction_bytes)
        : transaction_bytes_(transaction_bytes) {}

    void begin_lane() { current_lane_instr_ = 0; }
    void end_lane() {
        max_lane_instr_ = std::max(max_lane_instr_, current_lane_instr_);
        lane_instr_sum_ += current_lane_instr_;
        ++lanes_;
    }

    void instr(std::uint32_t n) { current_lane_instr_ += n; }

    void branch(int site, bool taken) {
        auto& b = branches_[static_cast<std::size_t>(site)];
        ++b.participants;
        b.taken += taken ? 1u : 0u;
    }

    void global_access(int site, std::uint64_t addr, std::uint32_t bytes,
                       bool store) {
        if (store) {
            store_bytes_ += bytes;
        } else {
            load_bytes_ += bytes;
        }
        // Coalescing: remember each distinct transaction-sized segment this
        // warp touches at this access site.
        auto& s = segments_[static_cast<std::size_t>(site)];
        const std::uint64_t seg = addr / static_cast<std::uint64_t>(transaction_bytes_);
        for (int i = 0; i < s.count; ++i) {
            if (s.ids[static_cast<std::size_t>(i)] == seg) return;
        }
        if (s.count < kMaxSegmentsPerSite) {
            s.ids[static_cast<std::size_t>(s.count)] = seg;
            ++s.count;
        } else {
            ++overflow_segments_;  // pathological: count each as its own
        }
    }

    void shared_access(std::uint32_t bytes, bool store) {
        if (store) {
            shared_store_bytes_ += bytes;
        } else {
            shared_load_bytes_ += bytes;
        }
    }

    void atomic() { ++atomics_; }
    void rng_draw(std::uint32_t n) { rng_draws_ += n; }

    /// Fold this warp's lane data into kernel-level stats.
    void retire(KernelStats& ks) const {
        if (lanes_ == 0) return;
        ks.warps += 1;
        ks.warp_instructions += max_lane_instr_;
        ks.lane_instructions += lane_instr_sum_;
        for (const auto& b : branches_) {
            if (b.participants == 0) continue;
            ks.branch_evals += 1;
            if (b.taken != 0 && b.taken != b.participants) {
                ks.divergent_branches += 1;
            }
        }
        std::uint64_t transactions = overflow_segments_;
        for (const auto& s : segments_) {
            transactions += static_cast<std::uint64_t>(s.count);
        }
        ks.global_transactions += transactions;
        ks.global_load_bytes += load_bytes_;
        ks.global_store_bytes += store_bytes_;
        ks.shared_load_bytes += shared_load_bytes_;
        ks.shared_store_bytes += shared_store_bytes_;
        ks.atomics += atomics_;
        ks.rng_draws += rng_draws_;
    }

  private:
    struct BranchSite {
        std::uint32_t participants = 0;
        std::uint32_t taken = 0;
    };
    struct SegmentSet {
        std::array<std::uint64_t, kMaxSegmentsPerSite> ids{};
        int count = 0;
    };

    int transaction_bytes_;
    std::uint64_t current_lane_instr_ = 0;
    std::uint64_t max_lane_instr_ = 0;
    std::uint64_t lane_instr_sum_ = 0;
    int lanes_ = 0;
    std::array<BranchSite, kMaxSites> branches_{};
    std::array<SegmentSet, kMaxSites> segments_{};
    std::uint64_t overflow_segments_ = 0;
    std::uint64_t load_bytes_ = 0;
    std::uint64_t store_bytes_ = 0;
    std::uint64_t shared_load_bytes_ = 0;
    std::uint64_t shared_store_bytes_ = 0;
    std::uint64_t atomics_ = 0;
    std::uint64_t rng_draws_ = 0;
};

/// Per-thread view handed to kernel bodies: CUDA-style indices plus
/// instrumentation hooks. Instrumentation is advisory — forgetting a call
/// skews the timing model but never the functional result.
class ThreadCtx {
  public:
    Dim2 grid_dim;
    Dim2 block_dim;
    Dim2 block_idx;
    Dim2 thread_idx;

    [[nodiscard]] int flat_tid() const {
        return thread_idx.y * block_dim.x + thread_idx.x;
    }
    [[nodiscard]] int lane() const { return flat_tid() % 32; }
    [[nodiscard]] int global_x() const {
        return block_idx.x * block_dim.x + thread_idx.x;
    }
    [[nodiscard]] int global_y() const {
        return block_idx.y * block_dim.y + thread_idx.y;
    }

    void instr(std::uint32_t n = 1) { warp_->instr(n); }
    /// Record a branch outcome at `site`; returns `taken` so it can wrap a
    /// condition inline: `if (ctx.branch(kSiteFwd, fwd_empty)) {...}`.
    bool branch(int site, bool taken) {
        warp_->branch(site, taken);
        warp_->instr(1);
        return taken;
    }
    void global_load(int site, std::uint64_t addr, std::uint32_t bytes) {
        warp_->global_access(site, addr, bytes, /*store=*/false);
        warp_->instr(1);
    }
    void global_store(int site, std::uint64_t addr, std::uint32_t bytes) {
        warp_->global_access(site, addr, bytes, /*store=*/true);
        warp_->instr(1);
    }
    void shared_load(std::uint32_t bytes) {
        warp_->shared_access(bytes, false);
        warp_->instr(1);
    }
    void shared_store(std::uint32_t bytes) {
        warp_->shared_access(bytes, true);
        warp_->instr(1);
    }
    void atomic() {
        warp_->atomic();
        warp_->instr(1);
    }
    void rng_draw(std::uint32_t n = 1) {
        warp_->rng_draw(n);
        warp_->instr(8 * n);  // Philox block ~ a few tens of ALU ops
    }

    void bind(WarpTracker* w) { warp_ = w; }

  private:
    WarpTracker* warp_ = nullptr;
};

/// Execute one block of a phase-structured kernel, accumulating its warp
/// counters into `ks`. Shared by the serial and host-parallel launch
/// paths so both produce identical per-block stats.
template <typename SharedT, typename Fn>
void run_block(const DeviceSpec& spec, Dim2 grid, Dim2 block, int phases,
               Fn& fn, int bx, int by, KernelStats& ks) {
    const int threads_per_block = block.count();
    const int warps_per_block = (threads_per_block + spec.warp_size - 1) /
                                std::max(spec.warp_size, 1);
    SharedT shared{};
    ks.blocks += 1;
    ks.threads += static_cast<std::uint64_t>(threads_per_block);
    for (int phase = 0; phase < phases; ++phase) {
        for (int w = 0; w < warps_per_block; ++w) {
            WarpTracker tracker(spec.memory_transaction_bytes);
            const int lane_begin = w * spec.warp_size;
            const int lane_end =
                std::min(lane_begin + spec.warp_size, threads_per_block);
            for (int t = lane_begin; t < lane_end; ++t) {
                ThreadCtx ctx;
                ctx.grid_dim = grid;
                ctx.block_dim = block;
                ctx.block_idx = {bx, by};
                ctx.thread_idx = {t % block.x, t / block.x};
                ctx.bind(&tracker);
                tracker.begin_lane();
                fn(ctx, shared, phase);
                tracker.end_lane();
            }
            tracker.retire(ks);
        }
    }
}

/// Execute a phase-structured kernel over a grid of blocks.
///
/// `SharedT` models the block's shared memory: one instance is
/// default-constructed per block and passed to every thread of that block.
/// `fn(ctx, shared, phase)` is invoked for phases 0..phases-1 with a full
/// block barrier between phases.
///
/// `host` distributes whole blocks across the exec::ThreadPool — blocks
/// are independent by the same argument the paper uses to map them onto
/// SMs (inter-block writes are per-entity disjoint). The launch log is
/// unchanged: per-slice stats are merged in block order, so divergence,
/// coalescing and modeled time are identical at any host thread count;
/// only host wall-clock drops.
template <typename SharedT, typename Fn>
KernelStats launch(const DeviceSpec& spec, Dim2 grid, Dim2 block, int phases,
                   Fn&& fn, const exec::ExecPolicy& host = {}) {
    const auto n_blocks = static_cast<std::int64_t>(grid.count());
    obs::Span span("simt/launch", "blocks", n_blocks);
    obs::MetricsRegistry::add("simt.launches");
    // Per-slice stats merged in flat block order: serial (one slice) and
    // host-parallel launches produce the identical accumulation.
    const auto slices = exec::plan_slices(host, 0, n_blocks);
    std::vector<KernelStats> parts(std::max<std::size_t>(slices.size(), 1));
    exec::for_slices(
        host, 0, n_blocks,
        [&](int s, std::int64_t begin, std::int64_t end) {
            // One span per slice, not per block: a 480x480 grid runs ~900
            // blocks per launch, and per-block spans would swamp the trace.
            obs::Span slice("simt/block_slice", "begin", begin, "end", end);
            auto& part = parts[static_cast<std::size_t>(s)];
            for (std::int64_t b = begin; b < end; ++b) {
                run_block<SharedT>(spec, grid, block, phases, fn,
                                   static_cast<int>(b) % grid.x,
                                   static_cast<int>(b) / grid.x, part);
            }
        });
    KernelStats ks;
    for (const auto& part : parts) ks.merge(part);
    return ks;
}

/// Empty shared-memory tag for kernels that need none.
struct NoShared {};

}  // namespace pedsim::simt
