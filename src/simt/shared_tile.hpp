// Shared-memory tiles with halo cells (paper section IV.b, Fig. 3).
//
// A 16x16 thread block cooperatively stages an 18x18 tile: its own 256
// internal elements plus the 68-element halo ring from neighbouring tiles.
// Two load strategies are provided:
//
//  - `load_halo_remapped` — the paper's index-mapping optimization: every
//    thread loads its internal element, then the block's *first warp* (the
//    32 threads of the first two thread rows) walks the halo ring with a
//    strided loop. The "am I in the first warp" predicate is warp-uniform,
//    so the divergence counter stays at zero.
//  - `load_halo_naive` — the obvious approach: each boundary thread also
//    fetches the halo cells adjacent to it. The predicates split lanes
//    within warps and the divergence counter shows it (tiling ablation).
//
// Off-grid halo positions read as `wall` (occupied sentinel), matching the
// environment's edge semantics.
#pragma once

#include <array>
#include <cstdint>

#include "simt/launch.hpp"

namespace pedsim::simt {

/// A read-only view of a device global array with address instrumentation.
/// `stride` is the element pitch between consecutive rows: it defaults to
/// `cols` (a dense array) but lets the view walk the environment's padded
/// rows in place — the logical (r, c) addressing the kernels use is
/// unchanged either way.
template <typename T>
struct GlobalView {
    const T* data = nullptr;
    int rows = 0;
    int cols = 0;
    int stride = 0;

    GlobalView() = default;
    GlobalView(const T* d, int r, int c, int s = 0)
        : data(d), rows(r), cols(c), stride(s == 0 ? c : s) {}

    [[nodiscard]] bool in_bounds(int r, int c) const {
        return r >= 0 && r < rows && c >= 0 && c < cols;
    }
    [[nodiscard]] T at(int r, int c) const {
        return data[static_cast<std::size_t>(r) * stride + c];
    }
    [[nodiscard]] std::uint64_t addr(int r, int c) const {
        return reinterpret_cast<std::uint64_t>(
            data + (static_cast<std::size_t>(r) * stride + c));
    }
};

/// Tile edge used throughout (256 threads/block = 100% occupancy on CC 2.0
/// per the paper's occupancy-calculator argument).
inline constexpr int kTileEdge = 16;
inline constexpr int kHaloEdge = kTileEdge + 2;
inline constexpr int kHaloRing = 4 * kTileEdge + 4;  // 68

/// Map ring position i in [0, kHaloRing) to tile-local coordinates in
/// [-1, kTileEdge] on the halo ring of the tile.
constexpr std::pair<int, int> halo_ring_coord(int i) {
    if (i < kHaloEdge) return {-1, i - 1};                          // top row
    i -= kHaloEdge;
    if (i < kHaloEdge) return {kTileEdge, i - 1};                   // bottom
    i -= kHaloEdge;
    if (i < kTileEdge) return {i, -1};                              // left
    i -= kTileEdge;
    return {i, kTileEdge};                                          // right
}

/// Shared-memory tile of T with a one-cell halo. Local coordinates run
/// -1..kTileEdge inclusive.
template <typename T>
class HaloTile {
  public:
    [[nodiscard]] T& at(int lr, int lc) {
        return data_[static_cast<std::size_t>(lr + 1) * kHaloEdge +
                     static_cast<std::size_t>(lc + 1)];
    }
    [[nodiscard]] const T& at(int lr, int lc) const {
        return data_[static_cast<std::size_t>(lr + 1) * kHaloEdge +
                     static_cast<std::size_t>(lc + 1)];
    }

    enum BranchSite : int {
        kSiteFirstWarp = 0,
        kSiteRingBounds = 1,
        kSiteNaiveLeft = 2,
        kSiteNaiveRight = 3,
        kSiteNaiveTop = 4,
        kSiteNaiveBottom = 5,
        kSiteCorner = 6,
    };
    enum AccessSite : int {
        kAccessInternal = 8,
        kAccessHalo = 9,
    };

    /// Paper strategy: internal element per thread + first-warp ring walk.
    /// Call from every thread of a 16x16 block during the load phase.
    void load_halo_remapped(ThreadCtx& ctx, const GlobalView<T>& g, T wall) {
        const int lr = ctx.thread_idx.y;
        const int lc = ctx.thread_idx.x;
        const int gr = ctx.block_idx.y * kTileEdge + lr;
        const int gc = ctx.block_idx.x * kTileEdge + lc;

        // Internal element: fully coalesced row-major fetch.
        ctx.global_load(kAccessInternal, g.addr(gr, gc), sizeof(T));
        ctx.shared_store(sizeof(T));
        at(lr, lc) = g.at(gr, gc);

        // Halo ring: warp 0 only. flat_tid < 32 selects exactly the first
        // warp, so every warp evaluates this branch uniformly.
        const bool first_warp = ctx.flat_tid() < 32;
        if (ctx.branch(kSiteFirstWarp, first_warp)) {
            for (int i = ctx.flat_tid(); i < kHaloRing; i += 32) {
                const auto [hr, hc] = halo_ring_coord(i);
                const int ggr = ctx.block_idx.y * kTileEdge + hr;
                const int ggc = ctx.block_idx.x * kTileEdge + hc;
                // Edge handling with a predicated select ("logical
                // operators ... avoiding warp divergence", section IV.b):
                // clamp the address and mask the value instead of branching.
                const bool inside = g.in_bounds(ggr, ggc);
                const int cr = std::clamp(ggr, 0, g.rows - 1);
                const int cc = std::clamp(ggc, 0, g.cols - 1);
                ctx.instr(4);  // clamp + select
                ctx.global_load(kAccessHalo, g.addr(cr, cc), sizeof(T));
                const T v = inside ? g.at(cr, cc) : wall;
                ctx.shared_store(sizeof(T));
                at(hr, hc) = v;
            }
        }
    }

    /// Naive strategy for the ablation: boundary threads fetch their own
    /// halo neighbours; lane-dependent predicates diverge inside warps.
    void load_halo_naive(ThreadCtx& ctx, const GlobalView<T>& g, T wall) {
        const int lr = ctx.thread_idx.y;
        const int lc = ctx.thread_idx.x;
        const int gr = ctx.block_idx.y * kTileEdge + lr;
        const int gc = ctx.block_idx.x * kTileEdge + lc;

        ctx.global_load(kAccessInternal, g.addr(gr, gc), sizeof(T));
        ctx.shared_store(sizeof(T));
        at(lr, lc) = g.at(gr, gc);

        auto fetch = [&](int hlr, int hlc) {
            const int ggr = ctx.block_idx.y * kTileEdge + hlr;
            const int ggc = ctx.block_idx.x * kTileEdge + hlc;
            T v = wall;
            if (g.in_bounds(ggr, ggc)) {
                ctx.global_load(kAccessHalo, g.addr(ggr, ggc), sizeof(T));
                v = g.at(ggr, ggc);
            }
            ctx.shared_store(sizeof(T));
            at(hlr, hlc) = v;
        };

        if (ctx.branch(kSiteNaiveLeft, lc == 0)) fetch(lr, -1);
        if (ctx.branch(kSiteNaiveRight, lc == kTileEdge - 1)) {
            fetch(lr, kTileEdge);
        }
        if (ctx.branch(kSiteNaiveTop, lr == 0)) fetch(-1, lc);
        if (ctx.branch(kSiteNaiveBottom, lr == kTileEdge - 1)) {
            fetch(kTileEdge, lc);
        }
        // Corners: four lanes of the block.
        const bool corner = (lr == 0 || lr == kTileEdge - 1) &&
                            (lc == 0 || lc == kTileEdge - 1);
        if (ctx.branch(kSiteCorner, corner)) {
            fetch(lr == 0 ? -1 : kTileEdge, lc == 0 ? -1 : kTileEdge);
        }
    }

  private:
    std::array<T, kHaloEdge * kHaloEdge> data_{};
};

}  // namespace pedsim::simt
