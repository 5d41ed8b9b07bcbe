// Row-band sharded host engine with deterministic halo exchange.
//
// The grid is partitioned into contiguous row bands; every band owns a
// PRIVATE replica of the occupancy/index planes covering its rows plus
// `halo` exchange rows each side (halo = max(1, scan.range)), laid out
// exactly like the environment's padded rows — stride-pitched, kWallOcc
// sentinel framing, off-grid halo rows all-sentinel (PR 7's halo rows
// reused as the exchange buffers). Each step:
//
//   1. Halo exchange (host thread, ascending band order): rows dirtied
//      since the last step — move sources/targets, door rects — are
//      re-copied from the canonical environment into every band window
//      containing them, interior and halo alike. Fixed order + full-row
//      copies make seam resolution deterministic by construction.
//   2. Tour construction (with initial calculation fused into it) slices
//      the agent table into as many ranges as bands and reads the
//      canonical environment. Movement runs one pool task per band,
//      reading ONLY the band's replica planes (its probes reach one row
//      out, inside the window) and walking the band's rows of the
//      proposal planes to find its cells.
//   3. Per-band move scratch merges in ascending band order — the
//      monolithic engine's row-major order — and the shared finish_step
//      applies it to the canonical environment.
//
// Because every replica byte equals the canonical byte for every probed
// cell, iteration order is globally row-major, and all RNG streams stay
// keyed on GLOBAL coordinates ((seed, stage, flat cell / agent, step)),
// the engine is bit-identical to core::CpuSimulator at any band count and
// any thread count — the property shard_test and the golden corpus pin.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/rules.hpp"
#include "core/simulator.hpp"

namespace pedsim::backend {

class ShardedCpuSimulator final : public core::Simulator {
  public:
    /// `bands` <= 0 means one band per effective engine thread, clamped
    /// to the row count so every band owns at least one row. An EXPLICIT
    /// request above the row count is rejected with a named
    /// std::invalid_argument ("bands (N) exceeds grid rows (R)") instead
    /// of silently producing degenerate empty bands.
    ShardedCpuSimulator(const core::SimConfig& config, int bands);
    /// Warm-setup variant: reuse a precomputed door schedule (see the
    /// Simulator base-class contract).
    ShardedCpuSimulator(const core::SimConfig& config, int bands,
                        std::shared_ptr<const core::DoorSchedule> warm);

    [[nodiscard]] int bands() const { return static_cast<int>(bands_.size()); }
    /// Global [begin, end) row range owned by band b.
    [[nodiscard]] std::pair<int, int> band_rows(int b) const {
        const auto& band = bands_[static_cast<std::size_t>(b)];
        return {band.begin, band.end};
    }
    /// Exchange-row halo width (max(1, scan.range)).
    [[nodiscard]] int halo_width() const { return halo_; }
    /// Total band-plane rows refreshed by halo exchanges so far — the
    /// communication-volume counter a distributed backend would report.
    [[nodiscard]] std::uint64_t rows_exchanged() const {
        return rows_exchanged_;
    }

  protected:
    void stage_reset() override;
    void stage_tour_construction() override;
    void stage_movement(std::vector<core::Move>& out_moves) override;
    void on_cells_changed(int row0, int row1) override;

  private:
    struct Band {
        int begin = 0;      ///< first owned global row
        int end = 0;        ///< one past the last owned global row
        int win_begin = 0;  ///< first replicated global row (begin - halo)
        int win_end = 0;    ///< one past the last replicated row (end + halo)
        /// Replica planes: (win_end - win_begin) stride-pitched rows, the
        /// same byte layout as the environment's padded storage.
        std::vector<std::uint8_t> occ;
        std::vector<std::int32_t> idx;
        /// Window views with GLOBAL (r, c) addressing into the planes.
        core::EnvEmpty empty;
        core::EnvIndex index;
        /// Per-band movement output.
        std::vector<core::Move> moves;
    };

    /// Copy global row `gr`'s occupancy/index images from the canonical
    /// environment into band (interior or halo — whichever the window
    /// covers). Off-grid rows were sentinel-filled at construction and are
    /// never refreshed.
    void refresh_row(Band& band, int gr);
    /// The deterministic per-step exchange: every dirty row, every band
    /// window containing it, ascending band order.
    void exchange_halos();

    void movement_band(Band& band);

    int halo_ = 1;
    std::vector<Band> bands_;
    /// Per-global-row dirty flags accumulated between exchanges (move
    /// sources/targets from the previous step, door rects from this one).
    std::vector<std::uint8_t> dirty_;
    std::uint64_t rows_exchanged_ = 0;
};

}  // namespace pedsim::backend
