// The simulation environment: the paper's `mat` occupancy matrix plus the
// parallel index matrix that maps an occupied cell to the row of the
// property/scan matrices describing its agent (section IV.a, Fig. 2a/2b).
//
// Storage layout: rows are padded to kRowAlign bytes and framed by
// kWallOcc sentinels —
//
//   stride = round_up(cols + 2, kRowAlign)
//   padded row r = [sentinel][cols logical cells][trailing pad....]
//   plus one all-sentinel halo row above (r = -1) and below (r = rows)
//
// so `padded(r, c) = (r + 1) * stride + (c + 1)` is valid for every
// r in [-1, rows], c in [-1, stride - 2], and a read there answers the
// walkability question branch-free: off-grid and walls are kWallOcc in
// occupancy (index 0), exactly the SIMT halo loaders' edge semantics. The
// index matrix shares the geometry with 0-filled framing.
//
// `flat(r, c)` stays the LOGICAL row-major id (r * cols + c): it keys the
// movement-stage RNG streams, DistanceField cells and scenario-file cell
// ids, none of which may ever depend on padding.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "grid/neighborhood.hpp"

namespace pedsim::grid {

/// Occupancy sentinel for a static wall cell. The SIMT halo loaders already
/// use this value for off-grid cells, so in-grid walls flow through both
/// engines' emptiness tests with zero new branches: any non-zero occupancy
/// blocks movement, and a wall's index stays 0 so it never proposes,
/// gathers, or deposits. The padded-row framing reuses it, so one
/// occupancy read treats "off grid" and "wall" alike.
inline constexpr std::uint8_t kWallOcc = 255;

/// Row alignment of the padded storage, in bytes. One 64-bit word of the
/// host engine's proposal plane covers one 64-byte block of a padded row.
inline constexpr int kRowAlign = 64;

/// Geometry of the environment. The paper fixes 480x480 and requires
/// dimensions to be multiples of the 16x16 tile edge.
struct GridConfig {
    int rows = 480;
    int cols = 480;

    /// Paper tile edge (16x16 threads = 256 = full occupancy block on
    /// compute capability 2.0).
    static constexpr int kTileEdge = 16;

    [[nodiscard]] bool tile_aligned() const {
        return rows % kTileEdge == 0 && cols % kTileEdge == 0 && rows > 0 &&
               cols > 0;
    }
    [[nodiscard]] std::size_t cell_count() const {
        return static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
    }

    bool operator==(const GridConfig&) const = default;
};

/// Occupancy + index state of the grid. Cheap to copy (two flat vectors);
/// the engines snapshot it when they need a frozen view of a step.
class Environment {
  public:
    explicit Environment(GridConfig config);

    [[nodiscard]] const GridConfig& config() const { return config_; }
    [[nodiscard]] int rows() const { return config_.rows; }
    [[nodiscard]] int cols() const { return config_.cols; }

    [[nodiscard]] bool in_bounds(int r, int c) const {
        return r >= 0 && r < config_.rows && c >= 0 && c < config_.cols;
    }

    /// Group label occupying cell (r, c); Group::kNone when empty.
    [[nodiscard]] Group occupancy(int r, int c) const {
        return static_cast<Group>(occupancy_[padded(r, c)]);
    }
    /// 1-based property-table row of the agent at (r, c); 0 when empty.
    [[nodiscard]] std::int32_t index_at(int r, int c) const {
        return index_[padded(r, c)];
    }
    [[nodiscard]] bool empty(int r, int c) const {
        return occupancy_[padded(r, c)] == 0;
    }
    [[nodiscard]] bool is_wall(int r, int c) const {
        return occupancy_[padded(r, c)] == kWallOcc;
    }

    /// True when an agent could stand at (r, c): in bounds, no wall, no
    /// other agent. Positions off the grid read as walls (an agent can
    /// never move off the edge).
    [[nodiscard]] bool walkable(int r, int c) const {
        return in_bounds(r, c) && empty(r, c);
    }

    void place(int r, int c, Group g, std::int32_t index);
    void clear(int r, int c);
    /// Move the contents of (fr, fc) to the empty cell (tr, tc). Inline:
    /// finish_step calls it once per move.
    void move(int fr, int fc, int tr, int tc) {
        if (!in_bounds(fr, fc) || !in_bounds(tr, tc)) {
            throw std::out_of_range("move: off-grid");
        }
        const auto from = padded(fr, fc);
        const auto to = padded(tr, tc);
        if (occupancy_[from] == 0) {
            throw std::logic_error("move: source empty");
        }
        if (occupancy_[to] != 0) {
            throw std::logic_error("move: target occupied");
        }
        occupancy_[to] = occupancy_[from];
        index_[to] = index_[from];
        occupancy_[from] = 0;
        index_[from] = 0;
    }

    /// Turn the empty cell (r, c) into a wall (occupancy kWallOcc,
    /// index 0). Layout walls are placed before agents; timed door events
    /// (core::DoorEvent) may add walls mid-run at step boundaries — and
    /// remove them again via clear().
    void set_wall(int r, int c);

    /// LOGICAL row-major cell id — the RNG-stream / DistanceField /
    /// scenario-file key. Never storage-dependent.
    [[nodiscard]] std::size_t flat(int r, int c) const {
        return static_cast<std::size_t>(r) * config_.cols +
               static_cast<std::size_t>(c);
    }

    /// Padded storage offset of (r, c); valid over the full sentinel frame
    /// (r in [-1, rows], c in [-1, stride() - 2]).
    [[nodiscard]] std::size_t padded(int r, int c) const {
        return static_cast<std::size_t>(r + 1) *
                   static_cast<std::size_t>(stride_) +
               static_cast<std::size_t>(c + 1);
    }
    /// Padded bytes per row (multiple of kRowAlign).
    [[nodiscard]] int stride() const { return stride_; }
    /// 64-bit mask words per padded row.
    [[nodiscard]] int bit_words() const { return stride_ / 64; }

    /// Pointer to logical column 0 of row r (r in [-1, rows]); columns
    /// -1 .. stride() - 2 are addressable around it. occ_row(0) with
    /// stride() is the SIMT engines' global-memory view base.
    [[nodiscard]] const std::uint8_t* occ_row(int r) const {
        return occupancy_.data() + padded(r, 0);
    }
    [[nodiscard]] const std::int32_t* idx_row(int r) const {
        return index_.data() + padded(r, 0);
    }

    /// Raw PADDED storage (framing sentinels included); size is
    /// (rows + 2) * stride(). Index with padded(), never flat().
    [[nodiscard]] const std::vector<std::uint8_t>& occupancy_raw() const {
        return occupancy_;
    }
    [[nodiscard]] const std::vector<std::int32_t>& index_raw() const {
        return index_;
    }

    /// Number of cells occupied by agents, excluding walls (linear scan;
    /// used by tests/invariants).
    [[nodiscard]] std::size_t population() const;
    /// Number of static wall cells.
    [[nodiscard]] std::size_t wall_count() const;

    bool operator==(const Environment&) const = default;

  private:
    GridConfig config_;
    int stride_ = 0;
    std::vector<std::uint8_t> occupancy_;  // Group labels, 0 = empty
    std::vector<std::int32_t> index_;      // 1-based agent indices, 0 = empty
};

}  // namespace pedsim::grid
