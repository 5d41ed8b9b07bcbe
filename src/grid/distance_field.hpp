// Distance-to-target geometry (the paper's constant-memory distance matrix).
//
// Two modes share one interface:
//
//  - Analytic (the paper's corridor): each group's target is the far edge
//    row. The effort of standing at cell (r, c) is the Euclidean distance to
//    the closest point of the target row, which for a straight-ahead walker
//    is the point (target_row, c). Moving to a lateral/diagonal neighbour
//    adds a column displacement, so neighbour distances order exactly as the
//    paper describes (section IV.b): forward < forward-diagonals < laterals
//    < back < back-diagonals.
//
//  - Geodesic (obstacle-aware scenarios): per-group multi-source shortest
//    paths from the group's goal cells over the 8-neighbourhood of non-wall
//    cells (orthogonal step 1, diagonal step sqrt 2), precomputed flat at
//    construction like the paper's constant memory. A field is built with a
//    bucket queue of width 1 (Dial's algorithm) over a copy of the grid
//    framed by one wall cell, or repaired from the field of a neighbouring
//    wall configuration by recomputing only the cells whose distance
//    depended on a changed cell. Every finite distance is a sum of 1 and
//    sqrt 2 steps and the fixed point of the relaxation is unique, so both
//    produce bit for bit the table a priority-queue Dijkstra would
//    (docs/PERFORMANCE.md, "Set-up: geodesic fields"). Scenarios without
//    walls or custom goals use the analytic mode, so seed behaviour is
//    untouched.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "grid/environment.hpp"
#include "grid/neighborhood.hpp"

namespace pedsim::grid {

/// Working memory of geodesic builds and repairs: the framed distance
/// table, the bucket queue and the repair worklists. It carries nothing
/// from one build to the next, so a sequence of builds can share one and
/// skip the allocations (core::DoorSchedule keeps one per schedule). Not
/// safe to use from two threads at once.
class GeodesicScratch {
  private:
    friend class DistanceField;

    /// A queued cell (framed index) with the distance it was queued at;
    /// an entry whose distance no longer matches the table is stale.
    struct Entry {
        double d;
        std::ptrdiff_t cell;
    };

    /// Both write one cell_count() table at `out`; `before` is the
    /// table being repaired.
    void build(const GridConfig& config,
               const std::vector<std::uint32_t>& walls,
               const std::vector<std::uint32_t>& goals, double* out);
    void repair(const GridConfig& config, const double* before,
                const std::vector<std::uint32_t>& walls_before,
                const std::vector<std::uint32_t>& walls,
                const std::vector<std::uint32_t>& goals, double* out);

    void mark_walls(const GridConfig& config,
                    const std::vector<std::uint32_t>& walls);
    void seed_goals(const GridConfig& config,
                    const std::vector<std::uint32_t>& goals);
    void propagate(const GridConfig& config);
    void store(const GridConfig& config, double* out) const;

    /// Group distances over a (rows + 2) x (cols + 2) grid whose frame and
    /// walls hold -1, so no relaxation can lower them: the pop loop needs
    /// no bounds or wall tests.
    std::vector<double> dist_;
    std::vector<Entry> seeds_;
    /// Circular buckets: bucket k holds distances in [k, k + 1). A step
    /// adds at most sqrt 2, so only buckets k .. k + 2 are ever live.
    std::array<std::vector<Entry>, 4> buckets_;
    std::vector<std::uint32_t> closed_, opened_;     // flat ids
    std::vector<std::ptrdiff_t> work_, invalid_;     // framed indices
};

/// Precomputed distance tables for both groups. Immutable after
/// construction — the paper stores the equivalent in GPU constant memory.
class DistanceField {
  public:
    /// Geodesic distance of a cell walled off from every goal.
    static constexpr double kUnreachable = 1e30;

    /// Analytic mode: empty corridor, goal = the group's far edge row.
    explicit DistanceField(GridConfig config);

    /// Geodesic mode: `wall_cells` are flat ids of static walls;
    /// `goal_cells[g]` are flat ids of group g's goal cells (empty = the
    /// group's far edge row). A group whose goals are all walls gets an
    /// all-unreachable field (legal for groups that field no agents).
    /// Throws std::invalid_argument for an off-grid wall or goal cell.
    DistanceField(GridConfig config,
                  const std::vector<std::uint32_t>& wall_cells,
                  const std::array<std::vector<std::uint32_t>, 2>& goal_cells);

    /// Geodesic shared-target mode: both groups steer toward the single
    /// flat cell `target_cell` (the waypoint fields: one field per
    /// distinct chain cell, read by whichever group's agents currently
    /// target it). Both groups read one table, so a waypoint field costs
    /// half of the two-group constructor in time and memory. A target
    /// that is currently a wall yields an all-unreachable field (a
    /// waypoint inside a closed door: agents hold by rank order until it
    /// opens). Throws std::invalid_argument for an off-grid target or wall
    /// cell.
    static DistanceField shared_target(
        GridConfig config, const std::vector<std::uint32_t>& wall_cells,
        std::uint32_t target_cell);

    /// The field of the same goals under the walls `wall_cells`, repaired
    /// from this field, which holds them under `walls_before`. Both lists
    /// are sorted and deduplicated. Cells whose distance depended on a
    /// closed cell are recomputed, opened cells are seeded from their
    /// neighbours, and decreases spread from there; every other cell is
    /// copied. The result equals the freshly built field bit for bit.
    /// Geodesic mode only.
    [[nodiscard]] DistanceField repaired(
        const std::vector<std::uint32_t>& walls_before,
        const std::vector<std::uint32_t>& wall_cells,
        const std::array<std::vector<std::uint32_t>, 2>& goal_cells,
        GeodesicScratch& scratch) const;

    /// repaired() for a field made by shared_target(target_cell).
    [[nodiscard]] DistanceField repaired_shared_target(
        const std::vector<std::uint32_t>& walls_before,
        const std::vector<std::uint32_t>& wall_cells,
        std::uint32_t target_cell, GeodesicScratch& scratch) const;

    [[nodiscard]] bool geodesic() const { return geodesic_; }

    /// Bytes of the distance tables this field holds (a shared-target
    /// field's one table counts once).
    [[nodiscard]] std::size_t bytes() const;

    [[nodiscard]] int target_row(Group g) const {
        return g == Group::kTop ? config_.rows - 1 : 0;
    }

    /// Remaining-effort distance of standing at row r with lateral
    /// displacement dc relative to the agent's current column.
    /// dc in {-1, 0, +1} for the 8-neighbourhood. Analytic mode only.
    [[nodiscard]] double distance(Group g, int r, int dc) const {
        const int vert = std::abs(target_row(g) - r);
        // Hot path: the three possible hypotenuses per row are precomputed.
        return table_[g == Group::kTop ? 0 : 1][static_cast<std::size_t>(vert)]
                     [static_cast<std::size_t>(std::abs(dc))];
    }

    /// Geodesic distance-to-goal of cell (r, c). Geodesic mode only.
    [[nodiscard]] double geo(Group g, int r, int c) const {
        return geo_[geo_offset_[g == Group::kTop ? 0 : 1] +
                    static_cast<std::size_t>(r) * config_.cols +
                    static_cast<std::size_t>(c)];
    }

    /// Raw flat geodesic table of group g (logical `cols` pitch).
    /// Geodesic mode only.
    [[nodiscard]] const double* geo_data(Group g) const {
        return geo_.data() + geo_offset_[g == Group::kTop ? 0 : 1];
    }

    /// Remaining-effort of the CANDIDATE cell (r, c) for an agent standing
    /// at column c - dc — the one call the movement rules make. Analytic
    /// mode reproduces the paper's table bit-exactly; geodesic mode reads
    /// the precomputed field (where the lateral component is already part
    /// of the metric).
    [[nodiscard]] double cost(Group g, int r, int c, int dc) const {
        return geodesic_ ? geo(g, r, c) : distance(g, r, dc);
    }

    /// True once an agent at row r has reached (or passed) the crossing
    /// line: within `margin` rows of the target edge. Analytic mode only.
    [[nodiscard]] bool crossed(Group g, int r, int margin) const {
        return g == Group::kTop ? r >= config_.rows - margin : r < margin;
    }

    /// Position-aware crossing test used by the engines. Analytic mode
    /// reduces exactly to crossed(g, r, margin); geodesic mode checks the
    /// goal distance (on an empty grid with edge-row goals the two agree on
    /// every cell).
    [[nodiscard]] bool crossed_at(Group g, int r, int c, int margin) const {
        if (!geodesic_) return crossed(g, r, margin);
        return geo(g, r, c) < static_cast<double>(margin);
    }

    /// Finite stand-in for kUnreachable when two fields are blended (see
    /// BlendedField): any real geodesic distance on this grid is below
    /// 2 * cell_count (a path visits each walkable cell at most once at
    /// step cost <= sqrt 2), so capping at it preserves every ordering
    /// among reachable cells while keeping sealed-off cells orderable by
    /// the other phase's field — 1e30 would swallow the blend partner in
    /// double rounding.
    [[nodiscard]] double blend_cap() const {
        return 2.0 * static_cast<double>(config_.cell_count());
    }

  private:
    /// Switch to geodesic mode with `tables` zeroed tables (2: one per
    /// group; 1: one both groups read).
    void allocate(std::size_t tables);
    /// Group g's table, for the builds that fill it.
    [[nodiscard]] double* table(Group g) {
        return geo_.data() + geo_offset_[g == Group::kTop ? 0 : 1];
    }

    /// Group g's goal list: its custom cells, or its far edge row.
    [[nodiscard]] std::vector<std::uint32_t> goals_of(
        Group g,
        const std::array<std::vector<std::uint32_t>, 2>& goal_cells) const;

    GridConfig config_;
    bool geodesic_ = false;
    // Analytic: [group][|target_row - r|][|dc|] -> Euclidean distance. The
    // vertical distance fully determines the value, so one row-indexed
    // table per group suffices (and stays cache-resident like constant
    // memory).
    std::array<std::vector<std::array<double, 2>>, 2> table_;
    // Geodesic: flat cell -> distance to the nearest goal cell, one table
    // per group, or one table both groups read (shared target). Group g's
    // table starts at geo_offset_[g].
    std::vector<double> geo_;
    std::array<std::size_t, 2> geo_offset_{0, 0};
};

/// Hot-path cost view for anticipatory routing: the current phase's field,
/// optionally blended with the NEXT phase's field as a door event nears
/// (convex combination with weight `w` on the next phase). With no next
/// field the lookup forwards to the current field untouched — bit-exact
/// with the pre-anticipation path — so engines can route every candidate
/// lookup through one view. Blending clamps kUnreachable to the field's
/// finite blend_cap() first; sealed-off cells (all equally unreachable
/// now) then order by the upcoming phase's distances, which is exactly
/// the pre-staging behaviour anticipation wants. Crossing tests must keep
/// using the real DistanceField — this view scores candidates only.
class BlendedField {
  public:
    BlendedField() = default;
    explicit BlendedField(const DistanceField* now) : now_(now) {}
    BlendedField(const DistanceField* now, const DistanceField* next,
                 double weight)
        : now_(now), next_(next), weight_(weight) {}

    [[nodiscard]] bool blending() const { return next_ != nullptr; }

    /// Candidate cost of cell (r, c) for an agent displaced dc laterally —
    /// same contract as DistanceField::cost.
    [[nodiscard]] double cost(Group g, int r, int c, int dc) const {
        const double base = now_->cost(g, r, c, dc);
        if (next_ == nullptr) return base;
        const double cap = now_->blend_cap();
        const double a = base < cap ? base : cap;
        const double b0 = next_->cost(g, r, c, dc);
        const double b = b0 < cap ? b0 : cap;
        return (1.0 - weight_) * a + weight_ * b;
    }

  private:
    const DistanceField* now_ = nullptr;
    const DistanceField* next_ = nullptr;
    double weight_ = 0.0;
};

}  // namespace pedsim::grid
