// Phase-cached distance fields for timed door events.
//
// A run with door events passes through a fixed sequence of wall
// configurations ("phases"), each fully determined at setup by the static
// layout plus the sorted event list. DoorSchedule precomputes one geodesic
// DistanceField per *distinct* configuration (an open-then-close pair maps
// both of its outer phases to the same field), so the engines' step hot
// path only swaps a field pointer when an event fires — no field is built
// mid-step. Only the initial layout's fields are built in full; each new
// configuration is repaired from the fields of the configuration one event
// earlier, in time proportional to the cells whose distance the event
// changes, and equals a full build bit for bit. Every field is interned
// through a grid::FieldStore keyed by its content: a revisited
// configuration finds the fields it had, and schedules that share a store
// (a server's cache entries) share every field they have in common. With
// no door events the schedule degenerates to the single static field
// (analytic for the paper corridor, geodesic when the layout has walls or
// custom goals), keeping the seed path untouched.
#pragma once

#include <memory>
#include <vector>

#include "core/config.hpp"
#include "grid/distance_field.hpp"

namespace pedsim::grid {
class FieldStore;
}  // namespace pedsim::grid

namespace pedsim::core {

/// Expand the authored dynamic geometry (plain doors, periodic cycles,
/// moving walls) of a config that validate() accepts into one flat
/// DoorEvent list. Cycles expand to an open at `start + k * period` and a
/// close `duty` steps later; movers expand each firing to an open of the
/// old position followed by a close of the translated one (same step, in
/// that order, so the overlap of the two rects ends up closed). The list
/// is returned in authored order (doors, then cycles, then movers);
/// DoorSchedule stable-sorts it by step, so same-step expanded events keep
/// exactly that relative order.
std::vector<DoorEvent> expand_dynamic_events(
    const std::vector<DoorEvent>& doors,
    const std::vector<CycleEvent>& cycles,
    const std::vector<MoverEvent>& movers);

class DoorSchedule {
  public:
    /// Validates `config` (core::validate), then interns every field
    /// through `store` when one is given (a server passes the one its
    /// cache entries share), else through a store private to this build.
    explicit DoorSchedule(const SimConfig& config,
                          grid::FieldStore* store = nullptr);

    /// Expanded events (doors + cycle and mover expansions) in firing
    /// order: stable-sorted by step, so same-step events apply in their
    /// authored order (doors first, then cycles, then movers).
    [[nodiscard]] const std::vector<DoorEvent>& events() const {
        return events_;
    }

    /// The distance field in effect after the first `fired` events have
    /// been applied (0 = the initial layout). O(1): precomputed.
    [[nodiscard]] const grid::DistanceField& field_after(
        std::size_t fired) const {
        return *after_[fired];
    }

    /// Canonical (sorted, deduped) wall-cell list after the first `fired`
    /// events — the configuration field_after(fired) was built from.
    [[nodiscard]] const std::vector<std::uint32_t>& walls_after(
        std::size_t fired) const {
        return walls_after_[fired];
    }

    /// Distinct fields this schedule references (<= events().size() + 1;
    /// fewer when events revisit an earlier wall configuration), whether
    /// it built them or adopted them from another schedule's store entry.
    [[nodiscard]] std::size_t field_count() const { return pool_.size(); }

    /// Distinct waypoint cells across both groups' chains (sorted,
    /// deduped). Chain entries resolve to slots in this list.
    [[nodiscard]] const std::vector<std::uint32_t>& waypoint_cells() const {
        return wp_cells_;
    }

    /// The distance field of waypoint slot `slot` under the wall
    /// configuration in effect after the first `fired` events — the
    /// chained-field analogue of field_after(). O(1): one field per
    /// (distinct configuration, distinct waypoint cell) pair is
    /// precomputed at setup, and revisited configurations share fields
    /// exactly like the main phase cache.
    [[nodiscard]] const grid::DistanceField& waypoint_field_after(
        std::size_t fired, std::size_t slot) const {
        return *wp_after_[fired][slot];
    }

    /// Distinct waypoint fields this schedule references
    /// (<= (events+1) * slots).
    [[nodiscard]] std::size_t waypoint_field_count() const {
        return wp_pool_.size();
    }

  private:
    std::vector<DoorEvent> events_;
    /// The distinct fields this schedule holds; `after_[k]` points into
    /// it. Shared with every schedule of the same store that holds them.
    std::vector<std::shared_ptr<const grid::DistanceField>> pool_;
    std::vector<const grid::DistanceField*> after_;       // events+1 entries
    std::vector<std::vector<std::uint32_t>> walls_after_; // events+1 entries
    /// Waypoint-field registry: wp_after_[k][slot] is the field steering
    /// agents toward waypoint_cells()[slot] after the first k events.
    std::vector<std::uint32_t> wp_cells_;
    std::vector<std::shared_ptr<const grid::DistanceField>> wp_pool_;
    std::vector<std::vector<const grid::DistanceField*>> wp_after_;
};

}  // namespace pedsim::core
