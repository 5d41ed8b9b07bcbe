#include "core/door_schedule.hpp"

#include <algorithm>
#include <unordered_set>

#include "grid/field_store.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pedsim::core {

std::vector<DoorEvent> expand_dynamic_events(
    const std::vector<DoorEvent>& doors,
    const std::vector<CycleEvent>& cycles,
    const std::vector<MoverEvent>& movers) {
    std::vector<DoorEvent> out = doors;

    for (const auto& cy : cycles) {
        for (std::uint64_t i = 0; i < cy.repeats; ++i) {
            const std::uint64_t open_step = cy.start + i * cy.period;
            out.push_back({open_step, cy.row0, cy.col0, cy.row1, cy.col1,
                           DoorAction::kOpen});
            out.push_back({open_step + cy.duty, cy.row0, cy.col0, cy.row1,
                           cy.col1, DoorAction::kClose});
        }
    }

    for (const auto& mv : movers) {
        for (std::uint64_t i = 0; i < mv.count; ++i) {
            const std::uint64_t step = mv.start + i * mv.interval;
            const auto p = static_cast<int>(i);
            // Open the vacated position first, then close the translated
            // one: the one-cell overlap re-closes, and agents under the
            // leading edge are swept like any closing door.
            out.push_back({step, mv.row0 + p * mv.drow,
                           mv.col0 + p * mv.dcol, mv.row1 + p * mv.drow,
                           mv.col1 + p * mv.dcol, DoorAction::kOpen});
            out.push_back({step, mv.row0 + (p + 1) * mv.drow,
                           mv.col0 + (p + 1) * mv.dcol,
                           mv.row1 + (p + 1) * mv.drow,
                           mv.col1 + (p + 1) * mv.dcol, DoorAction::kClose});
        }
    }
    return out;
}

DoorSchedule::DoorSchedule(const SimConfig& config,
                           grid::FieldStore* store) {
    obs::Span span("setup/door_schedule");
    // Touch both cache counters up front so the summary's derived hit-rate
    // line prints even for schedules that never hit (or never miss).
    obs::MetricsRegistry::add("doors.field_cache.hit", 0);
    obs::MetricsRegistry::add("doors.field_cache.miss", 0);
    validate(config);
    events_ = expand_dynamic_events(config.doors, config.cycles,
                                    config.movers);
    std::stable_sort(events_.begin(), events_.end(),
                     [](const DoorEvent& a, const DoorEvent& b) {
                         return a.step < b.step;
                     });

    // Doors toggle walls, so any event forces the geodesic mode even when
    // the initial layout is wall-free; without events the static choice of
    // PR 1 (analytic unless the layout needs geodesic) is reproduced.
    const bool geodesic =
        config.layout.needs_geodesic() || !events_.empty();

    const std::size_t cells = config.grid.cell_count();
    std::vector<std::uint8_t> mask(cells, 0);
    for (const auto cell : config.layout.wall_cells) mask[cell] = 1;

    // Waypoint chains share one field per DISTINCT cell (a cell revisited
    // later in a chain, or used by both groups, is one build, not two).
    for (const auto& chain : config.layout.waypoints) {
        wp_cells_.insert(wp_cells_.end(), chain.begin(), chain.end());
    }
    std::sort(wp_cells_.begin(), wp_cells_.end());
    wp_cells_.erase(std::unique(wp_cells_.begin(), wp_cells_.end()),
                    wp_cells_.end());

    const auto snapshot = [&mask] {
        std::vector<std::uint32_t> walls;
        for (std::size_t i = 0; i < mask.size(); ++i) {
            if (mask[i]) walls.push_back(static_cast<std::uint32_t>(i));
        }
        return walls;
    };
    grid::FieldStore private_store;
    grid::FieldStore& fields = store != nullptr ? *store : private_store;
    // Working memory of every repair below; local to this build, because
    // schedules are built concurrently (server executors).
    grid::GeodesicScratch scratch;
    // Fields already in pool_ or wp_pool_: a store hit on one of these is
    // a configuration this schedule revisits, any other hit a field
    // adopted from another schedule.
    std::unordered_set<const grid::DistanceField*> held;
    // The field of `key`: the store's resident copy, else make()'s, which
    // becomes resident. Returns it with whether this schedule held it.
    const auto share = [&](grid::FieldKey key,
                           std::vector<grid::FieldStore::Field>& pool,
                           const auto& make) {
        auto field = fields.find(key);
        bool built = false;
        if (field == nullptr) {
            auto mine = std::make_shared<const grid::DistanceField>(make());
            field = fields.insert(std::move(key), mine);
            built = field == mine;
        }
        const bool revisit = !held.insert(field.get()).second;
        if (!revisit) {
            if (!built) obs::MetricsRegistry::add("doors.field_store.shared");
            pool.push_back(field);
        }
        return std::make_pair(field.get(), revisit);
    };
    const auto intern = [&](std::vector<std::uint32_t> walls) {
        // A new configuration is one event away from the one interned
        // just before it: its fields are repaired from that one's instead
        // of built from scratch. Only the initial layout is built fresh,
        // and only it can be analytic (a second configuration means
        // events, and events force geodesic mode).
        const bool fresh = walls_after_.empty();
        const auto [field, revisit] = share(
            {geodesic ? grid::FieldKey::Kind::kGeodesic
                      : grid::FieldKey::Kind::kAnalytic,
             config.grid, config.layout.goal_cells, walls},
            pool_, [&] {
                obs::Span build("setup/field_build", "walls",
                                static_cast<std::int64_t>(walls.size()));
                if (!fresh) {
                    return after_.back()->repaired(walls_after_.back(), walls,
                                                   config.layout.goal_cells,
                                                   scratch);
                }
                return geodesic ? grid::DistanceField(config.grid, walls,
                                                      config.layout.goal_cells)
                                : grid::DistanceField(config.grid);
            });
        // Phases often revisit a configuration (open ... close back); its
        // fields, waypoint fields included, are the ones it had.
        obs::MetricsRegistry::add(revisit ? "doors.field_cache.hit"
                                          : "doors.field_cache.miss");
        std::vector<const grid::DistanceField*> wps;
        wps.reserve(wp_cells_.size());
        if (!wp_cells_.empty()) {
            obs::Span build("setup/waypoint_fields", "cells",
                            static_cast<std::int64_t>(wp_cells_.size()));
            for (std::size_t slot = 0; slot < wp_cells_.size(); ++slot) {
                // Always geodesic: a waypoint is a single in-grid target,
                // and its field must honour whatever walls this phase has.
                const auto cell = wp_cells_[slot];
                grid::FieldKey key{grid::FieldKey::Kind::kSharedTarget,
                                   config.grid, {}, walls};
                key.goals[0] = {cell};
                const auto make = [&] {
                    if (fresh) {
                        return grid::DistanceField::shared_target(
                            config.grid, walls, cell);
                    }
                    return wp_after_.back()[slot]->repaired_shared_target(
                        walls_after_.back(), walls, cell, scratch);
                };
                wps.push_back(share(std::move(key), wp_pool_, make).first);
            }
        }
        wp_after_.push_back(std::move(wps));
        walls_after_.push_back(std::move(walls));
        after_.push_back(field);
    };

    // The initial configuration is the layout's wall list; reading it back
    // from the mask would scan every cell of the grid.
    std::vector<std::uint32_t> walls = config.layout.wall_cells;
    std::sort(walls.begin(), walls.end());
    walls.erase(std::unique(walls.begin(), walls.end()), walls.end());
    intern(std::move(walls));
    for (const auto& e : events_) {
        const std::uint8_t v = e.action == DoorAction::kClose ? 1 : 0;
        for (int r = e.row0; r <= e.row1; ++r) {
            for (int c = e.col0; c <= e.col1; ++c) {
                mask[static_cast<std::size_t>(r) * config.grid.cols +
                     static_cast<std::size_t>(c)] = v;
            }
        }
        intern(snapshot());
    }
}

}  // namespace pedsim::core
