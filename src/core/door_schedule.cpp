#include "core/door_schedule.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "grid/field_store.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pedsim::core {

namespace {

/// Expansion ceiling per cycle/mover: scenario files carry full-uint64
/// counters, and a typo'd repeats/count would otherwise materialize
/// billions of DoorEvents at parse time (and, for movers, wrap the
/// int-typed final-position bounds check). 2^15 firings is far beyond any
/// plausible run length while keeping one authored line's expansion small.
constexpr std::uint64_t kMaxFirings = 1u << 15;

/// Step ceiling for cycle/mover parameters: the expansion computes
/// `start + k * period (+ duty)` in uint64, and scenario files accept
/// full-range counters — unchecked, a huge start/period wraps and emits
/// a close event near step 0 with no matching open. With start, period
/// and interval below 2^32 and k below kMaxFirings, every expanded step
/// stays under 2^48: no wrap, and still beyond any reachable run length.
constexpr std::uint64_t kMaxEventStep = 1ull << 32;

void check_rect(const std::string& label, int row0, int col0, int row1,
                int col1, const grid::GridConfig& grid) {
    if (row0 < 0 || col0 < 0 || row1 < row0 || col1 < col0 ||
        row1 >= grid.rows || col1 >= grid.cols) {
        throw std::invalid_argument(
            label + ": rect out of bounds for " + std::to_string(grid.rows) +
            "x" + std::to_string(grid.cols) + " grid");
    }
}

}  // namespace

void validate_doors(const std::vector<DoorEvent>& doors,
                    const grid::GridConfig& grid) {
    for (std::size_t k = 0; k < doors.size(); ++k) {
        const auto& e = doors[k];
        check_rect("door event " + std::to_string(k) + " (step " +
                       std::to_string(e.step) + ")",
                   e.row0, e.col0, e.row1, e.col1, grid);
    }
}

void validate_waypoints(const ScenarioLayout& layout,
                        const grid::GridConfig& grid) {
    if (layout.waypoint_radius < 0) {
        throw std::invalid_argument(
            "waypoint_radius must be non-negative, got " +
            std::to_string(layout.waypoint_radius));
    }
    std::vector<std::uint32_t> walls = layout.wall_cells;
    std::sort(walls.begin(), walls.end());
    const std::size_t cells = grid.cell_count();
    for (std::size_t g = 0; g < layout.waypoints.size(); ++g) {
        const auto& chain = layout.waypoints[g];
        const std::string who = g == 0 ? "top" : "bottom";
        if (chain.size() > 255) {
            throw std::invalid_argument(
                who + " waypoint chain too long (" +
                std::to_string(chain.size()) + " entries; max 255)");
        }
        for (std::size_t k = 0; k < chain.size(); ++k) {
            if (chain[k] >= cells) {
                throw std::invalid_argument(
                    who + " waypoint " + std::to_string(k) +
                    ": cell off-grid for " + std::to_string(grid.rows) +
                    "x" + std::to_string(grid.cols) + " grid");
            }
            if (std::binary_search(walls.begin(), walls.end(), chain[k])) {
                throw std::invalid_argument(
                    who + " waypoint " + std::to_string(k) +
                    ": cell is a wall");
            }
        }
    }
}

std::vector<DoorEvent> expand_dynamic_events(
    const std::vector<DoorEvent>& doors,
    const std::vector<CycleEvent>& cycles,
    const std::vector<MoverEvent>& movers, const grid::GridConfig& grid) {
    validate_doors(doors, grid);
    std::vector<DoorEvent> out = doors;

    for (std::size_t k = 0; k < cycles.size(); ++k) {
        const auto& cy = cycles[k];
        check_rect("cycle event " + std::to_string(k), cy.row0, cy.col0,
                   cy.row1, cy.col1, grid);
        if (cy.period == 0 || cy.duty == 0 || cy.duty >= cy.period ||
            cy.repeats == 0) {
            throw std::invalid_argument(
                "cycle event " + std::to_string(k) +
                ": needs 0 < duty < period and repeats >= 1");
        }
        if (cy.repeats > kMaxFirings) {
            throw std::invalid_argument(
                "cycle event " + std::to_string(k) + ": repeats " +
                std::to_string(cy.repeats) + " exceeds the expansion "
                "ceiling of " + std::to_string(kMaxFirings));
        }
        if (cy.start > kMaxEventStep || cy.period > kMaxEventStep) {
            throw std::invalid_argument(
                "cycle event " + std::to_string(k) +
                ": start/period exceed the step ceiling of 2^32");
        }
        for (std::uint64_t i = 0; i < cy.repeats; ++i) {
            const std::uint64_t open_step = cy.start + i * cy.period;
            out.push_back({open_step, cy.row0, cy.col0, cy.row1, cy.col1,
                           DoorAction::kOpen});
            out.push_back({open_step + cy.duty, cy.row0, cy.col0, cy.row1,
                           cy.col1, DoorAction::kClose});
        }
    }

    for (std::size_t k = 0; k < movers.size(); ++k) {
        const auto& mv = movers[k];
        if (mv.interval == 0 || mv.count == 0 || mv.drow < -1 ||
            mv.drow > 1 || mv.dcol < -1 || mv.dcol > 1 ||
            (mv.drow == 0 && mv.dcol == 0)) {
            throw std::invalid_argument(
                "mover event " + std::to_string(k) +
                ": needs interval >= 1, count >= 1, and a unit king-move "
                "(drow, dcol)");
        }
        if (mv.count > kMaxFirings) {
            throw std::invalid_argument(
                "mover event " + std::to_string(k) + ": count " +
                std::to_string(mv.count) + " exceeds the expansion "
                "ceiling of " + std::to_string(kMaxFirings));
        }
        if (mv.start > kMaxEventStep || mv.interval > kMaxEventStep) {
            throw std::invalid_argument(
                "mover event " + std::to_string(k) +
                ": start/interval exceed the step ceiling of 2^32");
        }
        // Translation is monotone, so checking the first and last
        // positions bounds every intermediate one. (count is below
        // kMaxFirings here, so the int cast cannot wrap.)
        const std::string label = "mover event " + std::to_string(k);
        check_rect(label, mv.row0, mv.col0, mv.row1, mv.col1, grid);
        const auto n = static_cast<int>(mv.count);
        check_rect(label + " (final position)", mv.row0 + n * mv.drow,
                   mv.col0 + n * mv.dcol, mv.row1 + n * mv.drow,
                   mv.col1 + n * mv.dcol, grid);
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
    events_ = expand_dynamic_events(config.doors, config.cycles,
                                    config.movers, config.grid);
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
    for (const auto cell : config.layout.wall_cells) {
        if (cell >= cells) {
            throw std::invalid_argument("DoorSchedule: wall cell off-grid");
        }
        mask[cell] = 1;
    }

    // Waypoint chains share one field per DISTINCT cell (a cell revisited
    // later in a chain, or used by both groups, is one build, not two).
    validate_waypoints(config.layout, config.grid);
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
