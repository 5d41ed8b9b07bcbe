// Tests for timed door events: the DoorSchedule phase cache (fields equal
// to freshly built ones, revisited configurations share one field), the
// field store schedules share (one object per distinct field), the
// step-boundary application semantics (occupancy toggling, agents retired
// by a closing door), and the behaviour of the door-driven registry
// scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backend/device.hpp"
#include "core/cpu_simulator.hpp"
#include "core/door_schedule.hpp"
#include "geodesic_oracle.hpp"
#include "grid/field_store.hpp"
#include "io/scenario_file.hpp"
#include "obs/metrics.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

namespace pedsim::core {
namespace {

/// 16x16 config with a full-width wall at rows 7-8 and one agent parked in
/// the top-left corner (region spawns keep the rest of the grid empty).
SimConfig walled_config() {
    SimConfig cfg;
    cfg.grid.rows = cfg.grid.cols = 16;
    for (int r = 7; r <= 8; ++r) {
        for (int c = 0; c < 16; ++c) {
            cfg.layout.wall_cells.push_back(
                static_cast<std::uint32_t>(r * 16 + c));
        }
    }
    cfg.layout.spawns.push_back({grid::Group::kTop, 0, 0, 0, 0, 1});
    return cfg;
}

/// core::validate on a default 16x16 config carrying these events.
void validate_events(std::vector<DoorEvent> doors,
                     std::vector<CycleEvent> cycles = {},
                     std::vector<MoverEvent> movers = {}) {
    SimConfig cfg;
    cfg.grid.rows = cfg.grid.cols = 16;
    cfg.doors = std::move(doors);
    cfg.cycles = std::move(cycles);
    cfg.movers = std::move(movers);
    validate(cfg);
}

// --- Validation --------------------------------------------------------------

TEST(DoorValidation, RejectsOffGridAndInvertedRects) {
    EXPECT_NO_THROW(validate_events({{0, 0, 0, 15, 15, DoorAction::kOpen}}));
    // Off-grid.
    EXPECT_THROW(validate_events({{0, 0, 0, 16, 3, DoorAction::kOpen}}),
                 std::invalid_argument);
    EXPECT_THROW(validate_events({{0, -1, 0, 3, 3, DoorAction::kClose}}),
                 std::invalid_argument);
    // Inverted rect.
    EXPECT_THROW(validate_events({{0, 5, 5, 4, 5, DoorAction::kOpen}}),
                 std::invalid_argument);
}

// --- Phase cache -------------------------------------------------------------

TEST(DoorSchedule, SortsEventsStablyByStep) {
    SimConfig cfg = walled_config();
    cfg.doors.push_back({20, 7, 0, 8, 3, DoorAction::kOpen});
    cfg.doors.push_back({5, 7, 4, 8, 7, DoorAction::kOpen});
    cfg.doors.push_back({5, 7, 8, 8, 11, DoorAction::kOpen});
    const DoorSchedule sched(cfg);
    ASSERT_EQ(sched.events().size(), 3u);
    EXPECT_EQ(sched.events()[0].step, 5u);
    EXPECT_EQ(sched.events()[0].col0, 4);  // config order kept within a step
    EXPECT_EQ(sched.events()[1].step, 5u);
    EXPECT_EQ(sched.events()[1].col0, 8);
    EXPECT_EQ(sched.events()[2].step, 20u);
}

TEST(DoorSchedule, PhaseFieldsMatchFreshlyBuiltFields) {
    // "Fresh" is the priority-queue Dijkstra oracle, not the library's own
    // build, so the repaired phases are checked against an independent
    // implementation.
    SimConfig cfg = walled_config();
    cfg.doors.push_back({5, 7, 4, 8, 7, DoorAction::kOpen});
    cfg.doors.push_back({12, 7, 4, 8, 7, DoorAction::kClose});
    cfg.doors.push_back({20, 3, 0, 4, 15, DoorAction::kClose});
    const DoorSchedule sched(cfg);
    for (std::size_t fired = 0; fired <= sched.events().size(); ++fired) {
        const auto& cached = sched.field_after(fired);
        ASSERT_TRUE(cached.geodesic());
        EXPECT_TRUE(testing::matches_oracle(cfg.grid, cached,
                                            sched.walls_after(fired),
                                            cfg.layout.goal_cells))
            << "fired=" << fired;
    }
}

TEST(DoorSchedule, RegistryFieldsMatchTheDijkstraOracle) {
    // Every registry scenario's phase and waypoint fields, repaired event
    // by event from the initial layout's, equal the oracle built from
    // scratch on that phase's walls. Shared (revisited) fields are
    // checked once.
    std::size_t checked = 0;
    for (const auto& name : scenario::names()) {
        const auto s = scenario::get(name);
        const DoorSchedule sched(s.sim);
        std::vector<const grid::DistanceField*> seen;
        const auto first_visit = [&seen](const grid::DistanceField* f) {
            if (std::find(seen.begin(), seen.end(), f) != seen.end()) {
                return false;
            }
            seen.push_back(f);
            return true;
        };
        for (std::size_t k = 0; k <= sched.events().size(); ++k) {
            SCOPED_TRACE(name + " after " + std::to_string(k) + " events");
            const auto& walls = sched.walls_after(k);
            const auto& field = sched.field_after(k);
            if (field.geodesic() && first_visit(&field)) {
                EXPECT_TRUE(testing::matches_oracle(s.sim.grid, field, walls,
                                                    s.sim.layout.goal_cells));
                ++checked;
            }
            for (std::size_t slot = 0; slot < sched.waypoint_cells().size();
                 ++slot) {
                const auto& wp = sched.waypoint_field_after(k, slot);
                if (!first_visit(&wp)) continue;
                EXPECT_TRUE(testing::matches_oracle_shared(
                    s.sim.grid, wp, walls, sched.waypoint_cells()[slot]));
                ++checked;
            }
        }
    }
    // conveyor_platform alone has 50 distinct phase fields.
    EXPECT_GE(checked, 50u);
}

TEST(DoorSchedule, RevisitedConfigurationSharesOneField) {
    SimConfig cfg = walled_config();
    cfg.doors.push_back({5, 7, 4, 8, 7, DoorAction::kOpen});
    cfg.doors.push_back({12, 7, 4, 8, 7, DoorAction::kClose});  // back shut
    const DoorSchedule sched(cfg);
    EXPECT_EQ(sched.walls_after(0), sched.walls_after(2));
    EXPECT_EQ(&sched.field_after(0), &sched.field_after(2));
    EXPECT_NE(&sched.field_after(0), &sched.field_after(1));
    EXPECT_EQ(sched.field_count(), 2u);  // not 3: phase 2 reuses phase 0
}

TEST(DoorSchedule, NoDoorsDegeneratesToTheStaticChoice) {
    // Empty corridor, no doors: the single cached field is the analytic
    // table (seed path untouched).
    SimConfig corridor;
    const DoorSchedule analytic(corridor);
    EXPECT_EQ(analytic.field_count(), 1u);
    EXPECT_FALSE(analytic.field_after(0).geodesic());
    // Walls without doors: one geodesic field, as in PR 1.
    const DoorSchedule geodesic(walled_config());
    EXPECT_EQ(geodesic.field_count(), 1u);
    EXPECT_TRUE(geodesic.field_after(0).geodesic());
    // Doors on a wall-free layout force geodesic mode from phase 0.
    SimConfig doored;
    doored.grid.rows = doored.grid.cols = 16;
    doored.agents_per_side = 4;
    doored.doors.push_back({5, 7, 0, 8, 15, DoorAction::kClose});
    const DoorSchedule forced(doored);
    EXPECT_TRUE(forced.field_after(0).geodesic());
}

// --- Field store --------------------------------------------------------------

/// True when two fields hold the same tables bit for bit.
bool same_tables(const grid::DistanceField& a, const grid::DistanceField& b,
                 const grid::GridConfig& grid) {
    if (a.geodesic() != b.geodesic() || a.bytes() != b.bytes()) return false;
    for (const auto g : {grid::Group::kTop, grid::Group::kBottom}) {
        if (!a.geodesic()) {
            for (int r = 0; r < grid.rows; ++r) {
                for (const int dc : {0, 1}) {
                    if (a.distance(g, r, dc) != b.distance(g, r, dc)) {
                        return false;
                    }
                }
            }
        } else if (std::memcmp(a.geo_data(g), b.geo_data(g),
                               grid.cell_count() * sizeof(double)) != 0) {
            return false;
        }
    }
    return true;
}

/// `s` with every door, cycle and mover firing `by` steps later: the
/// same wall configurations at other times.
scenario::Scenario shifted(scenario::Scenario s, std::uint64_t by) {
    for (auto& d : s.sim.doors) d.step += by;
    for (auto& c : s.sim.cycles) c.start += by;
    for (auto& m : s.sim.movers) m.start += by;
    return s;
}

TEST(FieldStore, SchedulesShareOneObjectPerEqualConfiguration) {
    // checkpoint_loop cycles a gate under two waypoint cells;
    // conveyor_platform slides a block through 50 configurations.
    for (const char* name : {"checkpoint_loop", "conveyor_platform"}) {
        SCOPED_TRACE(name);
        const auto s = scenario::get(name);
        const auto later = shifted(s, 15);
        grid::FieldStore solo;  // the bytes of one schedule's fields
        const DoorSchedule alone(s.sim, &solo);
        obs::MetricsRegistry metrics;
        obs::MetricsRegistry::install(&metrics);
        grid::FieldStore store;
        const DoorSchedule a(s.sim, &store);
        const auto* shared = metrics.find_counter("doors.field_store.shared");
        EXPECT_TRUE(shared == nullptr || shared->value() == 0);
        const DoorSchedule b(later.sim, &store);
        const DoorSchedule lone(later.sim);  // a private store
        obs::MetricsRegistry::install(nullptr);

        // b references exactly the fields a private build would, and
        // adopted every one of them from a.
        EXPECT_EQ(b.field_count(), lone.field_count());
        EXPECT_EQ(b.waypoint_field_count(), lone.waypoint_field_count());
        shared = metrics.find_counter("doors.field_store.shared");
        ASSERT_NE(shared, nullptr);
        EXPECT_EQ(shared->value(),
                  b.field_count() + b.waypoint_field_count());
        EXPECT_EQ(store.bytes(), solo.bytes());

        ASSERT_EQ(b.events().size(), lone.events().size());
        for (std::size_t k = 0; k <= b.events().size(); ++k) {
            SCOPED_TRACE("after " + std::to_string(k) + " events");
            std::size_t j = 0;
            while (j <= a.events().size() &&
                   a.walls_after(j) != b.walls_after(k)) {
                ++j;
            }
            ASSERT_LE(j, a.events().size()) << "configuration not in a";
            EXPECT_EQ(&a.field_after(j), &b.field_after(k));
            EXPECT_TRUE(same_tables(b.field_after(k), lone.field_after(k),
                                    s.sim.grid));
            for (std::size_t slot = 0; slot < b.waypoint_cells().size();
                 ++slot) {
                EXPECT_EQ(&a.waypoint_field_after(j, slot),
                          &b.waypoint_field_after(k, slot));
                EXPECT_TRUE(same_tables(b.waypoint_field_after(k, slot),
                                        lone.waypoint_field_after(k, slot),
                                        s.sim.grid));
            }
        }
    }
}

TEST(FieldStore, FieldsOfDifferentKeysNeverShare) {
    grid::FieldStore store;
    const auto build = [&store](const SimConfig& cfg) {
        return std::make_unique<DoorSchedule>(cfg, &store);
    };
    // Goal cells.
    SimConfig goal_a = walled_config();
    goal_a.layout.goal_cells[0] = {0};
    SimConfig goal_b = walled_config();
    goal_b.layout.goal_cells[0] = {1};
    const auto ga = build(goal_a);
    const auto gb = build(goal_b);
    EXPECT_NE(&ga->field_after(0), &gb->field_after(0));
    // Grid size: the same wall cells on a taller grid.
    SimConfig tall = walled_config();
    tall.grid.rows = 32;
    const auto base = build(walled_config());
    const auto tb = build(tall);
    EXPECT_NE(&base->field_after(0), &tb->field_after(0));
    // Kind: a two-group field whose top goal is one cell, and the
    // waypoint field of that cell, under the same walls.
    SimConfig waypoint_a = walled_config();
    waypoint_a.layout.waypoints[0] = {2};
    const auto wa = build(waypoint_a);
    SimConfig goal_2 = walled_config();
    goal_2.layout.goal_cells[0] = {2};
    const auto g2 = build(goal_2);
    EXPECT_NE(&g2->field_after(0), &wa->waypoint_field_after(0, 0));
    // Kind: the analytic corridor, and a geodesic phase with no walls
    // and the default goals.
    SimConfig corridor;
    corridor.grid.rows = corridor.grid.cols = 16;
    SimConfig doored = corridor;
    doored.doors.push_back({5, 7, 0, 8, 15, DoorAction::kClose});
    const auto analytic = build(corridor);
    const auto geodesic = build(doored);
    ASSERT_TRUE(geodesic->walls_after(0).empty());
    EXPECT_NE(&analytic->field_after(0), &geodesic->field_after(0));
    // Waypoint target: the main fields agree, the waypoint fields do not.
    SimConfig waypoint_b = walled_config();
    waypoint_b.layout.waypoints[0] = {3};
    const auto wb = build(waypoint_b);
    EXPECT_EQ(&wa->field_after(0), &wb->field_after(0));
    EXPECT_NE(&wa->waypoint_field_after(0, 0),
              &wb->waypoint_field_after(0, 0));
}

TEST(FieldStore, EntryExpiresWithItsLastSchedule) {
    grid::FieldStore store;
    const SimConfig cfg = walled_config();
    auto a = std::make_unique<DoorSchedule>(cfg, &store);
    auto b = std::make_unique<DoorSchedule>(cfg, &store);
    const grid::FieldKey key{grid::FieldKey::Kind::kGeodesic, cfg.grid,
                             cfg.layout.goal_cells, a->walls_after(0)};
    EXPECT_EQ(store.find(key).get(), &a->field_after(0));
    EXPECT_EQ(store.bytes(), a->field_after(0).bytes());
    a.reset();
    EXPECT_EQ(store.find(key).get(), &b->field_after(0));
    b.reset();
    EXPECT_EQ(store.find(key), nullptr);
    EXPECT_EQ(store.bytes(), 0u);
}

TEST(FieldStore, ConcurrentBuildsAdoptOneAnother) {
    // Schedules built at once on four threads race for every field: each
    // loser adopts the winner's, so all end up holding one set.
    const auto s = scenario::get("conveyor_platform");
    grid::FieldStore store;
    std::vector<std::unique_ptr<DoorSchedule>> scheds(4);
    std::vector<std::thread> threads;
    for (auto& sched : scheds) {
        threads.emplace_back([&sched, &s, &store] {
            sched = std::make_unique<DoorSchedule>(s.sim, &store);
        });
    }
    for (auto& t : threads) t.join();
    grid::FieldStore solo;
    const DoorSchedule lone(s.sim, &solo);
    for (const auto& sched : scheds) {
        EXPECT_EQ(sched->field_count(), lone.field_count());
        for (std::size_t k = 0; k <= lone.events().size(); ++k) {
            EXPECT_EQ(&sched->field_after(k), &scheds[0]->field_after(k));
        }
    }
    EXPECT_EQ(store.bytes(), solo.bytes());
    for (std::size_t k = 0; k <= lone.events().size(); ++k) {
        EXPECT_TRUE(same_tables(scheds[0]->field_after(k),
                                lone.field_after(k), s.sim.grid))
            << k;
    }
}

// --- Cycle / mover expansion -------------------------------------------------

TEST(DynamicEvents, CycleExpandsToOpenClosePairs) {
    const auto events =
        expand_dynamic_events({}, {{20, 40, 15, 7, 4, 8, 7, 3}}, {});
    ASSERT_EQ(events.size(), 6u);
    for (std::uint64_t k = 0; k < 3; ++k) {
        const auto& open = events[2 * k];
        const auto& close = events[2 * k + 1];
        EXPECT_EQ(open.step, 20 + 40 * k);
        EXPECT_EQ(open.action, DoorAction::kOpen);
        EXPECT_EQ(close.step, 20 + 40 * k + 15);
        EXPECT_EQ(close.action, DoorAction::kClose);
        EXPECT_EQ(open.row0, 7);
        EXPECT_EQ(close.col1, 7);
    }
}

TEST(DynamicEvents, CycleExpansionKeepsTwoCachedFields) {
    SimConfig cfg = walled_config();
    // Five pulses = 10 expanded events, but only two wall configurations
    // (gap open / gap shut) — the ISSUE's O(2 fields) contract.
    cfg.cycles.push_back({5, 10, 4, 7, 4, 8, 7, 5});
    const DoorSchedule sched(cfg);
    ASSERT_EQ(sched.events().size(), 10u);
    EXPECT_EQ(sched.field_count(), 2u);
    // Phases alternate between exactly two field objects, and revisits
    // are pointer-equal, not value-equal copies.
    for (std::size_t fired = 0; fired <= 10; ++fired) {
        EXPECT_EQ(&sched.field_after(fired),
                  &sched.field_after(fired % 2))
            << fired;
    }
    EXPECT_NE(&sched.field_after(0), &sched.field_after(1));
}

TEST(DynamicEvents, MoverExpandsToOpenThenCloseAtEachFiring) {
    // 3 east moves of a 2x2 block at rows 7-8, cols 2-3.
    const auto events =
        expand_dynamic_events({}, {}, {{10, 4, 0, 1, 7, 2, 8, 3, 3}});
    ASSERT_EQ(events.size(), 6u);
    for (int k = 0; k < 3; ++k) {
        const auto& open = events[static_cast<std::size_t>(2 * k)];
        const auto& close = events[static_cast<std::size_t>(2 * k + 1)];
        EXPECT_EQ(open.step, static_cast<std::uint64_t>(10 + 4 * k));
        EXPECT_EQ(close.step, open.step);  // same step: one translation
        EXPECT_EQ(open.action, DoorAction::kOpen);
        EXPECT_EQ(close.action, DoorAction::kClose);
        EXPECT_EQ(open.col0, 2 + k);
        EXPECT_EQ(close.col0, 3 + k);  // translated one cell east
    }
}

TEST(DynamicEvents, ValidationRejectsBadParameters) {
    // duty >= period.
    EXPECT_THROW(validate_events({}, {{0, 10, 10, 7, 4, 8, 7, 1}}),
                 std::invalid_argument);
    // zero repeats.
    EXPECT_THROW(validate_events({}, {{0, 10, 4, 7, 4, 8, 7, 0}}),
                 std::invalid_argument);
    // cycle rect off-grid.
    EXPECT_THROW(validate_events({}, {{0, 10, 4, 7, 4, 16, 7, 1}}),
                 std::invalid_argument);
    // mover: zero translation.
    EXPECT_THROW(validate_events({}, {}, {{0, 4, 0, 0, 7, 2, 8, 3, 3}}),
                 std::invalid_argument);
    // Expansion ceiling: a typo'd uint64 repeats/count must be rejected,
    // not materialized (and, for movers, must not wrap the int-typed
    // final-position bounds check).
    EXPECT_THROW(validate_events({}, {{0, 10, 4, 7, 4, 8, 7, 1u << 20}}),
                 std::invalid_argument);
    EXPECT_THROW(
        validate_events({}, {}, {{0, 4, 0, 1, 7, 2, 8, 3, 1ull << 32}}),
        std::invalid_argument);
    // Step ceiling: a start/period near uint64 max would wrap the
    // expansion arithmetic and emit a close at ~step 0 with no open.
    EXPECT_THROW(
        validate_events({},
                        {{(1ull << 63) - 1, 1ull << 62, 4, 7, 4, 8, 7, 8}}),
        std::invalid_argument);
    EXPECT_THROW(
        validate_events(
            {}, {}, {{(1ull << 63) - 1, 1ull << 62, 0, 1, 7, 2, 8, 3, 3}}),
        std::invalid_argument);
    // mover: final position walks off the grid (13 east moves from col 3).
    EXPECT_THROW(validate_events({}, {}, {{0, 4, 0, 1, 7, 2, 8, 3, 13}}),
                 std::invalid_argument);
    EXPECT_NO_THROW(validate_events({}, {}, {{0, 4, 0, 1, 7, 2, 8, 3, 12}}));
}

TEST(DynamicEvents, MoverTranslatesTheWallBlock) {
    SimConfig cfg;
    cfg.grid.rows = cfg.grid.cols = 16;
    cfg.layout.spawns.push_back({grid::Group::kTop, 0, 0, 0, 0, 1});
    for (int r = 7; r <= 8; ++r) {
        for (int c = 2; c <= 3; ++c) {
            cfg.layout.wall_cells.push_back(
                static_cast<std::uint32_t>(r * 16 + c));
        }
    }
    cfg.movers.push_back({2, 3, 0, 1, 7, 2, 8, 3, 4});
    const auto sim = backend::make_engine(backend::DeviceType::kCpu, cfg);
    EXPECT_EQ(sim->environment().wall_count(), 4u);
    EXPECT_TRUE(sim->environment().is_wall(7, 2));

    sim->run(3);  // firings at steps 2 (cols 3-4) — one translation so far
    EXPECT_EQ(sim->environment().wall_count(), 4u);
    EXPECT_FALSE(sim->environment().is_wall(7, 2));
    EXPECT_TRUE(sim->environment().is_wall(7, 3));
    EXPECT_TRUE(sim->environment().is_wall(7, 4));

    sim->run(9);  // steps 5, 8, 11 fire the remaining three translations
    EXPECT_EQ(sim->environment().wall_count(), 4u);
    EXPECT_FALSE(sim->environment().is_wall(7, 5));
    EXPECT_TRUE(sim->environment().is_wall(7, 6));
    EXPECT_TRUE(sim->environment().is_wall(8, 7));
}

// --- Anticipatory routing ----------------------------------------------------

TEST(Anticipation, BlendedViewWithoutNextFieldIsBitIdentical) {
    SimConfig cfg = walled_config();
    const DoorSchedule sched(cfg);
    const auto& df = sched.field_after(0);
    const grid::BlendedField view(&df);
    EXPECT_FALSE(view.blending());
    for (const auto g : {grid::Group::kTop, grid::Group::kBottom}) {
        for (int r = 0; r < cfg.grid.rows; ++r) {
            for (int c = 0; c < cfg.grid.cols; ++c) {
                EXPECT_EQ(view.cost(g, r, c, 0), df.cost(g, r, c, 0));
            }
        }
    }
}

TEST(Anticipation, BlendIsAConvexCombinationWithUnreachableCapped) {
    SimConfig cfg = walled_config();
    cfg.doors.push_back({5, 7, 4, 8, 7, DoorAction::kOpen});
    const DoorSchedule sched(cfg);
    const auto& now = sched.field_after(0);
    const auto& next = sched.field_after(1);
    const double cap = now.blend_cap();
    const grid::BlendedField view(&now, &next, 0.25);
    ASSERT_TRUE(view.blending());
    for (int r = 0; r < cfg.grid.rows; ++r) {
        for (int c = 0; c < cfg.grid.cols; ++c) {
            const double a = std::min(now.cost(grid::Group::kTop, r, c, 0),
                                      cap);
            const double b = std::min(next.cost(grid::Group::kTop, r, c, 0),
                                      cap);
            EXPECT_EQ(view.cost(grid::Group::kTop, r, c, 0),
                      0.75 * a + 0.25 * b)
                << r << "," << c;
        }
    }
    // The cap keeps sealed regions (kUnreachable now, finite next) inside
    // double precision: the blend must still order by the next field.
    const double behind_near = view.cost(grid::Group::kTop, 2, 5, 0);
    const double behind_far = view.cost(grid::Group::kTop, 0, 15, 0);
    EXPECT_LT(behind_near, behind_far);
}

TEST(Anticipation, HorizonZeroAndOutOfHorizonMatchTheUnblendedPath) {
    // With the event far beyond the horizon, every step's scoring field
    // must be the unblended one — traces bit-identical to horizon 0.
    SimConfig base = walled_config();
    base.agents_per_side = 0;  // region spawn provides the population
    base.layout.spawns.clear();
    base.layout.spawns.push_back({grid::Group::kTop, 1, 1, 4, 14, 30});
    base.doors.push_back({500, 7, 4, 8, 7, DoorAction::kOpen});

    auto trace = [](const SimConfig& cfg) {
        const auto sim = backend::make_engine(backend::DeviceType::kCpu, cfg);
        std::vector<StepResult> steps;
        sim->run(40, [&steps](const StepResult& sr) {
            steps.push_back(sr);
            return true;
        });
        return std::make_pair(steps, scenario::position_fingerprint(*sim));
    };
    SimConfig h0 = base;
    h0.anticipate.horizon = 0;
    SimConfig h10 = base;
    h10.anticipate.horizon = 10;  // event at 500: never inside the window
    const auto a = trace(h0);
    const auto b = trace(h10);
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

TEST(Anticipation, InsideTheHorizonBlendingChangesRouting) {
    // prestaged_evacuation with the horizon stripped must diverge from the
    // shipped scenario: pre-staging is observable, not cosmetic.
    const auto s = scenario::get("prestaged_evacuation");
    ASSERT_EQ(s.sim.anticipate.horizon, 40);
    SimConfig stripped = s.sim;
    stripped.anticipate.horizon = 0;
    const auto with = backend::make_engine(backend::DeviceType::kCpu, s.sim);
    const auto without = backend::make_engine(
        backend::DeviceType::kCpu, stripped);
    with->run(59);  // up to (not past) the door-open at step 60
    without->run(59);
    EXPECT_NE(scenario::position_fingerprint(*with),
              scenario::position_fingerprint(*without));
}

// --- Step-boundary application ----------------------------------------------

TEST(DoorEvents, ToggleEnvironmentOccupancyAtStepBoundaries) {
    SimConfig cfg = walled_config();
    cfg.doors.push_back({2, 7, 4, 8, 11, DoorAction::kOpen});
    cfg.doors.push_back({5, 7, 4, 8, 11, DoorAction::kClose});
    const auto sim = backend::make_engine(backend::DeviceType::kCpu, cfg);
    EXPECT_EQ(sim->environment().wall_count(), 32u);

    sim->run(2);  // steps 0 and 1: event at step 2 has not fired yet
    EXPECT_EQ(sim->environment().wall_count(), 32u);
    EXPECT_EQ(&sim->distance_field(), &sim->door_schedule().field_after(0));

    sim->run(1);  // step 2 fires the open at its start
    EXPECT_EQ(sim->environment().wall_count(), 16u);
    EXPECT_TRUE(sim->environment().walkable(7, 4));
    EXPECT_EQ(&sim->distance_field(), &sim->door_schedule().field_after(1));

    sim->run(3);  // step 5 closes it again
    EXPECT_EQ(sim->environment().wall_count(), 32u);
    EXPECT_TRUE(sim->environment().is_wall(7, 4));
    // The swapped-back field is the same object as the initial phase.
    EXPECT_EQ(&sim->distance_field(), &sim->door_schedule().field_after(0));
}

TEST(DoorEvents, ClosingDoorRetiresOccupants) {
    SimConfig cfg;
    cfg.grid.rows = cfg.grid.cols = 16;
    // Fill the 2x2 region completely, then close a door on it at step 0.
    cfg.layout.spawns.push_back({grid::Group::kTop, 2, 2, 3, 3, 4});
    cfg.doors.push_back({0, 2, 2, 3, 3, DoorAction::kClose});
    const auto sim = backend::make_engine(backend::DeviceType::kCpu, cfg);
    EXPECT_EQ(sim->environment().population(), 4u);

    sim->run(1);
    EXPECT_EQ(sim->door_retired(), 4u);
    EXPECT_EQ(sim->environment().population(), 0u);
    EXPECT_EQ(sim->environment().wall_count(), 4u);
    const auto& props = sim->properties();
    for (std::size_t i = 1; i < props.rows(); ++i) {
        EXPECT_EQ(props.active[i], 0u) << i;
        EXPECT_EQ(props.crossed[i], 0u) << i;
    }
}

// --- Registry scenarios ------------------------------------------------------

TEST(DoorScenarios, RegistryShipsTheDoorTrio) {
    EXPECT_TRUE(scenario::has("timed_exit"));
    EXPECT_TRUE(scenario::has("closing_corridor"));
    EXPECT_TRUE(scenario::has("phased_evacuation"));
    EXPECT_EQ(scenario::get("timed_exit").sim.doors.size(), 1u);
    EXPECT_EQ(scenario::get("closing_corridor").sim.doors.size(), 2u);
    EXPECT_EQ(scenario::get("phased_evacuation").sim.doors.size(), 3u);
}

TEST(DoorScenarios, TimedExitOnlyDrainsAfterTheDoorOpens) {
    const auto s = scenario::get("timed_exit");
    const auto sim = backend::make_engine(backend::DeviceType::kCpu, s.sim);
    sim->run(30);  // door opens at the start of step 30
    EXPECT_EQ(sim->crossed_total(grid::Group::kTop) +
                  sim->crossed_total(grid::Group::kBottom),
              0u);
    sim->run(s.default_steps - 30);
    const auto crossed = sim->crossed_total(grid::Group::kTop) +
                         sim->crossed_total(grid::Group::kBottom);
    EXPECT_GT(crossed, s.sim.total_agents() / 2);
}

TEST(DoorScenarios, ClosingCorridorConservesAgents) {
    const auto s = scenario::get("closing_corridor");
    const auto sim = backend::make_engine(backend::DeviceType::kCpu, s.sim);
    const auto rr = sim->run(s.default_steps);
    // Both close events fired: the 16-wide gap (2 rows deep) is sealed.
    EXPECT_EQ(sim->environment().wall_count(),
              s.sim.layout.wall_cells.size() + 32u);
    // Every agent is on the grid, crossed, or was swept by a door.
    EXPECT_EQ(sim->environment().population() + rr.crossed_total() +
                  sim->door_retired(),
              s.sim.total_agents());
}

TEST(DoorScenarios, PhasedEvacuationDrainsThroughStagedDoors) {
    const auto s = scenario::get("phased_evacuation");
    const auto sim = backend::make_engine(backend::DeviceType::kCpu, s.sim);
    const auto rr = sim->run(s.default_steps);
    EXPECT_GT(rr.crossed_total(), s.sim.total_agents() / 2);
    EXPECT_EQ(sim->environment().population() + rr.crossed_total() +
                  sim->door_retired(),
              s.sim.total_agents());
}

// --- Scenario-file round trip ------------------------------------------------

TEST(DoorScenarios, DoorLinesRoundTripThroughText) {
    std::string text =
        "name = doored\n"
        "agents_per_side = 8\n"
        "rows = 16\n"
        "cols = 16\n"
        "door = 5 close 7 0 8 15\n"
        "door = 9 open 7 6 8 9\n";
    const auto s = io::parse_scenario(text);
    ASSERT_EQ(s.sim.doors.size(), 2u);
    EXPECT_EQ(s.sim.doors[0],
              (DoorEvent{5, 7, 0, 8, 15, DoorAction::kClose}));
    EXPECT_EQ(s.sim.doors[1],
              (DoorEvent{9, 7, 6, 8, 9, DoorAction::kOpen}));
    const auto back = io::parse_scenario(io::scenario_to_text(s));
    EXPECT_EQ(back, s);
}

TEST(DoorScenarios, ParserRejectsMalformedDoorLines) {
    // Wrong arity.
    EXPECT_THROW(io::parse_scenario("door = 5 close 7 0 8\n"),
                 std::invalid_argument);
    // Unknown action.
    EXPECT_THROW(io::parse_scenario("door = 5 ajar 7 0 8 15\n"),
                 std::invalid_argument);
    // Non-numeric step.
    EXPECT_THROW(io::parse_scenario("door = soon open 7 0 8 15\n"),
                 std::invalid_argument);
    // A negative step would wrap to a uint64 that never fires and cannot
    // round-trip through the serializer.
    EXPECT_THROW(io::parse_scenario("door = -5 open 7 0 8 15\n"),
                 std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("panic = -5 32 32 10\n"),
                 std::invalid_argument);
    // Rect off the (default 480x480) grid.
    EXPECT_THROW(io::parse_scenario("door = 5 open 0 0 480 3\n"),
                 std::invalid_argument);
    // Rect validated against the map-defined grid, not the default.
    std::string text = "door = 5 open 0 0 17 3\nmap:\n";
    for (int r = 0; r < 16; ++r) text += "................\n";
    EXPECT_THROW(io::parse_scenario(text), std::invalid_argument);
}

}  // namespace
}  // namespace pedsim::core
