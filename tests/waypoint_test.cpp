// Waypoint routing: multi-goal groups steered through ordered chains of
// geodesic fields (ScenarioLayout::waypoints). Covers the acceptance
// contract of the subsystem:
//   - agents visit a 3-waypoint chain in order (monotone per-agent index,
//     crossing gated on chain completion) and the registry chains finish
//     inside the suites' step budgets;
//   - CPU vs GPU-simt bit-identity at {1, 4, 8} threads on every
//     waypoint scenario;
//   - `waypoints =` / `waypoint_radius =` scenario lines round-trip
//     exactly (ordered, never canonicalized away);
//   - chained fields are phase-cached with the door schedule: one field
//     per (distinct wall configuration, distinct waypoint cell), shared
//     across revisited configurations, swapped when geometry changes
//     mid-chain;
//   - validation rejects off-grid waypoints, waypoints on walls,
//     overlong chains and negative radii.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/device.hpp"
#include "core/cpu_simulator.hpp"
#include "core/door_schedule.hpp"
#include "io/scenario_file.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "test_budget.hpp"

using namespace pedsim;

namespace {

const char* kWaypointScenarios[] = {"relay_race", "stairwell_evacuation",
                                    "checkpoint_loop"};

std::size_t chain_len(const core::SimConfig& cfg, grid::Group g) {
    return cfg.layout.waypoints[g == grid::Group::kTop ? 0 : 1].size();
}

}  // namespace

TEST(Waypoint, ThreeWaypointChainVisitedInOrderThenCrossed) {
    const auto s = scenario::get("relay_race");
    ASSERT_EQ(chain_len(s.sim, grid::Group::kTop), 3u);
    ASSERT_EQ(chain_len(s.sim, grid::Group::kBottom), 3u);

    const auto sim = backend::make_cpu(s.sim);
    const auto& p = sim->properties();
    std::vector<std::uint8_t> prev(p.waypoint);
    for (int step = 0; step < s.default_steps; ++step) {
        sim->step();
        for (std::size_t i = 1; i < p.rows(); ++i) {
            // In order = the per-agent index only ever counts up, one
            // chain position at a time (clustered skips allowed), and
            // never beyond the chain.
            ASSERT_GE(p.waypoint[i], prev[i]) << "agent " << i;
            ASSERT_LE(p.waypoint[i],
                      chain_len(s.sim, p.group_of(static_cast<std::int32_t>(
                                           i))))
                << "agent " << i;
            // Crossing is gated on chain completion.
            if (p.crossed[i] != 0) {
                ASSERT_EQ(p.waypoint[i],
                          chain_len(s.sim,
                                    p.group_of(static_cast<std::int32_t>(i))))
                    << "agent " << i << " crossed mid-chain at step " << step;
            }
        }
        prev = p.waypoint;
    }
    // The scenario is tuned so every agent finishes its chain and exits.
    for (std::size_t i = 1; i < p.rows(); ++i) {
        EXPECT_EQ(p.waypoint[i], 3u) << "agent " << i;
        EXPECT_EQ(p.crossed[i], 1u) << "agent " << i;
    }
}

TEST(Waypoint, RegistryChainsCompleteInsideTheSuiteBudgets) {
    // The determinism/golden windows promise to extend past the last
    // waypoint advance; that promise is a tuned floor, so pin it: within
    // the golden floor (280 — the tightest fingerprint window; the
    // determinism floor is wider) every waypoint scenario has stopped
    // advancing, and the sequence-corpus member relay_race inside the
    // sequence floor (200) too.
    for (const char* name : kWaypointScenarios) {
        const auto s = scenario::get(name);
        const int budget = pedsim::testing::budget_past_events(
            s, /*base_small=*/60, /*base_large=*/25, /*margin=*/20,
            /*waypoint_floor=*/280);
        const auto sim = backend::make_cpu(s.sim);
        int last_advance = -1;
        // Run PAST the budget (not just default_steps, which may equal
        // it) so an advance beyond the window is actually observable.
        sim->run(budget + 40, [&](const core::StepResult& sr) {
            if (sr.waypoint_advances > 0) {
                last_advance = static_cast<int>(sr.step);
            }
            return true;
        });
        EXPECT_GE(last_advance, 0) << name << ": chains never advanced";
        EXPECT_LT(last_advance, budget)
            << name << ": advances continue past the golden budget — "
            << "retune the scenario or raise the waypoint floors";
        if (std::string(name) == "relay_race") {
            EXPECT_LT(last_advance, 200)
                << "relay_race must finish inside the sequence-corpus "
                << "window";
        }
    }
}

TEST(Waypoint, CpuVsSimtBitIdenticalAcross148Threads) {
    for (const char* name : kWaypointScenarios) {
        const auto s = scenario::get(name);
        // Trimmed window (the full-budget sweep lives in the determinism
        // suite); enough steps to advance waypoints in every scenario.
        const int steps = 120;
        std::vector<core::StepResult> base;
        std::uint64_t base_fp = 0;
        bool first = true;
        for (const auto engine :
             {backend::DeviceType::kCpu, backend::DeviceType::kSimt}) {
            for (const int threads : {1, 4, 8}) {
                core::SimConfig cfg = s.sim;
                cfg.exec.threads = threads;
                const auto sim = backend::make_engine(engine, cfg);
                std::vector<core::StepResult> stream;
                sim->run(steps, [&stream](const core::StepResult& sr) {
                    stream.push_back(sr);
                    return true;
                });
                const auto fp = scenario::position_fingerprint(*sim);
                if (first) {
                    base = std::move(stream);
                    base_fp = fp;
                    first = false;
                    continue;
                }
                EXPECT_EQ(stream, base)
                    << name << " / " << backend::device_name(engine)
                    << " @ " << threads << " threads";
                EXPECT_EQ(fp, base_fp)
                    << name << " / " << backend::device_name(engine)
                    << " @ " << threads << " threads";
            }
        }
    }
}

TEST(Waypoint, ScenarioLinesRoundTripExactly) {
    for (const char* name : kWaypointScenarios) {
        const auto s = scenario::get(name);
        const auto text = io::scenario_to_text(s);
        scenario::Scenario back;
        ASSERT_NO_THROW(back = io::parse_scenario(text)) << name;
        EXPECT_EQ(back, s) << name << " round-trip inequality";
        EXPECT_EQ(io::scenario_to_text(back), text)
            << name << " serializer not a fixed point";
        EXPECT_EQ(back.sim.layout.waypoints, s.sim.layout.waypoints) << name;
        EXPECT_EQ(back.sim.layout.waypoint_radius,
                  s.sim.layout.waypoint_radius)
            << name;
    }
    // Chain ORDER is semantic and must survive even when it is not
    // row-major sorted (relay_race's top chain zigzags upward in column).
    scenario::Scenario zig;
    zig.name = "zig";
    zig.sim.grid.rows = zig.sim.grid.cols = 32;
    scenario::add_waypoint(zig.sim.layout, zig.sim.grid, grid::Group::kTop,
                           20, 8);
    scenario::add_waypoint(zig.sim.layout, zig.sim.grid, grid::Group::kTop,
                           4, 24);
    scenario::add_waypoint(zig.sim.layout, zig.sim.grid, grid::Group::kTop,
                           12, 2);
    const auto back = io::parse_scenario(io::scenario_to_text(zig));
    EXPECT_EQ(back.sim.layout.waypoints, zig.sim.layout.waypoints);
}

TEST(Waypoint, ArrivalRadiusIsChebyshev) {
    // One agent spawned diagonally 2 king moves from its only waypoint:
    // with radius 2 the chain completes at construction (Chebyshev covers
    // diagonals), with radius 1 it stays pending.
    core::SimConfig cfg;
    cfg.grid.rows = cfg.grid.cols = 16;
    cfg.layout.spawns.push_back({grid::Group::kTop, 4, 4, 4, 4, 1});
    cfg.layout.waypoints[0] = {
        static_cast<std::uint32_t>(6 * cfg.grid.cols + 6)};
    cfg.layout.waypoint_radius = 2;
    {
        const auto sim = backend::make_cpu(cfg);
        EXPECT_EQ(sim->properties().waypoint[1], 1u)
            << "diagonal distance 2 is inside Chebyshev radius 2";
    }
    cfg.layout.waypoint_radius = 1;
    {
        const auto sim = backend::make_cpu(cfg);
        EXPECT_EQ(sim->properties().waypoint[1], 0u)
            << "diagonal distance 2 is outside Chebyshev radius 1";
    }
}

TEST(Waypoint, PendingChainSuspendsEdgewardForwardPriority) {
    // A lone top-group agent (forward = south) with its waypoint to the
    // WEST must walk west along the waypoint field, not south along the
    // paper's forward rule; once the chain is done it resumes south.
    core::SimConfig cfg;
    cfg.grid.rows = cfg.grid.cols = 16;
    cfg.layout.spawns.push_back({grid::Group::kTop, 8, 12, 8, 12, 1});
    cfg.layout.waypoints[0] = {
        static_cast<std::uint32_t>(8 * cfg.grid.cols + 2)};
    cfg.layout.waypoint_radius = 0;  // must stand on the cell
    const auto sim = backend::make_cpu(cfg);
    const auto& p = sim->properties();
    sim->step();
    EXPECT_EQ(p.row[1], 8);
    EXPECT_EQ(p.col[1], 11) << "agent should step toward the waypoint";
    for (int step = 0; step < 12 && p.waypoint[1] == 0; ++step) sim->step();
    EXPECT_EQ(p.waypoint[1], 1u) << "chain should complete on the cell";
    const int row_done = p.row[1];
    sim->step();
    EXPECT_EQ(p.row[1], row_done + 1)
        << "forward priority (south) should resume after the chain";
}

TEST(Waypoint, FieldsArePhaseCachedAndSharedAcrossRevisitedConfigs) {
    // A cycle alternates two wall configurations; with two distinct
    // waypoint cells that is exactly 2 x 2 chained fields no matter how
    // many pulses fire, and revisited phases must point at the SAME
    // field objects.
    const auto s = scenario::get("checkpoint_loop");
    const core::DoorSchedule sched(s.sim);
    ASSERT_EQ(sched.waypoint_cells().size(), 2u)
        << "the two groups' chains share their two checkpoint cells";
    EXPECT_EQ(sched.field_count(), 2u);
    EXPECT_EQ(sched.waypoint_field_count(), 4u);
    const auto events = sched.events().size();
    ASSERT_GE(events, 4u);
    for (std::size_t slot = 0; slot < 2; ++slot) {
        // Phase 0 (gate shut) == phase after any close; phase after any
        // open is the other field.
        const auto* shut = &sched.waypoint_field_after(0, slot);
        const auto* open = &sched.waypoint_field_after(1, slot);
        EXPECT_NE(shut, open) << "slot " << slot;
        for (std::size_t fired = 2; fired <= events; ++fired) {
            const auto* f = &sched.waypoint_field_after(fired, slot);
            EXPECT_TRUE(f == shut || f == open)
                << "slot " << slot << " fired " << fired;
        }
        EXPECT_EQ(&sched.waypoint_field_after(events, slot), shut)
            << "the run ends with the gate shut";
    }
}

TEST(Waypoint, FieldSwapsWhenGeometryChangesMidChain) {
    // A waypoint sealed behind a full wall is unreachable until the door
    // event opens it — the chained field for the same cell must differ
    // across the two phases, with the sealed side finite only after.
    core::SimConfig cfg;
    cfg.grid.rows = cfg.grid.cols = 16;
    for (int c = 0; c < 16; ++c) {
        cfg.layout.wall_cells.push_back(
            static_cast<std::uint32_t>(8 * 16 + c));
    }
    cfg.layout.waypoints[0] = {static_cast<std::uint32_t>(12 * 16 + 8)};
    cfg.doors.push_back({10, 8, 6, 8, 9, core::DoorAction::kOpen});
    const core::DoorSchedule sched(cfg);
    const auto& sealed = sched.waypoint_field_after(0, 0);
    const auto& opened = sched.waypoint_field_after(1, 0);
    EXPECT_GE(sealed.geo(grid::Group::kTop, 2, 8),
              grid::DistanceField::kUnreachable);
    EXPECT_LT(opened.geo(grid::Group::kTop, 2, 8), 32.0);
    // South of the wall the waypoint is reachable in both phases.
    EXPECT_LT(sealed.geo(grid::Group::kTop, 12, 2), 16.0);
}

TEST(Waypoint, ValidationRejectsBadChains) {
    const grid::GridConfig grid;  // 480x480
    core::ScenarioLayout layout;

    layout.waypoints[0] = {480u * 480u};  // first off-grid cell
    EXPECT_THROW(core::validate_waypoints(layout, grid),
                 std::invalid_argument);

    layout.waypoints[0] = {42u};
    layout.wall_cells = {42u};
    EXPECT_THROW(core::validate_waypoints(layout, grid),
                 std::invalid_argument);

    layout.wall_cells.clear();
    layout.waypoints[0].assign(256, 7u);  // past the uint8 index range
    EXPECT_THROW(core::validate_waypoints(layout, grid),
                 std::invalid_argument);

    layout.waypoints[0] = {7u};
    layout.waypoint_radius = -1;
    EXPECT_THROW(core::validate_waypoints(layout, grid),
                 std::invalid_argument);

    layout.waypoint_radius = 0;
    EXPECT_NO_THROW(core::validate_waypoints(layout, grid));
}

TEST(Waypoint, ParserRejectsMalformedWaypointLines) {
    // Line-shape errors (the semantic negatives — empty chain, off-grid
    // cell, waypoint on a wall — live in scenario_property_test next to
    // the generator that exercises the axis).
    EXPECT_THROW(io::parse_scenario("waypoints = top 4\n"),
                 std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("waypoints = top 4 4 8\n"),
                 std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("waypoints = sideways 4 4\n"),
                 std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("waypoints = top -1 0\n"),
                 std::invalid_argument);
    // Radius: negative and non-numeric.
    EXPECT_THROW(io::parse_scenario("waypoint_radius = -2\n"),
                 std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("waypoint_radius = wide\n"),
                 std::invalid_argument);
    // A valid chain parses (and repeated lines append in order).
    const auto s = io::parse_scenario(
        "waypoints = top 4 4 8 8\nwaypoints = top 2 2\n");
    EXPECT_EQ(s.sim.layout.waypoints[0],
              (std::vector<std::uint32_t>{4u * 480u + 4u, 8u * 480u + 8u,
                                          2u * 480u + 2u}));
}
