// Property-based tests for the scenario-file format: a seeded
// Philox-backed generator (rng::Stream — no new dependencies) emits
// random valid scenarios spanning every feature axis (walls, goals,
// spawns, doors, cycles, movers, anticipation, panic, waypoint chains,
// model parameters), and each must satisfy the serializer's contract:
//
//   parse(serialize(s)) == s          (round trip to equality)
//   serialize(parse(serialize(s))) == serialize(s)   (textual fixed point)
//
// plus negative cases pinning the parser's rejection of malformed
// `cycle =` / `mover =` / `anticipate =` lines.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "io/scenario_file.hpp"
#include "rng/stream.hpp"
#include "scenario/scenario.hpp"

using namespace pedsim;

namespace {

constexpr std::uint64_t kGeneratorSeed = 0x5CE9A210ull;
constexpr int kCases = 64;

int draw_int(rng::Stream& s, int lo, int hi) {  // inclusive
    return lo + static_cast<int>(
                    s.next_below(static_cast<std::uint32_t>(hi - lo + 1)));
}

/// One random valid scenario. Walls live in rows [2, rows-3] and goals on
/// the edge rows, so core::validate's wall/goal-disjointness rule always
/// holds; every dynamic event is generated within the constraints it
/// enforces on doors, cycles and movers, so the emitted text must parse.
scenario::Scenario random_scenario(std::uint64_t index) {
    rng::Stream s(kGeneratorSeed, rng::Stage::kGeneric, index, 0);
    scenario::Scenario sc;
    sc.name = "prop_" + std::to_string(index);
    if (s.next_below(2)) sc.description = "generated case " +
                                          std::to_string(index);
    auto& sim = sc.sim;
    sim.grid.rows = 16 * draw_int(s, 1, 3);
    sim.grid.cols = 16 * draw_int(s, 1, 3);
    sim.seed = s.next_u64();
    sim.agents_per_side = static_cast<std::size_t>(draw_int(s, 1, 400));
    sim.model = s.next_below(2) ? core::Model::kAco : core::Model::kLem;
    sc.default_steps = draw_int(s, 1, 500);
    sim.band_rows = draw_int(s, 0, 4);
    sim.cross_margin = draw_int(s, 0, 3);
    sim.exit_on_cross = s.next_below(2) != 0;
    sim.forward_priority = s.next_below(2) != 0;
    // Doubles round-trip exactly through the %.17g serializer, so raw
    // 53-bit draws are fair game — no "nice" values needed.
    sim.max_band_fill = 0.1 + 0.8 * s.next_double();
    sim.lem.sigma = 0.1 + s.next_double();
    sim.aco.alpha = s.next_double() * 3.0;
    sim.aco.beta = s.next_double() * 3.0;
    sim.aco.rho = s.next_double();
    sim.aco.q = s.next_double() * 2.0;
    sim.aco.tau0 = s.next_double();
    sim.aco.tau_min = s.next_double() * 1e-2;
    sim.scan.range = draw_int(s, 1, 4);
    sim.scan.congestion_weight = s.next_double();
    sim.speed.slow_fraction = s.next_below(2) ? s.next_double() : 0.0;
    sim.speed.slow_period = draw_int(s, 2, 5);

    const int rows = sim.grid.rows;
    const int cols = sim.grid.cols;
    for (int w = draw_int(s, 0, 3); w > 0; --w) {
        const int r0 = draw_int(s, 2, rows - 4);
        const int c0 = draw_int(s, 0, cols - 2);
        const int r1 = draw_int(s, r0, std::min(r0 + 3, rows - 4));
        const int c1 = draw_int(s, c0, cols - 1);
        scenario::add_wall_rect(sim.layout, sim.grid, r0, c0, r1, c1);
    }
    if (s.next_below(2)) {
        scenario::add_goal_rect(sim.layout, sim.grid, grid::Group::kTop,
                                rows - 1, draw_int(s, 0, cols / 2), rows - 1,
                                cols - 1);
    }
    if (s.next_below(2)) {
        scenario::add_goal_rect(sim.layout, sim.grid, grid::Group::kBottom,
                                0, 0, 0, draw_int(s, cols / 2, cols - 1));
    }
    for (int n = draw_int(s, 0, 2); n > 0; --n) {
        const int r0 = draw_int(s, 1, rows - 3);
        const int c0 = draw_int(s, 1, cols - 3);
        sim.layout.spawns.push_back(
            {s.next_below(2) ? grid::Group::kTop : grid::Group::kBottom, r0,
             c0, draw_int(s, r0, rows - 2), draw_int(s, c0, cols - 2),
             static_cast<std::size_t>(draw_int(s, 1, 12))});
    }

    for (int n = draw_int(s, 0, 3); n > 0; --n) {
        const int r0 = draw_int(s, 0, rows - 2);
        const int c0 = draw_int(s, 0, cols - 2);
        sim.doors.push_back(
            {static_cast<std::uint64_t>(draw_int(s, 0, 400)), r0, c0,
             draw_int(s, r0, rows - 1), draw_int(s, c0, cols - 1),
             s.next_below(2) ? core::DoorAction::kOpen
                             : core::DoorAction::kClose});
    }
    for (int n = draw_int(s, 0, 2); n > 0; --n) {
        core::CycleEvent cy;
        cy.start = static_cast<std::uint64_t>(draw_int(s, 0, 200));
        cy.period = static_cast<std::uint64_t>(draw_int(s, 2, 40));
        cy.duty = static_cast<std::uint64_t>(
            draw_int(s, 1, static_cast<int>(cy.period) - 1));
        cy.repeats = static_cast<std::uint64_t>(draw_int(s, 1, 4));
        cy.row0 = draw_int(s, 0, rows - 2);
        cy.col0 = draw_int(s, 0, cols - 2);
        cy.row1 = draw_int(s, cy.row0, rows - 1);
        cy.col1 = draw_int(s, cy.col0, cols - 1);
        sim.cycles.push_back(cy);
    }
    for (int n = draw_int(s, 0, 2); n > 0; --n) {
        core::MoverEvent mv;
        mv.start = static_cast<std::uint64_t>(draw_int(s, 0, 100));
        mv.interval = static_cast<std::uint64_t>(draw_int(s, 1, 8));
        // A unit king move (drow, dcol) != (0, 0).
        do {
            mv.drow = draw_int(s, -1, 1);
            mv.dcol = draw_int(s, -1, 1);
        } while (mv.drow == 0 && mv.dcol == 0);
        // Small block near mid-grid; cap count so every translated
        // position stays on the grid in the chosen direction.
        mv.row0 = rows / 2 - 1;
        mv.col0 = cols / 2 - 1;
        mv.row1 = mv.row0 + draw_int(s, 0, 1);
        mv.col1 = mv.col0 + draw_int(s, 0, 1);
        int room = rows + cols;
        if (mv.drow > 0) room = std::min(room, rows - 1 - mv.row1);
        if (mv.drow < 0) room = std::min(room, mv.row0);
        if (mv.dcol > 0) room = std::min(room, cols - 1 - mv.col1);
        if (mv.dcol < 0) room = std::min(room, mv.col0);
        mv.count = static_cast<std::uint64_t>(
            draw_int(s, 1, std::max(1, std::min(room, 6))));
        sim.movers.push_back(mv);
    }
    // Waypoint chains: ORDERED (row, col) sequences per group, kept on
    // the wall-free rows (walls live in [2, rows-4]) so the wall/waypoint
    // disjointness validation always holds. Order is deliberately
    // scrambled across rows — the round trip must preserve it, not
    // canonicalize it away.
    if (s.next_below(2)) sim.layout.waypoint_radius = draw_int(s, 0, 6);
    for (std::size_t g = 0; g < 2; ++g) {
        const int safe_rows[3] = {1, rows - 3, rows - 2};
        for (int n = draw_int(s, 0, 3); n > 0; --n) {
            scenario::add_waypoint(
                sim.layout, sim.grid,
                g == 0 ? grid::Group::kTop : grid::Group::kBottom,
                safe_rows[draw_int(s, 0, 2)], draw_int(s, 0, cols - 1));
        }
    }
    // Perturbation axes: at most one spec per group per axis (the
    // validator's uniqueness rule), every field inside its validated
    // range. Surges are unrestricted in count and may overlap rects.
    for (int g = 1; g <= 2; ++g) {
        const auto group = static_cast<std::uint8_t>(g);
        if (s.next_below(3) == 0) {
            sim.perturb.no_shows.push_back(
                {group, s.next_double(),
                 static_cast<std::uint64_t>(draw_int(s, 0, 200))});
        }
        if (s.next_below(3) == 0) {
            sim.perturb.speeds.push_back(
                {group, 0.05 + 0.95 * s.next_double()});
        }
        if (s.next_below(3) == 0) {
            sim.perturb.dwells.push_back(
                {group, static_cast<std::uint64_t>(draw_int(s, 1, 30))});
        }
    }
    for (int n = draw_int(s, 0, 2); n > 0; --n) {
        core::SurgeSpec sg;
        sg.step = static_cast<std::uint64_t>(draw_int(s, 1, 300));
        sg.group = static_cast<std::uint8_t>(draw_int(s, 1, 2));
        sg.count = static_cast<std::uint32_t>(draw_int(s, 1, 40));
        sg.row0 = draw_int(s, 0, rows - 2);
        sg.col0 = draw_int(s, 0, cols - 2);
        sg.row1 = draw_int(s, sg.row0, rows - 1);
        sg.col1 = draw_int(s, sg.col0, cols - 1);
        sim.perturb.surges.push_back(sg);
    }
    sim.anticipate.horizon = s.next_below(2) ? draw_int(s, 1, 60) : 0;
    if (s.next_below(2)) {
        sim.panic.enabled = true;
        sim.panic.trigger_step =
            static_cast<std::uint64_t>(draw_int(s, 0, 200));
        sim.panic.row = draw_int(s, 0, rows - 1);
        sim.panic.col = draw_int(s, 0, cols - 1);
        sim.panic.radius = 1.0 + s.next_double() * 20.0;
    }

    scenario::canonicalize(sim.layout);
    return sc;
}

}  // namespace

TEST(ScenarioProperty, ParseSerializeParseIsAFixedPoint) {
    for (std::uint64_t i = 0; i < kCases; ++i) {
        const auto sc = random_scenario(i);
        const auto text = io::scenario_to_text(sc);
        scenario::Scenario back;
        ASSERT_NO_THROW(back = io::parse_scenario(text))
            << "case " << i << "\n"
            << text;
        EXPECT_EQ(back, sc) << "case " << i << " round-trip inequality\n"
                            << text;
        EXPECT_EQ(io::scenario_to_text(back), text)
            << "case " << i << " serializer not a fixed point";
    }
}

TEST(ScenarioProperty, GeneratedDynamicEventsSurviveTheRoundTrip) {
    // The generator must actually exercise the new axes: across the run
    // of cases, cycles, movers and anticipation all appear and reappear
    // intact after the round trip.
    int cycles = 0, movers = 0, anticipating = 0;
    for (std::uint64_t i = 0; i < kCases; ++i) {
        const auto sc = random_scenario(i);
        const auto back = io::parse_scenario(io::scenario_to_text(sc));
        ASSERT_EQ(back.sim.cycles, sc.sim.cycles) << "case " << i;
        ASSERT_EQ(back.sim.movers, sc.sim.movers) << "case " << i;
        ASSERT_EQ(back.sim.anticipate, sc.sim.anticipate) << "case " << i;
        cycles += static_cast<int>(sc.sim.cycles.size());
        movers += static_cast<int>(sc.sim.movers.size());
        anticipating += sc.sim.anticipate.horizon > 0;
    }
    EXPECT_GT(cycles, 0);
    EXPECT_GT(movers, 0);
    EXPECT_GT(anticipating, 0);
}

TEST(ScenarioProperty, GeneratedWaypointChainsSurviveTheRoundTrip) {
    // The generator exercises the waypoint axis, and chains come back in
    // authored order with their radius intact.
    int chained = 0, nondefault_radius = 0;
    for (std::uint64_t i = 0; i < kCases; ++i) {
        const auto sc = random_scenario(i);
        const auto back = io::parse_scenario(io::scenario_to_text(sc));
        ASSERT_EQ(back.sim.layout.waypoints, sc.sim.layout.waypoints)
            << "case " << i;
        ASSERT_EQ(back.sim.layout.waypoint_radius,
                  sc.sim.layout.waypoint_radius)
            << "case " << i;
        chained += sc.sim.layout.has_waypoints();
        nondefault_radius += sc.sim.layout.waypoint_radius != 1;
    }
    EXPECT_GT(chained, 0);
    EXPECT_GT(nondefault_radius, 0);
}

TEST(ScenarioProperty, GeneratedPerturbationsSurviveTheRoundTrip) {
    // The generator exercises every perturbation axis, and each spec
    // comes back field-exact (probabilities and fractions included — the
    // %.17g serializer owes us bit-exact doubles).
    int no_shows = 0, speeds = 0, dwells = 0, surges = 0;
    for (std::uint64_t i = 0; i < kCases; ++i) {
        const auto sc = random_scenario(i);
        const auto back = io::parse_scenario(io::scenario_to_text(sc));
        ASSERT_EQ(back.sim.perturb, sc.sim.perturb) << "case " << i;
        no_shows += static_cast<int>(sc.sim.perturb.no_shows.size());
        speeds += static_cast<int>(sc.sim.perturb.speeds.size());
        dwells += static_cast<int>(sc.sim.perturb.dwells.size());
        surges += static_cast<int>(sc.sim.perturb.surges.size());
    }
    EXPECT_GT(no_shows, 0);
    EXPECT_GT(speeds, 0);
    EXPECT_GT(dwells, 0);
    EXPECT_GT(surges, 0);
}

TEST(ScenarioProperty, ParserRejectsMalformedPerturbationLines) {
    // Wrong arity on every axis.
    EXPECT_THROW(io::parse_scenario("noshow = top 0.5\n"),
                 std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("speed = top\n"),
                 std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("dwell = top\n"),
                 std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("surge = 10 top 5 0 0 3\n"),
                 std::invalid_argument);
    // Unknown or reserved group names.
    EXPECT_THROW(io::parse_scenario("noshow = middle 0.5 0\n"),
                 std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("speed = none 0.5\n"),
                 std::invalid_argument);
    // Out-of-range probability / fraction / dwell length.
    EXPECT_THROW(io::parse_scenario("noshow = top 1.5 0\n"),
                 std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("noshow = top -0.25 0\n"),
                 std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("speed = top 0\n"),
                 std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("speed = top 1.25\n"),
                 std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("dwell = top 0\n"),
                 std::invalid_argument);
    // Duplicate spec for one group on one axis.
    EXPECT_THROW(
        io::parse_scenario("noshow = top 0.5 0\nnoshow = top 0.25 0\n"),
        std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("dwell = top 3\ndwell = top 5\n"),
                 std::invalid_argument);
    // Surges: step 0 collides with placement; negative count wraps;
    // rects must be on-grid (default 480x480) and non-inverted.
    EXPECT_THROW(io::parse_scenario("surge = 0 top 5 0 0 3 3\n"),
                 std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("surge = 10 top -5 0 0 3 3\n"),
                 std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("surge = 10 top 5 0 0 480 3\n"),
                 std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("surge = 10 top 5 3 0 0 3\n"),
                 std::invalid_argument);
}

TEST(ScenarioProperty, ParserRejectsMalformedWaypointLines) {
    // Empty chain.
    EXPECT_THROW(io::parse_scenario("waypoints = top\n"),
                 std::invalid_argument);
    // Out-of-bounds waypoint cell (default 480x480 grid).
    EXPECT_THROW(io::parse_scenario("waypoints = bottom 12 480\n"),
                 std::invalid_argument);
    // Waypoint on a wall: cell (0, 0) is painted '#' by the map below.
    EXPECT_THROW(io::parse_scenario(
                     "waypoints = top 0 0\nmap:\n"
                     "#...............\n................\n"
                     "................\n................\n"
                     "................\n................\n"
                     "................\n................\n"
                     "................\n................\n"
                     "................\n................\n"
                     "................\n................\n"
                     "................\n................\n"),
                 std::invalid_argument);
}

TEST(ScenarioProperty, ParserRejectsMalformedCycleLines) {
    // Wrong arity.
    EXPECT_THROW(io::parse_scenario("cycle = 20 40 20 5 1 4 1\n"),
                 std::invalid_argument);
    // Non-numeric / negative fields.
    EXPECT_THROW(io::parse_scenario("cycle = soon 40 20 5 1 4 1 11\n"),
                 std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("cycle = -20 40 20 5 1 4 1 11\n"),
                 std::invalid_argument);
    // Degenerate parameters: zero period, duty >= period, zero repeats.
    EXPECT_THROW(io::parse_scenario("cycle = 20 0 0 5 1 4 1 11\n"),
                 std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("cycle = 20 40 40 5 1 4 1 11\n"),
                 std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("cycle = 20 40 20 0 1 4 1 11\n"),
                 std::invalid_argument);
    // Rect off the (default 480x480) grid.
    EXPECT_THROW(io::parse_scenario("cycle = 20 40 20 5 0 0 480 3\n"),
                 std::invalid_argument);
}

TEST(ScenarioProperty, ParserRejectsMalformedMoverLines) {
    // Wrong arity.
    EXPECT_THROW(io::parse_scenario("mover = 10 4 8 0 1 30 0 33\n"),
                 std::invalid_argument);
    // Zero translation and non-unit translation.
    EXPECT_THROW(io::parse_scenario("mover = 10 4 8 0 0 30 0 33 7\n"),
                 std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("mover = 10 4 8 0 2 30 0 33 7\n"),
                 std::invalid_argument);
    // Zero interval / zero count.
    EXPECT_THROW(io::parse_scenario("mover = 10 0 8 0 1 30 0 33 7\n"),
                 std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("mover = 10 4 0 0 1 30 0 33 7\n"),
                 std::invalid_argument);
    // The FINAL translated position must stay on the grid: 8 east moves
    // from cols [472, 479] leave a 480-wide grid.
    EXPECT_THROW(
        io::parse_scenario("mover = 10 4 8 0 1 30 472 33 479\n"),
        std::invalid_argument);
    // Same rect with westward translation is fine.
    EXPECT_NO_THROW(io::parse_scenario("mover = 10 4 8 0 -1 30 472 33 479\n"));
}

TEST(ScenarioProperty, ParserRejectsMalformedAnticipateLines) {
    EXPECT_THROW(io::parse_scenario("anticipate = -1\n"),
                 std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("anticipate = soon\n"),
                 std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("anticipate = 40 2\n"),
                 std::invalid_argument);
}

TEST(ScenarioProperty, ParserRejectsIntOverflowInsteadOfWrapping) {
    // 2^32 + 1 would narrow-cast to row 1 and pass grid validation —
    // silently landing the event on the wrong cells.
    EXPECT_THROW(io::parse_scenario("door = 5 open 4294967297 0 8 3\n"),
                 std::invalid_argument);
    EXPECT_THROW(
        io::parse_scenario("cycle = 0 10 4 1 4294967297 0 8 3\n"),
        std::invalid_argument);
    EXPECT_THROW(
        io::parse_scenario("mover = 0 1 2 0 4294967297 30 0 33 7\n"),
        std::invalid_argument);
    // 2^32 as an anticipate horizon would wrap to 0: blending silently off.
    EXPECT_THROW(io::parse_scenario("anticipate = 4294967296\n"),
                 std::invalid_argument);
    // Huge cycle/mover step parameters are rejected by the expansion step
    // ceiling rather than wrapping the expanded event steps.
    EXPECT_THROW(io::parse_scenario(
                     "cycle = 9223372036854775807 4611686018427387904 4 1 "
                     "0 0 8 3\n"),
                 std::invalid_argument);
    // Every int key: rows = 4294967360 used to parse as a 64-row grid,
    // scan_range = 4294967297 as 1 and steps = 4294967396 as 100.
    for (const char* text :
         {"steps = 4294967396\n", "rows = 4294967360\n",
          "cols = 4294967360\n", "band_rows = 4294967297\n",
          "cross_margin = 4294967297\n", "scan_range = 4294967297\n",
          "slow_period = 4294967297\n", "panic = 5 4294967297 3 2.0\n",
          "panic = 5 3 4294967297 2.0\n",
          "spawn = top 4294967297 0 8 3 10\n",
          "spawn = top 0 4294967297 8 3 10\n",
          "spawn = top 0 0 4294967297 3 10\n",
          "spawn = top 0 0 8 4294967297 10\n"}) {
        try {
            io::parse_scenario(text);
            ADD_FAILURE() << "accepted: " << text;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("out of int range"),
                      std::string::npos)
                << text << ": " << e.what();
        }
    }
    // Negative counts used to wrap to 2^64 - 1 and fail later with the
    // unrelated "placement band too small for population".
    for (const char* text :
         {"agents_per_side = -1\n", "spawn = top 0 0 8 3 -1\n"}) {
        try {
            io::parse_scenario(text);
            ADD_FAILURE() << "accepted: " << text;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(
                std::string(e.what()).find("count must be non-negative"),
                std::string::npos)
                << text << ": " << e.what();
        }
    }
}
