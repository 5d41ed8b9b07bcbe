// Tests for the scenario subsystem: the built-in registry, the scenario
// file parser (parse <-> serialize round-trip), the batch runner with its
// cross-engine fingerprints, and the acceptance properties of the ISSUE:
// the paper corridor reproduces the seed bit-exactly, and CPU vs GPU-simt
// stay bit-identical on every built-in — including the obstacle-laden ones.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "backend/device.hpp"
#include "core/cpu_simulator.hpp"
#include "core/gpu_simulator.hpp"
#include "io/scenario_file.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

namespace pedsim::scenario {
namespace {

// --- Registry ----------------------------------------------------------------

TEST(Registry, ShipsAtLeastFiveScenarios) {
    EXPECT_GE(names().size(), 5u);
    const std::set<std::string> required = {
        "paper_corridor", "bottleneck_doorway", "pillar_field",
        "narrowing_corridor", "room_evacuation"};
    for (const auto& name : required) {
        EXPECT_TRUE(has(name)) << name;
    }
}

TEST(Registry, GetMatchesNamesAndThrowsOnUnknown) {
    for (const auto& name : names()) {
        EXPECT_EQ(get(name).name, name);
    }
    EXPECT_FALSE(has("no_such_scenario"));
    EXPECT_THROW(get("no_such_scenario"), std::out_of_range);
    EXPECT_EQ(all().size(), names().size());
}

TEST(Registry, PaperCorridorIsTheSeedDefaultConfig) {
    // The paper baseline must stay a plain default SimConfig: same grid,
    // population, model, seed, empty layout — the "strict superset" proof
    // starts here.
    const auto s = get("paper_corridor");
    EXPECT_EQ(s.sim, core::SimConfig{});
    EXPECT_TRUE(s.sim.layout.empty());
}

TEST(Registry, EveryScenarioConstructsOnTheCpuEngine) {
    for (const auto& s : all()) {
        const auto sim = backend::make_cpu(s.sim);
        EXPECT_EQ(sim->properties().agent_count(), s.sim.total_agents())
            << s.name;
        EXPECT_EQ(sim->environment().wall_count(),
                  s.sim.layout.wall_cells.size())
            << s.name;
        EXPECT_EQ(sim->distance_field().geodesic(),
                  s.sim.layout.needs_geodesic() || !s.sim.doors.empty())
            << s.name;
    }
}

// --- Scenario files ----------------------------------------------------------

TEST(ScenarioFile, EveryBuiltinRoundTripsThroughText) {
    for (const auto& s : all()) {
        const auto text = io::scenario_to_text(s);
        const auto back = io::parse_scenario(text);
        EXPECT_EQ(back, s) << s.name << "\n" << text;
    }
}

TEST(ScenarioFile, ParsesMapWithWallsAndGoals) {
    std::string text =
        "name = tiny\n"
        "model = aco\n"
        "seed = 7\n"
        "steps = 25\n"
        "spawn = top 1 1 2 14 12\n"
        "map:\n";
    // 16x16: wall row 8 with a gap, top goals on the last row.
    for (int r = 0; r < 16; ++r) {
        if (r == 8) {
            text += "######....######\n";
        } else if (r == 15) {
            text += "tttttttttttttttt\n";
        } else {
            text += "................\n";
        }
    }
    const auto s = io::parse_scenario(text);
    EXPECT_EQ(s.name, "tiny");
    EXPECT_EQ(s.sim.model, core::Model::kAco);
    EXPECT_EQ(s.sim.seed, 7u);
    EXPECT_EQ(s.default_steps, 25);
    EXPECT_EQ(s.sim.grid.rows, 16);
    EXPECT_EQ(s.sim.grid.cols, 16);
    EXPECT_EQ(s.sim.layout.wall_cells.size(), 12u);
    EXPECT_EQ(s.sim.layout.goal_cells[0].size(), 16u);
    EXPECT_TRUE(s.sim.layout.goal_cells[1].empty());
    ASSERT_EQ(s.sim.layout.spawns.size(), 1u);
    EXPECT_EQ(s.sim.layout.spawns[0].count, 12u);
    // And it actually runs.
    const auto sim = backend::make_cpu(s.sim);
    sim->run(s.default_steps);
    EXPECT_EQ(sim->environment().wall_count(), 12u);
}

TEST(ScenarioFile, SerializesNonCanonicalLayoutsSafely) {
    // Hand-built scenarios may list cells out of order; the serializer
    // must canonicalize internally instead of corrupting the map walk.
    Scenario s;
    s.name = "unsorted";
    s.sim.grid.rows = s.sim.grid.cols = 16;
    s.sim.agents_per_side = 4;
    s.sim.layout.wall_cells = {100, 5, 100};  // unsorted, duplicated
    const auto back = io::parse_scenario(io::scenario_to_text(s));
    EXPECT_EQ(back.sim.layout.wall_cells,
              (std::vector<std::uint32_t>{5, 100}));
}

TEST(ScenarioFile, RejectsSecondMapBlock) {
    std::string text = "map:\n";
    for (int r = 0; r < 16; ++r) text += "................\n";
    text += "\nmap:\n";
    for (int r = 0; r < 16; ++r) text += "................\n";
    EXPECT_THROW(io::parse_scenario(text), std::invalid_argument);
}

TEST(ScenarioFile, RejectsIndentedMapRows) {
    // An indented map row used to be silently left-trimmed, shifting its
    // walls left; it must be an explicit error instead.
    std::string text = "map:\n";
    for (int r = 0; r < 16; ++r) {
        text += r == 5 ? "  ..............\n" : "................\n";
    }
    try {
        io::parse_scenario(text);
        FAIL() << "indented map row accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("flush-left"),
                  std::string::npos)
            << e.what();
    }
    // Trailing whitespace / CR is still fine (editors add both).
    std::string ok = "map:\n";
    for (int r = 0; r < 16; ++r) {
        ok += r == 5 ? "................  \r\n" : "................\n";
    }
    EXPECT_NO_THROW(io::parse_scenario(ok));
}

TEST(ScenarioFile, RejectsEmptyMapBlock) {
    // `map:` at EOF with no rows.
    EXPECT_THROW(io::parse_scenario("name = x\nmap:\n"),
                 std::invalid_argument);
    // `map:` immediately ended by a blank line, with keys after it.
    EXPECT_THROW(io::parse_scenario("map:\n\nname = x\n"),
                 std::invalid_argument);
}

TEST(ScenarioFile, RejectsMalformedInput) {
    EXPECT_THROW(io::parse_scenario("bogus_key = 3\n"),
                 std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("rows = x\n"), std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("model = fancy\n"),
                 std::invalid_argument);
    EXPECT_THROW(io::parse_scenario("spawn = top 1 2 3\n"),
                 std::invalid_argument);
    // Ragged map.
    EXPECT_THROW(io::parse_scenario("map:\n................\n....\n"),
                 std::invalid_argument);
    // Map not tile-aligned.
    EXPECT_THROW(io::parse_scenario("map:\n...\n...\n...\n"),
                 std::invalid_argument);
    // Explicit dims disagreeing with the map.
    std::string text = "rows = 32\nmap:\n";
    for (int r = 0; r < 16; ++r) text += "................\n";
    EXPECT_THROW(io::parse_scenario(text), std::invalid_argument);
    // Bad map character.
    std::string bad = "map:\n";
    for (int r = 0; r < 16; ++r) {
        bad += r == 3 ? "....?...........\n" : "................\n";
    }
    EXPECT_THROW(io::parse_scenario(bad), std::invalid_argument);
    // scan_range is bounded by the grid: each look-ahead ray walks
    // scan_range - 1 cells, so an unbounded value stalls every step.
    const std::string grid64 = "rows = 64\ncols = 64\n";
    for (const char* range : {"0", "-1", "65", "2000000000"}) {
        try {
            io::parse_scenario(grid64 + "scan_range = " + range + "\n");
            ADD_FAILURE() << "accepted scan_range = " << range;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("scan_range"),
                      std::string::npos)
                << range << ": " << e.what();
        }
    }
    EXPECT_EQ(io::parse_scenario(grid64 + "scan_range = 64\n").sim.scan.range,
              64);
}

// --- Runner ------------------------------------------------------------------

TEST(Runner, BatchCoversScenarioModelEngineGrid) {
    RunnerOptions opts;
    opts.engines = {backend::DeviceType::kCpu, backend::DeviceType::kSimt};
    opts.models = {core::Model::kLem, core::Model::kAco};
    opts.steps_override = 5;
    const ScenarioRunner runner(opts);
    const auto s = get("corridor_small");
    const auto records = runner.run({s});
    ASSERT_EQ(records.size(), 4u);  // 2 models x 2 engines, engine inner
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto& r = records[i];
        EXPECT_EQ(r.scenario, "corridor_small");
        EXPECT_EQ(r.seed, s.sim.seed);
        EXPECT_EQ(r.steps, 5);
        EXPECT_EQ(r.result.steps_run, 5);
        EXPECT_EQ(r.model, opts.models[i / 2]);
        EXPECT_EQ(r.engine, opts.engines[i % 2]);
    }
}

TEST(Runner, SummaryTableHasOneRowPerRun) {
    RunnerOptions opts;
    opts.engines = {backend::DeviceType::kCpu};
    opts.steps_override = 3;
    const ScenarioRunner runner(opts);
    const auto records = runner.run({get("corridor_small")});
    const auto table = ScenarioRunner::summary_table(records);
    EXPECT_NE(table.find("corridor_small"), std::string::npos);
    EXPECT_NE(table.find("fingerprint"), std::string::npos);
}

// The ISSUE acceptance property: one runner invocation batch-runs every
// built-in on both engines, and the agent-position fingerprints are
// bit-identical per (scenario, model, seed) pair — obstacles included.
TEST(Runner, AllBuiltinsBitIdenticalAcrossEngines) {
    RunnerOptions opts;
    opts.steps_override = 40;  // keep the 480x480 corridor affordable
    const ScenarioRunner runner(opts);
    const auto records = runner.run_registry();
    ASSERT_EQ(records.size(), 2 * all().size());
    std::map<std::string, std::uint64_t> fingerprint_by_key;
    for (const auto& r : records) {
        const auto key = r.scenario + "/" +
                         (r.model == core::Model::kLem ? "lem" : "aco") +
                         "/" + std::to_string(r.seed);
        const auto [it, inserted] =
            fingerprint_by_key.emplace(key, r.fingerprint);
        if (!inserted) {
            EXPECT_EQ(it->second, r.fingerprint)
                << key << " diverged between engines";
        }
    }
    EXPECT_EQ(fingerprint_by_key.size(), all().size());
}

// A failing run must surface with its coordinates attached, whichever
// pool worker it died on: anonymous rethrows make golden-test failures
// undiagnosable in a parallel batch.
TEST(Runner, BatchFailuresNameTheScenario) {
    Scenario bad = get("corridor_small");
    bad.name = "doomed_scenario";
    // A door rect off the 64x64 grid: engine setup (DoorSchedule
    // validation) throws inside the pool job.
    bad.sim.doors.push_back({5, 0, 0, 64, 3, core::DoorAction::kOpen});
    RunnerOptions opts;
    opts.engines = {backend::DeviceType::kCpu};
    opts.steps_override = 3;
    opts.threads = 4;
    const ScenarioRunner runner(opts);
    try {
        static_cast<void>(runner.run({get("corridor_small"), bad}));
        FAIL() << "expected the batch to rethrow the setup failure";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("doomed_scenario"), std::string::npos) << what;
        EXPECT_NE(what.find("cpu"), std::string::npos) << what;
        EXPECT_NE(what.find("out of bounds"), std::string::npos) << what;
    }
}

// --- Seed reproduction (strict-superset proof) -------------------------------

TEST(SeedReproduction, PaperCorridorScenarioMatchesDirectConfig) {
    // Running the paper corridor THROUGH the scenario subsystem must give
    // the seed's trajectories bit-exactly: same RunResult counters and the
    // same position fingerprint as a directly-configured simulator.
    const auto s = get("paper_corridor");
    const int steps = 25;
    const ScenarioRunner runner;
    const auto rec = runner.run_one(s, backend::DeviceType::kCpu,
                                    s.sim.model, s.sim.seed, steps);

    core::SimConfig direct;  // untouched seed defaults
    const auto sim = backend::make_cpu(direct);
    const auto rr = sim->run(steps);

    EXPECT_EQ(rec.result.steps_run, rr.steps_run);
    EXPECT_EQ(rec.result.crossed_top, rr.crossed_top);
    EXPECT_EQ(rec.result.crossed_bottom, rr.crossed_bottom);
    EXPECT_EQ(rec.result.total_moves, rr.total_moves);
    EXPECT_EQ(rec.result.total_conflicts, rr.total_conflicts);
    EXPECT_EQ(rec.fingerprint, position_fingerprint(*sim));
}

TEST(SeedReproduction, CorridorSmallMatchesDirectConfigOnBothEngines) {
    const auto s = get("corridor_small");
    core::SimConfig direct;
    direct.grid.rows = direct.grid.cols = 64;
    direct.agents_per_side = 400;

    const ScenarioRunner runner;
    for (const auto engine :
         {backend::DeviceType::kCpu, backend::DeviceType::kSimt}) {
        const auto rec =
            runner.run_one(s, engine, s.sim.model, s.sim.seed, 120);
        const auto sim = backend::make_engine(engine, direct);
        sim->run(120);
        EXPECT_EQ(rec.fingerprint, position_fingerprint(*sim))
            << backend::device_name(engine);
    }
}

// --- Scenario behaviour ------------------------------------------------------

TEST(Behaviour, BottleneckStillDrainsThroughTheDoorway) {
    const auto s = get("bottleneck_doorway");
    const auto sim = backend::make_cpu(s.sim);
    const auto rr = sim->run(s.default_steps);
    // Both groups keep crossing despite the wall: the geodesic field
    // routes them through the gap.
    EXPECT_GT(rr.crossed_top, 50u);
    EXPECT_GT(rr.crossed_bottom, 50u);
    // Walls survive the run untouched.
    EXPECT_EQ(sim->environment().wall_count(),
              s.sim.layout.wall_cells.size());
    EXPECT_EQ(sim->environment().population() + rr.crossed_total(),
              s.sim.total_agents());
}

TEST(Behaviour, RoomEvacuationDrainsThroughTheDoor) {
    const auto s = get("room_evacuation");
    const auto sim = backend::make_cpu(s.sim);
    const auto rr = sim->run(s.default_steps);
    // Most of the 320 occupants find the single door.
    EXPECT_GT(rr.crossed_total(), s.sim.total_agents() / 2);
    EXPECT_EQ(sim->environment().population() + rr.crossed_total(),
              s.sim.total_agents());
}

TEST(Behaviour, WallsAreConservedAcrossLongRuns) {
    for (const auto& name :
         {"pillar_field", "narrowing_corridor", "bottleneck_doorway"}) {
        const auto s = get(name);
        const auto sim = backend::make_cpu(s.sim);
        sim->run(60);
        EXPECT_EQ(sim->environment().wall_count(),
                  s.sim.layout.wall_cells.size())
            << name;
    }
}

}  // namespace
}  // namespace pedsim::scenario
