// Tests for the scenario subsystem: the built-in registry, the scenario
// file parser (parse <-> serialize round-trip), the batch runner with its
// cross-engine fingerprints, and the acceptance properties of the ISSUE:
// the paper corridor reproduces the seed bit-exactly, and CPU vs GPU-simt
// stay bit-identical on every built-in — including the obstacle-laden ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

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
        const auto sim = backend::make_engine(backend::DeviceType::kCpu, s.sim);
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
    const auto sim = backend::make_engine(backend::DeviceType::kCpu, s.sim);
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
    // The writer does not validate, but a cell the map cannot show is
    // refused rather than dropped from the text.
    Scenario off_grid = s;
    off_grid.sim.layout.wall_cells.push_back(16 * 16);
    EXPECT_THROW(io::scenario_to_text(off_grid), std::invalid_argument);
    Scenario covered = s;
    covered.sim.layout.goal_cells[1] = {5};  // under the wall at cell 5
    EXPECT_THROW(io::scenario_to_text(covered), std::invalid_argument);
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
    // Model parameters must be finite and in range, by name: alpha = nan
    // ran silently, and max_band_fill = nan reached a NaN-to-int cast.
    const std::pair<std::string, std::string> bad_values[] = {
        {"alpha", "nan"},         {"beta", "inf"},
        {"sigma", "-1"},          {"alpha", "-0.5"},
        {"beta", "-1"},           {"q", "-1"},
        {"tau0", "-0.1"},         {"tau_min", "0"},
        {"tau_min", "-1e-3"},     {"rho", "1.5"},
        {"rho", "-0.1"},          {"congestion_weight", "2"},
        {"slow_fraction", "-0.5"}, {"slow_fraction", "1.01"},
        {"max_band_fill", "0"},   {"max_band_fill", "1.5"},
        {"max_band_fill", "nan"}, {"slow_period", "0"},
        {"panic", "10 32 32 -1"}, {"panic", "10 32 32 inf"},
        {"steps", "0"},           {"steps", "-5"},
    };
    for (const auto& [key, value] : bad_values) {
        try {
            io::parse_scenario(grid64 + key + " = " + value + "\n");
            ADD_FAILURE() << "accepted " << key << " = " << value;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                << key << " = " << value << ": " << e.what();
        }
    }
    EXPECT_NO_THROW(io::parse_scenario(
        grid64 +
        "alpha = 0\nrho = 0\nrho = 1\nmax_band_fill = 1\n"
        "tau_min = 1e-300\nslow_period = 1\npanic = 10 32 32 0\n"));
}

// --- Validation --------------------------------------------------------------

/// The same broken config must fail by name wherever it enters: the
/// parser, both engines and the prepared-scenario path the server caches
/// (core::validate behind all four). The engines are also given the
/// valid base's warm schedule, as a server job is, so their own check is
/// the one that must fire. Base: a 64x64 map with a wall at row 32, cols
/// 0-7, and 50 agents per side.
TEST(Validation, EveryRuleFailsByNameAtEveryEntryPoint) {
    std::string base = "agents_per_side = 50\nmap:\n";
    for (int r = 0; r < 64; ++r) {
        base += r == 32 ? std::string(8, '#') + std::string(56, '.')
                        : std::string(64, '.');
        base += "\n";
    }
    const Scenario good = io::parse_scenario(base);
    const PreparedScenario warm = prepare_scenario(good);
    constexpr std::uint32_t kWall = 32 * 64 + 3;  // (32, 3)
    ASSERT_TRUE(std::binary_search(good.sim.layout.wall_cells.begin(),
                                   good.sim.layout.wall_cells.end(), kWall));

    struct Row {
        const char* key;  ///< must appear in every entry point's message
        /// Scenario-file line breaking the rule; empty when the format
        /// cannot state it (a map cell is one character: wall or goal).
        std::string line;
        void (*breaks)(core::SimConfig&);
    };
    const Row rows[] = {
        {"scan_range", "scan_range = 0",
         [](core::SimConfig& c) { c.scan.range = 0; }},
        {"scan_range", "scan_range = 65",
         [](core::SimConfig& c) { c.scan.range = 65; }},
        {"scan_range", "scan_range = 2000000000",
         [](core::SimConfig& c) { c.scan.range = 2000000000; }},
        {"panic", "panic = 10 32 32 -1",
         [](core::SimConfig& c) {
             c.panic = {true, 10, 32, 32, -1.0};
         }},
        {"panic", "panic = 10 32 32 nan",
         [](core::SimConfig& c) {
             c.panic = {true, 10, 32, 32, std::nan("")};
         }},
        {"panic", "panic = 10 32 32 inf",
         [](core::SimConfig& c) {
             c.panic = {true, 10, 32, 32, HUGE_VAL};
         }},
        {"slow_period", "slow_period = 0",
         [](core::SimConfig& c) { c.speed.slow_period = 0; }},
        {"anticipate", "anticipate = -1",
         [](core::SimConfig& c) { c.anticipate.horizon = -1; }},
        {"map", "",
         [](core::SimConfig& c) { c.layout.goal_cells[0] = {kWall}; }},
        {"waypoints", "waypoints = top 32 3",
         [](core::SimConfig& c) { c.layout.waypoints[0] = {kWall}; }},
        {"waypoint_radius", "waypoint_radius = -1",
         [](core::SimConfig& c) { c.layout.waypoint_radius = -1; }},
        {"door", "door = 10 open 60 0 64 3",
         [](core::SimConfig& c) {
             c.doors = {{10, 60, 0, 64, 3, core::DoorAction::kOpen}};
         }},
        {"cycle", "cycle = 10 10 10 1 20 20 21 21",
         [](core::SimConfig& c) {
             c.cycles = {{10, 10, 10, 20, 20, 21, 21, 1}};
         }},
        {"mover", "mover = 10 4 3 0 0 20 20 21 21",
         [](core::SimConfig& c) {
             c.movers = {{10, 4, 0, 0, 20, 20, 21, 21, 3}};
         }},
        {"surge", "surge = 5 top 10 60 60 70 70",
         [](core::SimConfig& c) {
             c.perturb.surges = {{5, 1, 10, 60, 60, 70, 70}};
         }},
        {"dwell", "dwell = top 0",
         [](core::SimConfig& c) { c.perturb.dwells = {{1, 0}}; }},
        {"spawn", "spawn = top 0 0 70 70 10",
         [](core::SimConfig& c) {
             c.layout.spawns = {{grid::Group::kTop, 0, 0, 70, 70, 10}};
         }},
        {"spawn", "spawn = bottom 40 10 30 20 10",
         [](core::SimConfig& c) {
             c.layout.spawns = {{grid::Group::kBottom, 40, 10, 30, 20, 10}};
         }},
        {"spawn", "",
         [](core::SimConfig& c) {
             c.layout.spawns = {{grid::Group::kNone, 0, 0, 7, 7, 10}};
         }},
        {"band_rows", "band_rows = -3",
         [](core::SimConfig& c) { c.band_rows = -3; }},
        {"cross_margin", "cross_margin = -7",
         [](core::SimConfig& c) { c.cross_margin = -7; }},
        {"rho", "rho = 1.5", [](core::SimConfig& c) { c.aco.rho = 1.5; }},
        {"alpha", "alpha = nan",
         [](core::SimConfig& c) { c.aco.alpha = std::nan(""); }},
    };
    const auto expect_named = [](const char* key, const std::string& where,
                                 const auto& entry) {
        try {
            entry();
            ADD_FAILURE() << where << " accepted a broken " << key;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                << where << ": " << e.what();
        }
    };
    for (const auto& row : rows) {
        const std::string tag = std::string(row.key) + " (" +
                                (row.line.empty() ? "no text" : row.line) +
                                ")";
        if (!row.line.empty()) {
            expect_named(row.key, "parse_scenario " + tag, [&] {
                static_cast<void>(io::parse_scenario(row.line + "\n" + base));
            });
        }
        Scenario bad = good;
        row.breaks(bad.sim);
        for (const auto engine :
             {backend::DeviceType::kCpu, backend::DeviceType::kSimt}) {
            const std::string name = backend::device_name(engine);
            expect_named(row.key, "make_engine " + name + " " + tag, [&] {
                static_cast<void>(backend::make_engine(engine, bad.sim));
            });
            expect_named(row.key, "warm make_engine " + name + " " + tag,
                         [&] {
                             static_cast<void>(backend::make_engine(
                                 engine, bad.sim, warm.schedule));
                         });
        }
        expect_named(row.key, "prepare_scenario " + tag, [&] {
            static_cast<void>(prepare_scenario(bad));
        });
    }
    // The base itself runs everywhere.
    for (const auto engine :
         {backend::DeviceType::kCpu, backend::DeviceType::kSimt}) {
        EXPECT_NO_THROW(
            static_cast<void>(backend::make_engine(engine, good.sim)));
        EXPECT_NO_THROW(static_cast<void>(
            backend::make_engine(engine, good.sim, warm.schedule)));
    }
}

/// Band capacity depends on the walls, so placement checks it when an
/// engine is built; its messages name the scenario-file key to change.
TEST(Validation, PlacementFailuresNameTheirKey) {
    // Walls leave 32 of the top band's 128 cells walkable.
    std::string walled_band = "band_rows = 2\nagents_per_side = 100\nmap:\n";
    for (int r = 0; r < 64; ++r) {
        walled_band += r < 2 ? std::string(48, '#') + std::string(16, '.')
                             : std::string(64, '.');
        walled_band += "\n";
    }
    const std::string grid64 = "rows = 64\ncols = 64\n";
    const std::pair<std::string, const char*> cases[] = {
        {grid64 + "agents_per_side = 5000\n", "agents_per_side"},
        {grid64 + "agents_per_side = 500\nband_rows = 40\n", "band_rows"},
        {grid64 + "agents_per_side = 500\nband_rows = 2\n", "band_rows"},
        {walled_band, "band_rows"},
        {grid64 + "spawn = top 0 0 1 1 5\n", "spawn 0"},
    };
    for (const auto& [text, key] : cases) {
        const Scenario s = io::parse_scenario(text);
        for (const auto engine :
             {backend::DeviceType::kCpu, backend::DeviceType::kSimt}) {
            try {
                static_cast<void>(backend::make_engine(engine, s.sim));
                ADD_FAILURE() << "placed: " << text;
            } catch (const std::invalid_argument& e) {
                EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                    << e.what();
            }
        }
    }
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
    const auto records = runner.run(all());
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
    const auto sim = backend::make_engine(backend::DeviceType::kCpu, direct);
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
    const auto sim = backend::make_engine(backend::DeviceType::kCpu, s.sim);
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
    const auto sim = backend::make_engine(backend::DeviceType::kCpu, s.sim);
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
        const auto sim = backend::make_engine(backend::DeviceType::kCpu, s.sim);
        sim->run(60);
        EXPECT_EQ(sim->environment().wall_count(),
                  s.sim.layout.wall_cells.size())
            << name;
    }
}

}  // namespace
}  // namespace pedsim::scenario
