// Integration and property tests for the simulation engines:
// conservation invariants, crossing semantics, determinism, and the
// bit-exact CPU <-> GPU-simt parity the paper's Fig. 6b validation rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "backend/cli.hpp"
#include "backend/device.hpp"
#include "core/cpu_simulator.hpp"
#include "core/gpu_simulator.hpp"
#include "core/metrics.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace pedsim::core {
namespace {

SimConfig small_config(Model model, std::size_t agents = 300,
                       std::uint64_t seed = 42) {
    SimConfig cfg;
    cfg.grid.rows = cfg.grid.cols = 64;
    cfg.agents_per_side = agents;
    cfg.model = model;
    cfg.seed = seed;
    return cfg;
}

/// Full state fingerprint: every active agent's position plus env hash.
std::map<std::int32_t, std::pair<int, int>> agent_positions(
    const Simulator& sim) {
    std::map<std::int32_t, std::pair<int, int>> pos;
    const auto& p = sim.properties();
    for (std::size_t i = 1; i < p.rows(); ++i) {
        if (p.active[i]) {
            pos[static_cast<std::int32_t>(i)] = {p.row[i], p.col[i]};
        }
    }
    return pos;
}

// --- Construction -------------------------------------------------------------

TEST(SimulatorInit, PopulationMatchesConfig) {
    const auto cfg = small_config(Model::kLem);
    const auto sim = backend::make_engine(backend::DeviceType::kCpu, cfg);
    EXPECT_EQ(sim->environment().population(), 600u);
    EXPECT_EQ(sim->properties().agent_count(), 600u);
    EXPECT_EQ(sim->properties().active_count(), 600u);
}

TEST(SimulatorInit, LemHasNoPheromone) {
    const auto sim = backend::make_engine(
        backend::DeviceType::kCpu, small_config(Model::kLem));
    EXPECT_EQ(sim->pheromone(), nullptr);
}

TEST(SimulatorInit, AcoHasPheromoneAtTau0) {
    auto cfg = small_config(Model::kAco);
    cfg.aco.tau0 = 0.25;
    const auto sim = backend::make_engine(backend::DeviceType::kCpu, cfg);
    ASSERT_NE(sim->pheromone(), nullptr);
    EXPECT_DOUBLE_EQ(sim->pheromone()->at(grid::Group::kTop, 30, 30), 0.25);
}

TEST(SimulatorInit, EnvironmentAndPropertiesAgree) {
    const auto sim = backend::make_engine(
        backend::DeviceType::kCpu, small_config(Model::kLem));
    const auto& env = sim->environment();
    const auto& props = sim->properties();
    for (std::size_t i = 1; i < props.rows(); ++i) {
        EXPECT_EQ(env.index_at(props.row[i], props.col[i]),
                  static_cast<std::int32_t>(i));
        EXPECT_EQ(static_cast<std::uint8_t>(
                      env.occupancy(props.row[i], props.col[i])),
                  props.group[i]);
    }
}

// --- Conservation invariants -----------------------------------------------------

class InvariantTest : public ::testing::TestWithParam<Model> {};

TEST_P(InvariantTest, AgentsAreConservedAcrossSteps) {
    auto cfg = small_config(GetParam(), 400);
    cfg.exit_on_cross = false;  // nobody leaves: strict conservation
    const auto sim = backend::make_engine(backend::DeviceType::kCpu, cfg);
    for (int s = 0; s < 60; ++s) {
        sim->step();
        EXPECT_EQ(sim->environment().population(), 800u);
        EXPECT_EQ(sim->properties().active_count(), 800u);
    }
}

TEST_P(InvariantTest, PopulationPlusCrossedIsConstantWithExits) {
    const auto cfg = small_config(GetParam(), 400);
    const auto sim = backend::make_engine(backend::DeviceType::kCpu, cfg);
    for (int s = 0; s < 150; ++s) {
        sim->step();
        const auto on_grid = sim->environment().population();
        const auto crossed = sim->crossed_total(grid::Group::kTop) +
                             sim->crossed_total(grid::Group::kBottom);
        EXPECT_EQ(on_grid + crossed, 800u);
    }
}

TEST_P(InvariantTest, IndexMatrixStaysConsistent) {
    const auto sim = backend::make_engine(
        backend::DeviceType::kCpu, small_config(GetParam(), 350));
    sim->run(80);
    const auto& env = sim->environment();
    const auto& props = sim->properties();
    std::size_t indexed = 0;
    for (int r = 0; r < env.rows(); ++r) {
        for (int c = 0; c < env.cols(); ++c) {
            const auto i = env.index_at(r, c);
            if (i == 0) {
                EXPECT_TRUE(env.empty(r, c));
                continue;
            }
            ++indexed;
            EXPECT_EQ(props.row[static_cast<std::size_t>(i)], r);
            EXPECT_EQ(props.col[static_cast<std::size_t>(i)], c);
            EXPECT_TRUE(props.active[static_cast<std::size_t>(i)]);
        }
    }
    EXPECT_EQ(indexed, props.active_count());
}

TEST_P(InvariantTest, NoAgentMovesMoreThanOneCellPerStep) {
    const auto sim = backend::make_engine(
        backend::DeviceType::kCpu, small_config(GetParam(), 400));
    auto before = agent_positions(*sim);
    for (int s = 0; s < 40; ++s) {
        sim->step();
        const auto after = agent_positions(*sim);
        for (const auto& [id, pos] : after) {
            const auto it = before.find(id);
            if (it == before.end()) continue;
            EXPECT_LE(std::abs(pos.first - it->second.first), 1);
            EXPECT_LE(std::abs(pos.second - it->second.second), 1);
        }
        before = after;
    }
}

TEST_P(InvariantTest, TourLengthsAreMonotone) {
    const auto sim = backend::make_engine(
        backend::DeviceType::kCpu, small_config(GetParam(), 300));
    std::vector<double> prev(sim->properties().tour_length);
    for (int s = 0; s < 30; ++s) {
        sim->step();
        const auto& cur = sim->properties().tour_length;
        for (std::size_t i = 1; i < cur.size(); ++i) {
            EXPECT_GE(cur[i], prev[i]);
        }
        prev = cur;
    }
}

INSTANTIATE_TEST_SUITE_P(BothModels, InvariantTest,
                         ::testing::Values(Model::kLem, Model::kAco),
                         [](const auto& info) {
                             return info.param == Model::kLem ? "Lem" : "Aco";
                         });

// --- Determinism -------------------------------------------------------------------

class DeterminismTest : public ::testing::TestWithParam<Model> {};

TEST_P(DeterminismTest, SameSeedSameTrajectory) {
    const auto cfg = small_config(GetParam());
    const auto a = backend::make_engine(backend::DeviceType::kCpu, cfg);
    const auto b = backend::make_engine(backend::DeviceType::kCpu, cfg);
    for (int s = 0; s < 50; ++s) {
        a->step();
        b->step();
    }
    EXPECT_EQ(agent_positions(*a), agent_positions(*b));
    EXPECT_TRUE(a->environment() == b->environment());
}

TEST_P(DeterminismTest, DifferentSeedDifferentTrajectory) {
    const auto a = backend::make_engine(
        backend::DeviceType::kCpu, small_config(GetParam(), 300, 1));
    const auto b = backend::make_engine(
        backend::DeviceType::kCpu, small_config(GetParam(), 300, 2));
    for (int s = 0; s < 30; ++s) {
        a->step();
        b->step();
    }
    EXPECT_NE(agent_positions(*a), agent_positions(*b));
}

INSTANTIATE_TEST_SUITE_P(BothModels, DeterminismTest,
                         ::testing::Values(Model::kLem, Model::kAco),
                         [](const auto& info) {
                             return info.param == Model::kLem ? "Lem" : "Aco";
                         });

// --- CPU <-> GPU parity (the Fig. 6b property) ----------------------------------------

struct ParityCase {
    Model model;
    std::size_t agents;
    std::uint64_t seed;
};

class ParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(ParityTest, EnginesAreBitIdentical) {
    const auto p = GetParam();
    const auto cfg = small_config(p.model, p.agents, p.seed);
    const auto cpu = backend::make_engine(backend::DeviceType::kCpu, cfg);
    const auto gpu = backend::make_simt(cfg);
    for (int s = 0; s < 60; ++s) {
        const auto rc = cpu->step();
        const auto rg = gpu->step();
        ASSERT_EQ(rc.moves, rg.moves) << "step " << s;
        ASSERT_EQ(rc.proposals, rg.proposals) << "step " << s;
        ASSERT_EQ(rc.crossed_top, rg.crossed_top) << "step " << s;
        ASSERT_EQ(rc.crossed_bottom, rg.crossed_bottom) << "step " << s;
    }
    EXPECT_TRUE(cpu->environment() == gpu->environment());
    EXPECT_EQ(agent_positions(*cpu), agent_positions(*gpu));
    if (cfg.model == Model::kAco) {
        // Pheromone fields must match exactly, too.
        const auto& pc = *cpu->pheromone();
        const auto& pg = *gpu->pheromone();
        for (const auto g : {grid::Group::kTop, grid::Group::kBottom}) {
            EXPECT_EQ(pc.raw(g), pg.raw(g));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParityTest,
    ::testing::Values(ParityCase{Model::kLem, 100, 1},
                      ParityCase{Model::kLem, 400, 2},
                      ParityCase{Model::kLem, 900, 3},
                      ParityCase{Model::kAco, 100, 4},
                      ParityCase{Model::kAco, 400, 5},
                      ParityCase{Model::kAco, 900, 6}),
    [](const auto& info) {
        return std::string(info.param.model == Model::kLem ? "Lem" : "Aco") +
               std::to_string(info.param.agents) + "_seed" +
               std::to_string(info.param.seed);
    });

// --- Movement oracle: the host proposal walk vs the SIMT per-cell gather ------------
//
// The host engines resolve only the cells some agent proposed; the
// gpu-simt movement kernel still gathers at every empty cell, so it is an
// independent oracle for the walk, conflict draws included.

struct HostEngine {
    const char* label;
    int threads;
};

const HostEngine kHostEngines[] = {
    {"cpu@1", 1},
    {"cpu@2", 2},
    {"cpu@4", 4},
    {"cpu@8", 8},
};

/// One engine per kHostEngines entry, in the same order.
std::vector<std::unique_ptr<Simulator>> make_host_engines(
    const SimConfig& base) {
    std::vector<std::unique_ptr<Simulator>> sims;
    for (const auto& e : kHostEngines) {
        SimConfig cfg = base;
        cfg.exec.threads = e.threads;
        sims.push_back(backend::make_engine(backend::DeviceType::kCpu, cfg));
    }
    return sims;
}

void expect_same_state(const Simulator& host, const Simulator& oracle,
                       const std::string& label) {
    EXPECT_TRUE(host.environment() == oracle.environment()) << label;
    EXPECT_EQ(scenario::position_fingerprint(host),
              scenario::position_fingerprint(oracle))
        << label;
    ASSERT_EQ(host.pheromone() != nullptr, oracle.pheromone() != nullptr)
        << label;
    if (oracle.pheromone() == nullptr) return;
    for (const auto g : {grid::Group::kTop, grid::Group::kBottom}) {
        EXPECT_EQ(host.pheromone()->raw(g), oracle.pheromone()->raw(g))
            << label;
    }
}

/// Agents whose gates must hold them this step (no FUTURE): the slow
/// speed class off its phase, the perturbation speed gate's skipped
/// steps, and agents dwelling at a waypoint. Read before the step runs.
std::vector<std::int32_t> gated_agents(const Simulator& sim) {
    const SimConfig& cfg = sim.config();
    const PropertyTable& p = sim.properties();
    const std::uint64_t step = sim.current_step();
    std::array<std::uint64_t, 3> gate_q{0, 0, 0};
    for (const auto& sc : cfg.perturb.speeds) {
        if (sc.fraction < 1.0) {
            gate_q[sc.group] = static_cast<std::uint64_t>(
                std::llround(sc.fraction * 4294967296.0));
        }
    }
    std::vector<std::int32_t> held;
    for (std::size_t i = 1; i < p.rows(); ++i) {
        if (p.active[i] == 0) continue;
        const std::uint64_t t = step + i;
        const auto period =
            static_cast<std::uint64_t>(std::max(cfg.speed.slow_period, 1));
        const std::uint64_t q = gate_q[p.group[i]];
        if ((p.speed_class[i] != 0 && t % period != 0) ||
            (q != 0 && (((t + 1) * q) >> 32) <= ((t * q) >> 32)) ||
            p.dwell_until[i] != 0) {
            held.push_back(static_cast<std::int32_t>(i));
        }
    }
    return held;
}

struct OracleCase {
    const char* name;
    SimConfig cfg;
};

/// Dense configs that between them reach every gate the engines run
/// before its draw, so the on-demand candidate rows are built (or not)
/// on every path.
std::vector<OracleCase> gate_cases() {
    SimConfig base;
    base.grid.rows = base.grid.cols = 128;  // 3 bit words per padded row
    base.agents_per_side = 3277;            // ~40% of the 16,384 cells
    base.model = Model::kAco;
    base.seed = 12;
    const auto cell = [&](int r, int c) {
        return static_cast<std::uint32_t>(r * base.grid.cols + c);
    };
    std::vector<OracleCase> cases;

    auto no_forward = base;
    no_forward.forward_priority = false;  // every proposal is a draw
    cases.push_back({"aco_forward_priority_off", no_forward});

    auto speeds = base;
    speeds.model = Model::kLem;
    speeds.speed.slow_fraction = 0.3;
    speeds.speed.slow_period = 3;
    speeds.perturb.speeds.push_back({/*group=*/1, /*fraction=*/0.6});
    cases.push_back({"lem_slow_class_and_speed_gate", speeds});

    auto waypoints = base;
    waypoints.layout.waypoints[0] = {cell(52, 40), cell(70, 90)};
    waypoints.layout.waypoints[1] = {cell(75, 88), cell(60, 30)};
    waypoints.layout.waypoint_radius = 3;
    waypoints.perturb.dwells.push_back({/*group=*/1, /*steps=*/4});
    waypoints.perturb.dwells.push_back({/*group=*/2, /*steps=*/2});
    cases.push_back({"aco_waypoint_forward_and_dwell", waypoints});

    auto panic = base;
    panic.model = Model::kLem;
    panic.panic = {true, /*trigger_step=*/10, 64, 64, /*radius=*/30.0};
    cases.push_back({"lem_panic", panic});

    // A door closing mid-corridor at step 25 and reopening at 45: with a
    // 10-step horizon, scoring blends toward each next phase.
    auto scan = base;
    scan.scan.range = 3;
    scan.scan.congestion_weight = 0.7;
    scan.anticipate.horizon = 10;
    scan.doors.push_back({25, 60, 20, 67, 107, DoorAction::kClose});
    scan.doors.push_back({45, 60, 20, 67, 107, DoorAction::kOpen});
    cases.push_back({"aco_scan3_anticipation", scan});
    scan.model = Model::kLem;
    cases.push_back({"lem_scan3_anticipation", scan});
    return cases;
}

TEST(MovementOracle, ProposalWalkMatchesSimtGatherUnderContention) {
    for (const auto& oc : gate_cases()) {
        SCOPED_TRACE(oc.name);
        const auto oracle =
            backend::make_engine(backend::DeviceType::kSimt, oc.cfg);
        const auto hosts = make_host_engines(oc.cfg);

        constexpr int kSteps = 60;
        int contested_steps = 0;
        std::size_t held = 0;
        std::size_t panicked = 0;
        int blended_steps = 0;
        int advances = 0;
        for (int s = 0; s < kSteps; ++s) {
            const auto gated = gated_agents(*oracle);
            held += gated.size();
            const StepResult want = oracle->step();
            contested_steps += want.conflicts > 0;
            advances += want.waypoint_advances;
            blended_steps += oracle->scoring_field().blending();
            const auto& op = oracle->properties();
            for (std::size_t i = 1; i < op.rows(); ++i) {
                panicked += op.active[i] != 0 && op.panicked[i] != 0;
            }
            for (std::size_t h = 0; h < hosts.size(); ++h) {
                ASSERT_EQ(hosts[h]->step(), want)
                    << kHostEngines[h].label << " step " << s;
                const auto& hp = hosts[h]->properties();
                for (const std::int32_t i : gated) {
                    ASSERT_EQ(hp.future_row[static_cast<std::size_t>(i)],
                              kNoFuture)
                        << kHostEngines[h].label << " step " << s
                        << ": gated agent " << i << " proposed";
                }
                ASSERT_EQ(hp.panicked, op.panicked)
                    << kHostEngines[h].label << " step " << s;
            }
        }
        // Most steps must resolve cells with 2 or more proposers, so the
        // stream-building path of the walk really runs.
        EXPECT_GT(contested_steps, kSteps / 2);
        // Each case must reach the gate it was built for.
        const SimConfig& cfg = oc.cfg;
        if (cfg.speed.slow_fraction > 0.0 || !cfg.perturb.speeds.empty() ||
            !cfg.perturb.dwells.empty()) {
            EXPECT_GT(held, 0u);
        }
        if (cfg.panic.enabled) {
            EXPECT_GT(panicked, 0u);
        }
        if (cfg.layout.has_waypoints()) {
            EXPECT_GT(advances, 0);
        }
        if (cfg.anticipate.horizon > 0) {
            EXPECT_GT(blended_steps, 0);
        }
        for (std::size_t h = 0; h < hosts.size(); ++h) {
            expect_same_state(*hosts[h], *oracle, kHostEngines[h].label);
        }
    }
}

TEST(MovementOracle, GateCasesArePinned) {
    // Every engine runs the same gates, so the parity above cannot see a
    // gate that misfires everywhere at once. Pin each case's 60-step
    // StepResult totals and final positions on the cpu engine instead;
    // no registry scenario sets speed.slow_fraction, so this is the only
    // absolute pin on the slow class.
    struct Pin {
        const char* name;
        int proposals, moves, conflicts, crossed_top, crossed_bottom,
            waypoint_advances;
        std::uint64_t fingerprint;
    };
    const Pin pins[] = {
        {"aco_forward_priority_off", 392579, 226288, 166291, 0, 0, 0,
         0xc63eb9a32c39f88dull},
        {"lem_slow_class_and_speed_gate", 245723, 185982, 59741, 0, 28, 0,
         0x4f2356a2e797a45dull},
        {"aco_waypoint_forward_and_dwell", 372369, 177738, 194631, 0, 0, 238,
         0xd2db398f991237f5ull},
        {"lem_panic", 354810, 184913, 169897, 0, 0, 0, 0x11b0de130d146a2dull},
        {"aco_scan3_anticipation", 368936, 244348, 124588, 0, 0, 0,
         0xbe02e3a392420408ull},
        {"lem_scan3_anticipation", 364302, 236519, 127783, 0, 0, 0,
         0xa409d92e65614650ull},
    };
    const auto cases = gate_cases();
    ASSERT_EQ(cases.size(), std::size(pins));
    for (std::size_t k = 0; k < cases.size(); ++k) {
        const Pin& pin = pins[k];
        SCOPED_TRACE(cases[k].name);
        ASSERT_STREQ(cases[k].name, pin.name);
        const auto sim = backend::make_engine(backend::DeviceType::kCpu,
                                              cases[k].cfg);
        StepResult sum;
        sim->run(60, [&](const StepResult& sr) {
            sum.proposals += sr.proposals;
            sum.moves += sr.moves;
            sum.conflicts += sr.conflicts;
            sum.crossed_top += sr.crossed_top;
            sum.crossed_bottom += sr.crossed_bottom;
            sum.waypoint_advances += sr.waypoint_advances;
            return true;
        });
        EXPECT_EQ(sum.proposals, pin.proposals);
        EXPECT_EQ(sum.moves, pin.moves);
        EXPECT_EQ(sum.conflicts, pin.conflicts);
        EXPECT_EQ(sum.crossed_top, pin.crossed_top);
        EXPECT_EQ(sum.crossed_bottom, pin.crossed_bottom);
        EXPECT_EQ(sum.waypoint_advances, pin.waypoint_advances);
        EXPECT_EQ(scenario::position_fingerprint(*sim), pin.fingerprint);
    }
}

TEST(MovementOracle, WordSeamAndCornerContestsMatchSimt) {
    // Three hand-built contests, each an empty cell whose every proposer
    // has it as its only empty neighbour:
    //  - Three top-group agents at column 62 around (10, 63): logical
    //    column 63 is padded bit 64, the first bit of the row's second
    //    word, so the cell and its proposers straddle a word seam.
    //  - Three bottom-group agents around the last row's column 0 (padded
    //    bit 1), gathered through the sentinel frame. The corner pocket's
    //    east side is held by two more agents rather than walls, which
    //    keeps a path to the goal and a finite distance field.
    //  - Eight agents on every king neighbour of (64, 30), inside a ring
    //    of walls with one gap held by a ninth agent (the same path
    //    trick): every proposer-direction bit is set at once, and the
    //    seeds draw several different winners among the eight.
    std::set<std::int32_t> pocket_winners;
    for (const std::uint64_t seed : {3, 4, 5, 6, 7, 8, 9, 10}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        SimConfig cfg;
        cfg.grid.rows = cfg.grid.cols = 128;
        cfg.model = Model::kAco;
        cfg.forward_priority = false;
        cfg.seed = seed;
        const auto cell = [&](int r, int c) {
            return static_cast<std::uint32_t>(r * cfg.grid.cols + c);
        };
        auto& layout = cfg.layout;
        const auto spawn = [&](grid::Group g, int r, int c) {
            layout.spawns.push_back({g, r, c, r, c, 1});
        };
        for (const auto& [r, c] : std::vector<std::pair<int, int>>{
                 {8, 61}, {8, 62}, {8, 63}, {9, 61}, {9, 63}, {10, 61},
                 {11, 61}, {11, 63}, {12, 61}, {12, 62}, {12, 63},
                 {125, 0}, {125, 1}, {125, 2}}) {
            layout.wall_cells.push_back(cell(r, c));
        }
        constexpr int kPr = 64;  // the 8-way pocket's centre
        constexpr int kPc = 30;
        for (int dr = -2; dr <= 2; ++dr) {
            for (int dc = -2; dc <= 2; ++dc) {
                const bool ring = std::max(std::abs(dr), std::abs(dc)) == 2;
                if (ring && !(dr == -2 && dc == 0)) {
                    layout.wall_cells.push_back(cell(kPr + dr, kPc + dc));
                }
            }
        }
        for (int r = 9; r <= 11; ++r) spawn(grid::Group::kTop, r, 62);  // 1-3
        spawn(grid::Group::kBottom, 126, 0);                              // 4
        spawn(grid::Group::kBottom, 126, 1);                              // 5
        spawn(grid::Group::kBottom, 127, 1);                              // 6
        spawn(grid::Group::kBottom, 126, 2);  // blockers, 7-8
        spawn(grid::Group::kBottom, 127, 2);
        for (const auto off : grid::kNeighborOffsets) {  // 9-16
            spawn(off.dr < 0 ? grid::Group::kBottom : grid::Group::kTop,
                  kPr + off.dr, kPc + off.dc);
        }
        spawn(grid::Group::kTop, kPr - 2, kPc);  // gap blocker, 17

        const auto oracle =
            backend::make_engine(backend::DeviceType::kSimt, cfg);
        const auto hosts = make_host_engines(cfg);
        const StepResult want = oracle->step();
        EXPECT_EQ(want.proposals, 17);
        EXPECT_GE(want.conflicts, 11);  // 2 + 2 + 7 losers in the pockets
        const auto& env = oracle->environment();
        const std::int32_t seam_winner = env.index_at(10, 63);
        const std::int32_t corner_winner = env.index_at(127, 0);
        const std::int32_t pocket_winner = env.index_at(kPr, kPc);
        EXPECT_GE(seam_winner, 1);
        EXPECT_LE(seam_winner, 3);
        EXPECT_GE(corner_winner, 4);
        EXPECT_LE(corner_winner, 6);
        EXPECT_GE(pocket_winner, 9);
        EXPECT_LE(pocket_winner, 16);
        pocket_winners.insert(pocket_winner);
        for (std::size_t h = 0; h < hosts.size(); ++h) {
            const std::string label = kHostEngines[h].label;
            EXPECT_EQ(hosts[h]->step(), want) << label;
            const auto& host_env = hosts[h]->environment();
            EXPECT_EQ(host_env.index_at(10, 63), seam_winner) << label;
            EXPECT_EQ(host_env.index_at(127, 0), corner_winner) << label;
            EXPECT_EQ(host_env.index_at(kPr, kPc), pocket_winner) << label;
            expect_same_state(*hosts[h], *oracle, label);
        }
    }
    EXPECT_GE(pocket_winners.size(), 4u);
}

// --- Slice seams: cpu at 1 thread vs 2, 4 and 12 ----------------------------------------
//
// The cpu engine cuts tour construction and movement into
// exec::plan_slices ranges, four per thread. On these 48-row grids 12
// threads give 48 one-row slices, so every row boundary is a seam. The
// adversarial cases: agents crossing seams in both directions within one
// step, conflict resolution astride a seam, door and mover rects spanning
// seams, and look-ahead rays reading rows past their slice.

struct Trace {
    std::vector<StepResult> steps;
    std::uint64_t fingerprint = 0;
};

Trace trace_cpu(const SimConfig& base, int threads, int steps) {
    SimConfig cfg = base;
    cfg.exec.threads = threads;
    const auto sim = backend::make_engine(backend::DeviceType::kCpu, cfg);
    Trace t;
    sim->run(steps, [&t](const StepResult& sr) {
        t.steps.push_back(sr);
        return true;
    });
    t.fingerprint = scenario::position_fingerprint(*sim);
    return t;
}

/// Bit-parity of cpu at 2, 4 and 12 threads with cpu at 1 thread: the
/// same StepResult sequence and the same final fingerprint.
void expect_seam_parity(const std::string& label, const SimConfig& base,
                        int steps) {
    const Trace serial = trace_cpu(base, 1, steps);
    ASSERT_EQ(serial.steps.size(), static_cast<std::size_t>(steps)) << label;
    for (const int threads : {2, 4, 12}) {
        const Trace t = trace_cpu(base, threads, steps);
        EXPECT_EQ(t.steps, serial.steps)
            << label << " @ " << threads << " threads";
        EXPECT_EQ(t.fingerprint, serial.fingerprint)
            << label << " @ " << threads << " threads";
    }
}

/// Dense bidirectional corridor on a 48-row grid: both groups press
/// through every interior row each step, so every seam sees agents
/// crossing in both directions simultaneously.
SimConfig crossing_config(std::size_t agents, std::uint64_t seed) {
    SimConfig cfg;
    cfg.grid.rows = cfg.grid.cols = 48;
    cfg.agents_per_side = agents;
    cfg.model = Model::kLem;
    cfg.seed = seed;
    return cfg;
}

TEST(SliceSeams, BothDirectionsCrossSeamsEveryStep) {
    expect_seam_parity("bidirectional crossing", crossing_config(500, 71), 60);
}

TEST(SliceSeams, ConflictResolutionAstrideSeam) {
    // The dense crowd contends for the same empty cells from both sides of
    // each seam. The winner draw must come from the same global (cell,
    // step) RNG stream whichever slice resolves the cell.
    const auto cfg = crossing_config(550, 73);
    std::uint64_t conflicts = 0;
    for (const auto& sr : trace_cpu(cfg, 1, 40).steps) {
        conflicts += static_cast<std::uint64_t>(sr.conflicts);
    }
    ASSERT_GT(conflicts, 0u) << "case must actually exercise contention";
    expect_seam_parity("conflicts astride seams", cfg, 40);
}

TEST(SliceSeams, DoorRectSpanningSeamTogglesBothSides) {
    // A wall across rows 20..28 opens a door mid-run, closes it and opens
    // it again: the door rect spans several seams, so every slice must
    // see the open/close before its next stage reads.
    scenario::Scenario s;
    s.sim = crossing_config(300, 77);
    scenario::add_wall_rect(s.sim.layout, s.sim.grid, 20, 0, 28,
                            s.sim.grid.cols - 1);
    s.sim.doors.push_back({10, 20, 10, 28, 30, DoorAction::kOpen});
    s.sim.doors.push_back({35, 20, 10, 28, 30, DoorAction::kClose});
    s.sim.doors.push_back({50, 20, 10, 28, 30, DoorAction::kOpen});
    expect_seam_parity("door spanning seams", s.sim, 80);
}

TEST(SliceSeams, MoverRectCrawlsAcrossSeams) {
    // A moving wall translating one row per firing walks straight through
    // the seams: each firing is an open at the old rows plus a close at
    // the new ones, which the slices on both sides of a seam must see
    // before the next step's stages run.
    auto cfg = crossing_config(250, 79);
    MoverEvent mover;
    mover.start = 5;
    mover.interval = 2;
    mover.drow = 1;
    mover.dcol = 0;
    mover.row0 = 8;
    mover.col0 = 12;
    mover.row1 = 9;
    mover.col1 = 34;
    mover.count = 28;  // rows 8..9 -> 36..37
    cfg.movers.push_back(mover);
    expect_seam_parity("mover crossing seams", cfg, 80);
}

TEST(SliceSeams, ScanRangeReadsAcrossSeams) {
    // Look-ahead rays reach scan.range rows past a candidate, so at range
    // 3 a one-row slice reads three rows beyond its own.
    auto cfg = crossing_config(400, 83);
    cfg.scan.range = 3;
    cfg.scan.congestion_weight = 0.8;
    expect_seam_parity("scan range 3", cfg, 50);
}

// --- Engine names ---------------------------------------------------------------------------

TEST(BackendNames, ParseNamesRoundTrip) {
    for (const auto type :
         {backend::DeviceType::kCpu, backend::DeviceType::kSimt}) {
        EXPECT_EQ(backend::parse_device(backend::device_name(type)), type);
    }
    // "sharded-cpu" and "sharded" are aliases of cpu; their ":<digits>"
    // suffix is validated and then ignored.
    EXPECT_EQ(backend::parse_device("sharded-cpu:6"),
              backend::DeviceType::kCpu);
    backend::DeviceType out = backend::DeviceType::kSimt;
    EXPECT_TRUE(backend::try_parse_device("sharded", out));
    EXPECT_EQ(out, backend::DeviceType::kCpu);
    for (const char* bad : {"cpu:4", "gpu:2", "sharded:x", "sharded:",
                            "warp9"}) {
        EXPECT_FALSE(backend::try_parse_device(bad, out)) << bad;
    }
}

TEST(BackendNames, RemovedEngineFlagsAreNamedErrors) {
    // io::ArgParser ignores unknown flags, so a removed spelling must fail
    // by name instead of silently running the default engines.
    const std::vector<backend::DeviceType> fallback = {
        backend::DeviceType::kCpu};
    for (const char* flag : {"--engines=gpu", "--engine=gpu", "--bands=4"}) {
        const char* argv[] = {"prog", flag};
        const io::ArgParser args(2, argv);
        try {
            backend::engines_from_args(args, fallback);
            FAIL() << flag << " accepted";
        } catch (const std::invalid_argument& e) {
            const std::string name(flag, std::string(flag).find('='));
            EXPECT_EQ(std::string(e.what()).rfind(name + " was removed", 0),
                      0u)
                << e.what();
        }
    }
    const char* argv[] = {"prog", "--backend=sharded:3,gpu"};
    const io::ArgParser args(2, argv);
    const std::vector<backend::DeviceType> expected = {
        backend::DeviceType::kCpu, backend::DeviceType::kSimt};
    EXPECT_EQ(backend::engines_from_args(args, fallback), expected);
}

// --- Crossing / progress semantics ------------------------------------------------------

TEST(Crossing, AgentsEventuallyCrossInSparseScenario) {
    const auto sim = backend::make_engine(
        backend::DeviceType::kCpu, small_config(Model::kLem, 50));
    const auto rr = sim->run(500);
    EXPECT_GT(rr.crossed_total(), 80u);  // nearly all of 100
}

TEST(Crossing, CrossedAgentsLeaveTheGrid) {
    auto cfg = small_config(Model::kLem, 50);
    cfg.exit_on_cross = true;
    const auto sim = backend::make_engine(backend::DeviceType::kCpu, cfg);
    sim->run(500);
    EXPECT_EQ(sim->environment().population() +
                  sim->crossed_total(grid::Group::kTop) +
                  sim->crossed_total(grid::Group::kBottom),
              100u);
    EXPECT_LT(sim->environment().population(), 20u);
}

TEST(Crossing, GroupsMoveTowardTheirTargets) {
    const auto sim = backend::make_engine(
        backend::DeviceType::kCpu, small_config(Model::kLem, 300));
    // Mean rows advanced from each group's starting edge, over its
    // active agents.
    const auto progress = [&](grid::Group g) {
        const auto& props = sim->properties();
        double sum = 0.0;
        int n = 0;
        for (std::size_t i = 1; i < props.rows(); ++i) {
            if (props.active[i] == 0 ||
                props.group[i] != static_cast<std::uint8_t>(g)) {
                continue;
            }
            sum += g == grid::Group::kTop ? props.row[i] : 63 - props.row[i];
            ++n;
        }
        return n == 0 ? 0.0 : sum / n;
    };
    const double top0 = progress(grid::Group::kTop);
    const double bot0 = progress(grid::Group::kBottom);
    sim->run(60);
    EXPECT_GT(progress(grid::Group::kTop), top0 + 5.0);
    EXPECT_GT(progress(grid::Group::kBottom), bot0 + 5.0);
}

TEST(Crossing, ForwardPriorityWalksIsolatedAgentsStraight) {
    // An unobstructed agent under forward priority takes the geodesic:
    // one row per step, no draws. Without it, the rank draw occasionally
    // picks diagonals/laterals, so crossing takes strictly longer.
    auto with = small_config(Model::kLem, 1, 7);
    auto without = with;
    without.forward_priority = false;
    const auto a = backend::make_engine(backend::DeviceType::kCpu, with);
    const auto b = backend::make_engine(backend::DeviceType::kCpu, without);
    ThroughputRecorder ra, rb;
    a->run(600, ra.observer());
    b->run(600, rb.observer());
    const auto ta = ra.steps_to_fraction(2, 1.0);
    const auto tb = rb.steps_to_fraction(2, 1.0);
    ASSERT_GE(ta, 0);
    ASSERT_GE(tb, 0);
    // Geodesic: both agents start on row 0 / 63 (band depth 1) and cross
    // when reaching the far row — 63 moves, i.e. step index 62.
    EXPECT_EQ(ta, 62);
    EXPECT_LT(ta, tb);
}

// --- Observers & metrics ------------------------------------------------------------------

TEST(RunApi, ObserverCanStopEarly) {
    const auto sim = backend::make_engine(
        backend::DeviceType::kCpu, small_config(Model::kLem));
    int seen = 0;
    const auto rr = sim->run(100, [&](const StepResult&) {
        return ++seen < 10;
    });
    EXPECT_EQ(rr.steps_run, 10);
    EXPECT_EQ(sim->current_step(), 10u);
}

TEST(RunApi, StepResultAccounting) {
    const auto sim = backend::make_engine(
        backend::DeviceType::kCpu, small_config(Model::kAco, 400));
    for (int s = 0; s < 20; ++s) {
        const auto sr = sim->step();
        EXPECT_GE(sr.proposals, sr.moves);
        EXPECT_EQ(sr.conflicts, sr.proposals - sr.moves);
    }
}

TEST(Metrics, ThroughputRecorderAccumulates) {
    const auto sim = backend::make_engine(
        backend::DeviceType::kCpu, small_config(Model::kLem, 80));
    ThroughputRecorder rec;
    const auto record = rec.observer();
    std::int64_t step = 0, last_crossing = -1;
    const auto rr = sim->run(400, [&](const StepResult& sr) {
        if (sr.crossed_top + sr.crossed_bottom > 0) last_crossing = step;
        ++step;
        return record(sr);
    });
    ASSERT_GT(rr.crossed_total(), 0u);
    // Every crossing of the run is recorded, each at its own step.
    EXPECT_EQ(rec.steps_to_fraction(rr.crossed_total(), 1.0), last_crossing);
    EXPECT_EQ(rec.steps_to_fraction(rr.crossed_total() + 1, 1.0), -1);
}

TEST(Flow, EveryStepWithAgentsOnTheGridMovesOne) {
    // fig6a's workload at 64x64 (the paper's densities scaled to the grid
    // at equal area density; seeds of fig6a's first repeat). No walls,
    // fewer agents than cells and no gates, so some agent has an empty
    // king neighbour, proposes it and wins it: no step with an agent on
    // the grid stands still, and fig6a's crowd can never gridlock.
    for (const int density : {20, 40}) {
        for (const auto model : {Model::kLem, Model::kAco}) {
            for (const bool forward : {true, false}) {
                SimConfig cfg = small_config(
                    model,
                    static_cast<std::size_t>(1280.0 * density * 64 * 64 /
                                             (480.0 * 480.0)),
                    1000 + 100 * static_cast<std::uint64_t>(density));
                cfg.forward_priority = forward;
                const auto sim =
                    backend::make_engine(backend::DeviceType::kCpu, cfg);
                std::size_t on_grid = sim->properties().active_count();
                int busy = 0;
                int step = 0;
                sim->run(400, [&](const StepResult& sr) {
                    if (on_grid > 0) {
                        ++busy;
                        EXPECT_GT(sr.moves, 0)
                            << "density " << density << " model "
                            << static_cast<int>(model) << " forward "
                            << forward << " step " << step;
                    }
                    on_grid = sim->properties().active_count();
                    ++step;
                    return true;
                });
                EXPECT_GT(busy, 0);
            }
        }
    }
}

// --- GPU launch accounting -------------------------------------------------------------------

TEST(GpuAccounting, FourKernelsPerStep) {
    const auto sim = backend::make_simt(small_config(Model::kAco, 200));
    sim->step();
    const auto& recs = sim->launch_log().records();
    ASSERT_EQ(recs.size(), 4u);
    EXPECT_EQ(recs[0].kernel_name, "support_reset");
    EXPECT_EQ(recs[1].kernel_name, "initial_calc");
    EXPECT_EQ(recs[2].kernel_name, "tour_construction");
    EXPECT_EQ(recs[3].kernel_name, "movement");
}

TEST(GpuAccounting, ModeledSecondsAreTheGtx560TiCostOfTheStats) {
    // fig5_exec_time's VII table re-costs launch records with another
    // TimingModel; it compares like with like only if each record's own
    // modeled time is the GTX 560 Ti model applied to its stats.
    const auto sim = backend::make_simt(small_config(Model::kAco, 200));
    sim->run(3);
    const simt::TimingModel fermi(simt::DeviceSpec::gtx560ti());
    const auto& recs = sim->launch_log().records();
    ASSERT_EQ(recs.size(), 12u);
    for (const auto& rec : recs) {
        EXPECT_EQ(fermi.seconds(rec.stats), rec.modeled_seconds)
            << rec.kernel_name;
    }
}

TEST(GpuAccounting, ModeledTimeGrowsWithSteps) {
    const auto sim = backend::make_simt(small_config(Model::kLem, 200));
    sim->step();
    const double t1 = sim->modeled_seconds();
    sim->step();
    const double t2 = sim->modeled_seconds();
    EXPECT_GT(t1, 0.0);
    EXPECT_GT(t2, 1.5 * t1);
}

TEST(GpuAccounting, AcoCostsMoreThanLem) {
    // Paper Fig. 5a: ~11% overhead for ACO's extra pheromone work.
    const auto lem = backend::make_simt(small_config(Model::kLem, 400));
    const auto aco = backend::make_simt(small_config(Model::kAco, 400));
    for (int s = 0; s < 10; ++s) {
        lem->step();
        aco->step();
    }
    EXPECT_GT(aco->modeled_seconds(), lem->modeled_seconds());
}

TEST(GpuAccounting, NoAtomicsInPaperConfiguration) {
    const auto sim = backend::make_simt(small_config(Model::kAco, 400));
    sim->run(5);
    EXPECT_EQ(sim->launch_log().total_stats().atomics, 0u);
}

/// Every KernelStats counter but global_transactions, which coalesces on
/// host addresses and so moves with the heap layout between processes.
constexpr std::array<const char*, 13> kLayoutFreeCounters = {
    "blocks",            "warps",           "threads",
    "warp_instructions", "lane_instructions", "branch_evals",
    "divergent_branches", "global_load_bytes", "global_store_bytes",
    "shared_load_bytes", "shared_store_bytes", "atomics",
    "rng_draws"};

std::array<std::uint64_t, 13> layout_free_counters(
    const simt::KernelStats& s) {
    return {s.blocks,
            s.warps,
            s.threads,
            s.warp_instructions,
            s.lane_instructions,
            s.branch_evals,
            s.divergent_branches,
            s.global_load_bytes,
            s.global_store_bytes,
            s.shared_load_bytes,
            s.shared_store_bytes,
            s.atomics,
            s.rng_draws};
}

/// 1 plus each count in PEDSIM_TEST_THREADS (comma-separated; 4 when
/// unset).
std::vector<int> pin_thread_counts() {
    std::vector<int> counts{1};
    const char* env = std::getenv("PEDSIM_TEST_THREADS");
    std::istringstream list(env != nullptr ? env : "4");
    for (std::string tok; std::getline(list, tok, ',');) {
        const int t = std::atoi(tok.c_str());
        if (t > 1) counts.push_back(t);
    }
    return counts;
}

TEST(GpuAccounting, CostCountersArePinned) {
    // Totals of short gpu-simt windows: corridor_small (LEM) and
    // pillar_field (ACO) score on initial_calc's tile path; panic_crossing
    // past its step-60 alarm and both of them at scan_range 2 read global
    // memory. A kernel edit that moves an instruction, branch or byte
    // count fails here even when every trajectory stays the same.
    struct Pin {
        const char* scenario;
        int scan_range;
        int steps;
        std::array<std::uint64_t, 13> counters;
    };
    const Pin pins[] = {
        {"corridor_small", 1, 10,
         {610, 9440, 156160, 141807, 3178487, 10000, 3175, 3087208, 302678,
          1701752, 1030400, 0, 8706}},
        {"pillar_field", 1, 10,
         {500, 7840, 128000, 198935, 3867332, 9120, 2282, 3868384, 205146,
          1942376, 2003200, 0, 5215}},
        {"panic_crossing", 1, 70,
         {4270, 66080, 1093120, 987062, 22734943, 69987, 17561, 21613576,
          3390902, 12073976, 7212800, 0, 56904}},
        {"corridor_small", 2, 10,
         {610, 9440, 156160, 147312, 3205395, 10000, 3071, 3109056, 289670,
          1689600, 1030400, 0, 8566}},
        {"pillar_field", 2, 10,
         {500, 7840, 128000, 153406, 3721924, 9120, 2282, 3883544, 203586,
          1902080, 2003200, 0, 5209}},
    };
    for (const int threads : pin_thread_counts()) {
        for (const auto& pin : pins) {
            SimConfig cfg = scenario::get(pin.scenario).sim;
            cfg.scan.range = pin.scan_range;
            cfg.exec.threads = threads;
            const auto sim = backend::make_simt(cfg);
            sim->run(pin.steps);
            const auto got =
                layout_free_counters(sim->launch_log().total_stats());
            for (std::size_t k = 0; k < got.size(); ++k) {
                EXPECT_EQ(got[k], pin.counters[k])
                    << pin.scenario << " scan_range " << pin.scan_range
                    << " @ " << threads << " threads: "
                    << kLayoutFreeCounters[k];
            }
        }
    }
}

TEST(GpuAccounting, RemappedStagingIsDivergenceFree) {
    // Section IV.b: the warp-remapped halo load walks the ring with the
    // block's first warp only, so no warp diverges while staging; the
    // naive boundary-thread load splits warps at every tile edge.
    for (const auto model : {Model::kLem, Model::kAco}) {
        const auto sim = backend::make_simt(small_config(model, 400));
        for (const char* kernel : {"initial_calc", "movement"}) {
            EXPECT_EQ(sim->staging_stats(kernel, true).divergent_branches,
                      0u)
                << kernel;
            EXPECT_GT(sim->staging_stats(kernel, false).divergent_branches,
                      0u)
                << kernel;
        }
    }
    const auto sim = backend::make_simt(small_config(Model::kLem));
    EXPECT_THROW((void)sim->staging_stats("tour_construction", true),
                 std::invalid_argument);
}

TEST(GpuAccounting, StagingCountersArePinned) {
    // fig5_exec_time's IV.b table swaps each tiled launch's remapped
    // staging counts for the naive ones. corridor_small (LEM) stages the
    // mat and index tiles in both kernels; pillar_field's (ACO)
    // initial_calc also stages both pheromone tiles. Staging reads no
    // agent state, so the counts are the same before and after steps.
    struct Pin {
        const char* scenario;
        const char* kernel;
        bool remapped;
        std::array<std::uint64_t, 13> counters;
    };
    constexpr std::array<std::uint64_t, 13> kMatIndexRemapped = {
        16, 128, 4096, 1344, 37632, 128, 0, 25920, 0, 0, 25920, 0, 0};
    constexpr std::array<std::uint64_t, 13> kMatIndexNaive = {
        16, 128, 4096, 2528, 61128, 640, 320, 24500, 0, 0, 25920, 0, 0};
    const Pin pins[] = {
        {"corridor_small", "initial_calc", true, kMatIndexRemapped},
        {"corridor_small", "initial_calc", false, kMatIndexNaive},
        {"corridor_small", "movement", true, kMatIndexRemapped},
        {"corridor_small", "movement", false, kMatIndexNaive},
        {"pillar_field", "initial_calc", true,
         {16, 128, 4096, 2688, 75264, 128, 0, 108864, 0, 0, 108864, 0, 0}},
        {"pillar_field", "initial_calc", false,
         {16, 128, 4096, 5056, 122256, 640, 320, 102900, 0, 0, 108864, 0,
          0}},
        {"pillar_field", "movement", true, kMatIndexRemapped},
        {"pillar_field", "movement", false, kMatIndexNaive},
    };
    for (const int threads : pin_thread_counts()) {
        for (const auto& pin : pins) {
            SimConfig cfg = scenario::get(pin.scenario).sim;
            cfg.exec.threads = threads;
            const auto sim = backend::make_simt(cfg);
            for (const int steps : {0, 10}) {
                sim->run(steps);
                const auto got = layout_free_counters(
                    sim->staging_stats(pin.kernel, pin.remapped));
                for (std::size_t k = 0; k < got.size(); ++k) {
                    EXPECT_EQ(got[k], pin.counters[k])
                        << pin.scenario << " " << pin.kernel
                        << (pin.remapped ? " remapped" : " naive") << " @ "
                        << threads << " threads, step "
                        << sim->current_step() << ": "
                        << kLayoutFreeCounters[k];
                }
            }
        }
    }
}

TEST(GpuAccounting, ProposalsCountTheAtomicMovementKernelsAtomics) {
    // fig5_exec_time's IV.d table charges each movement launch one global
    // atomic per proposal of its step. A movement kernel that issued an
    // atomic per proposer at every empty cell counted 4,997 atomics over
    // this 10-step window.
    for (const int threads : pin_thread_counts()) {
        SimConfig cfg = scenario::get("pillar_field").sim;
        cfg.exec.threads = threads;
        const auto sim = backend::make_simt(cfg);
        std::uint64_t proposals = 0;
        sim->run(10, [&](const StepResult& sr) {
            proposals += static_cast<std::uint64_t>(sr.proposals);
            return true;
        });
        EXPECT_EQ(proposals, 4997u) << threads << " threads";
    }
}

// --- Perturbation layer -------------------------------------------------

TEST(Perturbation, NoShowRetiresAtPlacementOrDropsOutMidRun) {
    // last_step = 0: the draw retires agents before the first step.
    auto at_placement = small_config(Model::kLem, 300);
    at_placement.perturb.no_shows.push_back({1, 0.5, 0});
    const auto sim = backend::make_engine(
        backend::DeviceType::kCpu, at_placement);
    const auto retired = sim->perturb_retired();
    EXPECT_GT(retired, 100u);  // ~150 of the 300 top agents
    EXPECT_LT(retired, 200u);
    EXPECT_EQ(sim->properties().active_count(), 600u - retired);
    EXPECT_EQ(sim->environment().population(), 600u - retired);

    // last_step > 0: the same draw schedules drop-outs in [1, last_step]
    // instead — nobody is missing at placement.
    auto mid_run = small_config(Model::kLem, 300);
    mid_run.perturb.no_shows.push_back({2, 0.5, 40});
    const auto sim2 = backend::make_engine(backend::DeviceType::kCpu, mid_run);
    EXPECT_EQ(sim2->perturb_retired(), 0u);
    EXPECT_EQ(sim2->properties().active_count(), 600u);
    sim2->run(45);
    EXPECT_GT(sim2->perturb_retired(), 100u);
    // exit_on_cross is off, so dropped agents are the only ones leaving.
    EXPECT_EQ(sim2->environment().population() + sim2->perturb_retired(),
              600u);
}

TEST(Perturbation, SurgeInjectsAtTheAuthoredStepWithPreallocatedRows) {
    auto cfg = small_config(Model::kLem, 50);
    cfg.perturb.surges.push_back({5, 1, 20, 20, 20, 30, 30});
    const auto sim = backend::make_engine(backend::DeviceType::kCpu, cfg);
    // Rows for the surge exist from construction; they activate later.
    EXPECT_EQ(sim->properties().agent_count(), 120u);
    EXPECT_EQ(sim->properties().active_count(), 100u);
    sim->run(5);  // steps 0..4: the surge is not yet due
    EXPECT_EQ(sim->perturb_spawned(), 0u);
    sim->step();  // step 5 fires it
    EXPECT_EQ(sim->perturb_spawned(), 20u);
    EXPECT_EQ(sim->environment().population(), 120u);
}

TEST(Perturbation, SurgeClampsToTheWalkableCellsOfTheRect) {
    // A 2x2 rect cannot hold 20 agents: inject what fits,
    // deterministically, rather than failing the run.
    auto cfg = small_config(Model::kLem, 10);
    cfg.perturb.surges.push_back({3, 2, 20, 40, 40, 41, 41});
    const auto sim = backend::make_engine(backend::DeviceType::kCpu, cfg);
    sim->run(10);
    EXPECT_LE(sim->perturb_spawned(), 4u);
    EXPECT_GT(sim->perturb_spawned(), 0u);
}

TEST(Perturbation, SpeedClassSlowsTheGroupDown) {
    auto gated = small_config(Model::kLem, 200);
    gated.perturb.speeds.push_back({1, 0.5});
    auto free = small_config(Model::kLem, 200);
    const auto a = backend::make_engine(backend::DeviceType::kCpu, gated);
    const auto b = backend::make_engine(backend::DeviceType::kCpu, free);
    const auto ra = a->run(80);
    const auto rb = b->run(80);
    // The gated top group crosses strictly later; the ungated bottom
    // group is unaffected in how many eventually cross.
    EXPECT_LT(ra.crossed_top, rb.crossed_top);
    EXPECT_LT(ra.total_moves, rb.total_moves);
}

TEST(Perturbation, DwellDelaysTheChainByExactlyItsLength) {
    // One agent per side, a single waypoint whose arrival radius covers
    // the whole grid: the chain is satisfied at construction, so without
    // dwell the run is identical to a plain corridor, and with dwell the
    // top agent is held at its spawn cell for exactly `steps` steps.
    auto with = small_config(Model::kLem, 1, 7);
    with.layout.waypoints[0].push_back(32u * 64u + 32u);
    with.layout.waypoint_radius = 63;
    with.perturb.dwells.push_back({1, 10});
    auto without = with;
    without.perturb.dwells.clear();
    const auto a = backend::make_engine(backend::DeviceType::kCpu, with);
    const auto b = backend::make_engine(backend::DeviceType::kCpu, without);
    ThroughputRecorder ra, rb;
    a->run(600, ra.observer());
    b->run(600, rb.observer());
    const auto ta = ra.steps_to_fraction(2, 1.0);
    const auto tb = rb.steps_to_fraction(2, 1.0);
    ASSERT_GE(tb, 0);
    EXPECT_EQ(ta, tb + 10);
}

TEST(Perturbation, InvalidSpecsAreRejectedAtConstruction) {
    auto dup = small_config(Model::kLem);
    dup.perturb.no_shows.push_back({1, 0.5, 0});
    dup.perturb.no_shows.push_back({1, 0.25, 0});
    EXPECT_THROW(backend::make_engine(
        backend::DeviceType::kCpu, dup), std::invalid_argument);

    auto prob = small_config(Model::kLem);
    prob.perturb.no_shows.push_back({1, 1.5, 0});
    EXPECT_THROW(backend::make_engine(
        backend::DeviceType::kCpu, prob), std::invalid_argument);

    auto frac = small_config(Model::kLem);
    frac.perturb.speeds.push_back({2, 0.0});
    EXPECT_THROW(backend::make_engine(
        backend::DeviceType::kCpu, frac), std::invalid_argument);

    auto rect = small_config(Model::kLem);
    rect.perturb.surges.push_back({5, 1, 4, 0, 0, 64, 3});
    EXPECT_THROW(backend::make_engine(
        backend::DeviceType::kCpu, rect), std::invalid_argument);

    auto early = small_config(Model::kLem);
    early.perturb.surges.push_back({0, 1, 4, 0, 0, 3, 3});
    EXPECT_THROW(backend::make_engine(
        backend::DeviceType::kCpu, early), std::invalid_argument);
}

}  // namespace
}  // namespace pedsim::core
