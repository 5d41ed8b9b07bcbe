// Tests for the paper's section VII future-work features implemented as
// extensions: panic alarm, heterogeneous speeds, and the separated
// scanning/movement ranges — including bit-parity of the engines with
// every extension enabled.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "backend/device.hpp"
#include "core/cpu_simulator.hpp"
#include "core/gpu_simulator.hpp"
#include "core/metrics.hpp"
#include "core/rules.hpp"

namespace pedsim::core {
namespace {

SimConfig base_config(Model model, std::size_t agents = 300,
                      std::uint64_t seed = 5) {
    SimConfig cfg;
    cfg.grid.rows = cfg.grid.cols = 64;
    cfg.agents_per_side = agents;
    cfg.model = model;
    cfg.seed = seed;
    return cfg;
}

std::map<std::int32_t, std::pair<int, int>> positions(const Simulator& sim) {
    std::map<std::int32_t, std::pair<int, int>> pos;
    const auto& p = sim.properties();
    for (std::size_t i = 1; i < p.rows(); ++i) {
        if (p.active[i]) {
            pos[static_cast<std::int32_t>(i)] = {p.row[i], p.col[i]};
        }
    }
    return pos;
}

// --- Panic alarm -----------------------------------------------------------

TEST(Panic, ConfigGeometry) {
    PanicConfig p;
    p.enabled = true;
    p.trigger_step = 10;
    p.row = 32;
    p.col = 32;
    p.radius = 5.0;
    EXPECT_FALSE(p.active(9));
    EXPECT_TRUE(p.active(10));
    EXPECT_TRUE(p.affects(32, 32));
    EXPECT_TRUE(p.affects(35, 36));  // dist = 5
    EXPECT_FALSE(p.affects(32, 38));
    PanicConfig off;
    EXPECT_FALSE(off.active(100));
}

TEST(Panic, AgentsFleeTheEpicentre) {
    auto cfg = base_config(Model::kLem, 400);
    cfg.panic.enabled = true;
    cfg.panic.trigger_step = 20;
    cfg.panic.row = 32;
    cfg.panic.col = 32;
    cfg.panic.radius = 16.0;
    cfg.exit_on_cross = false;

    const auto sim = backend::make_engine(backend::DeviceType::kCpu, cfg);
    sim->run(20);  // pre-panic

    auto mean_dist_to_epicentre = [&]() {
        const auto& p = sim->properties();
        double sum = 0.0;
        std::size_t n = 0;
        for (std::size_t i = 1; i < p.rows(); ++i) {
            if (!p.active[i]) continue;
            const double dr = p.row[i] - 32.0;
            const double dc = p.col[i] - 32.0;
            const double d = std::sqrt(dr * dr + dc * dc);
            if (d <= 16.0) {
                sum += d;
                ++n;
            }
        }
        return n == 0 ? 1e9 : sum / static_cast<double>(n);
    };

    const double before = mean_dist_to_epicentre();
    sim->run(25);  // panic active
    const double after = mean_dist_to_epicentre();
    // Agents still inside the radius are on their way out.
    EXPECT_GT(after, before + 1.0);
}

TEST(Panic, FlagsOnlyAgentsInRadius) {
    auto cfg = base_config(Model::kLem, 300);
    cfg.panic.enabled = true;
    cfg.panic.trigger_step = 0;
    cfg.panic.row = 0;
    cfg.panic.col = 0;
    cfg.panic.radius = 10.0;
    const auto sim = backend::make_engine(backend::DeviceType::kCpu, cfg);
    sim->step();
    const auto& p = sim->properties();
    for (std::size_t i = 1; i < p.rows(); ++i) {
        if (!p.active[i]) continue;
        // Flag reflects position at scan time (within one cell of current).
        const double dr = p.row[i];
        const double dc = p.col[i];
        const double d = std::sqrt(dr * dr + dc * dc);
        if (d > 12.0) {
            EXPECT_EQ(p.panicked[i], 0) << "agent " << i;
        }
    }
}

TEST(Panic, FleeRuleRanksAwayFromEpicentre) {
    grid::Environment env(grid::GridConfig{32, 32});
    env.place(10, 10, grid::Group::kTop, 1);
    PanicConfig panic;
    panic.enabled = true;
    panic.row = 9;
    panic.col = 10;  // directly north of the agent
    double values[8];
    std::int8_t cells[8];
    const int n = build_candidates_flee_t(EnvEmpty(env), panic,
                                          grid::Group::kTop, 10, 10, values,
                                          cells);
    ASSERT_EQ(n, 8);
    // Best slots are the south diagonals: from (10,10) with the epicentre
    // at (9,10), cells (11,9)/(11,11) sit sqrt(5) away vs 2.0 for straight
    // south — Euclidean flight favours the diagonal. SW (#2) wins the tie
    // over SE (#3) by stable ranked order.
    EXPECT_EQ(cells[0], 1);
    EXPECT_EQ(cells[1], 2);
    // Worst slot walks straight at the epicentre (offset #6, dr=-1).
    EXPECT_EQ(cells[n - 1], 5);
}

TEST(Panic, PanickedAcoAgentsDoNotDeposit) {
    auto cfg = base_config(Model::kAco, 200);
    cfg.panic.enabled = true;
    cfg.panic.trigger_step = 0;
    cfg.panic.row = 32;
    cfg.panic.col = 32;
    cfg.panic.radius = 100.0;  // everyone panics
    cfg.aco.rho = 0.0;         // no evaporation: every tau must stay put
    cfg.aco.tau0 = 0.5;
    const auto sim = backend::make_engine(backend::DeviceType::kCpu, cfg);
    const auto before = sim->pheromone()->raw(grid::Group::kTop);
    sim->run(10);
    EXPECT_EQ(sim->pheromone()->raw(grid::Group::kTop), before);
}

TEST(Panic, EnginesStayBitIdenticalUnderPanic) {
    for (const auto model : {Model::kLem, Model::kAco}) {
        auto cfg = base_config(model, 350, 11);
        cfg.panic.enabled = true;
        cfg.panic.trigger_step = 10;
        cfg.panic.row = 20;
        cfg.panic.col = 40;
        cfg.panic.radius = 18.0;
        const auto cpu = backend::make_engine(backend::DeviceType::kCpu, cfg);
        const auto gpu = backend::make_simt(cfg);
        for (int s = 0; s < 40; ++s) {
            cpu->step();
            gpu->step();
        }
        EXPECT_TRUE(cpu->environment() == gpu->environment());
        EXPECT_EQ(positions(*cpu), positions(*gpu));
    }
}

// --- Heterogeneous speeds -----------------------------------------------------

TEST(Speed, FractionOfAgentsIsSlow) {
    auto cfg = base_config(Model::kLem, 1000);
    cfg.speed.slow_fraction = 0.3;
    const auto sim = backend::make_engine(backend::DeviceType::kCpu, cfg);
    const auto& p = sim->properties();
    std::size_t slow = 0;
    for (std::size_t i = 1; i < p.rows(); ++i) slow += p.speed_class[i];
    EXPECT_NEAR(static_cast<double>(slow) / 2000.0, 0.3, 0.04);
}

TEST(Speed, ZeroFractionMatchesPaperBehaviour) {
    auto with = base_config(Model::kLem, 300);
    auto without = with;
    without.speed.slow_fraction = 0.0;
    const auto a = backend::make_engine(backend::DeviceType::kCpu, with);
    const auto b = backend::make_engine(backend::DeviceType::kCpu, without);
    for (int s = 0; s < 30; ++s) {
        a->step();
        b->step();
    }
    EXPECT_EQ(positions(*a), positions(*b));
}

TEST(Speed, SlowPopulationCrossesLater) {
    auto fast = base_config(Model::kLem, 150, 21);
    auto slow = fast;
    slow.speed.slow_fraction = 1.0;  // everyone at half speed
    slow.speed.slow_period = 2;
    const auto a = backend::make_engine(backend::DeviceType::kCpu, fast);
    const auto b = backend::make_engine(backend::DeviceType::kCpu, slow);
    ThroughputRecorder ra, rb;
    a->run(700, ra.observer());
    b->run(700, rb.observer());
    const auto ta = ra.steps_to_fraction(300, 0.5);
    const auto tb = rb.steps_to_fraction(300, 0.5);
    ASSERT_GE(ta, 0);
    ASSERT_GE(tb, 0);
    // Half-speed walkers need roughly twice the steps.
    EXPECT_GT(tb, ta + ta / 2);
}

TEST(Speed, SlowAgentsNeverProposeOffPhase) {
    auto cfg = base_config(Model::kLem, 100, 23);
    cfg.speed.slow_fraction = 1.0;
    cfg.speed.slow_period = 3;
    const auto sim = backend::make_engine(backend::DeviceType::kCpu, cfg);
    // Over any 3 consecutive steps each agent moves at most 1 cell... the
    // aggregate signature: total moves over a window is about a third of
    // the all-fast case.
    auto fast_cfg = cfg;
    fast_cfg.speed.slow_fraction = 0.0;
    const auto fast = backend::make_engine(backend::DeviceType::kCpu, fast_cfg);
    const auto rs = sim->run(60);
    const auto rf = fast->run(60);
    EXPECT_LT(rs.total_moves, rf.total_moves / 2);
}

TEST(Speed, EnginesStayBitIdenticalWithSpeedClasses) {
    auto cfg = base_config(Model::kAco, 300, 25);
    cfg.speed.slow_fraction = 0.4;
    cfg.speed.slow_period = 3;
    const auto cpu = backend::make_engine(backend::DeviceType::kCpu, cfg);
    const auto gpu = backend::make_simt(cfg);
    for (int s = 0; s < 40; ++s) {
        cpu->step();
        gpu->step();
    }
    EXPECT_TRUE(cpu->environment() == gpu->environment());
}

// --- Scanning range ----------------------------------------------------------------

TEST(ScanRange, RayCongestionCountsOccupiedCells) {
    grid::Environment env(grid::GridConfig{32, 32});
    env.place(12, 10, grid::Group::kBottom, 1);
    env.place(13, 10, grid::Group::kBottom, 2);
    const EnvEmpty empty(env);
    // Ray from candidate (11,10) heading south: cells (12,10),(13,10),(14,10).
    const double c4 = ray_congestion(empty, 11, 10, 1, 0, 4,
                                     grid::GridConfig{32, 32});
    EXPECT_NEAR(c4, 2.0 / 3.0, 1e-12);
    // Range 1 = paper behaviour: no look-ahead.
    EXPECT_DOUBLE_EQ(ray_congestion(empty, 11, 10, 1, 0, 1,
                                    grid::GridConfig{32, 32}),
                     0.0);
}

TEST(ScanRange, OffGridCountsAsFree) {
    grid::Environment env(grid::GridConfig{32, 32});
    const EnvEmpty empty(env);
    // Ray from (30,10) south leaves the grid: no congestion penalty.
    EXPECT_DOUBLE_EQ(ray_congestion(empty, 30, 10, 1, 0, 5,
                                    grid::GridConfig{32, 32}),
                     0.0);
}

TEST(ScanRange, LemLookAheadDemotesCongestedForwardPath) {
    grid::Environment env(grid::GridConfig{32, 32});
    const grid::DistanceField df(grid::GridConfig{32, 32});
    env.place(10, 10, grid::Group::kTop, 1);
    // Wall of agents 2 cells ahead on the straight path.
    env.place(12, 9, grid::Group::kBottom, 2);
    env.place(12, 10, grid::Group::kBottom, 3);
    env.place(12, 11, grid::Group::kBottom, 4);

    double values[8];
    std::int8_t cells[8];

    ScanConfig wide;
    wide.range = 3;
    wide.congestion_weight = 1.0;
    const int n = build_candidates_lem_t(EnvEmpty(env), df, wide,
                                         env.config(), grid::Group::kTop, 10,
                                         10, values, cells);
    ASSERT_EQ(n, 8);
    // The straight-ahead cell (offset #1) is no longer the top candidate —
    // a diagonal that slips past the wall outranks it.
    EXPECT_NE(cells[0], 0);
    // Values stay ascending (the scan row contract).
    for (int i = 1; i < n; ++i) EXPECT_GE(values[i], values[i - 1]);
}

TEST(ScanRange, AcoLookAheadDiscountsByVisibleCongestion) {
    grid::Environment env(grid::GridConfig{32, 32});
    const grid::DistanceField df(grid::GridConfig{32, 32});
    env.place(10, 10, grid::Group::kTop, 1);
    env.place(12, 10, grid::Group::kBottom, 2);  // 1 of 2 cells past fwd
    const auto tau = [](int, int) { return 0.3; };
    AcoParams params;
    double plain[8], wide[8];
    std::int8_t plain_cells[8], wide_cells[8];
    ScanConfig range3;
    range3.range = 3;
    range3.congestion_weight = 1.0;
    const int n = build_candidates_aco_t(EnvEmpty(env), tau, df, params,
                                         ScanConfig{}, env.config(),
                                         grid::Group::kTop, 10, 10, plain,
                                         plain_cells);
    ASSERT_EQ(build_candidates_aco_t(EnvEmpty(env), tau, df, params, range3,
                                     env.config(), grid::Group::kTop, 10,
                                     10, wide, wide_cells),
              n);
    // Slot 0 is the forward cell (11, 10): its ray sees (12, 10) taken
    // and (13, 10) free, so eq. (2)'s numerator is halved.
    ASSERT_EQ(wide_cells[0], 0);
    EXPECT_EQ(wide[0], plain[0] * 0.5);
}

TEST(ScanRange, EnginesStayBitIdenticalWithLookAhead) {
    for (const auto model : {Model::kLem, Model::kAco}) {
        auto cfg = base_config(model, 400, 29);
        cfg.scan.range = 3;
        cfg.scan.congestion_weight = 0.8;
        const auto cpu = backend::make_engine(backend::DeviceType::kCpu, cfg);
        const auto gpu = backend::make_simt(cfg);
        for (int s = 0; s < 30; ++s) {
            cpu->step();
            gpu->step();
        }
        EXPECT_TRUE(cpu->environment() == gpu->environment());
    }
}

TEST(ScanRange, AllExtensionsTogetherKeepInvariantsAndParity) {
    auto cfg = base_config(Model::kAco, 350, 31);
    cfg.scan.range = 2;
    cfg.speed.slow_fraction = 0.25;
    cfg.panic.enabled = true;
    cfg.panic.trigger_step = 15;
    cfg.panic.row = 30;
    cfg.panic.col = 30;
    cfg.panic.radius = 12.0;
    const auto cpu = backend::make_engine(backend::DeviceType::kCpu, cfg);
    const auto gpu = backend::make_simt(cfg);
    for (int s = 0; s < 40; ++s) {
        cpu->step();
        gpu->step();
        const auto on_grid = cpu->environment().population();
        const auto crossed = cpu->crossed_total(grid::Group::kTop) +
                             cpu->crossed_total(grid::Group::kBottom);
        ASSERT_EQ(on_grid + crossed, 700u);
    }
    EXPECT_TRUE(cpu->environment() == gpu->environment());
}

}  // namespace
}  // namespace pedsim::core
