// Cross-module integration tests: end-to-end regression goldens, the
// shared-memory budget behind the paper's occupancy claim, pheromone
// dynamics at system level, engine determinism sweeps, and the GLM
// dispersion machinery on simulation output.
#include <gtest/gtest.h>

#include <numeric>

#include "backend/device.hpp"
#include "core/cpu_simulator.hpp"
#include "core/gpu_simulator.hpp"
#include "core/metrics.hpp"
#include "simt/occupancy.hpp"
#include "simt/shared_tile.hpp"
#include "stats/glm.hpp"

namespace pedsim {
namespace {

// --- Regression goldens --------------------------------------------------
// Fixed-seed end-to-end counts. A change here means the simulation's
// semantics changed: deliberate changes must update the goldens (and are
// visible in review); accidental ones fail loudly.

core::SimConfig golden_config(core::Model model) {
    core::SimConfig cfg;
    cfg.grid.rows = cfg.grid.cols = 64;
    cfg.agents_per_side = 400;
    cfg.model = model;
    cfg.seed = 2024;
    return cfg;
}

TEST(RegressionGolden, LemFixedSeedCounts) {
    const auto sim = backend::make_engine(
        backend::DeviceType::kCpu, golden_config(core::Model::kLem));
    const auto rr = sim->run(300);
    EXPECT_EQ(rr.crossed_total(), 408u);
    EXPECT_EQ(rr.total_moves, 69281u);
    EXPECT_EQ(rr.total_conflicts, 109329u);
}

TEST(RegressionGolden, AcoFixedSeedCounts) {
    const auto sim = backend::make_engine(
        backend::DeviceType::kCpu, golden_config(core::Model::kAco));
    const auto rr = sim->run(300);
    EXPECT_EQ(rr.crossed_total(), 488u);
    EXPECT_EQ(rr.total_moves, 95568u);
    EXPECT_EQ(rr.total_conflicts, 105923u);
}

TEST(RegressionGolden, GpuEngineMatchesGoldens) {
    // The SIMT engine must land on the same goldens (parity regression at
    // the end-to-end level).
    const auto sim = backend::make_simt(golden_config(core::Model::kAco));
    const auto rr = sim->run(300);
    EXPECT_EQ(rr.crossed_total(), 488u);
    EXPECT_EQ(rr.total_moves, 95568u);
}

// --- Occupancy budget of the actual kernels --------------------------------

TEST(OccupancyBudget, TileSharedMemoryKeeps100PercentOnCc20) {
    // Paper section IV: every kernel runs 256-thread blocks at 100%
    // occupancy. Our movement/initial-calc shared state is two 18x18
    // tiles (uint8 + int32) plus two double pheromone tiles; verify that
    // footprint leaves CC 2.0 occupancy at 100%.
    const std::size_t tile_bytes =
        sizeof(simt::HaloTile<std::uint8_t>) +
        sizeof(simt::HaloTile<std::int32_t>) +
        2 * sizeof(simt::HaloTile<double>);
    EXPECT_LT(tile_bytes, 48u * 1024u);
    const auto r = simt::occupancy(simt::SmLimits::cc20(), 256,
                                   /*regs=*/20,
                                   static_cast<std::int64_t>(tile_bytes));
    EXPECT_DOUBLE_EQ(r.occupancy, 1.0);
}

TEST(OccupancyBudget, PaperTourConstructionShapeIsFullOccupancy) {
    // 8 x 32 = 256-thread blocks with a 32-row double staging buffer.
    // (Fermi: at 256 threads/block the register budget allows at most
    // 21 regs/thread for six resident blocks — 24 would cap at 5 blocks.)
    const auto r = simt::occupancy(simt::SmLimits::cc20(), 256, 20,
                                   32 * 8 * sizeof(double));
    EXPECT_DOUBLE_EQ(r.occupancy, 1.0);
}

// --- System-level pheromone dynamics ------------------------------------------

TEST(PheromoneDynamics, TrailsFormAlongTravelColumns) {
    // After a while, a sparse ACO crowd leaves stronger top-group
    // pheromone in the rows it has traversed than the untouched floor.
    auto cfg = golden_config(core::Model::kAco);
    cfg.agents_per_side = 150;
    const auto sim = backend::make_engine(backend::DeviceType::kCpu, cfg);
    sim->run(60);  // mid-run: trails are active (they evaporate fast after)
    const auto& pher = *sim->pheromone();
    double mid_rows = 0.0;
    int n = 0;
    for (int r = 20; r < 44; ++r) {
        for (int c = 0; c < 64; ++c) {
            mid_rows += pher.at(grid::Group::kTop, r, c);
            ++n;
        }
    }
    EXPECT_GT(mid_rows / n, cfg.aco.tau_min * 1.5);
}

TEST(PheromoneDynamics, FieldDecaysAfterCrowdDrains) {
    auto cfg = golden_config(core::Model::kAco);
    cfg.agents_per_side = 60;  // sparse: drains quickly
    const auto sim = backend::make_engine(backend::DeviceType::kCpu, cfg);
    const auto top_total = [&] {
        const auto& tau = sim->pheromone()->raw(grid::Group::kTop);
        return std::accumulate(tau.begin(), tau.end(), 0.0);
    };
    sim->run(100);  // crowd active: trails above the evaporation floor
    const double before = top_total();
    sim->run(500);  // crowd drained: evaporation pulls back to the floor
    ASSERT_LT(sim->environment().population(), 10u);
    const double after = top_total();
    EXPECT_LT(after, before);
    // Fully decayed field sits at the tau_min floor on every cell.
    EXPECT_NEAR(after, 64.0 * 64.0 * cfg.aco.tau_min, 0.5);
}

// --- Determinism sweeps ------------------------------------------------------------

struct SweepCase {
    int grid;
    std::size_t agents;
    core::Model model;
};

class DeterminismSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(DeterminismSweep, RunResultsAreReproducible) {
    const auto p = GetParam();
    core::SimConfig cfg;
    cfg.grid.rows = cfg.grid.cols = p.grid;
    cfg.agents_per_side = p.agents;
    cfg.model = p.model;
    cfg.seed = 77;
    const auto a = backend::make_engine(backend::DeviceType::kCpu, cfg);
    const auto b = backend::make_engine(backend::DeviceType::kCpu, cfg);
    const auto ra = a->run(120);
    const auto rb = b->run(120);
    EXPECT_EQ(ra.crossed_total(), rb.crossed_total());
    EXPECT_EQ(ra.total_moves, rb.total_moves);
    EXPECT_EQ(ra.total_conflicts, rb.total_conflicts);
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndModels, DeterminismSweep,
    ::testing::Values(SweepCase{32, 60, core::Model::kLem},
                      SweepCase{32, 60, core::Model::kAco},
                      SweepCase{96, 800, core::Model::kLem},
                      SweepCase{96, 800, core::Model::kAco},
                      SweepCase{128, 2000, core::Model::kAco}),
    [](const auto& info) {
        return "g" + std::to_string(info.param.grid) + "_a" +
               std::to_string(info.param.agents) +
               (info.param.model == core::Model::kLem ? "_lem" : "_aco");
    });

// --- GLM on simulation output ----------------------------------------------------

TEST(GlmIntegration, DispersionCorrectionOnRealRuns) {
    // Crossing counts from independent seeds of the same scenario are
    // overdispersed relative to binomial; the quasi p-value on a null
    // platform indicator must stay insignificant even when the plain Wald
    // p might not.
    std::vector<stats::BinomialObservation> data;
    for (int d = 4; d <= 7; ++d) {
        for (int platform = 0; platform < 2; ++platform) {
            for (int rep = 0; rep < 2; ++rep) {
                core::SimConfig cfg;
                cfg.grid.rows = cfg.grid.cols = 64;
                cfg.agents_per_side = static_cast<std::size_t>(130 * d);
                cfg.model = core::Model::kAco;
                // Different seeds per platform: equal distribution,
                // decoupled draws — the paper's situation.
                cfg.seed = static_cast<std::uint64_t>(
                    10 * d + rep + platform * 5000);
                const auto sim = backend::make_engine(
                    backend::DeviceType::kCpu, cfg);
                const auto rr = sim->run(250);
                data.push_back(
                    {static_cast<double>(rr.crossed_total()),
                     static_cast<double>(2 * cfg.agents_per_side),
                     {static_cast<double>(d),
                      static_cast<double>(platform)}});
            }
        }
    }
    const auto fit = stats::BinomialGlm().fit(data);
    ASSERT_TRUE(fit.converged);
    EXPECT_GE(fit.dispersion, 1.0);
    EXPECT_GT(fit.quasi_p_value[2], 0.05);
    // Quasi errors are never tighter than the binomial ones.
    EXPECT_GE(fit.quasi_std_error[2], fit.std_error[2]);
}

TEST(GlmIntegration, DispersionIsOneForTrueBinomialData) {
    // Exact-rate synthetic data: dispersion clamps at 1 and the quasi test
    // coincides with a t-version of the Wald test.
    std::vector<stats::BinomialObservation> data;
    for (int i = 0; i < 12; ++i) {
        const double x = 0.2 * i;
        const double p = stats::inv_logit(-0.5 + 0.6 * x);
        data.push_back({std::round(p * 1e5), 1e5, {x}});
    }
    const auto fit = stats::BinomialGlm().fit(data);
    EXPECT_NEAR(fit.dispersion, 1.0, 0.05);
}

// --- Throughput-vs-density phase structure (the Fig. 6a story) ---------------------

TEST(PhaseStructure, SparseEqualMediumAcoWinsDenseBothCollapse) {
    // A coarse one-seed rendering of Fig. 6a's three regimes on a small
    // grid; the figure bench sweeps this properly.
    auto run_one = [](core::Model model, std::size_t per_side) {
        core::SimConfig cfg;
        cfg.grid.rows = cfg.grid.cols = 96;
        cfg.agents_per_side = per_side;
        cfg.model = model;
        cfg.seed = 31;
        const auto sim = backend::make_engine(backend::DeviceType::kCpu, cfg);
        return sim->run(900).crossed_total();
    };
    // Sparse: both drain completely.
    EXPECT_EQ(run_one(core::Model::kLem, 300), 600u);
    EXPECT_EQ(run_one(core::Model::kAco, 300), 600u);
    // Medium: ACO clearly ahead.
    const auto lem_mid = run_one(core::Model::kLem, 1150);
    const auto aco_mid = run_one(core::Model::kAco, 1150);
    EXPECT_GT(aco_mid, lem_mid + lem_mid / 10);
    // Dense: both far from draining (congestion collapse).
    const auto lem_dense = run_one(core::Model::kLem, 2200);
    const auto aco_dense = run_one(core::Model::kAco, 2200);
    EXPECT_LT(lem_dense, 2000u);
    EXPECT_LT(aco_dense, 3000u);
}

}  // namespace
}  // namespace pedsim
