// Unit tests for the shared decision rules (eqs. 1-5 as adapted in the
// paper's section III) and the movement winner draw.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/pheromone.hpp"
#include "core/rules.hpp"

namespace pedsim::core {
namespace {

using grid::Environment;
using grid::GridConfig;
using grid::Group;

/// The builders read the grid through EnvEmpty, as the host engine does,
/// at the paper's scanning range.
class RulesTest : public ::testing::Test {
  protected:
    RulesTest() : env_(GridConfig{32, 32}), df_(GridConfig{32, 32}) {}

    int build_lem(Group g, int r, int c) {
        return build_candidates_lem_t(EnvEmpty(env_), df_, ScanConfig{},
                                      env_.config(), g, r, c, values_,
                                      cells_);
    }
    int build_aco(const PheromoneField& pher, const AcoParams& params,
                  Group g, int r, int c) {
        return build_candidates_aco_t(
            EnvEmpty(env_),
            [&](int nr, int nc) { return pher.at(g, nr, nc); }, df_, params,
            ScanConfig{}, env_.config(), g, r, c, values_, cells_);
    }

    Environment env_;
    grid::DistanceField df_;
    double values_[8];
    std::int8_t cells_[8];
};

// --- LEM candidate building -------------------------------------------------

TEST_F(RulesTest, LemAllNeighborsEmptyYieldsEight) {
    env_.place(10, 10, Group::kTop, 1);
    const int n = build_lem(Group::kTop, 10, 10);
    EXPECT_EQ(n, 8);
    // Distance-ascending (the paper's sorted scan row).
    for (int i = 1; i < n; ++i) EXPECT_GE(values_[i], values_[i - 1]);
    // First candidate is the forward cell.
    EXPECT_EQ(cells_[0], grid::forward_neighbor(Group::kTop));
}

TEST_F(RulesTest, LemOccupiedNeighborsAreExcluded) {
    env_.place(10, 10, Group::kTop, 1);
    env_.place(11, 10, Group::kTop, 2);  // forward cell occupied
    env_.place(10, 9, Group::kBottom, 3);
    const int n = build_lem(Group::kTop, 10, 10);
    EXPECT_EQ(n, 6);
    for (int i = 0; i < n; ++i) {
        EXPECT_NE(cells_[i], 0);  // fwd (#1) gone
        EXPECT_NE(cells_[i], 3);  // west (#4) gone
    }
}

TEST_F(RulesTest, LemCornerAgentSeesOnlyInGridCells) {
    env_.place(0, 0, Group::kTop, 1);
    const int n = build_lem(Group::kTop, 0, 0);
    EXPECT_EQ(n, 3);  // S, SE, E
}

TEST_F(RulesTest, LemFullyEnclosedAgentHasNoCandidates) {
    env_.place(10, 10, Group::kTop, 1);
    int id = 2;
    for (const auto off : grid::kNeighborOffsets) {
        env_.place(10 + off.dr, 10 + off.dc, Group::kBottom, id++);
    }
    const int n = build_lem(Group::kTop, 10, 10);
    EXPECT_EQ(n, 0);
}

TEST_F(RulesTest, LemBottomGroupMirrorsOrdering) {
    env_.place(10, 10, Group::kBottom, 1);
    const int n = build_lem(Group::kBottom, 10, 10);
    EXPECT_EQ(n, 8);
    EXPECT_EQ(cells_[0], grid::forward_neighbor(Group::kBottom));
    for (int i = 1; i < n; ++i) EXPECT_GE(values_[i], values_[i - 1]);
}

// --- ACO candidate building ---------------------------------------------------

TEST_F(RulesTest, AcoNumeratorMatchesEquationTwo) {
    AcoParams params;
    params.alpha = 1.5;
    params.beta = 2.5;
    PheromoneField pher(env_.config(), /*tau0=*/0.3, /*tau_min=*/1e-3);
    pher.deposit(Group::kTop, 11, 10, 0.7);  // forward cell now tau = 1.0

    env_.place(10, 10, Group::kTop, 1);
    const int n = build_aco(pher, params, Group::kTop, 10, 10);
    ASSERT_EQ(n, 8);
    // Slot 0 is the forward cell (ranked order): tau = 1.0, d = 20.
    const double d0 = df_.distance(Group::kTop, 11, 0);
    EXPECT_NEAR(values_[0],
                std::pow(1.0, params.alpha) * std::pow(1.0 / d0, params.beta),
                1e-12);
    // Slot 1 is a forward diagonal with base tau0.
    const double d1 = df_.distance(Group::kTop, 11, 1);
    EXPECT_NEAR(values_[1],
                std::pow(0.3, params.alpha) * std::pow(1.0 / d1, params.beta),
                1e-12);
}

TEST_F(RulesTest, AcoPheromoneBiasesWeights) {
    AcoParams params;  // alpha 1, beta 2
    PheromoneField pher(env_.config(), 0.1, 1e-3);
    env_.place(10, 10, Group::kTop, 1);

    build_aco(pher, params, Group::kTop, 10, 10);
    const double before = values_[1];
    pher.deposit(Group::kTop, 11, 9, 5.0);  // boost SW diagonal (#2, slot 1)
    build_aco(pher, params, Group::kTop, 10, 10);
    EXPECT_GT(values_[1], 10.0 * before);
}

TEST_F(RulesTest, AcoReadsOwnGroupsField) {
    AcoParams params;
    PheromoneField pher(env_.config(), 0.1, 1e-3);
    pher.deposit(Group::kBottom, 11, 10, 100.0);  // other group's trail
    env_.place(10, 10, Group::kTop, 1);
    build_aco(pher, params, Group::kTop, 10, 10);
    const double d0 = df_.distance(Group::kTop, 11, 0);
    EXPECT_NEAR(values_[0], 0.1 * std::pow(1.0 / d0, 2.0), 1e-12);
}

TEST_F(RulesTest, AcoDistanceGuardNearTarget) {
    // An agent one row from the target: the forward cell is *on* the
    // target row (distance 0) — the guard keeps eta finite.
    env_.place(30, 10, Group::kTop, 1);
    AcoParams params;
    PheromoneField pher(env_.config(), 0.1, 1e-3);
    const int n = build_aco(pher, params, Group::kTop, 30, 10);
    ASSERT_GT(n, 0);
    for (int i = 0; i < n; ++i) {
        EXPECT_TRUE(std::isfinite(values_[i]));
        EXPECT_GT(values_[i], 0.0);
    }
}

// --- Selection ------------------------------------------------------------------

TEST(Selection, WinnerUniformAmongProposers) {
    int hist[3] = {0, 0, 0};
    const int n = 30000;
    for (int i = 0; i < n; ++i) {
        rng::Stream s(3, rng::Stage::kMovement, static_cast<std::uint64_t>(i),
                      0);
        ++hist[select_winner(s, 3)];
    }
    for (const int h : hist) {
        EXPECT_NEAR(static_cast<double>(h) / n, 1.0 / 3.0, 0.02);
    }
}

TEST(Selection, WinnerEdgeCases) {
    rng::Stream s(1, rng::Stage::kGeneric, 0, 0);
    EXPECT_EQ(select_winner(s, 0), -1);
    EXPECT_EQ(select_winner(s, 1), 0);
}

// --- Step lengths and deposits -------------------------------------------------------

TEST(StepLength, CardinalAndDiagonal) {
    EXPECT_DOUBLE_EQ(step_length(1, 0), 1.0);
    EXPECT_DOUBLE_EQ(step_length(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(step_length(-1, 0), 1.0);
    EXPECT_DOUBLE_EQ(step_length(1, 1), std::sqrt(2.0));
    EXPECT_DOUBLE_EQ(step_length(-1, 1), std::sqrt(2.0));
}

TEST(Deposit, InverselyProportionalToTourLength) {
    AcoParams params;
    params.q = 2.0;
    EXPECT_DOUBLE_EQ(deposit_amount(params, 4.0), 0.5);
    EXPECT_GT(deposit_amount(params, 2.0), deposit_amount(params, 10.0));
}

TEST(Deposit, GuardsShortTours) {
    AcoParams params;
    params.q = 1.0;
    // L < 1 clamps to 1 so a first step never deposits more than q.
    EXPECT_DOUBLE_EQ(deposit_amount(params, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(deposit_amount(params, 0.5), 1.0);
}

// --- Pheromone field ------------------------------------------------------------------

TEST(Pheromone, EvaporationIsGeometricWithFloor) {
    PheromoneField pher(GridConfig{32, 32}, 1.0, 0.01);
    pher.evaporate(0.5);
    EXPECT_DOUBLE_EQ(pher.at(Group::kTop, 3, 3), 0.5);
    for (int i = 0; i < 20; ++i) pher.evaporate(0.5);
    EXPECT_DOUBLE_EQ(pher.at(Group::kTop, 3, 3), 0.01);  // floored
}

TEST(Pheromone, DepositAccumulates) {
    PheromoneField pher(GridConfig{32, 32}, 0.1, 1e-3);
    pher.deposit(Group::kBottom, 5, 6, 0.4);
    pher.deposit(Group::kBottom, 5, 6, 0.3);
    EXPECT_NEAR(pher.at(Group::kBottom, 5, 6), 0.8, 1e-12);
    EXPECT_NEAR(pher.at(Group::kTop, 5, 6), 0.1, 1e-12);  // isolated fields
}

}  // namespace
}  // namespace pedsim::core
