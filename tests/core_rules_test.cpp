// Unit tests for the shared decision rules (eqs. 1-5 as adapted in the
// paper's section III) and the movement winner draw.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/pheromone.hpp"
#include "core/rules.hpp"
#include "rng/stream.hpp"

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

// --- Builders against the per-neighbour loop ----------------------------------

// The three builders as a per-neighbour loop: probe a neighbour, and score
// it at once when it is empty. The builders read all eight neighbours into
// a mask first; they must produce the same rows and make the same reader
// calls.

template <typename EmptyFn, typename Field>
int reference_lem(EmptyFn&& empty, const Field& df, const ScanConfig& scan,
                  const GridConfig& gcfg, Group g, int r, int c,
                  double* values, std::int8_t* cells) {
    int n = 0;
    for (const int k : grid::ranked_order(g)) {
        const auto off = grid::kNeighborOffsets[static_cast<std::size_t>(k)];
        const int nr = r + off.dr;
        const int nc = c + off.dc;
        if (!empty(nr, nc)) continue;
        double effort = df.cost(g, nr, nc, off.dc);
        if (scan.range > 1) {
            effort *= 1.0 + scan.congestion_weight *
                                ray_congestion(empty, nr, nc, off.dr,
                                               off.dc, scan.range, gcfg);
        }
        insert_ranked(values, cells, n++, effort, k);
    }
    return n;
}

template <typename EmptyFn, typename TauFn, typename Field>
int reference_aco(EmptyFn&& empty, TauFn&& tau, const Field& df,
                  const AcoParams& params, const ScanConfig& scan,
                  const GridConfig& gcfg, Group g, int r, int c,
                  double* values, std::int8_t* cells) {
    int n = 0;
    for (const int k : grid::ranked_order(g)) {
        const auto off = grid::kNeighborOffsets[static_cast<std::size_t>(k)];
        const int nr = r + off.dr;
        const int nc = c + off.dc;
        if (!empty(nr, nc)) continue;
        const double d =
            std::max(df.cost(g, nr, nc, off.dc), kMinHeuristicDistance);
        double weight = std::pow(tau(nr, nc), params.alpha) *
                        std::pow(1.0 / d, params.beta);
        if (scan.range > 1) {
            weight *= std::max(
                1.0 - scan.congestion_weight *
                          ray_congestion(empty, nr, nc, off.dr, off.dc,
                                         scan.range, gcfg),
                0.05);
        }
        values[n] = weight;
        cells[n] = static_cast<std::int8_t>(k);
        ++n;
    }
    return n;
}

template <typename EmptyFn>
int reference_flee(EmptyFn&& empty, const PanicConfig& panic, Group g, int r,
                   int c, double* values, std::int8_t* cells) {
    int n = 0;
    for (const int k : grid::ranked_order(g)) {
        const auto off = grid::kNeighborOffsets[static_cast<std::size_t>(k)];
        const int nr = r + off.dr;
        const int nc = c + off.dc;
        if (!empty(nr, nc)) continue;
        const double dr = nr - panic.row;
        const double dc = nc - panic.col;
        insert_ranked(values, cells, n++, -std::sqrt(dr * dr + dc * dc), k);
    }
    return n;
}

/// One reader call: an emptiness probe ('e') or a pheromone read ('t').
struct ReaderCall {
    char kind;
    int r;
    int c;
    bool operator==(const ReaderCall&) const = default;
};

/// Emptiness reader that answers as EnvEmpty and logs every call.
struct RecordingEmpty {
    EnvEmpty env;
    std::vector<ReaderCall>* log;
    bool operator()(int r, int c) const {
        log->push_back({'e', r, c});
        return env(r, c);
    }
};

/// One builder call's row and reader calls.
struct BuiltRow {
    int n = 0;
    double values[grid::kNeighborCount] = {};
    std::int8_t cells[grid::kNeighborCount] = {};
    std::vector<ReaderCall> calls;
};

/// A random 32x32 grid: ~8% walls, then agents of both groups on
/// `occupancy` of the remaining cells.
struct RandomGrid {
    Environment env{GridConfig{32, 32}};
    std::vector<std::uint32_t> walls;

    RandomGrid(std::uint64_t seed, double occupancy) {
        rng::Stream s(seed, rng::Stage::kGeneric, 0, 0);
        for (int r = 0; r < 32; ++r) {
            for (int c = 0; c < 32; ++c) {
                if (s.next_double() < 0.08) {
                    env.set_wall(r, c);
                    walls.push_back(static_cast<std::uint32_t>(r * 32 + c));
                }
            }
        }
        std::int32_t id = 1;
        for (int r = 0; r < 32; ++r) {
            for (int c = 0; c < 32; ++c) {
                if (env.empty(r, c) && s.next_double() < occupancy) {
                    env.place(r, c, s.next_below(2) == 0 ? Group::kTop
                                                         : Group::kBottom,
                              id++);
                }
            }
        }
    }
};

/// Runs `build` (the builder) and `reference` on a fresh BuiltRow each,
/// with a recording reader, and compares the rows bit for bit and the
/// reader calls: the same number of emptiness probes, and the same
/// sequence of per-candidate calls (tau and the look-ahead ray probes,
/// i.e. every call but the probes of the 8 neighbours).
template <typename Build, typename Reference>
void expect_same_row(Build&& build, Reference&& reference, int r, int c,
                     const char* what) {
    BuiltRow got;
    BuiltRow want;
    got.n = build(got);
    want.n = reference(want);
    ASSERT_EQ(got.n, want.n) << what << " at (" << r << ", " << c << ")";
    for (int i = 0; i < got.n; ++i) {
        const auto j = static_cast<std::size_t>(i);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.values[j]),
                  std::bit_cast<std::uint64_t>(want.values[j]))
            << what << " at (" << r << ", " << c << ") slot " << i;
        ASSERT_EQ(got.cells[j], want.cells[j])
            << what << " at (" << r << ", " << c << ") slot " << i;
    }
    const auto probes = [](const std::vector<ReaderCall>& calls) {
        return std::count_if(calls.begin(), calls.end(),
                             [](const ReaderCall& x) { return x.kind == 'e'; });
    };
    ASSERT_EQ(probes(got.calls), probes(want.calls))
        << what << " at (" << r << ", " << c << ")";
    const auto per_candidate = [&](const std::vector<ReaderCall>& calls) {
        std::vector<ReaderCall> out;
        for (const auto& x : calls) {
            const bool neighbour = x.kind == 'e' &&
                                   std::abs(x.r - r) <= 1 &&
                                   std::abs(x.c - c) <= 1;
            if (!neighbour) out.push_back(x);
        }
        return out;
    };
    ASSERT_EQ(per_candidate(got.calls), per_candidate(want.calls))
        << what << " at (" << r << ", " << c << ")";
}

TEST(BuilderRows, MatchThePerNeighbourLoop) {
    const GridConfig cfg{32, 32};
    const grid::DistanceField analytic(cfg);
    int grids = 0;
    for (const double occupancy : {0.1, 0.35, 0.6}) {
        const RandomGrid grid(100 + static_cast<std::uint64_t>(grids++),
                              occupancy);
        const Environment& env = grid.env;
        // Geodesic fields around the grid's walls, and a second one
        // around half of them to blend toward.
        const grid::DistanceField geodesic(cfg, grid.walls, {});
        std::vector<std::uint32_t> half;
        for (std::size_t i = 0; i < grid.walls.size(); i += 2) {
            half.push_back(grid.walls[i]);
        }
        const grid::DistanceField opened(cfg, half, {});
        const std::array<grid::BlendedField, 3> fields{
            grid::BlendedField(&analytic), grid::BlendedField(&geodesic),
            grid::BlendedField(&geodesic, &opened, 0.375)};
        const std::array<const char*, 3> field_names{"analytic", "geodesic",
                                                     "blended"};

        PheromoneField pher(cfg, 0.2, 1e-3);
        rng::Stream s(7, rng::Stage::kGeneric, 1,
                      static_cast<std::uint64_t>(grids));
        for (int i = 0; i < 300; ++i) {
            pher.deposit(s.next_below(2) == 0 ? Group::kTop : Group::kBottom,
                         static_cast<int>(s.next_below(32)),
                         static_cast<int>(s.next_below(32)),
                         s.next_double());
        }
        AcoParams aco;
        aco.alpha = 1.3;
        aco.beta = 2.2;
        PanicConfig panic;
        panic.row = 13;
        panic.col = 21;

        for (int r = 0; r < 32; ++r) {
            for (int c = 0; c < 32; ++c) {
                for (const Group g : {Group::kTop, Group::kBottom}) {
                    const auto reader = [&](BuiltRow& row) {
                        return RecordingEmpty{EnvEmpty(env), &row.calls};
                    };
                    const auto tau = [&](BuiltRow& row) {
                        return [&pher, &row, g](int nr, int nc) {
                            row.calls.push_back({'t', nr, nc});
                            return pher.at(g, nr, nc);
                        };
                    };
                    for (const int range : {1, 3}) {
                        const ScanConfig scan{range, 0.7};
                        for (std::size_t f = 0; f < fields.size(); ++f) {
                            const auto& df = fields[f];
                            expect_same_row(
                                [&](BuiltRow& row) {
                                    return build_candidates_lem_t(
                                        reader(row), df, scan, cfg, g, r, c,
                                        row.values, row.cells);
                                },
                                [&](BuiltRow& row) {
                                    return reference_lem(
                                        reader(row), df, scan, cfg, g, r, c,
                                        row.values, row.cells);
                                },
                                r, c, field_names[f]);
                            expect_same_row(
                                [&](BuiltRow& row) {
                                    return build_candidates_aco_t(
                                        reader(row), tau(row), df, aco, scan,
                                        cfg, g, r, c, row.values, row.cells);
                                },
                                [&](BuiltRow& row) {
                                    return reference_aco(
                                        reader(row), tau(row), df, aco, scan,
                                        cfg, g, r, c, row.values, row.cells);
                                },
                                r, c, field_names[f]);
                        }
                    }
                    expect_same_row(
                        [&](BuiltRow& row) {
                            return build_candidates_flee_t(
                                reader(row), panic, g, r, c, row.values,
                                row.cells);
                        },
                        [&](BuiltRow& row) {
                            return reference_flee(reader(row), panic, g, r, c,
                                                  row.values, row.cells);
                        },
                        r, c, "flee");
                    if (::testing::Test::HasFatalFailure()) return;
                }
            }
        }
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
