// Tests for the environment, neighbourhood geometry, distance field and
// placement (the paper's data-preparation stage).
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>

#include "geodesic_oracle.hpp"
#include "grid/distance_field.hpp"
#include "grid/environment.hpp"
#include "grid/neighborhood.hpp"
#include "grid/placement.hpp"

namespace pedsim::grid {
namespace {

// --- Neighbourhood (paper Fig. 1) ----------------------------------------

TEST(Neighborhood, EightDistinctUnitOffsets) {
    std::set<std::pair<int, int>> seen;
    for (const auto o : kNeighborOffsets) {
        EXPECT_TRUE(o.dr >= -1 && o.dr <= 1);
        EXPECT_TRUE(o.dc >= -1 && o.dc <= 1);
        EXPECT_FALSE(o.dr == 0 && o.dc == 0);
        seen.insert({o.dr, o.dc});
    }
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Neighborhood, ForwardCellsMatchPaperNumbering) {
    // Paper section IV.c: "Cell #1 for top placed agent and Cell #6 for
    // bottom placed" (1-based) are the forward cells.
    EXPECT_EQ(forward_neighbor(Group::kTop), 0);     // Cell #1: south
    EXPECT_EQ(forward_neighbor(Group::kBottom), 5);  // Cell #6: north
    EXPECT_EQ(kNeighborOffsets[0].dr, +1);
    EXPECT_EQ(kNeighborOffsets[0].dc, 0);
    EXPECT_EQ(kNeighborOffsets[5].dr, -1);
    EXPECT_EQ(kNeighborOffsets[5].dc, 0);
}

TEST(Neighborhood, RankedOrderIsAPermutation) {
    for (const auto g : {Group::kTop, Group::kBottom}) {
        const auto order = ranked_order(g);
        std::set<int> seen(order.begin(), order.end());
        EXPECT_EQ(seen.size(), 8u);
        EXPECT_EQ(*seen.begin(), 0);
        EXPECT_EQ(*seen.rbegin(), 7);
    }
}

TEST(Neighborhood, RankedOrderStartsForwardEndsBackDiagonal) {
    EXPECT_EQ(ranked_order(Group::kTop)[0], forward_neighbor(Group::kTop));
    EXPECT_EQ(ranked_order(Group::kBottom)[0],
              forward_neighbor(Group::kBottom));
    // "the last element has the highest value (Cell #8/Cell #7 for top
    // placed agent)": back diagonals rank last.
    EXPECT_EQ(ranked_order(Group::kTop)[7], 7);     // Cell #8
    EXPECT_EQ(ranked_order(Group::kBottom)[7], 2);  // Cell #3
}

TEST(Neighborhood, RankedOrderIsDistanceAscending) {
    const GridConfig cfg{64, 64};
    const DistanceField df(cfg);
    for (const auto g : {Group::kTop, Group::kBottom}) {
        const int r = 30;  // mid-grid
        double prev = -1.0;
        for (const int k : ranked_order(g)) {
            const auto off = kNeighborOffsets[static_cast<std::size_t>(k)];
            const double d = df.distance(g, r + off.dr, off.dc);
            EXPECT_GE(d, prev - 1e-12);
            prev = d;
        }
    }
}

// --- Environment ----------------------------------------------------------

TEST(Environment, RejectsNonTileAlignedDimensions) {
    EXPECT_THROW(Environment(GridConfig{100, 96}), std::invalid_argument);
    EXPECT_THROW(Environment(GridConfig{96, 100}), std::invalid_argument);
    EXPECT_THROW(Environment(GridConfig{0, 0}), std::invalid_argument);
    EXPECT_NO_THROW(Environment(GridConfig{96, 96}));
    EXPECT_NO_THROW(Environment(GridConfig{480, 480}));
}

TEST(Environment, StartsEmpty) {
    Environment env(GridConfig{32, 32});
    EXPECT_EQ(env.population(), 0u);
    for (int r = 0; r < env.rows(); ++r) {
        for (int c = 0; c < env.cols(); ++c) {
            EXPECT_TRUE(env.empty(r, c));
            EXPECT_EQ(env.index_at(r, c), 0);
        }
    }
}

TEST(Environment, PlaceAndClear) {
    Environment env(GridConfig{32, 32});
    env.place(3, 4, Group::kTop, 7);
    EXPECT_EQ(env.occupancy(3, 4), Group::kTop);
    EXPECT_EQ(env.index_at(3, 4), 7);
    EXPECT_EQ(env.population(), 1u);
    env.clear(3, 4);
    EXPECT_TRUE(env.empty(3, 4));
    EXPECT_EQ(env.population(), 0u);
}

TEST(Environment, PlaceValidation) {
    Environment env(GridConfig{32, 32});
    EXPECT_THROW(env.place(-1, 0, Group::kTop, 1), std::out_of_range);
    EXPECT_THROW(env.place(0, 32, Group::kTop, 1), std::out_of_range);
    EXPECT_THROW(env.place(0, 0, Group::kNone, 1), std::invalid_argument);
    EXPECT_THROW(env.place(0, 0, Group::kTop, 0), std::invalid_argument);
    env.place(0, 0, Group::kTop, 1);
    EXPECT_THROW(env.place(0, 0, Group::kBottom, 2), std::logic_error);
}

TEST(Environment, MoveTransfersOccupancyAndIndex) {
    Environment env(GridConfig{32, 32});
    env.place(1, 1, Group::kBottom, 5);
    env.move(1, 1, 2, 2);
    EXPECT_TRUE(env.empty(1, 1));
    EXPECT_EQ(env.index_at(1, 1), 0);
    EXPECT_EQ(env.occupancy(2, 2), Group::kBottom);
    EXPECT_EQ(env.index_at(2, 2), 5);
}

TEST(Environment, MoveValidation) {
    Environment env(GridConfig{32, 32});
    env.place(1, 1, Group::kTop, 1);
    env.place(2, 2, Group::kTop, 2);
    EXPECT_THROW(env.move(0, 0, 3, 3), std::logic_error);   // source empty
    EXPECT_THROW(env.move(1, 1, 2, 2), std::logic_error);   // target full
    EXPECT_THROW(env.move(1, 1, -1, 0), std::out_of_range); // off grid
}

TEST(Environment, WalkableTreatsOffGridAsWall) {
    Environment env(GridConfig{32, 32});
    EXPECT_FALSE(env.walkable(-1, 0));
    EXPECT_FALSE(env.walkable(0, -1));
    EXPECT_FALSE(env.walkable(32, 0));
    EXPECT_FALSE(env.walkable(0, 32));
    EXPECT_TRUE(env.walkable(0, 0));
}

TEST(Environment, StaticWallsBlockWithoutCountingAsPopulation) {
    Environment env(GridConfig{32, 32});
    env.set_wall(5, 5);
    EXPECT_TRUE(env.is_wall(5, 5));
    EXPECT_FALSE(env.empty(5, 5));
    EXPECT_FALSE(env.walkable(5, 5));
    EXPECT_EQ(env.index_at(5, 5), 0);
    EXPECT_EQ(env.population(), 0u);
    EXPECT_EQ(env.wall_count(), 1u);
    // The raw occupancy carries the SIMT halo sentinel, so the tile
    // loaders treat in-grid walls exactly like off-grid cells.
    EXPECT_EQ(env.occupancy_raw()[env.padded(5, 5)], kWallOcc);
    // The sentinel frame itself reads as wall in padded storage: "off
    // grid" and "wall" are one occupancy value.
    const auto& occ = env.occupancy_raw();
    EXPECT_EQ(occ[env.padded(-1, 5)], kWallOcc);
    EXPECT_EQ(occ[env.padded(32, 5)], kWallOcc);
    EXPECT_EQ(occ[env.padded(5, -1)], kWallOcc);
    EXPECT_EQ(occ[env.padded(5, 32)], kWallOcc);
    EXPECT_EQ(env.index_raw()[env.padded(-1, -1)], 0);
    EXPECT_EQ(occ[env.padded(6, 5)], 0);
}

TEST(Environment, PaddedFrameIsWallSentinelAroundLogicalCells) {
    Environment env(GridConfig{32, 32});
    EXPECT_EQ(env.stride() % kRowAlign, 0);
    EXPECT_GE(env.stride(), env.cols() + 2);
    EXPECT_EQ(env.bit_words() * 64, env.stride());
    env.place(0, 0, Group::kTop, 1);
    env.set_wall(31, 31);
    const auto& occ = env.occupancy_raw();
    ASSERT_EQ(occ.size(), static_cast<std::size_t>(env.rows() + 2) *
                              static_cast<std::size_t>(env.stride()));
    for (int r = -1; r <= env.rows(); ++r) {
        for (int c = -1; c <= env.stride() - 2; ++c) {
            if (env.in_bounds(r, c)) continue;
            EXPECT_EQ(occ[env.padded(r, c)], kWallOcc)
                << "frame (" << r << "," << c << ")";
            EXPECT_EQ(env.index_raw()[env.padded(r, c)], 0);
        }
    }
    EXPECT_EQ(env.occupancy(0, 0), Group::kTop);
    EXPECT_TRUE(env.is_wall(31, 31));
    EXPECT_EQ(env.population(), 1u);
    EXPECT_EQ(env.wall_count(), 1u);
}

TEST(Environment, WallValidation) {
    Environment env(GridConfig{32, 32});
    EXPECT_THROW(env.set_wall(-1, 0), std::out_of_range);
    env.place(3, 3, Group::kTop, 1);
    EXPECT_THROW(env.set_wall(3, 3), std::logic_error);
    env.set_wall(4, 4);
    EXPECT_THROW(env.place(4, 4, Group::kTop, 2), std::logic_error);
    EXPECT_THROW(env.set_wall(4, 4), std::logic_error);
}

// --- DistanceField ---------------------------------------------------------

TEST(DistanceField, TargetRows) {
    const DistanceField df(GridConfig{480, 480});
    EXPECT_EQ(df.target_row(Group::kTop), 479);
    EXPECT_EQ(df.target_row(Group::kBottom), 0);
}

TEST(DistanceField, StraightDistanceIsRowGap) {
    const DistanceField df(GridConfig{480, 480});
    EXPECT_DOUBLE_EQ(df.distance(Group::kTop, 479, 0), 0.0);
    EXPECT_DOUBLE_EQ(df.distance(Group::kTop, 0, 0), 479.0);
    EXPECT_DOUBLE_EQ(df.distance(Group::kBottom, 0, 0), 0.0);
    EXPECT_DOUBLE_EQ(df.distance(Group::kBottom, 479, 0), 479.0);
}

TEST(DistanceField, LateralOffsetAddsHypotenuse) {
    const DistanceField df(GridConfig{480, 480});
    const double straight = df.distance(Group::kTop, 100, 0);
    const double lateral = df.distance(Group::kTop, 100, 1);
    EXPECT_DOUBLE_EQ(lateral, std::sqrt(straight * straight + 1.0));
    EXPECT_DOUBLE_EQ(df.distance(Group::kTop, 100, -1), lateral);
}

TEST(DistanceField, PaperCellOrderingHoldsMidGrid) {
    // Section IV.b: forward < forward diagonals < laterals < back < back
    // diagonals, for a top-group agent far from the target.
    const DistanceField df(GridConfig{480, 480});
    const int r = 100;
    const auto d = [&](int k) {
        const auto off = kNeighborOffsets[static_cast<std::size_t>(k)];
        return df.distance(Group::kTop, r + off.dr, off.dc);
    };
    EXPECT_LT(d(0), d(1));               // fwd < fwd-diag
    EXPECT_DOUBLE_EQ(d(1), d(2));        // the two fwd diagonals tie
    EXPECT_LT(d(1), d(3));               // fwd-diag < lateral
    EXPECT_DOUBLE_EQ(d(3), d(4));        // laterals tie
    EXPECT_LT(d(3), d(5));               // lateral < back
    EXPECT_LT(d(5), d(6));               // back < back-diag
    EXPECT_DOUBLE_EQ(d(6), d(7));        // back diagonals tie
}

TEST(DistanceField, CrossedPredicate) {
    const DistanceField df(GridConfig{480, 480});
    EXPECT_TRUE(df.crossed(Group::kTop, 479, 3));
    EXPECT_TRUE(df.crossed(Group::kTop, 477, 3));
    EXPECT_FALSE(df.crossed(Group::kTop, 476, 3));
    EXPECT_TRUE(df.crossed(Group::kBottom, 0, 3));
    EXPECT_TRUE(df.crossed(Group::kBottom, 2, 3));
    EXPECT_FALSE(df.crossed(Group::kBottom, 3, 3));
}

TEST(DistanceField, GeodesicOnEmptyGridMatchesAnalyticVerticals) {
    // With no walls and the default edge-row goals, the geodesic distance
    // of every cell equals the analytic vertical distance, and the
    // position-aware crossing test agrees with the row-based one — the
    // obstacle generalization is a strict superset of the paper's table.
    const GridConfig cfg{48, 48};
    const DistanceField analytic(cfg);
    const DistanceField geodesic(cfg, {}, {});
    ASSERT_FALSE(analytic.geodesic());
    ASSERT_TRUE(geodesic.geodesic());
    // The analytic accessors stay valid in geodesic mode (the row table is
    // still built), so legacy callers cannot read out of bounds.
    EXPECT_DOUBLE_EQ(geodesic.distance(Group::kTop, 0, 0), 47.0);
    for (const auto g : {Group::kTop, Group::kBottom}) {
        for (int r = 0; r < cfg.rows; ++r) {
            for (int c = 0; c < cfg.cols; ++c) {
                EXPECT_DOUBLE_EQ(geodesic.geo(g, r, c),
                                 analytic.distance(g, r, 0));
                for (const int margin : {1, 3, 8}) {
                    EXPECT_EQ(geodesic.crossed_at(g, r, c, margin),
                              analytic.crossed_at(g, r, c, margin));
                }
            }
        }
    }
}

TEST(DistanceField, GeodesicRejectsOffGridWallCells) {
    const GridConfig cfg{32, 32};
    EXPECT_THROW(
        DistanceField(cfg, {static_cast<std::uint32_t>(cfg.cell_count())},
                      {}),
        std::invalid_argument);
}

TEST(DistanceField, GeodesicRejectsOffGridGoalCells) {
    // An off-grid goal used to be skipped silently, leaving its group an
    // all-unreachable field whose agents never cross. It is named instead,
    // for the two-group goals and the shared target alike.
    const GridConfig cfg{32, 32};
    const auto off = static_cast<std::uint32_t>(cfg.cell_count());
    const auto expect_named = [](const auto& build) {
        try {
            build();
            ADD_FAILURE() << "off-grid goal accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_EQ(std::string(e.what()),
                      "DistanceField: goal cell off-grid");
        }
    };
    expect_named([&] { DistanceField(cfg, {}, {{{off}, {}}}); });
    expect_named([&] { DistanceField(cfg, {}, {{{}, {5, off + 40}}}); });
    expect_named([&] { DistanceField::shared_target(cfg, {}, off); });
    // The last in-grid cell is fine.
    EXPECT_NO_THROW(DistanceField::shared_target(cfg, {}, off - 1));
}

TEST(DistanceField, SharedTargetFieldHoldsOneTable) {
    // Both groups read one table, built or repaired: a waypoint field
    // holds half the geodesic bytes of a two-group field.
    const GridConfig cfg{32, 32};
    const std::vector<std::uint32_t> walls{100, 101, 102};
    const std::uint32_t target = 5 * 32 + 7;
    const DistanceField two(cfg, walls, {});
    const auto one = DistanceField::shared_target(cfg, walls, target);
    GeodesicScratch scratch;
    const auto repaired =
        one.repaired_shared_target(walls, {100, 101}, target, scratch);
    const std::size_t table = cfg.cell_count() * sizeof(double);
    EXPECT_EQ(two.bytes() - one.bytes(), table);
    for (const auto* f : {&one, &repaired}) {
        EXPECT_EQ(f->geo_data(Group::kTop), f->geo_data(Group::kBottom));
        EXPECT_EQ(f->bytes(), one.bytes());
        EXPECT_EQ(f->geo(Group::kBottom, 5, 7), 0.0);
    }
}

TEST(DistanceField, GeodesicRoutesAroundWalls) {
    // A wall across the grid with a doorway at the west end: cells east of
    // the door must pay the detour, not the straight-line distance.
    const GridConfig cfg{32, 32};
    std::vector<std::uint32_t> walls;
    for (int c = 4; c < 32; ++c) {
        walls.push_back(static_cast<std::uint32_t>(16 * 32 + c));
    }
    const DistanceField df(cfg, walls, {});
    // Straight below the wall the distance is unchanged.
    EXPECT_DOUBLE_EQ(df.geo(Group::kTop, 20, 10), 11.0);
    // Just above the wall, far from the door: the geodesic detours west.
    const double blocked = df.geo(Group::kTop, 15, 31);
    EXPECT_GT(blocked, 16.0 + 20.0);  // way beyond the analytic 16
    // Wall rows themselves are never relaxed.
    EXPECT_EQ(df.geo(Group::kTop, 16, 10), DistanceField::kUnreachable);
}

TEST(DistanceField, GeodesicCustomGoalsAndUnreachablePockets) {
    const GridConfig cfg{32, 32};
    // Seal rows 0-1 off from the rest with a full wall row at row 2.
    std::vector<std::uint32_t> walls;
    for (int c = 0; c < 32; ++c) {
        walls.push_back(static_cast<std::uint32_t>(2 * 32 + c));
    }
    std::array<std::vector<std::uint32_t>, 2> goals;
    goals[0] = {static_cast<std::uint32_t>(10 * 32 + 10)};  // top: one cell
    const DistanceField df(cfg, walls, goals);
    EXPECT_DOUBLE_EQ(df.geo(Group::kTop, 10, 10), 0.0);
    EXPECT_DOUBLE_EQ(df.geo(Group::kTop, 10, 14), 4.0);
    // Diagonal steps cost sqrt(2).
    EXPECT_NEAR(df.geo(Group::kTop, 13, 13), 3.0 * std::sqrt(2.0), 1e-12);
    // The walled-off strip cannot reach the goal.
    EXPECT_EQ(df.geo(Group::kTop, 0, 0), DistanceField::kUnreachable);
    // Bottom group defaults to its edge row 0, which sits inside the
    // sealed strip: reachable from row 1, cut off from everything below.
    EXPECT_DOUBLE_EQ(df.geo(Group::kBottom, 1, 5), 1.0);
    EXPECT_EQ(df.geo(Group::kBottom, 20, 5), DistanceField::kUnreachable);
}

// --- Geodesic builds and repairs against the Dijkstra oracle ------------------

/// One randomized trial: a grid shape, random walls, goal lists for both
/// groups and a shared target, then a chain of rect open/close toggles.
/// After every toggle the fresh build and the field repaired from the
/// previous configuration's (itself repaired) field must both equal the
/// priority-queue oracle bit for bit.
class RepairTrial {
  public:
    RepairTrial(std::uint64_t seed, GeodesicScratch& scratch)
        : rng_(seed), scratch_(scratch) {
        switch (seed % 4) {
            case 0: cfg_ = {1, pick(1, 96)}; break;
            case 1: cfg_ = {pick(1, 96), 1}; break;
            case 2: cfg_ = {pick(2, 32), pick(2, 32)}; break;
            default: cfg_ = {pick(33, 96), pick(33, 96)}; break;
        }
        const double density =
            std::uniform_real_distribution<double>(0.0, 0.5)(rng_);
        mask_.assign(cfg_.cell_count(), 0);
        for (auto& m : mask_) {
            m = std::bernoulli_distribution(density)(rng_) ? 1 : 0;
        }
        walls_ = wall_list();
        for (auto& goals : goals_) goals = random_goals();
        target_ = cell(pick(0, cfg_.rows - 1), pick(0, cfg_.cols - 1));
        field_ = DistanceField(cfg_, walls_, goals_);
        shared_ = DistanceField::shared_target(cfg_, walls_, target_);
        check("initial", field_, shared_, walls_);
    }

    [[nodiscard]] const GridConfig& config() const { return cfg_; }
    [[nodiscard]] std::uint32_t target() const { return target_; }
    [[nodiscard]] const std::vector<std::uint32_t>& goals(Group g) const {
        return goals_[g == Group::kTop ? 0 : 1];
    }
    int pick(int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng_);
    }

    /// Sets every cell of the rect (clipped to the grid) to wall or open,
    /// then checks the fresh and the repaired fields.
    void toggle(int r0, int c0, int r1, int c1, bool close) {
        r0 = std::max(r0, 0);
        c0 = std::max(c0, 0);
        r1 = std::min(r1, cfg_.rows - 1);
        c1 = std::min(c1, cfg_.cols - 1);
        for (int r = r0; r <= r1; ++r) {
            for (int c = c0; c <= c1; ++c) {
                mask_[cell(r, c)] = close ? 1 : 0;
            }
        }
        const auto walls = wall_list();
        ++toggles_;
        check("fresh", DistanceField(cfg_, walls, goals_),
              DistanceField::shared_target(cfg_, walls, target_), walls);
        auto repaired = field_.repaired(walls_, walls, goals_, scratch_);
        auto shared = shared_.repaired_shared_target(walls_, walls, target_,
                                                     scratch_);
        check("repaired", repaired, shared, walls);
        field_ = std::move(repaired);
        shared_ = std::move(shared);
        walls_ = walls;
    }

    /// A random rect of up to 6x6 cells.
    void random_toggle() {
        const int r0 = pick(0, cfg_.rows - 1);
        const int c0 = pick(0, cfg_.cols - 1);
        toggle(r0, c0, r0 + pick(0, 5), c0 + pick(0, 5), pick(0, 1) == 1);
    }

    /// Closes the four sides of a rect around (r, c), sealing the pocket
    /// inside it off from everything outside.
    void seal_pocket(int r, int c, int half) {
        toggle(r - half, c - half, r - half, c + half, true);
        toggle(r + half, c - half, r + half, c + half, true);
        toggle(r - half, c - half, r + half, c - half, true);
        toggle(r - half, c + half, r + half, c + half, true);
    }

    /// Closes a small rect over `target_cell`, then opens it again.
    void close_and_reopen(std::uint32_t target_cell, int reach) {
        const int r = static_cast<int>(target_cell) / cfg_.cols;
        const int c = static_cast<int>(target_cell) % cfg_.cols;
        toggle(r - reach, c - reach, r + reach, c + reach, true);
        toggle(r - reach, c - reach, r + reach, c + reach, false);
    }

    [[nodiscard]] int toggles() const { return toggles_; }

  private:
    [[nodiscard]] std::uint32_t cell(int r, int c) const {
        return static_cast<std::uint32_t>(r * cfg_.cols + c);
    }

    [[nodiscard]] std::vector<std::uint32_t> wall_list() const {
        std::vector<std::uint32_t> walls;
        for (std::size_t i = 0; i < mask_.size(); ++i) {
            if (mask_[i]) walls.push_back(static_cast<std::uint32_t>(i));
        }
        return walls;
    }

    /// Empty (the far edge row), a few cells, duplicated cells, or a list
    /// holding a wall cell.
    std::vector<std::uint32_t> random_goals() {
        std::vector<std::uint32_t> goals;
        const auto any = [&] {
            return cell(pick(0, cfg_.rows - 1), pick(0, cfg_.cols - 1));
        };
        switch (pick(0, 3)) {
            case 0: break;
            case 1:
                for (int k = pick(1, 4); k > 0; --k) goals.push_back(any());
                break;
            case 2:
                for (int k = 0; k < 3; ++k) {
                    const auto g = any();
                    goals.insert(goals.end(), {g, g});
                }
                break;
            default:
                if (!walls_.empty()) {
                    goals.push_back(walls_[static_cast<std::size_t>(
                        pick(0, static_cast<int>(walls_.size()) - 1))]);
                }
                goals.push_back(any());
                break;
        }
        return goals;
    }

    void check(const char* what, const DistanceField& field,
               const DistanceField& shared,
               const std::vector<std::uint32_t>& walls) {
        SCOPED_TRACE(std::string(what) + " field after toggle " +
                     std::to_string(toggles_) + " on " +
                     std::to_string(cfg_.rows) + "x" +
                     std::to_string(cfg_.cols));
        EXPECT_TRUE(testing::matches_oracle(cfg_, field, walls, goals_));
        EXPECT_TRUE(
            testing::matches_oracle_shared(cfg_, shared, walls, target_));
    }

    std::mt19937_64 rng_;
    GeodesicScratch& scratch_;
    GridConfig cfg_;
    std::vector<std::uint8_t> mask_;
    std::vector<std::uint32_t> walls_;
    std::array<std::vector<std::uint32_t>, 2> goals_;
    std::uint32_t target_ = 0;
    DistanceField field_{GridConfig{1, 1}};
    DistanceField shared_{GridConfig{1, 1}};
    int toggles_ = 0;
};

TEST(GeodesicOracle, FreshAndRepairedFieldsMatchDijkstraBitForBit) {
    // Shapes cycle through 1xN, Nx1, small and large (up to 96 a side)
    // grids; one scratch serves every trial, so nothing may leak from one
    // build into the next.
    GeodesicScratch scratch;
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        RepairTrial t(seed, scratch);
        const auto& cfg = t.config();
        t.random_toggle();
        t.random_toggle();
        // No-op toggles: closing what is closed, opening what is open.
        t.toggle(0, 0, 0, 0, true);
        t.toggle(0, 0, 0, 0, true);
        t.toggle(cfg.rows - 1, cfg.cols - 1, cfg.rows - 1, cfg.cols - 1,
                 false);
        t.toggle(cfg.rows - 1, cfg.cols - 1, cfg.rows - 1, cfg.cols - 1,
                 false);
        t.seal_pocket(t.pick(0, cfg.rows - 1), t.pick(0, cfg.cols - 1),
                      t.pick(1, 3));
        for (const auto g : {Group::kTop, Group::kBottom}) {
            const auto goals = testing::oracle_goals(cfg, g, {});
            const auto& own = t.goals(g);
            t.close_and_reopen(own.empty() ? goals[goals.size() / 2]
                                           : own.front(),
                               t.pick(0, 1));
        }
        t.close_and_reopen(t.target(), 0);
        t.close_and_reopen(t.target(), 2);
        // Wall off the whole top goal row, so the repair has to rebuild
        // the top field from nothing once it reopens.
        t.toggle(cfg.rows - 1, 0, cfg.rows - 1, cfg.cols - 1, true);
        t.random_toggle();
        t.toggle(cfg.rows - 1, 0, cfg.rows - 1, cfg.cols - 1, false);
        for (int k = 0; k < 4; ++k) t.random_toggle();
        ASSERT_GE(t.toggles(), 10);
        if (HasFailure()) FAIL() << "seed " << seed;
    }
}

TEST(GeodesicOracle, RepairOfAMovingBlockMatchesDijkstra) {
    // An 8x4 block sliding one cell per repair across a 64x64 corridor,
    // with a waypoint target in its path: each repair opens the column
    // the block leaves and closes the one it enters in the same step,
    // which no single-rect toggle above does.
    const GridConfig cfg{64, 64};
    GeodesicScratch scratch;
    const auto block = [&](int col0) {
        std::vector<std::uint32_t> walls;
        for (int r = 30; r <= 33; ++r) {
            for (int c = col0; c <= col0 + 7; ++c) {
                walls.push_back(static_cast<std::uint32_t>(r * 64 + c));
            }
        }
        return walls;
    };
    const std::uint32_t target = 31 * 64 + 20;
    const std::array<std::vector<std::uint32_t>, 2> goals{};
    auto walls = block(0);
    DistanceField field(cfg, walls, goals);
    auto shared = DistanceField::shared_target(cfg, walls, target);
    for (int col0 = 1; col0 + 7 < 64; ++col0) {
        const auto next = block(col0);
        field = field.repaired(walls, next, goals, scratch);
        shared = shared.repaired_shared_target(walls, next, target, scratch);
        walls = next;
        ASSERT_TRUE(testing::matches_oracle(cfg, field, walls, goals))
            << "block at col " << col0;
        ASSERT_TRUE(testing::matches_oracle_shared(cfg, shared, walls, target))
            << "block at col " << col0;
    }
}

// --- Placement --------------------------------------------------------------

TEST(Placement, RequiredBandRows) {
    EXPECT_EQ(required_band_rows(0, 480, 0.55), 0);
    EXPECT_EQ(required_band_rows(1, 480, 0.55), 1);
    EXPECT_EQ(required_band_rows(264, 480, 0.55), 1);
    EXPECT_EQ(required_band_rows(265, 480, 0.55), 2);
    // Paper max: 51,200 per side on 480 columns at 55% fill.
    EXPECT_EQ(required_band_rows(51200, 480, 0.55), 194);
    EXPECT_THROW(required_band_rows(10, 0, 0.5), std::invalid_argument);
    EXPECT_THROW(required_band_rows(10, 480, 0.0), std::invalid_argument);
}

TEST(Placement, PlacesExactCountsInBands) {
    Environment env(GridConfig{96, 96});
    PlacementConfig pc;
    pc.agents_per_side = 500;
    pc.band_rows = 10;
    pc.seed = 7;
    const auto agents = place_bidirectional(env, pc);
    ASSERT_EQ(agents.size(), 1000u);
    EXPECT_EQ(env.population(), 1000u);

    std::size_t top = 0, bottom = 0;
    for (const auto& a : agents) {
        if (a.group == Group::kTop) {
            ++top;
            EXPECT_LT(a.row, 10);
        } else {
            ++bottom;
            EXPECT_GE(a.row, 86);
        }
        EXPECT_EQ(env.occupancy(a.row, a.col), a.group);
        EXPECT_EQ(env.index_at(a.row, a.col), a.index);
    }
    EXPECT_EQ(top, 500u);
    EXPECT_EQ(bottom, 500u);
}

TEST(Placement, IndicesAreConsecutiveFromOne) {
    Environment env(GridConfig{64, 64});
    PlacementConfig pc;
    pc.agents_per_side = 100;
    pc.band_rows = 4;
    const auto agents = place_bidirectional(env, pc);
    for (std::size_t i = 0; i < agents.size(); ++i) {
        EXPECT_EQ(agents[i].index, static_cast<std::int32_t>(i + 1));
    }
}

TEST(Placement, DeterministicInSeed) {
    const auto run = [](std::uint64_t seed) {
        Environment env(GridConfig{64, 64});
        PlacementConfig pc;
        pc.agents_per_side = 200;
        pc.band_rows = 8;
        pc.seed = seed;
        return place_bidirectional(env, pc);
    };
    const auto a = run(5);
    const auto b = run(5);
    const auto c = run(6);
    ASSERT_EQ(a.size(), b.size());
    bool identical_ab = true, identical_ac = true;
    for (std::size_t i = 0; i < a.size(); ++i) {
        identical_ab &= (a[i].row == b[i].row && a[i].col == b[i].col);
        identical_ac &= (a[i].row == c[i].row && a[i].col == c[i].col);
    }
    EXPECT_TRUE(identical_ab);
    EXPECT_FALSE(identical_ac);
}

TEST(Placement, AutoBandSizing) {
    Environment env(GridConfig{96, 96});
    PlacementConfig pc;
    pc.agents_per_side = 1000;
    pc.band_rows = 0;  // auto
    pc.max_band_fill = 0.55;
    const auto agents = place_bidirectional(env, pc);
    EXPECT_EQ(agents.size(), 2000u);
    const int band = required_band_rows(1000, 96, 0.55);
    for (const auto& a : agents) {
        if (a.group == Group::kTop) {
            EXPECT_LT(a.row, band);
        }
    }
}

TEST(Placement, ThrowsWhenPopulationCannotFit) {
    Environment env(GridConfig{32, 32});
    PlacementConfig pc;
    pc.agents_per_side = 33;
    pc.band_rows = 1;  // only 32 cells in the band
    EXPECT_THROW(place_bidirectional(env, pc), std::invalid_argument);
}

TEST(Placement, ThrowsWhenBandsOverlap) {
    Environment env(GridConfig{32, 32});
    PlacementConfig pc;
    pc.agents_per_side = 200;
    pc.band_rows = 17;  // 2 x 17 > 32 rows
    EXPECT_THROW(place_bidirectional(env, pc), std::invalid_argument);
}

TEST(Placement, BandPlacementSkipsWallCells) {
    Environment env(GridConfig{64, 64});
    for (int c = 0; c < 64; ++c) env.set_wall(2, c);  // wall row in the band
    PlacementConfig pc;
    pc.agents_per_side = 200;
    pc.band_rows = 8;
    const auto agents = place_bidirectional(env, pc);
    EXPECT_EQ(env.population(), 400u);
    EXPECT_EQ(env.wall_count(), 64u);
    for (const auto& a : agents) EXPECT_NE(a.row, 2);
}

TEST(Placement, BandPlacementThrowsWhenWallsEatTheBand) {
    Environment env(GridConfig{32, 32});
    for (int c = 0; c < 32; ++c) env.set_wall(0, c);
    PlacementConfig pc;
    pc.agents_per_side = 33;  // 64 band cells minus 32 walls = 32 < 33
    pc.band_rows = 2;
    EXPECT_THROW(place_bidirectional(env, pc), std::invalid_argument);
}

TEST(Placement, RegionSpawnsPlaceInsideRectsDeterministically) {
    const auto run = [](std::uint64_t seed) {
        Environment env(GridConfig{48, 48});
        env.set_wall(10, 10);
        const std::vector<RegionSpawn> spawns = {
            {Group::kTop, 8, 8, 15, 15, 30},
            {Group::kBottom, 30, 4, 40, 44, 100},
        };
        return place_regions(env, spawns, seed);
    };
    const auto a = run(9);
    const auto b = run(9);
    const auto c = run(10);
    ASSERT_EQ(a.size(), 130u);
    bool ab_same = true, ac_same = true;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].index, static_cast<std::int32_t>(i + 1));
        ab_same &= (a[i].row == b[i].row && a[i].col == b[i].col);
        ac_same &= (a[i].row == c[i].row && a[i].col == c[i].col);
        if (a[i].group == Group::kTop) {
            EXPECT_TRUE(a[i].row >= 8 && a[i].row <= 15);
            EXPECT_TRUE(a[i].col >= 8 && a[i].col <= 15);
            EXPECT_FALSE(a[i].row == 10 && a[i].col == 10);  // the wall
        } else {
            EXPECT_TRUE(a[i].row >= 30 && a[i].row <= 40);
        }
    }
    EXPECT_TRUE(ab_same);
    EXPECT_FALSE(ac_same);
}

TEST(Placement, RegionSpawnValidation) {
    Environment env(GridConfig{32, 32});
    EXPECT_THROW(
        place_regions(env, {{Group::kTop, 0, 0, 1, 1, 5}}, 1),
        std::invalid_argument);  // 4 cells < 5 agents
    EXPECT_THROW(
        place_regions(env, {{Group::kTop, 4, 4, 2, 2, 1}}, 1),
        std::invalid_argument);  // inverted rect
    EXPECT_THROW(
        place_regions(env, {{Group::kNone, 0, 0, 3, 3, 1}}, 1),
        std::invalid_argument);  // no group
}

TEST(Placement, NoDuplicateCells) {
    Environment env(GridConfig{64, 64});
    PlacementConfig pc;
    pc.agents_per_side = 600;
    pc.band_rows = 12;
    const auto agents = place_bidirectional(env, pc);
    std::set<std::pair<int, int>> cells;
    for (const auto& a : agents) cells.insert({a.row, a.col});
    EXPECT_EQ(cells.size(), agents.size());
}

}  // namespace
}  // namespace pedsim::grid
