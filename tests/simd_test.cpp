// SIMD layer parity + bit-exactness suite.
//
// The contract under test (docs/PERFORMANCE.md): every dispatch primitive
// in simd/row_ops.hpp equals its always-compiled simd::scalar reference on
// arbitrary inputs — randomized occupancy spans with wall lanes and
// lengths that end mid-vector, randomized gather index sets, random bit
// words — and, end to end, whichever backend this build selected
// must reproduce the checked-in golden fingerprint corpus (the CI scalar
// lane builds with -DPEDSIM_SIMD=OFF, so both code paths stay pinned).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "backend/device.hpp"
#include "grid/environment.hpp"
#include "rng/stream.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "simd/row_ops.hpp"
#include "simd/simd.hpp"

#ifndef PEDSIM_GOLDEN_FILE
#error "PEDSIM_GOLDEN_FILE must point at tests/golden/fingerprints.csv"
#endif

using namespace pedsim;

TEST(SimdLayer, BackendReportsItsLaneWidth) {
    // Sanity of the compile-time selection: the lane width matches the
    // reported backend, and the grid alignment is backend-independent.
    const std::string name = simd::backend_name();
    if (name == "avx2") {
        EXPECT_EQ(simd::kU8Lanes, 32);
    } else if (name == "neon") {
        EXPECT_EQ(simd::kU8Lanes, 16);
    } else {
        EXPECT_EQ(name, "scalar");
        EXPECT_EQ(simd::kU8Lanes, 8);
    }
    EXPECT_EQ(simd::kRowAlign, 64);
    EXPECT_EQ(simd::kRowAlign % simd::kU8Lanes, 0);
}

TEST(RowOps, CountOccupiedMatchesScalarIncludingShortTails) {
    for (std::uint64_t trial = 0; trial < 200; ++trial) {
        rng::Stream s(77, rng::Stage::kGeneric, trial, 0);
        // Lengths straddle every tail case: 0, shorter than one vector,
        // exact multiples, and off-by-one around lane boundaries.
        const int len = static_cast<int>(s.next_below(3 * 64 + 3));
        std::vector<std::uint8_t> bytes(static_cast<std::size_t>(len));
        for (auto& b : bytes) {
            b = static_cast<std::uint8_t>(s.next_below(4) == 0 ? 0
                                          : s.next_below(2) == 0
                                              ? 1
                                              : grid::kWallOcc);
        }
        EXPECT_EQ(simd::count_occupied(bytes.data(), len),
                  simd::scalar::count_occupied(bytes.data(), len))
            << "trial " << trial << " len " << len;
    }
}

TEST(RowOps, GatherMatchesScalarBitExactly) {
    for (std::uint64_t trial = 0; trial < 200; ++trial) {
        rng::Stream s(4242, rng::Stage::kGeneric, trial, 0);
        const int table_size = 64 + static_cast<int>(s.next_below(1024));
        std::vector<double> table(static_cast<std::size_t>(table_size));
        for (auto& v : table) {
            // Mix ordinary magnitudes with kUnreachable-scale outliers —
            // gathers must be verbatim element copies for all of them.
            v = s.next_below(16) == 0 ? 1e30 : s.next_double() * 1e6;
        }
        const int n = static_cast<int>(s.next_below(9));  // 0..8 candidates
        std::int32_t idx[8];
        for (int i = 0; i < n; ++i) {
            idx[i] = static_cast<std::int32_t>(
                s.next_below(static_cast<std::uint32_t>(table_size)));
        }
        double got[8], want[8];
        simd::gather_f64(table.data(), idx, n, got);
        simd::scalar::gather_f64(table.data(), idx, n, want);
        for (int i = 0; i < n; ++i) {
            EXPECT_EQ(got[i], want[i]) << "trial " << trial << " slot " << i;
        }
    }
}

TEST(RowOps, ForEachSetBitVisitsAscending) {
    for (std::uint64_t trial = 0; trial < 50; ++trial) {
        rng::Stream s(5150, rng::Stage::kGeneric, trial, 0);
        const int nwords = 1 + static_cast<int>(s.next_below(6));
        std::vector<std::uint64_t> words(static_cast<std::size_t>(nwords));
        for (auto& w : words) w = s.next_u64();
        std::vector<int> visited;
        simd::for_each_set_bit(words.data(), nwords,
                               [&](int p) { visited.push_back(p); });
        std::vector<int> want;
        for (int p = 0; p < nwords * 64; ++p) {
            if ((words[static_cast<std::size_t>(p / 64)] >> (p % 64)) & 1u) {
                want.push_back(p);
            }
        }
        EXPECT_EQ(visited, want) << "trial " << trial;
    }
}

TEST(Environment, PaddedFrameIsWallSentinelAroundLogicalCells) {
    grid::Environment env(grid::GridConfig{32, 32});
    EXPECT_EQ(env.stride() % simd::kRowAlign, 0);
    EXPECT_GE(env.stride(), env.cols() + 2);
    env.place(0, 0, grid::Group::kTop, 1);
    env.set_wall(31, 31);
    const auto& occ = env.occupancy_raw();
    ASSERT_EQ(occ.size(), static_cast<std::size_t>(env.rows() + 2) *
                              static_cast<std::size_t>(env.stride()));
    for (int r = -1; r <= env.rows(); ++r) {
        for (int c = -1; c <= env.stride() - 2; ++c) {
            const std::uint8_t v = occ[env.padded(r, c)];
            if (env.in_bounds(r, c)) continue;
            EXPECT_EQ(v, grid::kWallOcc) << "frame (" << r << "," << c << ")";
            EXPECT_EQ(env.index_raw()[env.padded(r, c)], 0);
        }
    }
    EXPECT_EQ(env.occupancy(0, 0), grid::Group::kTop);
    EXPECT_TRUE(env.is_wall(31, 31));
    EXPECT_EQ(env.population(), 1u);
    EXPECT_EQ(env.wall_count(), 1u);
}

// End-to-end pin: the backend this build compiled (AVX2/NEON with
// PEDSIM_SIMD=ON, the scalar fallback with OFF) must reproduce the
// committed golden fingerprints. A handful of corpus rows, run on cpu at
// one thread, suffices here — the full matrix runs in golden_test —
// because any mask, congestion or gather divergence perturbs a trajectory
// within a few steps.
TEST(SimdGolden, ActiveBackendReproducesCommittedFingerprints) {
    std::ifstream in(PEDSIM_GOLDEN_FILE);
    ASSERT_TRUE(in) << "cannot read " << PEDSIM_GOLDEN_FILE;
    struct Row {
        std::string scenario;
        int steps;
        std::uint64_t fingerprint;
    };
    std::vector<Row> rows;
    std::string line;
    bool header = true;
    while (std::getline(in, line) && rows.size() < 4) {
        if (header || line.empty()) {
            header = false;
            continue;
        }
        std::istringstream is(line);
        std::string scenario, steps, fp;
        ASSERT_TRUE(std::getline(is, scenario, ',') &&
                    std::getline(is, steps, ',') && std::getline(is, fp))
            << line;
        rows.push_back({scenario, std::stoi(steps),
                        std::stoull(fp, nullptr, 16)});
    }
    ASSERT_FALSE(rows.empty());
    for (const auto& row : rows) {
        ASSERT_TRUE(scenario::has(row.scenario)) << row.scenario;
        core::SimConfig cfg = scenario::get(row.scenario).sim;
        cfg.exec.threads = 1;
        const auto sim =
            backend::make_engine(scenario::EngineKind::kCpu, cfg);
        sim->run(row.steps);
        EXPECT_EQ(scenario::position_fingerprint(*sim), row.fingerprint)
            << row.scenario << " diverged on backend "
            << simd::backend_name();
    }
}
