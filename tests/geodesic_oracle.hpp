// Test-only oracle for geodesic distance fields: the textbook
// priority-queue Dijkstra that grid::DistanceField used before its bucket
// queue and incremental repair. The library must reproduce this table bit
// for bit on every wall configuration, fresh or repaired.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "grid/distance_field.hpp"
#include "grid/neighborhood.hpp"

namespace pedsim::testing {

/// One group's table: multi-source Dijkstra from `goals` over the
/// non-wall 8-neighbourhood (steps 1 and sqrt 2); walls and cells cut off
/// from every goal read kUnreachable. Goals on walls are skipped.
inline std::vector<double> dijkstra_oracle(
    const grid::GridConfig& cfg, const std::vector<std::uint32_t>& walls,
    const std::vector<std::uint32_t>& goals) {
    const std::size_t cells = cfg.cell_count();
    std::vector<double> dist(cells, grid::DistanceField::kUnreachable);
    std::vector<std::uint8_t> wall(cells, 0);
    for (const auto w : walls) wall[w] = 1;

    using Item = std::pair<double, std::uint32_t>;  // (distance, flat cell)
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    for (const auto cell : goals) {
        if (wall[cell]) continue;
        if (dist[cell] > 0.0) {
            dist[cell] = 0.0;
            pq.push({0.0, cell});
        }
    }

    const double kDiag = std::sqrt(2.0);
    while (!pq.empty()) {
        const auto [d, cell] = pq.top();
        pq.pop();
        if (d > dist[cell]) continue;  // stale entry
        const int r = static_cast<int>(cell) / cfg.cols;
        const int c = static_cast<int>(cell) % cfg.cols;
        for (const auto off : grid::kNeighborOffsets) {
            const int nr = r + off.dr;
            const int nc = c + off.dc;
            if (nr < 0 || nr >= cfg.rows || nc < 0 || nc >= cfg.cols) {
                continue;
            }
            const auto ncell = static_cast<std::uint32_t>(
                static_cast<std::size_t>(nr) * cfg.cols +
                static_cast<std::size_t>(nc));
            if (wall[ncell]) continue;
            const double nd = d + (off.dr != 0 && off.dc != 0 ? kDiag : 1.0);
            if (nd < dist[ncell]) {
                dist[ncell] = nd;
                pq.push({nd, ncell});
            }
        }
    }
    return dist;
}

/// The goal list the two-group constructor uses for group g: its custom
/// cells, or its far edge row when the list is empty.
inline std::vector<std::uint32_t> oracle_goals(
    const grid::GridConfig& cfg, grid::Group g,
    const std::array<std::vector<std::uint32_t>, 2>& goal_cells) {
    std::vector<std::uint32_t> goals =
        goal_cells[g == grid::Group::kTop ? 0 : 1];
    if (goals.empty()) {
        const int row = g == grid::Group::kTop ? cfg.rows - 1 : 0;
        for (int c = 0; c < cfg.cols; ++c) {
            goals.push_back(static_cast<std::uint32_t>(row * cfg.cols + c));
        }
    }
    return goals;
}

/// memcmp-equality of one group's table with an oracle table; on a
/// mismatch the message names the first differing cell.
inline ::testing::AssertionResult same_table(const grid::GridConfig& cfg,
                                             const grid::DistanceField& f,
                                             grid::Group g,
                                             const std::vector<double>& want) {
    const double* got = f.geo_data(g);
    if (std::memcmp(got, want.data(), want.size() * sizeof(double)) == 0) {
        return ::testing::AssertionSuccess();
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
        if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) {
            return ::testing::AssertionFailure()
                   << (g == grid::Group::kTop ? "top" : "bottom")
                   << " cell (" << i / static_cast<std::size_t>(cfg.cols)
                   << "," << i % static_cast<std::size_t>(cfg.cols)
                   << "): got " << got[i] << ", oracle " << want[i];
        }
    }
    return ::testing::AssertionFailure() << "tables differ";
}

/// Both groups of a two-group field against the oracle.
inline ::testing::AssertionResult matches_oracle(
    const grid::GridConfig& cfg, const grid::DistanceField& f,
    const std::vector<std::uint32_t>& walls,
    const std::array<std::vector<std::uint32_t>, 2>& goal_cells) {
    for (const auto g : {grid::Group::kTop, grid::Group::kBottom}) {
        auto r = same_table(
            cfg, f, g,
            dijkstra_oracle(cfg, walls, oracle_goals(cfg, g, goal_cells)));
        if (!r) return r;
    }
    return ::testing::AssertionSuccess();
}

/// Both (mirrored) groups of a shared-target field against the oracle.
inline ::testing::AssertionResult matches_oracle_shared(
    const grid::GridConfig& cfg, const grid::DistanceField& f,
    const std::vector<std::uint32_t>& walls, std::uint32_t target) {
    const auto want = dijkstra_oracle(cfg, walls, {target});
    for (const auto g : {grid::Group::kTop, grid::Group::kBottom}) {
        auto r = same_table(cfg, f, g, want);
        if (!r) return r;
    }
    return ::testing::AssertionSuccess();
}

}  // namespace pedsim::testing
