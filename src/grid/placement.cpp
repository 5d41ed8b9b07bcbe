#include "grid/placement.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "rng/stream.hpp"

namespace pedsim::grid {

int required_band_rows(std::size_t agents, int cols, double max_fill) {
    if (agents == 0) return 0;
    if (cols <= 0 || max_fill <= 0.0 || max_fill > 1.0) {
        throw std::invalid_argument("required_band_rows: bad cols/max_fill");
    }
    const double per_row = static_cast<double>(cols) * max_fill;
    const auto rows = static_cast<int>(
        std::ceil(static_cast<double>(agents) / per_row));
    return std::max(rows, 1);
}

std::vector<std::uint32_t> sample_cells(std::size_t count,
                                        std::vector<std::uint32_t> ids,
                                        rng::Stream& stream) {
    for (std::size_t i = 0; i < count; ++i) {
        const auto j =
            i + stream.next_below(static_cast<std::uint32_t>(ids.size() - i));
        std::swap(ids[i], ids[j]);
    }
    ids.resize(count);
    return ids;
}

std::vector<PlacedAgent> place_bidirectional(Environment& env,
                                             const PlacementConfig& cfg) {
    const int cols = env.cols();
    const int band = cfg.band_rows > 0
                         ? cfg.band_rows
                         : required_band_rows(cfg.agents_per_side, cols,
                                              cfg.max_band_fill);
    const auto band_cells =
        static_cast<std::size_t>(band) * static_cast<std::size_t>(cols);
    const std::string population =
        "agents_per_side " + std::to_string(cfg.agents_per_side);
    if (cfg.agents_per_side > band_cells) {
        throw std::invalid_argument(population + " does not fit band_rows " +
                                    std::to_string(band) + " (" +
                                    std::to_string(band_cells) +
                                    " cells per side)");
    }
    if (2 * band > env.rows()) {
        throw std::invalid_argument(
            population + " needs band_rows " + std::to_string(band) +
            " per side, and the two bands overlap on a " +
            std::to_string(env.rows()) + "-row grid");
    }

    std::vector<PlacedAgent> agents;
    agents.reserve(2 * cfg.agents_per_side);
    std::int32_t next_index = 1;

    const Group groups[2] = {Group::kTop, Group::kBottom};
    for (int g = 0; g < 2; ++g) {
        // Candidate band cells, walls excluded. A wall-free band lists all
        // band_cells ids in order, making the sample (and therefore the
        // whole run) bit-identical to the seed's wall-oblivious code.
        std::vector<std::uint32_t> ids;
        ids.reserve(band_cells);
        for (std::uint32_t cell = 0; cell < band_cells; ++cell) {
            const int band_row = static_cast<int>(cell) / cols;
            const int col = static_cast<int>(cell) % cols;
            const int row = groups[g] == Group::kTop
                                ? band_row
                                : env.rows() - 1 - band_row;
            if (env.walkable(row, col)) ids.push_back(cell);
        }
        if (cfg.agents_per_side > ids.size()) {
            throw std::invalid_argument(
                population + " does not fit the " +
                std::to_string(ids.size()) + " walkable cells of band_rows " +
                std::to_string(band));
        }
        rng::Stream stream(cfg.seed, rng::Stage::kPlacement,
                           /*entity=*/static_cast<std::uint64_t>(g),
                           /*step=*/0);
        const auto cells =
            sample_cells(cfg.agents_per_side, std::move(ids), stream);
        for (const auto cell : cells) {
            const int band_row = static_cast<int>(cell) / cols;
            const int col = static_cast<int>(cell) % cols;
            // Top band occupies rows [0, band); bottom band the mirror.
            const int row = groups[g] == Group::kTop
                                ? band_row
                                : env.rows() - 1 - band_row;
            env.place(row, col, groups[g], next_index);
            agents.push_back({next_index, groups[g], row, col});
            ++next_index;
        }
    }
    return agents;
}

std::vector<PlacedAgent> place_regions(Environment& env,
                                       const std::vector<RegionSpawn>& spawns,
                                       std::uint64_t seed) {
    std::vector<PlacedAgent> agents;
    std::int32_t next_index = 1;
    for (std::size_t ri = 0; ri < spawns.size(); ++ri) {
        const auto& s = spawns[ri];
        const std::string label = "spawn " + std::to_string(ri);
        if (s.group == Group::kNone) {
            throw std::invalid_argument(label + ": needs a group");
        }
        if (s.row1 < s.row0 || s.col1 < s.col0 || s.row0 < 0 ||
            s.col0 < 0 || s.row1 >= env.rows() || s.col1 >= env.cols()) {
            throw std::invalid_argument(label + ": rect out of bounds");
        }
        std::vector<std::uint32_t> ids;
        for (int r = s.row0; r <= s.row1; ++r) {
            for (int c = s.col0; c <= s.col1; ++c) {
                if (env.walkable(r, c)) {
                    ids.push_back(
                        static_cast<std::uint32_t>(env.flat(r, c)));
                }
            }
        }
        if (s.count > ids.size()) {
            throw std::invalid_argument(
                label + ": count " + std::to_string(s.count) +
                " does not fit the rect's " + std::to_string(ids.size()) +
                " walkable cells");
        }
        // Entities 0/1 key the band placement; regions start at 2 so the
        // two modes never share a stream.
        rng::Stream stream(seed, rng::Stage::kPlacement,
                           /*entity=*/2 + static_cast<std::uint64_t>(ri),
                           /*step=*/0);
        const auto cells = sample_cells(s.count, std::move(ids), stream);
        for (const auto cell : cells) {
            const int row = static_cast<int>(cell) / env.cols();
            const int col = static_cast<int>(cell) % env.cols();
            env.place(row, col, s.group, next_index);
            agents.push_back({next_index, s.group, row, col});
            ++next_index;
        }
    }
    return agents;
}

}  // namespace pedsim::grid
