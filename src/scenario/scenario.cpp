#include "scenario/scenario.hpp"

#include <algorithm>
#include <stdexcept>

namespace pedsim::scenario {

namespace {

void add_rect(std::vector<std::uint32_t>& cells, const grid::GridConfig& grid,
              int row0, int col0, int row1, int col1) {
    if (row0 < 0 || col0 < 0 || row1 < row0 || col1 < col0 ||
        row1 >= grid.rows || col1 >= grid.cols) {
        throw std::invalid_argument("scenario rect out of bounds");
    }
    for (int r = row0; r <= row1; ++r) {
        for (int c = col0; c <= col1; ++c) {
            cells.push_back(static_cast<std::uint32_t>(
                static_cast<std::size_t>(r) * grid.cols +
                static_cast<std::size_t>(c)));
        }
    }
}

void sort_dedupe(std::vector<std::uint32_t>& cells) {
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
}

}  // namespace

void add_wall_rect(core::ScenarioLayout& layout, const grid::GridConfig& grid,
                   int row0, int col0, int row1, int col1) {
    add_rect(layout.wall_cells, grid, row0, col0, row1, col1);
}

void add_goal_rect(core::ScenarioLayout& layout, const grid::GridConfig& grid,
                   grid::Group group, int row0, int col0, int row1, int col1) {
    if (group != grid::Group::kTop && group != grid::Group::kBottom) {
        throw std::invalid_argument("goal rect needs a real group");
    }
    add_rect(layout.goal_cells[group == grid::Group::kTop ? 0 : 1], grid,
             row0, col0, row1, col1);
}

void add_waypoint(core::ScenarioLayout& layout, const grid::GridConfig& grid,
                  grid::Group group, int row, int col) {
    if (group != grid::Group::kTop && group != grid::Group::kBottom) {
        throw std::invalid_argument("waypoint needs a real group");
    }
    if (row < 0 || col < 0 || row >= grid.rows || col >= grid.cols) {
        throw std::invalid_argument("waypoint cell out of bounds");
    }
    layout.waypoints[group == grid::Group::kTop ? 0 : 1].push_back(
        static_cast<std::uint32_t>(static_cast<std::size_t>(row) * grid.cols +
                                   static_cast<std::size_t>(col)));
}

void canonicalize(core::ScenarioLayout& layout) {
    sort_dedupe(layout.wall_cells);
    for (auto& goals : layout.goal_cells) sort_dedupe(goals);
}

}  // namespace pedsim::scenario
