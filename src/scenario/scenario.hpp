// A Scenario is a named, self-contained description of one workload: grid
// geometry (walls, per-group goals), population (bidirectional bands or
// rectangular spawn regions), model parameters, timed events (the panic
// alarm), and a default step budget. The paper's empty corridor is just one
// entry; the registry (registry.hpp) ships a library of built-ins and the
// scenario-file parser (io/scenario_file.hpp) reads user-authored ones.
#pragma once

#include <string>

#include "core/config.hpp"

namespace pedsim::scenario {

struct Scenario {
    std::string name;
    std::string description;
    /// Full engine configuration, including the ScenarioLayout (walls,
    /// goals, spawns). An empty layout is the paper's corridor.
    core::SimConfig sim;
    /// Step budget a batch run uses unless overridden.
    int default_steps = 300;

    bool operator==(const Scenario&) const = default;
};

/// Paint the inclusive rect [row0, row1] x [col0, col1] as walls.
void add_wall_rect(core::ScenarioLayout& layout, const grid::GridConfig& grid,
                   int row0, int col0, int row1, int col1);

/// Add the inclusive rect as goal cells of `group`.
void add_goal_rect(core::ScenarioLayout& layout, const grid::GridConfig& grid,
                   grid::Group group, int row0, int col0, int row1, int col1);

/// Append cell (row, col) to `group`'s ordered waypoint chain.
void add_waypoint(core::ScenarioLayout& layout, const grid::GridConfig& grid,
                  grid::Group group, int row, int col);

/// Sort + dedupe the layout's wall and goal lists into row-major order —
/// the form the scenario-file parser produces, so canonical scenarios
/// round-trip through text to equality. Waypoint chains are ordered and
/// stay as they are; core::validate checks every list.
void canonicalize(core::ScenarioLayout& layout);

}  // namespace pedsim::scenario
