// ASCII rendering of the environment for scenario_gallery's frames and for
// debugging: top agents 'v' (walking down), bottom agents '^' (walking up),
// static walls '#', with density downsampling for grids larger than the
// terminal.
#pragma once

#include <optional>
#include <string>

#include "grid/environment.hpp"

namespace pedsim::io {

/// Frame bounds in characters, border excluded. A larger grid is pooled
/// into blocks of ceil(rows / kFrameRows) x ceil(cols / kFrameCols) cells.
inline constexpr int kFrameRows = 48;
inline constexpr int kFrameCols = 96;

/// A grid cell to draw as 'X' over whatever its block shows (the panic
/// epicentre).
struct Mark {
    int row = 0;
    int col = 0;
};

/// Render the grid inside a '+-|' border. Each block shows its dominant
/// group (by count), ':' for mixed blocks and shade characters for
/// density; the block holding `mark`, when it is on the grid, shows 'X'.
std::string render(const grid::Environment& env,
                   std::optional<Mark> mark = std::nullopt);

}  // namespace pedsim::io
