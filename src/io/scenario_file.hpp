// Plain-text scenario files: key=value parameters followed by an optional
// ASCII map. Blank lines and lines starting with '#' are ignored outside
// the map block; the map block starts at a line reading "map:" and runs
// until the first blank line or the end of the file (one text row per
// grid row, no blank lines inside the map).
//
//   name = bottleneck_doorway
//   model = lem
//   agents_per_side = 250
//   seed = 42
//   steps = 400
//   spawn = top 6 6 41 41 320        # group row0 col0 row1 col1 count
//   panic = 60 32 32 10              # trigger_step row col radius
//   door = 50 open 1 4 1 11          # step open|close row0 col0 row1 col1
//   cycle = 20 40 20 5 1 4 1 11      # start period duty repeats rect
//   mover = 10 4 12 0 1 1 0 2 3      # start interval count drow dcol rect
//   anticipate = 40                  # blend toward the next phase's field
//   map:
//   ................
//   #######..#######
//   ................
//
// Map legend: '#' wall, '.' free, 't' top-group goal, 'b' bottom-group
// goal, '*' goal for both groups. Grid dimensions come from the map when
// present (or from rows=/cols= keys) and must be multiples of the 16-cell
// tile edge. Scenarios without a map (and without explicit goals/spawns)
// are the paper's empty corridor.
#pragma once

#include <string>

#include "scenario/scenario.hpp"

namespace pedsim::io {

/// Parse a scenario from file text. Throws std::invalid_argument on
/// malformed input (unknown key, bad value, ragged map, a step budget
/// below 1) and on a config core::validate rejects.
scenario::Scenario parse_scenario(const std::string& text);

/// Read and parse a scenario file from disk; throws std::runtime_error
/// when the file cannot be read.
scenario::Scenario load_scenario_file(const std::string& path);

/// Serialize a scenario to the same text format, round-trip-exact:
/// parse_scenario(scenario_to_text(s)) == s for canonical scenarios (cell
/// lists sorted row-major, as scenario::canonicalize produces). A plain
/// writer: an invalid config serializes to text the parser rejects, but a
/// wall or goal cell the map cannot show (off the grid, or a goal on a
/// wall) throws std::invalid_argument.
std::string scenario_to_text(const scenario::Scenario& s);

}  // namespace pedsim::io
