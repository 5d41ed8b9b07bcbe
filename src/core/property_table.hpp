// The paper's property matrix (Table I / Fig. 2c), stored SoA.
//
// Row 0 is the divergence-avoidance dump row (section IV.a): device threads
// assigned to empty cells write their dead results there instead of
// branching, so every array is sized agent_count + 1 and real agents are
// 1-based — exactly the paper's indexing convention.
#pragma once

#include <cstdint>
#include <vector>

#include "grid/neighborhood.hpp"
#include "grid/placement.hpp"

namespace pedsim::core {

/// Sentinel for "no proposal this step" in FUTURE ROW/COLUMN.
inline constexpr std::int32_t kNoFuture = -1;

class PropertyTable {
  public:
    /// `extra_rows` appends inactive placeholder rows after the placed
    /// agents (all-zero, row/col 0): pre-allocated capacity for agents a
    /// spawn surge injects mid-run, so engine buffers sized off rows()
    /// never resize while stepping.
    explicit PropertyTable(const std::vector<grid::PlacedAgent>& agents,
                           std::size_t extra_rows = 0);

    [[nodiscard]] std::size_t agent_count() const { return count_; }
    /// Rows including the dump row 0.
    [[nodiscard]] std::size_t rows() const { return count_ + 1; }

    // Per-agent fields, 1-based index (0 is the dump row).
    std::vector<std::uint8_t> group;        ///< ID column: 1 top / 2 bottom
    std::vector<std::int32_t> row;          ///< ROW
    std::vector<std::int32_t> col;          ///< COLUMN
    std::vector<std::int32_t> future_row;   ///< FUTURE ROW
    std::vector<std::int32_t> future_col;   ///< FUTURE COLUMN
    std::vector<std::uint8_t> front_blocked;///< FRONT CELL (1 = occupied/wall)
    std::vector<double> tour_length;        ///< ACO tour matrix, L_k
    std::vector<std::uint8_t> crossed;      ///< reached the target band
    std::vector<std::uint8_t> active;       ///< still on the grid
    std::vector<std::uint8_t> panicked;     ///< fleeing the panic epicentre
    std::vector<std::uint8_t> speed_class;  ///< 0 = fast, 1 = slow
    /// Index into the agent's group waypoint chain (ScenarioLayout::
    /// waypoints): the waypoint currently steering the agent. Equal to the
    /// chain length once every waypoint has been visited (chains are
    /// validated to at most 255 entries). Monotone non-decreasing.
    std::vector<std::uint8_t> waypoint;
    /// Waypoint dwell hold: 0 = not dwelling; otherwise the first step at
    /// which the agent may act again (it proposes no move before then).
    std::vector<std::uint64_t> dwell_until;

    [[nodiscard]] grid::Group group_of(std::int32_t i) const {
        return static_cast<grid::Group>(group[static_cast<std::size_t>(i)]);
    }

    /// Reset FUTURE fields to the no-proposal sentinel (the paper's
    /// supporting kernel does this between steps).
    void reset_futures();

    [[nodiscard]] std::size_t active_count() const;

  private:
    std::size_t count_ = 0;
};

}  // namespace pedsim::core
