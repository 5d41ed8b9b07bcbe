// The paper's Fig. 1 neighbourhood: a pedestrian in the central Cell #0 is
// surrounded by eight numbered cells. The numbering is absolute (not
// relative to travel direction):
//
//        7   6   8        row - 1
//        4   0   5        row
//        2   1   3        row + 1
//
// Top-group agents (label 1) travel toward increasing rows, so their
// forward cell is #1 and their worst cells are #7/#8; bottom-group agents
// (label 2) travel toward row 0, so their forward cell is #6 (section IV.c:
// "Cell #1 for top placed agent and Cell #6 for bottom placed").
#pragma once

#include <array>
#include <cstdint>

namespace pedsim::grid {

/// Offset of neighbour cell k (1-based paper numbering, index k-1 here).
struct Offset {
    int dr;
    int dc;
};

inline constexpr int kNeighborCount = 8;

/// kNeighborOffsets[k-1] is the (row, col) offset of paper Cell #k.
inline constexpr std::array<Offset, kNeighborCount> kNeighborOffsets{{
    {+1, 0},   // 1: south        (forward for top group)
    {+1, -1},  // 2: south-west
    {+1, +1},  // 3: south-east
    {0, -1},   // 4: west
    {0, +1},   // 5: east
    {-1, 0},   // 6: north        (forward for bottom group)
    {-1, -1},  // 7: north-west
    {-1, +1},  // 8: north-east
}};

/// Index k with kNeighborOffsets[k] == (dr, dc), for a king offset
/// (dr, dc in {-1, 0, 1}, not both 0); -1 for (0, 0).
constexpr int neighbor_index(int dr, int dc) {
    constexpr std::array<int, 9> kIndex{6, 5, 7, 3, -1, 4, 1, 0, 2};
    return kIndex[static_cast<std::size_t>((dr + 1) * 3 + (dc + 1))];
}

static_assert([] {
    for (int k = 0; k < kNeighborCount; ++k) {
        const Offset off = kNeighborOffsets[static_cast<std::size_t>(k)];
        if (neighbor_index(off.dr, off.dc) != k) return false;
    }
    return neighbor_index(0, 0) == -1;
}());

/// Agent group labels used throughout (the paper's mat values).
enum class Group : std::uint8_t {
    kNone = 0,    ///< empty cell
    kTop = 1,     ///< placed in the top band, target = last row
    kBottom = 2,  ///< placed in the bottom band, target = first row
};

/// Zero-based index into kNeighborOffsets of a group's forward cell.
constexpr int forward_neighbor(Group g) {
    return g == Group::kTop ? 0 : 5;  // paper Cell #1 / Cell #6
}

/// Neighbour visit order from best to worst for a group, by distance to the
/// group's target row: forward, forward diagonals, laterals, back, back
/// diagonals. For the top group this is paper order 1,2,3,4,5,6,7,8; for
/// the bottom group the mirrored order 6,7,8,4,5,1,2,3.
constexpr std::array<int, kNeighborCount> ranked_order(Group g) {
    if (g == Group::kTop) return {0, 1, 2, 3, 4, 5, 6, 7};
    return {5, 6, 7, 3, 4, 0, 1, 2};
}

}  // namespace pedsim::grid
