// The paper's scan matrix (section IV.a): one row per agent plus the dump
// row 0, eight slots per row. For LEM a slot holds the candidate's distance
// to target (rows are distance-ascending by construction); for ACO it holds
// the numerator of eq. (2). We additionally store which neighbour cell each
// slot refers to, which the paper's kernels recover implicitly from slot
// position.
#pragma once

#include <cstdint>
#include <vector>

#include "grid/neighborhood.hpp"

namespace pedsim::core {

class ScanMatrix {
  public:
    explicit ScanMatrix(std::size_t agent_count)
        : value_((agent_count + 1) * grid::kNeighborCount, 0.0),
          cell_((agent_count + 1) * grid::kNeighborCount, -1),
          count_(agent_count + 1, 0) {}

    /// Candidate slots of agent i (1-based; 0 = dump row).
    [[nodiscard]] double* values(std::int32_t i) {
        return value_.data() + static_cast<std::size_t>(i) * grid::kNeighborCount;
    }
    [[nodiscard]] const double* values(std::int32_t i) const {
        return value_.data() + static_cast<std::size_t>(i) * grid::kNeighborCount;
    }
    /// 0-based neighbour indices (into grid::kNeighborOffsets) per slot.
    [[nodiscard]] std::int8_t* cells(std::int32_t i) {
        return cell_.data() + static_cast<std::size_t>(i) * grid::kNeighborCount;
    }
    [[nodiscard]] const std::int8_t* cells(std::int32_t i) const {
        return cell_.data() + static_cast<std::size_t>(i) * grid::kNeighborCount;
    }
    [[nodiscard]] std::int8_t& count(std::int32_t i) {
        return count_[static_cast<std::size_t>(i)];
    }
    [[nodiscard]] std::int8_t count(std::int32_t i) const {
        return count_[static_cast<std::size_t>(i)];
    }

  private:
    std::vector<double> value_;
    std::vector<std::int8_t> cell_;
    std::vector<std::int8_t> count_;
};

}  // namespace pedsim::core
