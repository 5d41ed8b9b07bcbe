#include "grid/environment.hpp"

namespace pedsim::grid {

Environment::Environment(GridConfig config) : config_(config) {
    if (!config_.tile_aligned()) {
        throw std::invalid_argument(
            "Environment dimensions must be positive multiples of the 16-cell "
            "tile edge (paper section IV.a)");
    }
    // Padded layout: sentinel column + cols cells + trailing pad, rounded
    // to kRowAlign, with one halo row above and below. The whole
    // allocation starts as wall sentinel; only the logical cells are then
    // opened up — so the frame needs no separate initialization and any
    // byte outside the logical grid reads kWallOcc forever.
    stride_ = ((config_.cols + 2 + kRowAlign - 1) / kRowAlign) * kRowAlign;
    const auto padded_size = static_cast<std::size_t>(config_.rows + 2) *
                             static_cast<std::size_t>(stride_);
    occupancy_.assign(padded_size, kWallOcc);
    index_.assign(padded_size, 0);
    for (int r = 0; r < config_.rows; ++r) {
        for (int c = 0; c < config_.cols; ++c) {
            occupancy_[padded(r, c)] = 0;
        }
    }
}

void Environment::place(int r, int c, Group g, std::int32_t index) {
    if (!in_bounds(r, c)) throw std::out_of_range("place: off-grid");
    if (g == Group::kNone || index <= 0) {
        throw std::invalid_argument("place: needs a real group and 1-based index");
    }
    if (!empty(r, c)) throw std::logic_error("place: cell already occupied");
    occupancy_[padded(r, c)] = static_cast<std::uint8_t>(g);
    index_[padded(r, c)] = index;
}

void Environment::clear(int r, int c) {
    if (!in_bounds(r, c)) throw std::out_of_range("clear: off-grid");
    occupancy_[padded(r, c)] = 0;
    index_[padded(r, c)] = 0;
}

void Environment::set_wall(int r, int c) {
    if (!in_bounds(r, c)) throw std::out_of_range("set_wall: off-grid");
    if (!empty(r, c)) throw std::logic_error("set_wall: cell already occupied");
    occupancy_[padded(r, c)] = kWallOcc;
    index_[padded(r, c)] = 0;
}

std::size_t Environment::population() const {
    // Logical cells only: the sentinel frame is kWallOcc by construction
    // and must count as neither population nor user-visible walls.
    std::size_t n = 0;
    for (int r = 0; r < config_.rows; ++r) {
        const std::uint8_t* row = occ_row(r);
        for (int c = 0; c < config_.cols; ++c) {
            n += (row[c] != 0 && row[c] != kWallOcc);
        }
    }
    return n;
}

std::size_t Environment::wall_count() const {
    std::size_t n = 0;
    for (int r = 0; r < config_.rows; ++r) {
        const std::uint8_t* row = occ_row(r);
        for (int c = 0; c < config_.cols; ++c) {
            n += (row[c] == kWallOcc);
        }
    }
    return n;
}

}  // namespace pedsim::grid
