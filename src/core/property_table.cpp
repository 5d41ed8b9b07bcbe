#include "core/property_table.hpp"

namespace pedsim::core {

PropertyTable::PropertyTable(const std::vector<grid::PlacedAgent>& agents,
                             std::size_t extra_rows)
    : count_(agents.size() + extra_rows) {
    const std::size_t n = count_ + 1;
    group.assign(n, 0);
    row.assign(n, 0);
    col.assign(n, 0);
    future_row.assign(n, kNoFuture);
    future_col.assign(n, kNoFuture);
    front_blocked.assign(n, 0);
    tour_length.assign(n, 0.0);
    crossed.assign(n, 0);
    active.assign(n, 0);
    panicked.assign(n, 0);
    speed_class.assign(n, 0);
    waypoint.assign(n, 0);
    dwell_until.assign(n, 0);
    for (const auto& a : agents) {
        const auto i = static_cast<std::size_t>(a.index);
        group[i] = static_cast<std::uint8_t>(a.group);
        row[i] = a.row;
        col[i] = a.col;
        active[i] = 1;
    }
}

void PropertyTable::reset_futures() {
    for (std::size_t i = 0; i < rows(); ++i) {
        future_row[i] = kNoFuture;
        future_col[i] = kNoFuture;
    }
}

std::size_t PropertyTable::active_count() const {
    std::size_t n = 0;
    for (std::size_t i = 1; i < rows(); ++i) n += active[i];
    return n;
}

}  // namespace pedsim::core
