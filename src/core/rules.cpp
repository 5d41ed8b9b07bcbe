#include "core/rules.hpp"

#include <cmath>

namespace pedsim::core {

int select_winner(rng::Stream& stream, int count) {
    if (count <= 0) return -1;
    if (count == 1) return 0;
    return static_cast<int>(
        stream.next_below(static_cast<std::uint32_t>(count)));
}

double step_length(int dr, int dc) {
    return (dr != 0 && dc != 0) ? std::sqrt(2.0) : 1.0;
}

double deposit_amount(const AcoParams& params, double tour_len) {
    return params.q / std::max(tour_len, 1.0);
}

}  // namespace pedsim::core
