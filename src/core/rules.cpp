#include "core/rules.hpp"

#include <cmath>
#include <utility>

#include "simd/row_ops.hpp"

namespace pedsim::core {

int select_lem(rng::Stream& stream, int candidate_count, double sigma) {
    return rng::lem_rank_draw(stream, candidate_count, sigma);
}

int select_aco(rng::Stream& stream, const double* values,
               int candidate_count) {
    return rng::roulette(stream, values, candidate_count);
}

double ray_congestion(const EnvEmpty& empty, int nr, int nc, int dr, int dc,
                      int range, const grid::GridConfig& g) {
    if (range <= 1 || (dr == 0 && dc == 0)) return 0.0;
    int occupied = 0;
    if (dr == 0 && nr >= 0 && nr < g.rows) {
        // Horizontal ray: the probed cells are one contiguous slice of row
        // nr. Clip to the grid — off-grid counts free — and count nonzero
        // bytes in one vector sweep (agents and walls both read nonzero).
        int c0 = nc + dc;
        int c1 = nc + (range - 1) * dc;
        if (dc < 0) std::swap(c0, c1);
        c0 = std::max(c0, 0);
        c1 = std::min(c1, g.cols - 1);
        if (c0 <= c1) {
            occupied = simd::count_occupied(empty.row(nr) + c0,
                                            c1 - c0 + 1);
        }
    } else {
        for (int i = 1; i < range; ++i) {
            const int rr = nr + i * dr;
            const int cc = nc + i * dc;
            const bool in_grid =
                rr >= 0 && rr < g.rows && cc >= 0 && cc < g.cols;
            occupied += (in_grid && !empty(rr, cc));
        }
    }
    return static_cast<double>(occupied) / static_cast<double>(range - 1);
}

int build_candidates_lem_geo(const EnvEmpty& empty, const double* geo,
                             int cols, grid::Group g, int r, int c,
                             double* values, std::int8_t* cells) {
    // Pass 1: walkable neighbours in the group's ranked visit order.
    std::int32_t flat[grid::kNeighborCount];
    std::int8_t ks[grid::kNeighborCount];
    int n = 0;
    for (const int k : grid::ranked_order(g)) {
        const auto off = grid::kNeighborOffsets[static_cast<std::size_t>(k)];
        const int nr = r + off.dr;
        const int nc = c + off.dc;
        if (!empty(nr, nc)) continue;
        flat[n] = nr * cols + nc;
        ks[n] = static_cast<std::int8_t>(k);
        ++n;
    }
    // Pass 2: one batched gather of the geodesic distances, then the same
    // stable 8-slot insertion sort as build_candidates_lem_t.
    double gathered[grid::kNeighborCount];
    simd::gather_f64(geo, flat, n, gathered);
    for (int i = 0; i < n; ++i) {
        const double d = gathered[i];
        int pos = i;
        while (pos > 0 && values[pos - 1] > d) {
            values[pos] = values[pos - 1];
            cells[pos] = cells[pos - 1];
            --pos;
        }
        values[pos] = d;
        cells[pos] = ks[i];
    }
    return n;
}

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
