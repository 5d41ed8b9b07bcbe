// Pure per-cell / per-agent decision rules shared by both engines.
//
// The CPU reference simulator and the SIMT GPU-style simulator call exactly
// these functions with exactly the same Philox stream coordinates, which is
// what makes the two engines bit-identical for a given seed (the property
// the paper leans on in Fig. 6b when it validates GPU against CPU output).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/config.hpp"
#include "core/pheromone.hpp"
#include "grid/distance_field.hpp"
#include "grid/environment.hpp"
#include "rng/distributions.hpp"
#include "rng/stream.hpp"

namespace pedsim::core {

/// Minimum heuristic distance: eq. (1)/(2) require D != 0; an agent one
/// step from the target row would otherwise see an infinite eta.
inline constexpr double kMinHeuristicDistance = 0.5;

/// Emptiness functor for the candidate builders: one branch-free
/// padded-occupancy read answers in-bounds + no-wall + no-agent at once
/// (the sentinel frame reads as wall). Reads are valid over the
/// environment's full sentinel frame (r in [-1, rows], c in
/// [-1, stride - 2]), which is all the builders probe.
struct EnvEmpty {
    const std::uint8_t* occ = nullptr;  ///< padded occupancy storage base
    std::ptrdiff_t origin = 0;          ///< offset of logical cell (0, 0)
    std::ptrdiff_t stride = 0;          ///< padded row pitch in bytes

    explicit EnvEmpty(const grid::Environment& env)
        : occ(env.occupancy_raw().data()),
          origin(static_cast<std::ptrdiff_t>(env.padded(0, 0))),
          stride(env.stride()) {}

    [[nodiscard]] bool operator()(int r, int c) const {
        return occ[origin + r * stride + c] == 0;
    }
};

/// Candidate list for one agent: empty neighbour cells in the group's
/// ranked (distance-ascending) visit order. `values`/`cells` must have
/// room for 8 entries. Returns the candidate count.
///
/// The templated builders abstract where occupancy/pheromone are read
/// from: the CPU engine passes environment-backed callables, the GPU-style
/// engine passes shared-memory tile views. Both produce identical values.
/// The field parameter accepts anything with DistanceField's cost()
/// contract — the engines pass a grid::BlendedField so anticipatory
/// routing (door events blending toward the next phase) flows through
/// every builder without touching them.
///
/// LEM flavour: value = distance of the candidate to the target, sorted
/// ascending — the paper's sorted scan row. In the analytic field the
/// ranked visit order already yields non-decreasing values, so the stable
/// insertion sort is the identity there (bit-parity with the paper's
/// corridor); in a geodesic field obstacles can reorder neighbours, and
/// the sort restores the rank-draw's "slot 0 = least effort" contract.
/// `empty(r, c)` -> true when the cell is in bounds and unoccupied.
template <typename EmptyFn, typename Field>
int build_candidates_lem_t(EmptyFn&& empty, const Field& df,
                           grid::Group g, int r, int c, double* values,
                           std::int8_t* cells) {
    int n = 0;
    for (const int k : grid::ranked_order(g)) {
        const auto off = grid::kNeighborOffsets[static_cast<std::size_t>(k)];
        const int nr = r + off.dr;
        const int nc = c + off.dc;
        if (!empty(nr, nc)) continue;
        const double d = df.cost(g, nr, nc, off.dc);
        // Stable insertion sort over at most 8 slots.
        int pos = n;
        while (pos > 0 && values[pos - 1] > d) {
            values[pos] = values[pos - 1];
            cells[pos] = cells[pos - 1];
            --pos;
        }
        values[pos] = d;
        cells[pos] = static_cast<std::int8_t>(k);
        ++n;
    }
    return n;
}

/// ACO flavour: value = tau(candidate)^alpha * (1/D)^beta — the numerator
/// of eq. (2) with the goal heuristic substituted for inter-city distance.
/// `tau(r, c)` reads the agent's own group's pheromone field.
template <typename EmptyFn, typename TauFn, typename Field>
int build_candidates_aco_t(EmptyFn&& empty, TauFn&& tau,
                           const Field& df,
                           const AcoParams& params, grid::Group g, int r,
                           int c, double* values, std::int8_t* cells) {
    int n = 0;
    for (const int k : grid::ranked_order(g)) {
        const auto off = grid::kNeighborOffsets[static_cast<std::size_t>(k)];
        const int nr = r + off.dr;
        const int nc = c + off.dc;
        if (!empty(nr, nc)) continue;
        const double d =
            std::max(df.cost(g, nr, nc, off.dc), kMinHeuristicDistance);
        values[n] = std::pow(tau(nr, nc), params.alpha) *
                    std::pow(1.0 / d, params.beta);
        cells[n] = static_cast<std::int8_t>(k);
        ++n;
    }
    return n;
}

/// Fraction of occupied cells on the `range - 1`-cell ray beyond the
/// candidate cell (nr, nc) in travel direction (dr, dc) — the look-ahead
/// of the scanning-range extension (ScanConfig). Off-grid cells count as
/// free so approaching the exit edge is never penalized. Returns 0 for
/// range <= 1.
template <typename EmptyFn>
double ray_congestion(EmptyFn&& empty, int nr, int nc, int dr, int dc,
                      int range, const grid::GridConfig& g) {
    if (range <= 1 || (dr == 0 && dc == 0)) return 0.0;
    int occupied = 0;
    for (int i = 1; i < range; ++i) {
        const int rr = nr + i * dr;
        const int cc = nc + i * dc;
        const bool in_grid =
            rr >= 0 && rr < g.rows && cc >= 0 && cc < g.cols;
        occupied += (in_grid && !empty(rr, cc));
    }
    return static_cast<double>(occupied) / static_cast<double>(range - 1);
}

/// LEM candidates with the scanning-range look-ahead: effort = distance *
/// (1 + w * congestion), insertion-sorted ascending (stable, so range = 1
/// degenerates to the plain builder's ordering).
template <typename EmptyFn, typename Field>
int build_candidates_lem_scan_t(EmptyFn&& empty,
                                const Field& df,
                                const ScanConfig& scan,
                                const grid::GridConfig& gcfg, grid::Group g,
                                int r, int c, double* values,
                                std::int8_t* cells) {
    int n = 0;
    for (const int k : grid::ranked_order(g)) {
        const auto off = grid::kNeighborOffsets[static_cast<std::size_t>(k)];
        const int nr = r + off.dr;
        const int nc = c + off.dc;
        if (!empty(nr, nc)) continue;
        const double congestion = ray_congestion(
            empty, nr, nc, off.dr, off.dc, scan.range, gcfg);
        const double effort = df.cost(g, nr, nc, off.dc) *
                              (1.0 + scan.congestion_weight * congestion);
        // Stable insertion sort over at most 8 slots.
        int pos = n;
        while (pos > 0 && values[pos - 1] > effort) {
            values[pos] = values[pos - 1];
            cells[pos] = cells[pos - 1];
            --pos;
        }
        values[pos] = effort;
        cells[pos] = static_cast<std::int8_t>(k);
        ++n;
    }
    return n;
}

/// ACO candidates with the look-ahead: the eq. (2) numerator is discounted
/// by the visible congestion beyond each candidate.
template <typename EmptyFn, typename TauFn, typename Field>
int build_candidates_aco_scan_t(EmptyFn&& empty, TauFn&& tau,
                                const Field& df,
                                const AcoParams& params,
                                const ScanConfig& scan,
                                const grid::GridConfig& gcfg, grid::Group g,
                                int r, int c, double* values,
                                std::int8_t* cells) {
    const int n = build_candidates_aco_t(empty, tau, df, params, g, r, c,
                                         values, cells);
    if (scan.range <= 1) return n;
    for (int i = 0; i < n; ++i) {
        const auto off =
            grid::kNeighborOffsets[static_cast<std::size_t>(cells[i])];
        const double congestion = ray_congestion(
            empty, r + off.dr, c + off.dc, off.dr, off.dc, scan.range, gcfg);
        values[i] *= std::max(1.0 - scan.congestion_weight * congestion, 0.05);
    }
    return n;
}

/// Flee candidates for panicked agents (PanicConfig): empty neighbours
/// ranked by *descending* distance from the epicentre — the best slot
/// moves away from danger fastest. Ties keep the group's ranked order.
template <typename EmptyFn>
int build_candidates_flee_t(EmptyFn&& empty, const PanicConfig& panic,
                            grid::Group g, int r, int c, double* values,
                            std::int8_t* cells) {
    int n = 0;
    for (const int k : grid::ranked_order(g)) {
        const auto off = grid::kNeighborOffsets[static_cast<std::size_t>(k)];
        const int nr = r + off.dr;
        const int nc = c + off.dc;
        if (!empty(nr, nc)) continue;
        const double dr = nr - panic.row;
        const double dc = nc - panic.col;
        // Negative distance: insertion-sort ascending ranks farthest first.
        const double key = -std::sqrt(dr * dr + dc * dc);
        int pos = n;
        while (pos > 0 && values[pos - 1] > key) {
            values[pos] = values[pos - 1];
            cells[pos] = cells[pos - 1];
            --pos;
        }
        values[pos] = key;
        cells[pos] = static_cast<std::int8_t>(k);
        ++n;
    }
    return n;
}

/// LEM selection (section IV.c): rounded-normal rank draw over the
/// distance-ascending candidates. Returns the chosen slot.
int select_lem(rng::Stream& stream, int candidate_count, double sigma);

/// ACO selection: roulette wheel over the eq. (2) numerators; the warp
/// reduction in the paper computes the denominator, the draw lands in a
/// slot. Returns the chosen slot, or -1 when total weight is zero.
int select_aco(rng::Stream& stream, const double* values, int candidate_count);

/// Winner selection among `count` proposers: uniform draw on the *cell's*
/// stream (the thread assigned to the empty cell makes the choice).
int select_winner(rng::Stream& stream, int count);

/// Step length for a move with the given displacement (1 or sqrt 2) —
/// accumulates into the ACO tour length L_k.
double step_length(int dr, int dc);

/// Pheromone deposited by an agent with tour length `tour_len` (eq. 5).
double deposit_amount(const AcoParams& params, double tour_len);

}  // namespace pedsim::core
