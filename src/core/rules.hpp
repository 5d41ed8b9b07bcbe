// Pure per-cell / per-agent decision rules shared by both engines.
//
// The CPU reference simulator and the SIMT GPU-style simulator call exactly
// these functions with exactly the same Philox stream coordinates, which is
// what makes the two engines bit-identical for a given seed (the property
// the paper leans on in Fig. 6b when it validates GPU against CPU output).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "core/config.hpp"
#include "grid/distance_field.hpp"
#include "grid/environment.hpp"
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

/// Stable insertion of neighbour k with `key` into the ascending row
/// values/cells[0, n): equal keys keep the ranked visit order.
inline void insert_ranked(double* values, std::int8_t* cells, int n,
                          double key, int k) {
    int pos = n;
    while (pos > 0 && values[pos - 1] > key) {
        values[pos] = values[pos - 1];
        cells[pos] = cells[pos - 1];
        --pos;
    }
    values[pos] = key;
    cells[pos] = static_cast<std::int8_t>(k);
}

/// Emptiness of the 8 neighbours of (r, c), probed once each in the
/// ranked visit order `order`: bit j is set when neighbour order[j] is
/// empty. The builders read the whole neighbourhood first, so the probes
/// take no data-dependent branch, then score the set bits lowest first,
/// which is the ranked order: each builder makes one probe per neighbour
/// and one set of per-candidate reader calls (tau, the look-ahead ray)
/// per empty neighbour, in ranked order — what gpu-simt's tile readers
/// charge for.
template <typename EmptyFn>
unsigned empty_mask(EmptyFn&& empty,
                    const std::array<int, grid::kNeighborCount>& order,
                    int r, int c) {
    unsigned mask = 0;
    for (int j = 0; j < grid::kNeighborCount; ++j) {
        const auto off = grid::kNeighborOffsets[static_cast<std::size_t>(
            order[static_cast<std::size_t>(j)])];
        mask |= static_cast<unsigned>(empty(r + off.dr, c + off.dc)) << j;
    }
    return mask;
}

/// Candidate list for one agent: empty neighbour cells visited in the
/// group's ranked order. `values`/`cells` must have room for 8 entries.
/// Returns the candidate count.
///
/// The templated builders abstract where occupancy/pheromone are read
/// from: the host engine and gpu-simt's global path pass EnvEmpty and the
/// pheromone field, gpu-simt's tile path passes shared-memory tile views.
/// Both produce identical values. The field parameter accepts anything
/// with DistanceField's cost() contract — the engines pass a
/// grid::BlendedField so anticipatory routing (door events blending
/// toward the next phase) flows through every builder without touching
/// them. With `scan.range > 1` the LEM and ACO builders also walk each
/// candidate's look-ahead ray (ray_congestion); at range 1 they never
/// call it.
///
/// LEM flavour: value = distance of the candidate to the target (times
/// 1 + w * congestion under the look-ahead), sorted ascending — the
/// paper's sorted scan row. In the analytic field the ranked visit order
/// already yields non-decreasing values, so the stable insertion sort is
/// the identity there (bit-parity with the paper's corridor); in a
/// geodesic field obstacles can reorder neighbours, and the sort restores
/// the rank-draw's "slot 0 = least effort" contract.
/// `empty(r, c)` -> true when the cell is in bounds and unoccupied.
template <typename EmptyFn, typename Field>
int build_candidates_lem_t(EmptyFn&& empty, const Field& df,
                           const ScanConfig& scan,
                           const grid::GridConfig& gcfg, grid::Group g,
                           int r, int c, double* values,
                           std::int8_t* cells) {
    const auto order = grid::ranked_order(g);
    int n = 0;
    for (unsigned m = empty_mask(empty, order, r, c); m != 0; m &= m - 1) {
        const int k = order[static_cast<std::size_t>(std::countr_zero(m))];
        const auto off = grid::kNeighborOffsets[static_cast<std::size_t>(k)];
        const int nr = r + off.dr;
        const int nc = c + off.dc;
        double effort = df.cost(g, nr, nc, off.dc);
        if (scan.range > 1) {
            effort *= 1.0 + scan.congestion_weight *
                                ray_congestion(empty, nr, nc, off.dr,
                                               off.dc, scan.range, gcfg);
        }
        insert_ranked(values, cells, n++, effort, k);
    }
    return n;
}

/// ACO flavour: value = tau(candidate)^alpha * (1/D)^beta — the numerator
/// of eq. (2) with the goal heuristic substituted for inter-city distance
/// — discounted under the look-ahead by the congestion visible beyond the
/// candidate. `tau(r, c)` reads the agent's own group's pheromone field.
template <typename EmptyFn, typename TauFn, typename Field>
int build_candidates_aco_t(EmptyFn&& empty, TauFn&& tau,
                           const Field& df, const AcoParams& params,
                           const ScanConfig& scan,
                           const grid::GridConfig& gcfg, grid::Group g,
                           int r, int c, double* values,
                           std::int8_t* cells) {
    const auto order = grid::ranked_order(g);
    int n = 0;
    for (unsigned m = empty_mask(empty, order, r, c); m != 0; m &= m - 1) {
        const int k = order[static_cast<std::size_t>(std::countr_zero(m))];
        const auto off = grid::kNeighborOffsets[static_cast<std::size_t>(k)];
        const int nr = r + off.dr;
        const int nc = c + off.dc;
        const double d =
            std::max(df.cost(g, nr, nc, off.dc), kMinHeuristicDistance);
        double weight = std::pow(tau(nr, nc), params.alpha) *
                        std::pow(1.0 / d, params.beta);
        if (scan.range > 1) {
            weight *= std::max(
                1.0 - scan.congestion_weight *
                          ray_congestion(empty, nr, nc, off.dr, off.dc,
                                         scan.range, gcfg),
                0.05);
        }
        values[n] = weight;
        cells[n] = static_cast<std::int8_t>(k);
        ++n;
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
    const auto order = grid::ranked_order(g);
    int n = 0;
    for (unsigned m = empty_mask(empty, order, r, c); m != 0; m &= m - 1) {
        const int k = order[static_cast<std::size_t>(std::countr_zero(m))];
        const auto off = grid::kNeighborOffsets[static_cast<std::size_t>(k)];
        const int nr = r + off.dr;
        const int nc = c + off.dc;
        const double dr = nr - panic.row;
        const double dc = nc - panic.col;
        // Negative distance: the ascending insertion ranks farthest first.
        insert_ranked(values, cells, n++, -std::sqrt(dr * dr + dc * dc), k);
    }
    return n;
}

/// Agent scan row (section IV.b), the one dispatch both engines call:
/// panic flight while the agent panics, else the model's builder over
/// `field`, the agent's scoring field. `tau` is read only under ACO.
/// Returns the candidate count.
template <typename EmptyFn, typename TauFn, typename Field>
int build_scan_row(EmptyFn&& empty, TauFn&& tau, const Field& field,
                   const SimConfig& cfg, bool panicked, grid::Group g, int r,
                   int c, double* values, std::int8_t* cells) {
    if (panicked) {
        return build_candidates_flee_t(empty, cfg.panic, g, r, c, values,
                                       cells);
    }
    if (cfg.model == Model::kLem) {
        return build_candidates_lem_t(empty, field, cfg.scan, cfg.grid, g, r,
                                      c, values, cells);
    }
    return build_candidates_aco_t(empty, tau, field, cfg.aco, cfg.scan,
                                  cfg.grid, g, r, c, values, cells);
}

/// Winner selection among `count` proposers: uniform draw on the *cell's*
/// stream (the thread assigned to the empty cell makes the choice). A
/// lone proposer wins without a draw.
inline int select_winner(rng::Stream& stream, int count) {
    if (count <= 0) return -1;
    if (count == 1) return 0;
    return static_cast<int>(
        stream.next_below(static_cast<std::uint32_t>(count)));
}

/// Set bits of a proposer byte (bits 0-7 only): the contest size of a
/// cell. Inline arithmetic, where std::popcount compiles to a libgcc call
/// at the baseline x86-64 target.
inline int popcount8(unsigned byte) {
    byte -= (byte >> 1) & 0x55u;
    byte = (byte & 0x33u) + ((byte >> 2) & 0x33u);
    return static_cast<int>((byte + (byte >> 4)) & 0x0Fu);
}

/// Step length for a move with the given displacement (1 or sqrt 2) —
/// accumulates into the ACO tour length L_k.
inline double step_length(int dr, int dc) {
    return (dr != 0 && dc != 0) ? std::sqrt(2.0) : 1.0;
}

/// Pheromone deposited by an agent with tour length `tour_len` (eq. 5).
inline double deposit_amount(const AcoParams& params, double tour_len) {
    return params.q / std::max(tour_len, 1.0);
}

}  // namespace pedsim::core
