// Distributions layered on counter-based streams.
//
// Includes the paper-specific LEM "rounded normal" rank draw (section II.A /
// IV.c): a normal variate whose negative tail is clamped to rank 0 and whose
// upper tail is clamped to the last rank, yielding a probabilistic
// preference for the least-effort candidate.
//
// Inline, like Stream: every drawing agent of a step makes one of these
// draws (docs/PERFORMANCE.md, "Measured: the decision path").
#pragma once

#include <cmath>
#include <cstdint>

#include "rng/stream.hpp"

namespace pedsim::rng {

/// The u2 interval on which lem_rank returns rank 0 without evaluating
/// Box-Muller. For u2 in [0.25 + 2^-20, 0.75 - 2^-20] the angle
/// fl(2 pi u2) lies at least 5.9e-6 inside (pi/2, 3 pi/2), where cos is
/// negative; the rounding of fl(2 pi) and of the product moves it by
/// under 1e-15. With sigma >= 0 and r >= 0 the variate is then <= 0 and
/// clamps to rank 0.
inline constexpr double kRankZeroLo = 0.25 + 0x1.0p-20;
inline constexpr double kRankZeroHi = 0.75 - 0x1.0p-20;

/// std::lround for x in [0, 7], the ranks of an 8-neighbour row, without
/// the library call it compiles to at the baseline x86-64 target. For
/// 0 <= x < 2^31, x - int(x) is x's fractional part exactly, so comparing
/// it with 0.5 rounds halves away from zero as lround does. (int(x + 0.5)
/// would not: the sum rounds 0.49999999999999994 up to 1.)
inline int round_rank(double x) noexcept {
    const int f = static_cast<int>(x);
    return f + static_cast<int>(x - f >= 0.5);
}

/// The LEM rank for the Box-Muller uniforms u1 in (0, 1] and u2 in
/// [0, 1): x = 0 + sigma * sqrt(-2 ln u1) * cos(2 pi u2) ~ N(0, sigma);
/// negatives become 0, values past the last rank are rounded down to it,
/// otherwise round-to-nearest. Returns a rank in [0, candidate_count);
/// candidate_count must be >= 1, and sigma finite and >= 0
/// (core::validate enforces it). u2 in [kRankZeroLo, kRankZeroHi] (about
/// half of all draws) returns 0 without calling log, sqrt or cos — the
/// rank the full expression gives there.
inline int lem_rank(double u1, double u2, int candidate_count,
                    double sigma) noexcept {
    if (u2 >= kRankZeroLo && u2 <= kRankZeroHi) return 0;
    const double r = std::sqrt(-2.0 * std::log(u1));
    double x = 0.0 + sigma * r * std::cos(2.0 * M_PI * u2);
    if (x < 0.0) x = 0.0;
    const double top = static_cast<double>(candidate_count - 1);
    if (x > top) x = top;
    return round_rank(x);
}

/// The LEM rank draw of Sarmady et al. (paper eq. 1 surroundings): draws
/// u1 = 1 - U (kept away from 0 so log() is finite), then u2 = U, and
/// returns lem_rank(u1, u2, candidate_count, sigma). Two uniforms per
/// draw, like curand_normal's independent values per thread; a single
/// candidate draws nothing. candidate_count must be >= 1.
inline int lem_rank_draw(Stream& s, int candidate_count, double sigma = 1.0) {
    if (candidate_count <= 1) return 0;
    const double u1 = 1.0 - s.next_double();
    const double u2 = s.next_double();
    return lem_rank(u1, u2, candidate_count, sigma);
}

/// Roulette-wheel selection over non-negative weights[0..n); returns the
/// selected index, or -1 if the total weight is zero (caller falls back).
/// This is the ACO random-proportional rule's sampling step (paper eq. 2).
inline int roulette(Stream& s, const double* weights, int n) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) total += weights[i];
    if (!(total > 0.0)) return -1;
    const double pick = s.next_double() * total;
    double acc = 0.0;
    int last_positive = -1;
    for (int i = 0; i < n; ++i) {
        if (weights[i] > 0.0) last_positive = i;
        acc += weights[i];
        if (pick < acc) return i;
    }
    // Floating-point shortfall: land on the last feasible slot.
    return last_positive;
}

}  // namespace pedsim::rng
