// Distributions layered on counter-based streams.
//
// Includes the paper-specific LEM "rounded normal" rank draw (section II.A /
// IV.c): a normal variate whose negative tail is clamped to rank 0 and whose
// upper tail is clamped to the last rank, yielding a probabilistic
// preference for the least-effort candidate.
#pragma once

#include <cstdint>

#include "rng/stream.hpp"

namespace pedsim::rng {

/// Standard normal via Box-Muller (the non-cached variant: one draw per
/// call, two uniforms consumed — mirrors curand_normal's behaviour of
/// producing independent values per thread).
double normal(Stream& s, double mean = 0.0, double stddev = 1.0);

/// The LEM rank draw of Sarmady et al. (paper eq. 1 surroundings):
/// draw x ~ N(0, sigma); negatives become 0; values past the last rank are
/// rounded down to it; otherwise round-to-nearest. Returns a rank in
/// [0, candidate_count). candidate_count must be >= 1.
int lem_rank_draw(Stream& s, int candidate_count, double sigma = 1.0);

/// Roulette-wheel selection over non-negative weights[0..n); returns the
/// selected index, or -1 if the total weight is zero (caller falls back).
/// This is the ACO random-proportional rule's sampling step (paper eq. 2).
int roulette(Stream& s, const double* weights, int n);

}  // namespace pedsim::rng
