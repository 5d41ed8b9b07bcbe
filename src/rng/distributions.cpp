#include "rng/distributions.hpp"

#include <cmath>

namespace pedsim::rng {

double normal(Stream& s, double mean, double stddev) {
    // Box-Muller; u1 is kept away from 0 so log() is finite.
    const double u1 = 1.0 - s.next_double();
    const double u2 = s.next_double();
    const double r = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * r * std::cos(2.0 * M_PI * u2);
}

int lem_rank_draw(Stream& s, int candidate_count, double sigma) {
    if (candidate_count <= 1) return 0;
    double x = normal(s, 0.0, sigma);
    if (x < 0.0) x = 0.0;
    const double top = static_cast<double>(candidate_count - 1);
    if (x > top) x = top;
    return static_cast<int>(std::lround(x));
}

int roulette(Stream& s, const double* weights, int n) {
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
