#include "stats/special_functions.hpp"

#include <cmath>
#include <stdexcept>

namespace pedsim::stats {

namespace {

/// Continued-fraction core for the incomplete beta (NR "betacf").
double betacf(double a, double b, double x) {
    constexpr int kMaxIter = 300;
    constexpr double kEps = 3e-14;
    constexpr double kFpMin = 1e-300;

    const double qab = a + b;
    const double qap = a + 1.0;
    const double qam = a - 1.0;
    double c = 1.0;
    double d = 1.0 - qab * x / qap;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    d = 1.0 / d;
    double h = d;
    for (int m = 1; m <= kMaxIter; ++m) {
        const int m2 = 2 * m;
        double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if (std::fabs(d) < kFpMin) d = kFpMin;
        c = 1.0 + aa / c;
        if (std::fabs(c) < kFpMin) c = kFpMin;
        d = 1.0 / d;
        h *= d * c;
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if (std::fabs(d) < kFpMin) d = kFpMin;
        c = 1.0 + aa / c;
        if (std::fabs(c) < kFpMin) c = kFpMin;
        d = 1.0 / d;
        const double del = d * c;
        h *= del;
        if (std::fabs(del - 1.0) < kEps) break;
    }
    return h;
}

}  // namespace

double incomplete_beta(double a, double b, double x) {
    if (a <= 0.0 || b <= 0.0) {
        throw std::invalid_argument("incomplete_beta: a, b must be > 0");
    }
    if (x <= 0.0) return 0.0;
    if (x >= 1.0) return 1.0;
    const double ln_front = std::lgamma(a + b) - std::lgamma(a) -
                            std::lgamma(b) + a * std::log(x) +
                            b * std::log1p(-x);
    const double front = std::exp(ln_front);
    // Use the symmetry that keeps the continued fraction convergent.
    if (x < (a + 1.0) / (a + b + 2.0)) {
        return front * betacf(a, b, x) / a;
    }
    return 1.0 - front * betacf(b, a, 1.0 - x) / b;
}

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double normal_two_sided_p(double z) {
    return std::erfc(std::fabs(z) / std::sqrt(2.0));
}

double student_t_cdf(double t, double df) {
    if (df <= 0.0) throw std::invalid_argument("student_t_cdf: df must be > 0");
    const double x = df / (df + t * t);
    const double tail = 0.5 * incomplete_beta(df / 2.0, 0.5, x);
    return t >= 0.0 ? 1.0 - tail : tail;
}

double student_t_two_sided_p(double t, double df) {
    const double x = df / (df + t * t);
    return incomplete_beta(df / 2.0, 0.5, x);
}

}  // namespace pedsim::stats
