#include "core/config.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

namespace pedsim::core {

namespace {

std::string fmt_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/// `v` must be finite and in [lo, hi], or (lo, hi] when `open_lo`; `hi`
/// may be infinite. A NaN fails every comparison, hence the isfinite.
void check_range(const char* key, double v, double lo, double hi,
                 bool open_lo = false) {
    if (std::isfinite(v) && v >= lo && v <= hi && !(open_lo && v == lo)) {
        return;
    }
    throw std::invalid_argument(
        std::string(key) + " must be in " + (open_lo ? "(" : "[") +
        fmt_double(lo) + ", " +
        (std::isinf(hi) ? std::string("inf)") : fmt_double(hi) + "]") +
        ", got " + fmt_double(v));
}

}  // namespace

void validate_model(const SimConfig& config) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    check_range("sigma", config.lem.sigma, 0.0, kInf);
    check_range("alpha", config.aco.alpha, 0.0, kInf);
    check_range("beta", config.aco.beta, 0.0, kInf);
    check_range("rho", config.aco.rho, 0.0, 1.0);
    check_range("q", config.aco.q, 0.0, kInf);
    check_range("tau0", config.aco.tau0, 0.0, kInf);
    check_range("tau_min", config.aco.tau_min, 0.0, kInf, /*open_lo=*/true);
    check_range("congestion_weight", config.scan.congestion_weight, 0.0, 1.0);
    check_range("slow_fraction", config.speed.slow_fraction, 0.0, 1.0);
    check_range("max_band_fill", config.max_band_fill, 0.0, 1.0,
                /*open_lo=*/true);
}

}  // namespace pedsim::core
