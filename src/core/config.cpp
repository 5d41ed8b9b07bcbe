#include "core/config.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

namespace pedsim::core {

namespace {

/// Expansion ceiling per cycle/mover: scenario files carry full-uint64
/// counters, and a typo'd repeats/count would otherwise materialize
/// billions of DoorEvents at setup (and, for movers, wrap the int-typed
/// final-position bounds check). 2^15 firings is far beyond any
/// plausible run length while keeping one authored line's expansion small.
constexpr std::uint64_t kMaxFirings = 1u << 15;

/// Step ceiling for cycle/mover parameters: the expansion computes
/// `start + k * period (+ duty)` in uint64, and scenario files accept
/// full-range counters — unchecked, a huge start/period wraps and emits
/// a close event near step 0 with no matching open. With start, period
/// and interval below 2^32 and k below kMaxFirings, every expanded step
/// stays under 2^48: no wrap, and still beyond any reachable run length.
constexpr std::uint64_t kMaxEventStep = 1ull << 32;

std::string fmt_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string grid_name(const grid::GridConfig& grid) {
    return std::to_string(grid.rows) + "x" + std::to_string(grid.cols);
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

void check_rect(const std::string& label, int row0, int col0, int row1,
                int col1, const grid::GridConfig& grid) {
    if (row0 < 0 || col0 < 0 || row1 < row0 || col1 < col0 ||
        row1 >= grid.rows || col1 >= grid.cols) {
        throw std::invalid_argument(label + ": rect out of bounds for " +
                                    grid_name(grid) + " grid");
    }
}

/// Walls, goals, waypoint chains and spawn regions: every cell on the
/// grid, no goal or waypoint on a static wall, chains short enough for
/// the per-agent uint8 chain index, spawn rects of the top or bottom
/// group.
void check_layout(const ScenarioLayout& layout,
                  const grid::GridConfig& grid) {
    const std::size_t cells = grid.cell_count();
    const auto where = [&grid](std::uint32_t cell) {
        return "(" + std::to_string(cell / grid.cols) + ", " +
               std::to_string(cell % grid.cols) + ")";
    };
    for (const auto cell : layout.wall_cells) {
        if (cell >= cells) {
            throw std::invalid_argument("map: wall cell " +
                                        std::to_string(cell) + " off the " +
                                        grid_name(grid) + " grid");
        }
    }
    // Canonical layouts (the parser's, the registry's) are sorted already.
    std::vector<std::uint32_t> sorted;
    const std::vector<std::uint32_t>* walls = &layout.wall_cells;
    if (!std::is_sorted(walls->begin(), walls->end())) {
        sorted = layout.wall_cells;
        std::sort(sorted.begin(), sorted.end());
        walls = &sorted;
    }
    const auto is_wall = [walls](std::uint32_t cell) {
        return std::binary_search(walls->begin(), walls->end(), cell);
    };
    for (std::size_t g = 0; g < 2; ++g) {
        const std::string who = g == 0 ? "top" : "bottom";
        for (const auto cell : layout.goal_cells[g]) {
            if (cell >= cells) {
                throw std::invalid_argument(
                    "map: " + who + " goal cell " + std::to_string(cell) +
                    " off the " + grid_name(grid) + " grid");
            }
            if (is_wall(cell)) {
                throw std::invalid_argument("map: " + who + " goal cell " +
                                            where(cell) + " is a wall");
            }
        }
    }
    if (layout.waypoint_radius < 0) {
        throw std::invalid_argument(
            "waypoint_radius must be non-negative, got " +
            std::to_string(layout.waypoint_radius));
    }
    for (std::size_t g = 0; g < 2; ++g) {
        const auto& chain = layout.waypoints[g];
        const std::string who = g == 0 ? "top" : "bottom";
        if (chain.size() > 255) {
            throw std::invalid_argument(
                "waypoints: " + who + " chain too long (" +
                std::to_string(chain.size()) + " entries; max 255)");
        }
        for (std::size_t k = 0; k < chain.size(); ++k) {
            const std::string entry =
                "waypoints: " + who + " entry " + std::to_string(k);
            if (chain[k] >= cells) {
                throw std::invalid_argument(
                    entry + ": cell " + std::to_string(chain[k]) +
                    " off the " + grid_name(grid) + " grid");
            }
            if (is_wall(chain[k])) {
                throw std::invalid_argument(entry + ": cell " +
                                            where(chain[k]) + " is a wall");
            }
        }
    }
    for (std::size_t k = 0; k < layout.spawns.size(); ++k) {
        const auto& s = layout.spawns[k];
        const std::string label = "spawn " + std::to_string(k);
        if (s.group != grid::Group::kTop && s.group != grid::Group::kBottom) {
            throw std::invalid_argument(label +
                                        ": group must be top or bottom");
        }
        check_rect(label, s.row0, s.col0, s.row1, s.col1, grid);
    }
}

/// Door, cycle and mover rects and parameters, with the expansion
/// ceilings that keep expand_dynamic_events finite and free of wraps.
void check_events(const SimConfig& config) {
    const auto& grid = config.grid;
    for (std::size_t k = 0; k < config.doors.size(); ++k) {
        const auto& e = config.doors[k];
        check_rect("door event " + std::to_string(k) + " (step " +
                       std::to_string(e.step) + ")",
                   e.row0, e.col0, e.row1, e.col1, grid);
    }
    for (std::size_t k = 0; k < config.cycles.size(); ++k) {
        const auto& cy = config.cycles[k];
        const std::string label = "cycle event " + std::to_string(k);
        check_rect(label, cy.row0, cy.col0, cy.row1, cy.col1, grid);
        if (cy.period == 0 || cy.duty == 0 || cy.duty >= cy.period ||
            cy.repeats == 0) {
            throw std::invalid_argument(
                label + ": needs 0 < duty < period and repeats >= 1");
        }
        if (cy.repeats > kMaxFirings) {
            throw std::invalid_argument(
                label + ": repeats " + std::to_string(cy.repeats) +
                " exceeds the expansion ceiling of " +
                std::to_string(kMaxFirings));
        }
        if (cy.start > kMaxEventStep || cy.period > kMaxEventStep) {
            throw std::invalid_argument(
                label + ": start/period exceed the step ceiling of 2^32");
        }
    }
    for (std::size_t k = 0; k < config.movers.size(); ++k) {
        const auto& mv = config.movers[k];
        const std::string label = "mover event " + std::to_string(k);
        if (mv.interval == 0 || mv.count == 0 || mv.drow < -1 ||
            mv.drow > 1 || mv.dcol < -1 || mv.dcol > 1 ||
            (mv.drow == 0 && mv.dcol == 0)) {
            throw std::invalid_argument(
                label + ": needs interval >= 1, count >= 1, and a unit "
                        "king-move (drow, dcol)");
        }
        if (mv.count > kMaxFirings) {
            throw std::invalid_argument(
                label + ": count " + std::to_string(mv.count) +
                " exceeds the expansion ceiling of " +
                std::to_string(kMaxFirings));
        }
        if (mv.start > kMaxEventStep || mv.interval > kMaxEventStep) {
            throw std::invalid_argument(
                label + ": start/interval exceed the step ceiling of 2^32");
        }
        // Translation is monotone, so checking the first and last
        // positions bounds every intermediate one. (count is below
        // kMaxFirings here, so the int cast cannot wrap.)
        check_rect(label, mv.row0, mv.col0, mv.row1, mv.col1, grid);
        const auto n = static_cast<int>(mv.count);
        check_rect(label + " (final position)", mv.row0 + n * mv.drow,
                   mv.col0 + n * mv.dcol, mv.row1 + n * mv.drow,
                   mv.col1 + n * mv.dcol, grid);
    }
}

void check_group(const char* what, std::size_t k, std::uint8_t group,
                 std::array<bool, 3>& seen) {
    if (group != 1 && group != 2) {
        throw std::invalid_argument(std::string(what) + " " +
                                    std::to_string(k) +
                                    ": group must be 1 (top) or 2 (bottom)");
    }
    if (seen[group]) {
        throw std::invalid_argument(std::string(what) + " " +
                                    std::to_string(k) + ": duplicate spec " +
                                    "for group " + std::to_string(group));
    }
    seen[group] = true;
}

/// Groups in {1, 2} with at most one no-show/speed/dwell spec per group,
/// probabilities in [0, 1], speed fractions in (0, 1], dwell steps >= 1,
/// surge rects on the grid with step >= 1.
void check_perturbations(const PerturbationConfig& perturb,
                         const grid::GridConfig& grid) {
    std::array<bool, 3> noshow_seen{};
    for (std::size_t k = 0; k < perturb.no_shows.size(); ++k) {
        const auto& s = perturb.no_shows[k];
        check_group("noshow", k, s.group, noshow_seen);
        if (!(s.probability >= 0.0 && s.probability <= 1.0)) {
            throw std::invalid_argument(
                "noshow " + std::to_string(k) +
                ": probability must be in [0, 1]");
        }
    }
    std::array<bool, 3> speed_seen{};
    for (std::size_t k = 0; k < perturb.speeds.size(); ++k) {
        const auto& s = perturb.speeds[k];
        check_group("speed class", k, s.group, speed_seen);
        if (!(s.fraction > 0.0 && s.fraction <= 1.0)) {
            throw std::invalid_argument(
                "speed class " + std::to_string(k) +
                ": fraction must be in (0, 1]");
        }
    }
    std::array<bool, 3> dwell_seen{};
    for (std::size_t k = 0; k < perturb.dwells.size(); ++k) {
        const auto& s = perturb.dwells[k];
        check_group("dwell", k, s.group, dwell_seen);
        if (s.steps == 0) {
            throw std::invalid_argument("dwell " + std::to_string(k) +
                                        ": steps must be >= 1");
        }
    }
    for (std::size_t k = 0; k < perturb.surges.size(); ++k) {
        const auto& s = perturb.surges[k];
        if (s.group != 1 && s.group != 2) {
            throw std::invalid_argument(
                "surge " + std::to_string(k) +
                ": group must be 1 (top) or 2 (bottom)");
        }
        if (s.step == 0) {
            throw std::invalid_argument(
                "surge " + std::to_string(k) +
                ": step must be >= 1 (placement owns step 0)");
        }
        check_rect("surge " + std::to_string(k), s.row0, s.col0, s.row1,
                   s.col1, grid);
    }
}

}  // namespace

void validate(const SimConfig& config) {
    const auto& grid = config.grid;
    if (!grid.tile_aligned()) {
        throw std::invalid_argument(
            "rows and cols must be positive multiples of the " +
            std::to_string(grid::GridConfig::kTileEdge) +
            "-cell tile edge, got " + grid_name(grid));
    }

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

    // The look-ahead walks scan_range - 1 cells per candidate, and a ray
    // longer than the grid sees no more cells: bound it by the grid so a
    // huge value cannot stall a step or overflow the ray arithmetic.
    const int max_range = std::max(grid.rows, grid.cols);
    if (config.scan.range < 1 || config.scan.range > max_range) {
        throw std::invalid_argument(
            "scan_range " + std::to_string(config.scan.range) +
            " outside 1.." + std::to_string(max_range) + " for the " +
            grid_name(grid) + " grid");
    }
    if (config.speed.slow_period < 1) {
        throw std::invalid_argument("slow_period must be at least 1, got " +
                                    std::to_string(config.speed.slow_period));
    }
    // PanicConfig::affects compares squared distances, so a negative
    // radius would panic the same agents as its absolute value.
    check_range("panic radius", config.panic.radius, 0.0, kInf);
    // 0 is the auto value of both, which a negative value would silently
    // become.
    if (config.band_rows < 0) {
        throw std::invalid_argument(
            "band_rows must be non-negative (0 = auto), got " +
            std::to_string(config.band_rows));
    }
    if (config.cross_margin < 0) {
        throw std::invalid_argument(
            "cross_margin must be non-negative (0 = auto), got " +
            std::to_string(config.cross_margin));
    }
    if (config.anticipate.horizon < 0) {
        throw std::invalid_argument(
            "anticipate horizon must be non-negative, got " +
            std::to_string(config.anticipate.horizon));
    }

    check_layout(config.layout, grid);
    check_events(config);
    check_perturbations(config.perturb, grid);
}

}  // namespace pedsim::core
