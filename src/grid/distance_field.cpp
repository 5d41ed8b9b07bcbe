#include "grid/distance_field.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <stdexcept>

namespace pedsim::grid {

namespace {

constexpr double kWall = -1.0;  // frame and wall cells of the framed table

/// Neighbour steps in the framed table (pitch cols + 2) with their costs.
struct Steps {
    std::array<std::ptrdiff_t, kNeighborCount> off;
    std::array<double, kNeighborCount> cost;
};

Steps steps_for(const GridConfig& config) {
    const auto pitch = static_cast<std::ptrdiff_t>(config.cols) + 2;
    const double diag = std::sqrt(2.0);
    Steps s{};
    for (std::size_t k = 0; k < kNeighborOffsets.size(); ++k) {
        const auto o = kNeighborOffsets[k];
        s.off[k] = o.dr * pitch + o.dc;
        s.cost[k] = o.dr != 0 && o.dc != 0 ? diag : 1.0;
    }
    return s;
}

/// Framed index of logical flat cell `cell` (one frame row above, one frame
/// column each side).
std::ptrdiff_t framed(const GridConfig& config, std::uint32_t cell) {
    const auto cols = static_cast<std::ptrdiff_t>(config.cols);
    const auto f = static_cast<std::ptrdiff_t>(cell);
    return f + 2 * (f / cols) + cols + 3;
}

/// Bucket of a distance: floor(d), which a width-1 bucket queue may
/// process in any order (see propagate()).
std::size_t bucket_of(double d) { return static_cast<std::size_t>(d); }

}  // namespace

// --- GeodesicScratch ----------------------------------------------------------

void GeodesicScratch::mark_walls(const GridConfig& config,
                                 const std::vector<std::uint32_t>& walls) {
    const std::size_t cells = config.cell_count();
    for (const auto w : walls) {
        if (w >= cells) {
            throw std::invalid_argument("DistanceField: wall cell off-grid");
        }
        dist_[static_cast<std::size_t>(framed(config, w))] = kWall;
    }
}

void GeodesicScratch::seed_goals(const GridConfig& config,
                                 const std::vector<std::uint32_t>& goals) {
    const std::size_t cells = config.cell_count();
    for (const auto g : goals) {
        if (g >= cells) {
            throw std::invalid_argument("DistanceField: goal cell off-grid");
        }
        const std::ptrdiff_t f = framed(config, g);
        // Walls (-1) and goals already at 0, duplicates included, skip.
        if (dist_[static_cast<std::size_t>(f)] > 0.0) {
            dist_[static_cast<std::size_t>(f)] = 0.0;
            seeds_.push_back({0.0, f});
        }
    }
}

void GeodesicScratch::build(const GridConfig& config,
                            const std::vector<std::uint32_t>& walls,
                            const std::vector<std::uint32_t>& goals,
                            double* out) {
    const auto pitch = static_cast<std::size_t>(config.cols) + 2;
    dist_.assign((static_cast<std::size_t>(config.rows) + 2) * pitch, kWall);
    for (int r = 0; r < config.rows; ++r) {
        const auto row = dist_.begin() +
                         static_cast<std::ptrdiff_t>(
                             (static_cast<std::size_t>(r) + 1) * pitch + 1);
        std::fill(row, row + config.cols, DistanceField::kUnreachable);
    }
    mark_walls(config, walls);
    seeds_.clear();
    seed_goals(config, goals);
    propagate(config);
    store(config, out);
}

void GeodesicScratch::repair(const GridConfig& config, const double* before,
                             const std::vector<std::uint32_t>& walls_before,
                             const std::vector<std::uint32_t>& walls,
                             const std::vector<std::uint32_t>& goals,
                             double* out) {
    const auto pitch = static_cast<std::size_t>(config.cols) + 2;
    const auto cols = static_cast<std::size_t>(config.cols);
    dist_.assign((static_cast<std::size_t>(config.rows) + 2) * pitch, kWall);
    for (std::size_t r = 0; r < static_cast<std::size_t>(config.rows); ++r) {
        std::memcpy(&dist_[(r + 1) * pitch + 1], &before[r * cols],
                    cols * sizeof(double));
    }
    // Old walls read kUnreachable in `before`; every wall of the new
    // configuration, closed cells included, becomes a frame-like -1.
    mark_walls(config, walls);
    closed_.clear();
    opened_.clear();
    std::set_difference(walls.begin(), walls.end(), walls_before.begin(),
                        walls_before.end(), std::back_inserter(closed_));
    std::set_difference(walls_before.begin(), walls_before.end(),
                        walls.begin(), walls.end(),
                        std::back_inserter(opened_));

    const Steps st = steps_for(config);
    double* const d = dist_.data();

    // Invalidate every cell left without support. A support of v is a
    // neighbour u with d[u] < d[v] and d[u] + w == d[v]; walls (-1) and
    // invalidated cells (kUnreachable) never qualify, and goals (0) need
    // none. Only a closed cell can take a support away, so the worklist
    // starts at the closed cells' neighbours. An invalidated cell can only
    // have supported the neighbours exactly one step above it, so those
    // are re-checked next.
    work_.clear();
    invalid_.clear();
    for (const auto c : closed_) {
        const std::ptrdiff_t fc = framed(config, c);
        for (const auto off : st.off) work_.push_back(fc + off);
    }
    while (!work_.empty()) {
        const std::ptrdiff_t v = work_.back();
        work_.pop_back();
        const double dv = d[v];
        if (!(dv > 0.0 && dv < DistanceField::kUnreachable)) continue;
        bool supported = false;
        for (std::size_t k = 0; k < kNeighborCount && !supported; ++k) {
            const double du = d[v + st.off[k]];
            supported = du >= 0.0 && du < dv && du + st.cost[k] == dv;
        }
        if (supported) continue;
        d[v] = DistanceField::kUnreachable;
        invalid_.push_back(v);
        for (std::size_t k = 0; k < kNeighborCount; ++k) {
            if (d[v + st.off[k]] == dv + st.cost[k]) {
                work_.push_back(v + st.off[k]);
            }
        }
    }

    // Seed: opened goal cells get 0; every invalidated or opened cell
    // takes its best offer from the neighbours that hold a distance.
    seeds_.clear();
    seed_goals(config, goals);
    const auto seed = [&](std::ptrdiff_t v) {
        double best = d[v];
        for (std::size_t k = 0; k < kNeighborCount; ++k) {
            const double du = d[v + st.off[k]];
            if (du >= 0.0 && du + st.cost[k] < best) best = du + st.cost[k];
        }
        if (best < d[v]) {
            d[v] = best;
            seeds_.push_back({best, v});
        }
    };
    for (const auto v : invalid_) seed(v);
    for (const auto c : opened_) seed(framed(config, c));

    propagate(config);
    store(config, out);
}

// Label-setting over width-1 buckets. Every step costs at least 1, so a
// cell popped from bucket k = floor(d) relaxes its neighbours to at least
// fl(k + 1) = k + 1: nothing in bucket k can improve another entry of
// bucket k, and each bucket may be drained in any order. Seeds (the
// goals, or a repair's tentative cells) are merged in bucket by bucket.
void GeodesicScratch::propagate(const GridConfig& config) {
    std::sort(seeds_.begin(), seeds_.end(),
              [](const Entry& a, const Entry& b) { return a.d < b.d; });
    const Steps st = steps_for(config);
    double* const d = dist_.data();
    std::size_t next = 0;
    std::size_t pending = 0;
    std::size_t k = 0;
    for (;;) {
        if (pending == 0) {
            if (next == seeds_.size()) break;
            k = bucket_of(seeds_[next].d);  // skip empty buckets
        }
        auto& cur = buckets_[k & 3];
        for (; next < seeds_.size() && bucket_of(seeds_[next].d) == k;
             ++next) {
            cur.push_back(seeds_[next]);
            ++pending;
        }
        for (std::size_t i = 0; i < cur.size(); ++i) {
            const Entry e = cur[i];
            if (e.d != d[e.cell]) continue;  // lowered since it was queued
            for (std::size_t j = 0; j < kNeighborCount; ++j) {
                const std::ptrdiff_t n = e.cell + st.off[j];
                const double nd = e.d + st.cost[j];
                if (nd < d[n]) {
                    d[n] = nd;
                    buckets_[bucket_of(nd) & 3].push_back({nd, n});
                    ++pending;
                }
            }
        }
        pending -= cur.size();
        cur.clear();
        ++k;
    }
}

void GeodesicScratch::store(const GridConfig& config, double* out) const {
    const auto pitch = static_cast<std::size_t>(config.cols) + 2;
    const auto cols = static_cast<std::size_t>(config.cols);
    for (std::size_t r = 0; r < static_cast<std::size_t>(config.rows); ++r) {
        const double* src = &dist_[(r + 1) * pitch + 1];
        double* dst = &out[r * cols];
        for (std::size_t c = 0; c < cols; ++c) {
            dst[c] = src[c] < 0.0 ? DistanceField::kUnreachable : src[c];
        }
    }
}

// --- DistanceField -------------------------------------------------------------

DistanceField::DistanceField(GridConfig config) : config_(config) {
    for (auto& group_table : table_) {
        group_table.resize(static_cast<std::size_t>(config_.rows) + 1);
        for (std::size_t vert = 0; vert < group_table.size(); ++vert) {
            const double v = static_cast<double>(vert);
            group_table[vert][0] = v;
            group_table[vert][1] = std::sqrt(v * v + 1.0);
        }
    }
}

DistanceField::DistanceField(
    GridConfig config, const std::vector<std::uint32_t>& wall_cells,
    const std::array<std::vector<std::uint32_t>, 2>& goal_cells)
    : DistanceField(config) {
    // The analytic table stays populated (it is O(rows) per group), so the
    // row-based distance()/crossed() accessors remain safe to call even
    // though geodesic cost()/crossed_at() supersede them.
    allocate(2);
    GeodesicScratch scratch;
    for (const auto g : {Group::kTop, Group::kBottom}) {
        scratch.build(config_, wall_cells, goals_of(g, goal_cells), table(g));
    }
}

DistanceField DistanceField::shared_target(
    GridConfig config, const std::vector<std::uint32_t>& wall_cells,
    std::uint32_t target_cell) {
    DistanceField f(config);
    f.allocate(1);  // both groups share the target: one table
    GeodesicScratch scratch;
    scratch.build(f.config_, wall_cells, {target_cell}, f.geo_.data());
    return f;
}

DistanceField DistanceField::repaired(
    const std::vector<std::uint32_t>& walls_before,
    const std::vector<std::uint32_t>& wall_cells,
    const std::array<std::vector<std::uint32_t>, 2>& goal_cells,
    GeodesicScratch& scratch) const {
    DistanceField f(config_);
    f.allocate(2);
    for (const auto g : {Group::kTop, Group::kBottom}) {
        scratch.repair(config_, geo_data(g), walls_before, wall_cells,
                       goals_of(g, goal_cells), f.table(g));
    }
    return f;
}

DistanceField DistanceField::repaired_shared_target(
    const std::vector<std::uint32_t>& walls_before,
    const std::vector<std::uint32_t>& wall_cells, std::uint32_t target_cell,
    GeodesicScratch& scratch) const {
    DistanceField f(config_);
    f.allocate(1);
    scratch.repair(config_, geo_.data(), walls_before, wall_cells,
                   {target_cell}, f.geo_.data());
    return f;
}

std::size_t DistanceField::bytes() const {
    std::size_t n = geo_.size() * sizeof(double);
    for (const auto& group_table : table_) {
        n += group_table.size() * sizeof(group_table[0]);
    }
    return n;
}

void DistanceField::allocate(std::size_t tables) {
    geodesic_ = true;
    const std::size_t cells = config_.cell_count();
    geo_.assign(tables * cells, 0.0);
    geo_offset_ = {0, (tables - 1) * cells};
}

std::vector<std::uint32_t> DistanceField::goals_of(
    Group g, const std::array<std::vector<std::uint32_t>, 2>& goal_cells)
    const {
    std::vector<std::uint32_t> goals = goal_cells[g == Group::kTop ? 0 : 1];
    if (goals.empty()) {
        // Default goal: the group's far edge row, as in the corridor.
        const auto row = static_cast<std::size_t>(target_row(g));
        goals.reserve(static_cast<std::size_t>(config_.cols));
        for (std::size_t c = 0; c < static_cast<std::size_t>(config_.cols);
             ++c) {
            goals.push_back(static_cast<std::uint32_t>(
                row * static_cast<std::size_t>(config_.cols) + c));
        }
    }
    return goals;
}

}  // namespace pedsim::grid
