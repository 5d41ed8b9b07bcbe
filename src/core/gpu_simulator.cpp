#include "core/gpu_simulator.hpp"

#include <stdexcept>
#include <string>

#include "core/rules.hpp"
#include "obs/metrics.hpp"
#include "simt/launch.hpp"
#include "simt/shared_tile.hpp"

namespace pedsim::core {

namespace {

/// Branch/access site ids for the kernels (small dense ints per kernel).
enum Site : int {
    kSiteOccupied = 2,
    kSiteFrontEmpty = 3,
    kSiteEmptyCell = 4,
    kSiteHasProposer = 5,
    kAccessScan = 10,
    kAccessProps = 11,
    kAccessFuture = 12,
    kAccessWinner = 13,
};

/// Shared memory of the initial-calculation / movement kernels: the mat and
/// index tiles (paper Fig. 3) plus, for ACO, the two pheromone tiles (the
/// paper fuses them into one 36x18 local matrix; two 18x18 tiles hold the
/// same data).
struct TileShared {
    simt::HaloTile<std::uint8_t> occ;
    simt::HaloTile<std::int32_t> idx;
    simt::HaloTile<double> pher_top;
    simt::HaloTile<double> pher_bottom;
};

/// Shared memory of the tour-construction kernel: 32 scan rows staged by
/// the block's 8-lane rows (paper section IV.c).
struct TourShared {
    std::array<double, 32 * grid::kNeighborCount> values{};
};

/// The global planes a tiled kernel stages. The views carry the padded
/// environment rows' stride; pheromone planes are dense.
struct TileViews {
    simt::GlobalView<std::uint8_t> occ;
    simt::GlobalView<std::int32_t> idx;
    simt::GlobalView<double> pher_top, pher_bottom;
    bool pheromone = false;
};

/// Mat and index, plus both pheromone planes when `pher` is given.
TileViews tile_views(const grid::Environment& env,
                     const PheromoneField* pher) {
    TileViews v;
    v.occ = {env.occ_row(0), env.rows(), env.cols(), env.stride()};
    v.idx = {env.idx_row(0), env.rows(), env.cols(), env.stride()};
    if (pher != nullptr) {
        v.pher_top = {pher->raw(grid::Group::kTop).data(), env.rows(),
                      env.cols()};
        v.pher_bottom = {pher->raw(grid::Group::kBottom).data(), env.rows(),
                         env.cols()};
        v.pheromone = true;
    }
    return v;
}

// Off-grid halo fill and in-grid static walls share grid::kWallOcc: both
// read as occupied in every emptiness test, with index 0 so the dump row
// absorbs any work a wall-assigned thread produces.
using grid::kWallOcc;

/// Phase 0 of both tiled kernels: stage the tiles (paper Fig. 3) with the
/// warp-remapped loader or the naive one. Walls read as occupied.
void stage_tiles(simt::ThreadCtx& ctx, TileShared& sh, const TileViews& v,
                 bool remapped) {
    const auto load = [&](auto& tile, const auto& view, auto wall) {
        if (remapped) {
            tile.load_halo_remapped(ctx, view, wall);
        } else {
            tile.load_halo_naive(ctx, view, wall);
        }
    };
    load(sh.occ, v.occ, kWallOcc);
    load(sh.idx, v.idx, std::int32_t{0});
    if (v.pheromone) {
        load(sh.pher_top, v.pher_top, 0.0);
        load(sh.pher_bottom, v.pher_bottom, 0.0);
    }
}

/// Both tiled kernels launch one 16x16 block per tile of the grid.
constexpr simt::Dim2 kTileBlock{simt::kTileEdge, simt::kTileEdge};

simt::Dim2 tile_grid(const grid::Environment& env) {
    return {env.cols() / simt::kTileEdge, env.rows() / simt::kTileEdge};
}

}  // namespace

GpuSimulator::GpuSimulator(const SimConfig& config,
                           std::shared_ptr<const DoorSchedule> warm)
    : Simulator(config, std::move(warm)),
      timing_(simt::DeviceSpec::gtx560ti()),
      scan_(props_.agent_count()),
      winner_(env_.config().cell_count(), 0) {}

void GpuSimulator::record(const char* name, simt::Dim2 grid, simt::Dim2 block,
                          simt::KernelStats stats) {
    simt::LaunchRecord rec;
    rec.kernel_name = name;
    rec.grid_x = grid.x;
    rec.grid_y = grid.y;
    rec.block_x = block.x;
    rec.block_y = block.y;
    rec.modeled_seconds = timing_.seconds(stats);
    rec.stats = std::move(stats);
    if (auto* mx = obs::MetricsRegistry::active()) {
        // Per-kernel rollups of the modeled-device launch log, so a
        // metrics report answers "which kernel dominates" without
        // replaying the full log.
        const std::string base = std::string("kernel.") + name;
        const auto& ks = rec.stats;
        mx->counter(base + ".launches").add(1);
        mx->counter(base + ".blocks").add(ks.blocks);
        mx->counter(base + ".warp_instructions").add(ks.warp_instructions);
        mx->counter(base + ".divergent_branches").add(ks.divergent_branches);
        mx->counter(base + ".global_transactions").add(ks.global_transactions);
        mx->counter(base + ".modeled_ns")
            .add(static_cast<std::uint64_t>(rec.modeled_seconds * 1e9));
    }
    log_.add(std::move(rec));
}

simt::KernelStats GpuSimulator::staging_stats(std::string_view kernel,
                                              bool remapped) const {
    if (kernel != "initial_calc" && kernel != "movement") {
        throw std::invalid_argument("staging_stats: '" + std::string(kernel) +
                                    "' is not a tiled kernel");
    }
    const TileViews views =
        tile_views(env_, kernel == "initial_calc" ? pher_.get() : nullptr);
    return simt::launch<TileShared>(
        timing_.spec(), tile_grid(env_), kTileBlock, /*phases=*/1,
        [&](simt::ThreadCtx& ctx, TileShared& sh, int) {
            stage_tiles(ctx, sh, views, remapped);
        },
        config_.exec);
}

void GpuSimulator::stage_reset() {
    // Supporting kernel (section IV.e): one thread per property/scan row.
    const auto rows = static_cast<int>(props_.rows());
    const simt::Dim2 block{256, 1};
    const simt::Dim2 grid{(rows + block.x - 1) / block.x, 1};
    auto stats = simt::launch<simt::NoShared>(
        timing_.spec(), grid, block, /*phases=*/1,
        [&](simt::ThreadCtx& ctx, simt::NoShared&, int) {
            const int i = ctx.global_x();
            if (!ctx.branch(kSiteOccupied, i < rows)) return;
            const auto idx = static_cast<std::size_t>(i);
            props_.future_row[idx] = kNoFuture;
            props_.future_col[idx] = kNoFuture;
            scan_.count(i) = 0;
            ctx.global_store(kAccessProps,
                             reinterpret_cast<std::uint64_t>(
                                 props_.future_row.data() + idx),
                             sizeof(std::int32_t) * 2 + 1);
        },
        config_.exec);
    record("support_reset", grid, block, std::move(stats));
}

void GpuSimulator::stage_initial_calc() {
    const simt::Dim2 grid = tile_grid(env_);
    const TileViews views = tile_views(env_, pher_.get());

    auto stats = simt::launch<TileShared>(
        timing_.spec(), grid, kTileBlock, /*phases=*/2,
        [&](simt::ThreadCtx& ctx, TileShared& sh, int phase) {
            if (phase == 0) {
                stage_tiles(ctx, sh, views, /*remapped=*/true);
                return;
            }

            // Phase 1: occupied-cell threads fill their agent's scan row;
            // empty-cell threads fall through to the dump row (row 0), the
            // paper's divergence-avoidance trick.
            const int lr = ctx.thread_idx.y;
            const int lc = ctx.thread_idx.x;
            const int r = ctx.global_y();
            const int c = ctx.global_x();
            ctx.shared_load(1);
            const bool occupied = sh.occ.at(lr, lc) != 0;
            ctx.branch(kSiteOccupied, occupied);
            // Divergence-free formulation: every thread runs the same code
            // with its scan row = index (0 for empty cells).
            const std::int32_t i = occupied ? sh.idx.at(lr, lc) : 0;
            const grid::Group g =
                occupied ? props_.group_of(i) : grid::Group::kTop;
            // Wall cells read as occupied but carry index 0, so with
            // host-parallel blocks every wall thread would contend on the
            // shared dump row. Per-thread dump targets absorb their writes
            // instead (the instrumentation below is unchanged, and row 0
            // is never read, so serial results and stats are identical).
            const bool agent = i > 0;
            std::uint8_t dump_flag = 0;
            std::int8_t dump_count = 0;
            double dump_values[grid::kNeighborCount];
            std::int8_t dump_cells[grid::kNeighborCount];
            double* const out_values =
                agent ? scan_.values(i) : dump_values;
            std::int8_t* const out_cells =
                agent ? scan_.cells(i) : dump_cells;

            auto tile_empty = [&](int nr, int nc) {
                ctx.shared_load(1);
                return sh.occ.at(nr - ctx.block_idx.y * simt::kTileEdge,
                                 nc - ctx.block_idx.x * simt::kTileEdge) == 0;
            };

            const auto fwd = grid::kNeighborOffsets[static_cast<std::size_t>(
                grid::forward_neighbor(g))];
            const bool front_empty = tile_empty(r + fwd.dr, c + fwd.dc);
            if (occupied) {
                (agent ? props_.front_blocked[static_cast<std::size_t>(i)]
                       : dump_flag) = front_empty ? 0 : 1;
            }
            ctx.global_store(
                kAccessProps,
                reinterpret_cast<std::uint64_t>(props_.front_blocked.data() +
                                                (occupied ? i : 0)),
                1);

            const bool panicked = occupied && panic_applies(r, c);
            if (occupied) {
                (agent ? props_.panicked[static_cast<std::size_t>(i)]
                       : dump_flag) = panicked ? 1 : 0;
            }

            // Waypoint-pending agents always need their scan row (forward
            // priority is suspended mid-chain) — same predicate as the
            // CPU engine, so bit-parity holds with chains enabled.
            const bool needs_scan =
                occupied &&
                (panicked || waypoint_pending(i) ||
                 !(config_.forward_priority && front_empty));
            ctx.branch(kSiteFrontEmpty, needs_scan);
            if (!needs_scan) return;

            // Extension paths (panic flight, look-ahead scanning) reach
            // beyond the 1-cell halo, so they read global memory through
            // the host engine's readers; the paper's case reads the tiles.
            // Both paths call build_scan_row, as the host engine does.
            const bool global_path = panicked || config_.scan.range > 1;
            if (global_path) {
                ctx.instr(
                    static_cast<std::uint32_t>(24 * config_.scan.range));
                ctx.global_load(kAccessProps,
                                reinterpret_cast<std::uint64_t>(
                                    env_.occ_row(r) + c),
                                static_cast<std::uint32_t>(
                                    8 * config_.scan.range));
            } else {
                ctx.instr(16);  // eq. (1)/(2) arithmetic per candidate batch
            }
            // Per-agent scoring view: the agent's current waypoint field
            // while its chain is pending, the goal field otherwise (dump
            // threads read the goal field; their output is discarded).
            const grid::BlendedField& field = scoring_field(i, g);
            int n = 0;
            if (global_path) {
                if (agent) {
                    const auto tau = [&](int nr, int nc) {
                        return pher_->at(g, nr, nc);
                    };
                    n = build_scan_row(EnvEmpty(env_), tau, field, config_,
                                       panicked, g, r, c, out_values,
                                       out_cells);
                }
            } else {
                const auto tile_tau = [&](int nr, int nc) {
                    ctx.shared_load(8);
                    ctx.instr(40);  // two pow() + divide per candidate
                    const auto& tile = g == grid::Group::kTop
                                           ? sh.pher_top
                                           : sh.pher_bottom;
                    return tile.at(nr - ctx.block_idx.y * simt::kTileEdge,
                                   nc - ctx.block_idx.x * simt::kTileEdge);
                };
                n = build_scan_row(tile_empty, tile_tau, field, config_,
                                   panicked, g, r, c, out_values, out_cells);
            }
            (agent ? scan_.count(i) : dump_count) =
                static_cast<std::int8_t>(n);
            ctx.global_store(kAccessScan,
                             reinterpret_cast<std::uint64_t>(scan_.values(i)),
                             static_cast<std::uint32_t>(
                                 grid::kNeighborCount * sizeof(double)));
        },
        config_.exec);
    record("initial_calc", grid, kTileBlock, std::move(stats));
}

void GpuSimulator::stage_tour_construction() {
    // Paper section IV.c: 8 worker lanes per agent, 32 agents per block
    // (8 x 32 = 256 threads; each warp covers 4 agent rows).
    const auto n_agents = static_cast<int>(props_.agent_count());
    const simt::Dim2 block{grid::kNeighborCount, 32};
    const simt::Dim2 grid{(n_agents + block.y - 1) / block.y, 1};

    auto stats = simt::launch<TourShared>(
        timing_.spec(), grid, block, /*phases=*/2,
        [&](simt::ThreadCtx& ctx, TourShared& sh, int phase) {
            const int agent_row = ctx.thread_idx.y;
            const int lane_in_row = ctx.thread_idx.x;
            const std::int32_t i =
                ctx.block_idx.x * 32 + agent_row + 1;  // 1-based
            const bool valid =
                i <= n_agents && props_.active[static_cast<std::size_t>(i)];

            if (phase == 0) {
                // Each of the 8 lanes stages one scan slot (global ->
                // shared); row 0 of the global scan matrix backs invalid
                // rows so the load itself is branch-free.
                const std::int32_t src = valid ? i : 0;
                ctx.global_load(kAccessScan,
                                reinterpret_cast<std::uint64_t>(
                                    scan_.values(src) + lane_in_row),
                                sizeof(double));
                sh.values[static_cast<std::size_t>(agent_row) *
                              grid::kNeighborCount +
                          lane_in_row] = scan_.values(src)[lane_in_row];
                ctx.shared_store(sizeof(double));
                return;
            }

            // Phase 1: tree reduction over the row's 8 slots (denominator
            // of eq. 2 / rank base of eq. 1), then lane 0 draws and writes
            // the FUTURE cell.
            if (lane_in_row < 4) ctx.shared_load(2 * sizeof(double));
            ctx.instr(3);  // log2(8) reduction steps in lockstep
            ctx.branch(kSiteFrontEmpty,
                       valid && props_.front_blocked[static_cast<std::size_t>(
                                    valid ? i : 0)] == 0);
            if (lane_in_row != 0 || !valid) return;

            const bool proposed = decide_future(i, [&] {
                return CandidateRow{scan_.values(i), scan_.cells(i),
                                    scan_.count(i)};
            });
            if (proposed) {
                ctx.rng_draw(1);
                ctx.global_store(
                    kAccessFuture,
                    reinterpret_cast<std::uint64_t>(props_.future_row.data() +
                                                    i),
                    sizeof(std::int32_t) * 2);
            }
        },
        config_.exec);
    record("tour_construction", grid, block, std::move(stats));
}

void GpuSimulator::stage_movement(std::vector<Move>& out_moves) {
    const simt::Dim2 grid = tile_grid(env_);
    const TileViews views = tile_views(env_, nullptr);
    const bool aco = config_.model == Model::kAco;

    std::fill(winner_.begin(), winner_.end(), 0);

    auto stats = simt::launch<TileShared>(
        timing_.spec(), grid, kTileBlock, /*phases=*/2,
        [&](simt::ThreadCtx& ctx, TileShared& sh, int phase) {
            if (phase == 0) {
                stage_tiles(ctx, sh, views, /*remapped=*/true);
                return;
            }

            const int lr = ctx.thread_idx.y;
            const int lc = ctx.thread_idx.x;
            const int r = ctx.global_y();
            const int c = ctx.global_x();

            if (aco) {
                // Pheromone evaporation on the local tile (eq. 3): every
                // internal thread scales its own element — uniform work.
                ctx.shared_load(8);
                ctx.instr(4);
                ctx.shared_store(8);
            }

            ctx.shared_load(1);
            const bool empty = sh.occ.at(lr, lc) == 0;
            ctx.branch(kSiteEmptyCell, empty);
            if (!empty) return;

            // Gather: read the 8 neighbours' indices from the tile and
            // their FUTURE cells from global memory (counting with logical
            // operators — branch-free in the paper).
            std::int32_t proposers[grid::kNeighborCount];
            int n = 0;
            for (const auto off : grid::kNeighborOffsets) {
                ctx.shared_load(4);
                const int nr = r + off.dr;
                const int nc = c + off.dc;
                if (!env_.in_bounds(nr, nc)) continue;
                const std::int32_t j = sh.idx.at(lr + off.dr, lc + off.dc);
                // Row 0 backs empty neighbours: branch-free future read.
                ctx.global_load(kAccessFuture,
                                reinterpret_cast<std::uint64_t>(
                                    props_.future_row.data() + j),
                                sizeof(std::int32_t) * 2);
                ctx.instr(4);  // compare + predicated count
                if (j > 0 && props_.future_row[static_cast<std::size_t>(j)] == r &&
                    props_.future_col[static_cast<std::size_t>(j)] == c) {
                    proposers[n++] = j;
                }
            }
            if (!ctx.branch(kSiteHasProposer, n > 0)) return;

            rng::Stream stream(config_.seed, rng::Stage::kMovement,
                               static_cast<std::uint64_t>(env_.flat(r, c)),
                               step_);
            const int w = select_winner(stream, n);
            if (n > 1) ctx.rng_draw(1);
            winner_[env_.flat(r, c)] = proposers[w];
            ctx.global_store(
                kAccessWinner,
                reinterpret_cast<std::uint64_t>(winner_.data() +
                                                env_.flat(r, c)),
                sizeof(std::int32_t));
        },
        config_.exec);
    record("movement", grid, kTileBlock, std::move(stats));

    // Host-side collection in row-major order — the same order the CPU
    // engine emits, so downstream state evolves identically.
    for (int r = 0; r < env_.rows(); ++r) {
        for (int c = 0; c < env_.cols(); ++c) {
            const std::int32_t w = winner_[env_.flat(r, c)];
            if (w > 0) out_moves.push_back({w, r, c});
        }
    }
}

}  // namespace pedsim::core
