#include "backend/sharded_simulator.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace pedsim::backend {

using core::Move;

ShardedCpuSimulator::ShardedCpuSimulator(const core::SimConfig& config,
                                         int bands)
    : ShardedCpuSimulator(config, bands, nullptr) {}

ShardedCpuSimulator::ShardedCpuSimulator(
    const core::SimConfig& config, int bands,
    std::shared_ptr<const core::DoorSchedule> warm)
    : Simulator(config, std::move(warm)) {
    // An explicit band count the grid cannot honour is a configuration
    // error, not something to clamp away: every band must own >= 1 row.
    if (bands > config_.grid.rows) {
        throw std::invalid_argument(
            "bands (" + std::to_string(bands) + ") exceeds grid rows (" +
            std::to_string(config_.grid.rows) + ")");
    }
    // Movement's reads reach one row out of the band (the emptiness of a
    // proposed cell, the index of a proposer beside it); the window stays
    // max(1, scan.range) rows wide, the halo_width() contract.
    halo_ = std::max(1, config_.scan.range);
    const int rows = env_.rows();
    const int stride = env_.stride();
    int count = bands > 0 ? bands : config_.exec.effective_threads();
    count = std::clamp(count, 1, rows);
    const auto slices = exec::partition(0, rows, count);
    bands_.reserve(slices.size());
    for (const auto& sl : slices) {
        Band band;
        band.begin = static_cast<int>(sl.begin);
        band.end = static_cast<int>(sl.end);
        band.win_begin = band.begin - halo_;
        band.win_end = band.end + halo_;
        const auto win_rows =
            static_cast<std::size_t>(band.win_end - band.win_begin);
        // Sentinel-fill the whole window: rows outside the grid keep this
        // image forever — they ARE the padded kWallOcc halo rows, serving
        // as the outermost exchange buffers — and grid rows are
        // overwritten row-for-row by the first exchange.
        band.occ.assign(win_rows * static_cast<std::size_t>(stride),
                        grid::kWallOcc);
        band.idx.assign(win_rows * static_cast<std::size_t>(stride), 0);
        // Global (r, c) addressing into the window: logical (0, 0) lives
        // at storage row -win_begin, byte column 1 (past the sentinel).
        const std::ptrdiff_t origin =
            static_cast<std::ptrdiff_t>(-band.win_begin) * stride + 1;
        band.empty = core::EnvEmpty(band.occ.data(), origin, stride);
        band.index = core::EnvIndex(band.idx.data(), origin, stride);
        bands_.push_back(std::move(band));
    }
    // Everything is dirty until the first exchange (which also picks up
    // any step-0 door events fired before the first stage runs).
    dirty_.assign(static_cast<std::size_t>(rows), 1);
    allocate_proposal_planes();
}

void ShardedCpuSimulator::refresh_row(Band& band, int gr) {
    const auto stride = static_cast<std::size_t>(env_.stride());
    const auto dst = static_cast<std::size_t>(gr - band.win_begin) * stride;
    std::memcpy(band.occ.data() + dst, env_.occ_row_padded(gr), stride);
    std::memcpy(band.idx.data() + dst,
                env_.index_raw().data() + env_.padded(gr, -1),
                stride * sizeof(std::int32_t));
}

void ShardedCpuSimulator::exchange_halos() {
    // Host thread, ascending band order, full padded-row images: the seam
    // rows land in the owning band's interior and the neighbours' halos
    // from the same canonical bytes, so there is no resolution ambiguity
    // to order — the contract docs/PARALLELISM.md states.
    std::uint64_t refreshed = 0;
    for (auto& band : bands_) {
        const int lo = std::max(band.win_begin, 0);
        const int hi = std::min(band.win_end, env_.rows());
        for (int gr = lo; gr < hi; ++gr) {
            if (dirty_[static_cast<std::size_t>(gr)] != 0) {
                refresh_row(band, gr);
                ++refreshed;
            }
        }
    }
    std::fill(dirty_.begin(), dirty_.end(), 0);
    rows_exchanged_ += refreshed;
    obs::MetricsRegistry::add("shard.halo_rows_exchanged", refreshed);
}

void ShardedCpuSimulator::on_cells_changed(int row0, int row1) {
    const int lo = std::max(row0, 0);
    const int hi = std::min(row1, env_.rows() - 1);
    for (int r = lo; r <= hi; ++r) dirty_[static_cast<std::size_t>(r)] = 1;
}

void ShardedCpuSimulator::stage_reset() {
    // The exchange runs here — after the step boundary's door events and
    // before movement reads a band plane.
    exchange_halos();
    props_.reset_futures();
}

void ShardedCpuSimulator::stage_tour_construction() {
    // The fused initial calc + tour construction, over as many contiguous
    // agent-table ranges as bands. decide_host reads only state frozen
    // for the stage (props, pheromone, the read-only canonical
    // environment) and writes only its agent's row, so ranges are
    // disjoint.
    const auto slices =
        exec::partition(1, static_cast<std::int64_t>(props_.rows()),
                        static_cast<int>(bands_.size()));
    const core::EnvEmpty empty(env_);
    const auto body = [&](const exec::Slice& sl) {
        for (std::int64_t i = sl.begin; i < sl.end; ++i) {
            if (props_.active[static_cast<std::size_t>(i)] == 0) continue;
            decide_host(static_cast<std::int32_t>(i), empty);
        }
    };
    const int par = config_.exec.effective_threads();
    if (par <= 1 || slices.size() <= 1) {
        for (const auto& sl : slices) body(sl);
        return;
    }
    exec::ThreadPool::shared().run(
        static_cast<int>(slices.size()), par,
        [&](int s) { body(slices[static_cast<std::size_t>(s)]); });
}

void ShardedCpuSimulator::movement_band(Band& band) {
    // The shared proposal walk over the band's own rows, probing through
    // its replica window: proposer gathers reach one row out, into halo
    // rows this step's exchange refreshed, so cross-seam proposers gather
    // exactly like interior ones. Each cell is owned by exactly one band,
    // so no move is emitted twice, and its stream is keyed on the GLOBAL
    // cell — the draw the monolithic engine makes, whatever band owns it.
    band.moves.clear();
    resolve_proposals(band.empty, band.index, band.begin, band.end,
                      band.moves);
}

void ShardedCpuSimulator::stage_movement(std::vector<Move>& out_moves) {
    const int par = config_.exec.effective_threads();
    if (par <= 1) {
        for (auto& band : bands_) movement_band(band);
    } else {
        exec::ThreadPool::shared().run(
            static_cast<int>(bands_.size()), par, [this](int b) {
                movement_band(bands_[static_cast<std::size_t>(b)]);
            });
    }
    // Merge in ascending band order — the serial row-major move order —
    // and mark the rows finish_step is about to mutate (each move clears
    // its source cell and fills its target) for the next exchange.
    for (const auto& band : bands_) {
        for (const auto& m : band.moves) {
            dirty_[static_cast<std::size_t>(
                props_.row[static_cast<std::size_t>(m.agent)])] = 1;
            dirty_[static_cast<std::size_t>(m.to_row)] = 1;
            out_moves.push_back(m);
        }
    }
}

}  // namespace pedsim::backend
