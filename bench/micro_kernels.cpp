// Micro-benchmarks (google-benchmark) of the hot building blocks: Philox
// draws and the SIMD row primitives behind the scan-row/candidate hot path
// (field gathers and the congestion accumulator — each against its scalar
// reference, so the per-primitive speedup of the active backend is one
// run away). Whole steps are timed on fixed workloads by perfbench
// (`core.step_ms_p50.*`, perfbench/README.md), not here.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "grid/environment.hpp"
#include "rng/distributions.hpp"
#include "rng/stream.hpp"
#include "simd/row_ops.hpp"
#include "simd/simd.hpp"

using namespace pedsim;

namespace {

void BM_PhiloxU32(benchmark::State& state) {
    rng::Stream s(1, rng::Stage::kGeneric, 0, 0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(s.next_u32());
    }
}
BENCHMARK(BM_PhiloxU32);

void BM_StreamConstructionPlusDraw(benchmark::State& state) {
    std::uint64_t i = 0;
    for (auto _ : state) {
        rng::Stream s(1, rng::Stage::kMovement, i++, 7);
        benchmark::DoNotOptimize(s.next_u32());
    }
}
BENCHMARK(BM_StreamConstructionPlusDraw);

void BM_NormalDraw(benchmark::State& state) {
    rng::Stream s(1, rng::Stage::kGeneric, 0, 0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rng::normal(s));
    }
}
BENCHMARK(BM_NormalDraw);

// --- SIMD primitive benches ---------------------------------------------
//
// One padded 480-column row (the paper_corridor width) at ~20% agent
// density — the corridor_small/panic_crossing regime, denser than
// paper_corridor so the congestion count is measured at its least
// favourable occupancy. The `...Scalar` twins run the always-compiled
// reference implementation on identical input.

constexpr int kBenchCols = 480;

std::vector<std::uint8_t> bench_row() {
    const int stride =
        ((kBenchCols + 2 + simd::kRowAlign - 1) / simd::kRowAlign) *
        simd::kRowAlign;
    std::vector<std::uint8_t> row(static_cast<std::size_t>(stride),
                                  grid::kWallOcc);
    rng::Stream s(7, rng::Stage::kGeneric, 0, 0);
    for (int c = 0; c < kBenchCols; ++c) {
        const auto draw = s.next_below(10);
        row[static_cast<std::size_t>(c) + 1] =
            draw < 8 ? std::uint8_t{0}
                     : static_cast<std::uint8_t>(1 + (draw & 1));
    }
    return row;
}

void BM_FieldGather(benchmark::State& state) {
    // 8 candidate cells per agent against a geodesic-field-sized table —
    // the build_candidates_lem_geo access pattern.
    std::vector<double> field(static_cast<std::size_t>(kBenchCols) *
                              kBenchCols);
    rng::Stream s(11, rng::Stage::kGeneric, 1, 0);
    for (auto& v : field) v = s.next_double() * 1e3;
    std::int32_t idx[8];
    for (auto& i : idx) {
        i = static_cast<std::int32_t>(
            s.next_below(static_cast<std::uint32_t>(field.size())));
    }
    double out[8];
    for (auto _ : state) {
        simd::gather_f64(field.data(), idx, 8, out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_FieldGather);

void BM_FieldGatherScalar(benchmark::State& state) {
    std::vector<double> field(static_cast<std::size_t>(kBenchCols) *
                              kBenchCols);
    rng::Stream s(11, rng::Stage::kGeneric, 1, 0);
    for (auto& v : field) v = s.next_double() * 1e3;
    std::int32_t idx[8];
    for (auto& i : idx) {
        i = static_cast<std::int32_t>(
            s.next_below(static_cast<std::uint32_t>(field.size())));
    }
    double out[8];
    for (auto _ : state) {
        simd::scalar::gather_f64(field.data(), idx, 8, out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_FieldGatherScalar);

void BM_CongestionAccumulate(benchmark::State& state) {
    // The horizontal scan-ray: count occupied cells over a range-length
    // span, the ray_congestion fast path.
    const auto row = bench_row();
    const int range = 24;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            simd::count_occupied(row.data() + 1, range));
    }
}
BENCHMARK(BM_CongestionAccumulate);

void BM_CongestionAccumulateScalar(benchmark::State& state) {
    const auto row = bench_row();
    const int range = 24;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            simd::scalar::count_occupied(row.data() + 1, range));
    }
}
BENCHMARK(BM_CongestionAccumulateScalar);

}  // namespace
