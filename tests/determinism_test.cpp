// Determinism suite: the parallel execution contract of
// docs/PARALLELISM.md. N-thread runs must be bit-identical to the serial
// seed engine — same StepResult sequence, same final position fingerprint
// — for every built-in scenario, on both engines, at engine-level and
// batch-level parallelism.
//
// PEDSIM_TEST_THREADS (comma-separated) replaces the default {1, 4, 8}
// thread counts (1 is always kept as the baseline); CI runs the suite at
// --threads 1 and --threads 4 via this hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <string>
#include <vector>

#include "backend/device.hpp"
#include "core/cpu_simulator.hpp"
#include "core/gpu_simulator.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "test_budget.hpp"

using namespace pedsim;

namespace {

std::vector<int> thread_counts() {
    std::vector<int> counts{1, 4, 8};
    if (const char* env = std::getenv("PEDSIM_TEST_THREADS")) {
        counts = {1};  // the env list replaces the default matrix
        const std::string s(env);
        std::size_t pos = 0;
        while (pos < s.size()) {
            const auto comma = s.find(',', pos);
            const auto tok =
                s.substr(pos, comma == std::string::npos ? s.npos
                                                         : comma - pos);
            if (!tok.empty()) {
                const int t = std::stoi(tok);
                bool present = false;
                for (const int c : counts) present |= (c == t);
                if (!present && t > 0) counts.push_back(t);
            }
            if (comma == std::string::npos) break;
            pos = comma + 1;
        }
    }
    return counts;
}

/// Step budget per scenario: enough to see moves, conflicts, crossings and
/// (for panic_crossing) the alarm, small enough to keep the suite quick.
/// Dynamic-geometry scenarios extend the budget past their last EXPANDED
/// event (doors plus every cycle/mover firing), so every wall toggle and
/// phase-field swap happens inside the compared window; waypoint
/// scenarios extend past their last chain advance (floor 300, pinned by
/// waypoint_test), so every advancement lands inside it too.
int budget_for(const scenario::Scenario& s) {
    return pedsim::testing::budget_past_events(s, /*base_small=*/80,
                                               /*base_large=*/25,
                                               /*margin=*/30,
                                               /*waypoint_floor=*/300);
}

struct Trace {
    std::vector<core::StepResult> steps;
    std::uint64_t fingerprint = 0;
};

Trace trace_run(backend::DeviceType engine, const core::SimConfig& base,
                int threads, int steps) {
    core::SimConfig cfg = base;
    cfg.exec.threads = threads;
    const auto sim = backend::make_engine(engine, cfg);
    Trace t;
    sim->run(steps, [&t](const core::StepResult& sr) {
        t.steps.push_back(sr);
        return true;
    });
    t.fingerprint = scenario::position_fingerprint(*sim);
    return t;
}

}  // namespace

TEST(Determinism, StepResultsIdenticalAcrossThreadCountsEveryScenario) {
    const auto counts = thread_counts();
    for (const auto& s : scenario::all()) {
        const int steps = budget_for(s);
        for (const auto engine :
             {backend::DeviceType::kCpu, backend::DeviceType::kSimt}) {
            const Trace base = trace_run(engine, s.sim, 1, steps);
            ASSERT_EQ(base.steps.size(), static_cast<std::size_t>(steps));
            for (const int threads : counts) {
                if (threads == 1) continue;
                const Trace t = trace_run(engine, s.sim, threads, steps);
                EXPECT_EQ(t.steps, base.steps)
                    << s.name << " / " << backend::device_name(engine)
                    << " @ " << threads << " threads";
                EXPECT_EQ(t.fingerprint, base.fingerprint)
                    << s.name << " / " << backend::device_name(engine)
                    << " @ " << threads << " threads";
            }
        }
    }
}

TEST(Determinism, GpuLaunchLogIdenticalAcrossThreadCounts) {
    // The host-parallel SIMT path must not perturb the modeled device.
    // Transaction counts (and therefore modeled seconds) are a function of
    // *absolute* buffer addresses, which differ between simulator
    // instances no matter the thread count — so across instances we
    // compare every address-insensitive counter; exact transaction parity
    // is covered by ParallelLaunch below with a pinned buffer.
    const auto s = scenario::get("bottleneck_doorway");
    auto run_log = [&](int threads) {
        core::SimConfig cfg = s.sim;
        cfg.exec.threads = threads;
        const auto sim = backend::make_simt(cfg);
        sim->run(30);
        return sim->launch_log().records();
    };
    const auto base = run_log(1);
    for (const int threads : thread_counts()) {
        if (threads == 1) continue;
        const auto log = run_log(threads);
        ASSERT_EQ(log.size(), base.size());
        for (std::size_t i = 0; i < base.size(); ++i) {
            const auto& a = base[i].stats;
            const auto& b = log[i].stats;
            EXPECT_EQ(log[i].kernel_name, base[i].kernel_name) << i;
            EXPECT_EQ(b.blocks, a.blocks) << i;
            EXPECT_EQ(b.warps, a.warps) << i;
            EXPECT_EQ(b.threads, a.threads) << i;
            EXPECT_EQ(b.warp_instructions, a.warp_instructions) << i;
            EXPECT_EQ(b.lane_instructions, a.lane_instructions) << i;
            EXPECT_EQ(b.branch_evals, a.branch_evals) << i;
            EXPECT_EQ(b.divergent_branches, a.divergent_branches) << i;
            EXPECT_EQ(b.global_load_bytes, a.global_load_bytes) << i;
            EXPECT_EQ(b.global_store_bytes, a.global_store_bytes) << i;
            EXPECT_EQ(b.shared_load_bytes, a.shared_load_bytes) << i;
            EXPECT_EQ(b.shared_store_bytes, a.shared_store_bytes) << i;
            EXPECT_EQ(b.atomics, a.atomics) << i;
            EXPECT_EQ(b.rng_draws, a.rng_draws) << i;
        }
    }
}

TEST(Determinism, ParallelLaunchMatchesSerialLaunchExactly) {
    // Same kernel, same pinned buffer, same device: the host-parallel
    // block schedule must reproduce the serial launch's KernelStats to
    // the bit — including coalescing transactions and modeled-relevant
    // counters — because per-slice stats merge in block order.
    static std::array<double, 4096> buffer{};
    const auto spec = simt::DeviceSpec::gtx560ti();
    const simt::Dim2 grid{8, 8};
    const simt::Dim2 block{16, 16};
    auto kernel = [](simt::ThreadCtx& ctx, simt::NoShared&, int phase) {
        const int gx = ctx.global_x();
        const int gy = ctx.global_y();
        const int i = (gy * 128 + gx) % 4096;
        if (phase == 0) {
            ctx.global_load(
                1,
                reinterpret_cast<std::uint64_t>(buffer.data() + i),
                sizeof(double));
            ctx.instr(static_cast<std::uint32_t>(1 + i % 7));
            return;
        }
        if (ctx.branch(2, (gx + gy) % 3 == 0)) {
            ctx.global_store(
                3,
                reinterpret_cast<std::uint64_t>(buffer.data() + (i / 2)),
                sizeof(double));
            ctx.rng_draw(1);
        }
    };
    const auto serial = simt::launch<simt::NoShared>(
        spec, grid, block, /*phases=*/2, kernel, exec::ExecPolicy{1});
    for (const int threads : thread_counts()) {
        if (threads == 1) continue;
        const auto par = simt::launch<simt::NoShared>(
            spec, grid, block, /*phases=*/2, kernel,
            exec::ExecPolicy{threads});
        EXPECT_EQ(par.blocks, serial.blocks) << threads;
        EXPECT_EQ(par.warps, serial.warps) << threads;
        EXPECT_EQ(par.warp_instructions, serial.warp_instructions)
            << threads;
        EXPECT_EQ(par.lane_instructions, serial.lane_instructions)
            << threads;
        EXPECT_EQ(par.branch_evals, serial.branch_evals) << threads;
        EXPECT_EQ(par.divergent_branches, serial.divergent_branches)
            << threads;
        EXPECT_EQ(par.global_transactions, serial.global_transactions)
            << threads;
        EXPECT_EQ(par.global_load_bytes, serial.global_load_bytes)
            << threads;
        EXPECT_EQ(par.global_store_bytes, serial.global_store_bytes)
            << threads;
        EXPECT_EQ(par.rng_draws, serial.rng_draws) << threads;
    }
}

TEST(Determinism, RunnerBatchIdenticalAcrossBatchAndEngineThreads) {
    const auto counts = thread_counts();
    scenario::RunnerOptions base_opts;
    base_opts.steps_override = 20;
    base_opts.threads = 1;
    const auto base =
        scenario::ScenarioRunner(base_opts).run(scenario::all());
    ASSERT_FALSE(base.empty());

    for (const int threads : counts) {
        if (threads == 1) continue;
        // Batch-level parallelism: jobs fan out, records keep batch order.
        scenario::RunnerOptions batch = base_opts;
        batch.threads = threads;
        const auto got = scenario::ScenarioRunner(batch).run(scenario::all());
        ASSERT_EQ(got.size(), base.size()) << threads;
        for (std::size_t i = 0; i < base.size(); ++i) {
            EXPECT_EQ(got[i].scenario, base[i].scenario) << i;
            EXPECT_EQ(got[i].engine, base[i].engine) << i;
            EXPECT_EQ(got[i].seed, base[i].seed) << i;
            EXPECT_EQ(got[i].fingerprint, base[i].fingerprint)
                << got[i].scenario << " @ " << threads << " batch threads";
            EXPECT_EQ(got[i].result.total_moves, base[i].result.total_moves);
            EXPECT_EQ(got[i].result.crossed_total(),
                      base[i].result.crossed_total());
        }

        // Engine-level parallelism through the runner override.
        scenario::RunnerOptions engine = base_opts;
        engine.engine_threads = threads;
        const auto eng = scenario::ScenarioRunner(engine).run(scenario::all());
        ASSERT_EQ(eng.size(), base.size()) << threads;
        for (std::size_t i = 0; i < base.size(); ++i) {
            EXPECT_EQ(eng[i].fingerprint, base[i].fingerprint)
                << eng[i].scenario << " @ " << threads << " engine threads";
        }
    }
}
