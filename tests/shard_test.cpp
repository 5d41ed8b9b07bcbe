// Row-band suite: the cpu engine with an explicit band count (the
// `sharded-cpu:N` selection) must be bit-identical to the plain cpu
// engine — same StepResult sequence, same final position fingerprint — at
// ANY band count and thread count, including the adversarial seam cases:
// agents crossing band boundaries in both directions within one step,
// conflict resolution astride a seam, and door/mover rects spanning
// seams.
//
// PEDSIM_TEST_BANDS (comma-separated) replaces the default {1, 2, 3, 8}
// band counts; CI runs the suite at bands 2 and 4 via this hook.
// PEDSIM_TEST_THREADS narrows the thread matrix the same way it does for
// the determinism suite.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/cli.hpp"
#include "backend/device.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "test_budget.hpp"

using namespace pedsim;

namespace {

std::vector<int> csv_env_counts(const char* name, std::vector<int> defaults) {
    const char* env = std::getenv(name);
    if (env == nullptr) return defaults;
    std::vector<int> counts;
    const std::string s(env);
    std::size_t pos = 0;
    while (pos < s.size()) {
        const auto comma = s.find(',', pos);
        const auto tok = s.substr(
            pos, comma == std::string::npos ? s.npos : comma - pos);
        if (!tok.empty()) {
            const int v = std::stoi(tok);
            bool present = false;
            for (const int c : counts) present |= (c == v);
            if (!present && v > 0) counts.push_back(v);
        }
        if (comma == std::string::npos) break;
        pos = comma + 1;
    }
    return counts.empty() ? defaults : counts;
}

std::vector<int> band_counts() {
    return csv_env_counts("PEDSIM_TEST_BANDS", {1, 2, 3, 8});
}

std::vector<int> thread_counts() {
    return csv_env_counts("PEDSIM_TEST_THREADS", {1, 4});
}

struct Trace {
    std::vector<core::StepResult> steps;
    std::uint64_t fingerprint = 0;
};

Trace trace_cpu(const core::SimConfig& base, int steps) {
    const auto sim = backend::make_cpu(base);
    Trace t;
    sim->run(steps, [&t](const core::StepResult& sr) {
        t.steps.push_back(sr);
        return true;
    });
    t.fingerprint = scenario::position_fingerprint(*sim);
    return t;
}

Trace trace_sharded(const core::SimConfig& base, int bands, int threads,
                    int steps) {
    core::SimConfig cfg = base;
    cfg.exec.threads = threads;
    const auto sim =
        backend::make_engine({backend::DeviceType::kCpu, bands}, cfg);
    Trace t;
    sim->run(steps, [&t](const core::StepResult& sr) {
        t.steps.push_back(sr);
        return true;
    });
    t.fingerprint = scenario::position_fingerprint(*sim);
    return t;
}

/// Assert bit-parity of the banded engine against a CPU baseline over
/// the full band x thread matrix.
void expect_parity(const std::string& label, const core::SimConfig& base,
                   int steps) {
    const Trace cpu = trace_cpu(base, steps);
    ASSERT_EQ(cpu.steps.size(), static_cast<std::size_t>(steps)) << label;
    for (const int bands : band_counts()) {
        for (const int threads : thread_counts()) {
            const Trace t = trace_sharded(base, bands, threads, steps);
            EXPECT_EQ(t.steps, cpu.steps)
                << label << " @ " << bands << " bands, " << threads
                << " threads";
            EXPECT_EQ(t.fingerprint, cpu.fingerprint)
                << label << " @ " << bands << " bands, " << threads
                << " threads";
        }
    }
}

/// Dense bidirectional corridor on a small grid: both groups press
/// through every interior row each step, so every band seam sees agents
/// crossing in both directions simultaneously.
core::SimConfig crossing_config(std::size_t agents = 500,
                                std::uint64_t seed = 71) {
    core::SimConfig cfg;
    cfg.grid.rows = cfg.grid.cols = 48;
    cfg.agents_per_side = agents;
    cfg.model = core::Model::kLem;
    cfg.seed = seed;
    return cfg;
}

}  // namespace

// --- Backend seam basics ----------------------------------------------------

TEST(ShardDevice, ParseNamesRoundTrip) {
    const auto sel = backend::parse_device("sharded-cpu:6");
    EXPECT_EQ(sel.type, backend::DeviceType::kCpu);
    EXPECT_EQ(sel.bands, 6);
    EXPECT_EQ(backend::engine_label(sel.type, sel.bands), "sharded-cpu:6");
    backend::EngineSelect out;
    EXPECT_FALSE(backend::try_parse_device("cpu:4", out));
    EXPECT_FALSE(backend::try_parse_device("gpu:2", out));
    EXPECT_FALSE(backend::try_parse_device("warp9", out));
    EXPECT_TRUE(backend::try_parse_device("sharded", out));
    EXPECT_EQ(out, backend::EngineSelect(backend::DeviceType::kCpu));
    EXPECT_EQ(backend::engine_label(out.type, out.bands), "cpu");
}

TEST(ShardDevice, ExplicitBandCountAboveRowsIsRejected) {
    // An explicit request the grid cannot honour (every band must own at
    // least one row) is a configuration error named at creation time, not
    // something to clamp away silently.
    const auto cfg = crossing_config(60);
    try {
        backend::make_engine({backend::DeviceType::kCpu, cfg.grid.rows + 1},
                             cfg);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("bands (49) exceeds grid rows"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_THROW(
        backend::make_engine({backend::DeviceType::kCpu, -1}, cfg),
        std::invalid_argument);
    // The exact row count is still fine: one band per row.
    const auto sim =
        backend::make_engine({backend::DeviceType::kCpu, cfg.grid.rows}, cfg);
    EXPECT_NO_THROW(sim->step());
}

TEST(ShardDevice, RemovedEngineFlagsAreNamedErrors) {
    // io::ArgParser ignores unknown flags, so a removed spelling must fail
    // by name instead of silently running the default engines.
    const std::vector<backend::EngineSelect> fallback = {
        backend::DeviceType::kCpu};
    for (const char* flag : {"--engines=gpu", "--engine=gpu", "--bands=4"}) {
        const char* argv[] = {"prog", flag};
        const io::ArgParser args(2, argv);
        try {
            backend::engines_from_args(args, fallback);
            FAIL() << flag << " accepted";
        } catch (const std::invalid_argument& e) {
            const std::string name(flag, std::string(flag).find('='));
            EXPECT_EQ(std::string(e.what()).rfind(name + " was removed", 0),
                      0u)
                << e.what();
        }
    }
    const char* argv[] = {"prog", "--backend=sharded:3,gpu"};
    const io::ArgParser args(2, argv);
    const std::vector<backend::EngineSelect> expected = {
        {backend::DeviceType::kCpu, 3}, {backend::DeviceType::kSimt}};
    EXPECT_EQ(backend::engines_from_args(args, fallback), expected);
}

// --- Adversarial seam cases -------------------------------------------------

TEST(ShardSeams, BothDirectionsCrossSeamsEveryStep) {
    // Dense bidirectional flow: every seam row has top-group agents
    // stepping down past it and bottom-group agents stepping up through
    // it within the same step.
    expect_parity("bidirectional crossing", crossing_config(), 60);
}

TEST(ShardSeams, ConflictResolutionAstrideSeam) {
    // One band per row makes EVERY row boundary a seam; the dense crowd
    // contends for the same empty cells from both sides of each one. The
    // winner draw must come from the same global (cell, step) RNG stream
    // regardless of which band runs the cell.
    const auto cfg = crossing_config(550, 73);
    const Trace cpu = trace_cpu(cfg, 40);
    std::uint64_t conflicts = 0;
    for (const auto& sr : cpu.steps) {
        conflicts += static_cast<std::uint64_t>(sr.conflicts);
    }
    ASSERT_GT(conflicts, 0u) << "case must actually exercise contention";
    for (const int bands : {2, 3, 48}) {
        const Trace t = trace_sharded(cfg, bands, 4, 40);
        EXPECT_EQ(t.steps, cpu.steps) << bands << " bands";
        EXPECT_EQ(t.fingerprint, cpu.fingerprint) << bands << " bands";
    }
}

TEST(ShardSeams, DoorRectSpanningSeamTogglesBothSides) {
    // A wall column straddling the 2-band seam (rows 20..28 on a 48-row
    // grid) opens mid-run and closes again later: the door rect spans the
    // seam, so both bands must see the open/close before their next
    // stage reads.
    auto cfg = crossing_config(300, 77);
    scenario::Scenario s;
    s.sim = cfg;
    scenario::add_wall_rect(s.sim.layout, s.sim.grid, 20, 0, 28,
                            s.sim.grid.cols - 1);
    s.sim.doors.push_back(
        {10, 20, 10, 28, 30, core::DoorAction::kOpen});
    s.sim.doors.push_back(
        {35, 20, 10, 28, 30, core::DoorAction::kClose});
    s.sim.doors.push_back(
        {50, 20, 10, 28, 30, core::DoorAction::kOpen});
    expect_parity("door spanning seam", s.sim, 80);
}

TEST(ShardSeams, MoverRectCrawlsAcrossSeams) {
    // A moving wall translating one row per firing walks straight through
    // every seam on the grid: each firing is an open at the old rows plus
    // a close at the new ones, which the bands on both sides of a seam
    // must see before the next step's stages run.
    auto cfg = crossing_config(250, 79);
    core::MoverEvent mover;
    mover.start = 5;
    mover.interval = 2;
    mover.drow = 1;
    mover.dcol = 0;
    mover.row0 = 8;
    mover.col0 = 12;
    mover.row1 = 9;
    mover.col1 = 34;
    mover.count = 28;  // rows 8..9 -> 36..37, through every 8-band seam
    cfg.movers.push_back(mover);
    expect_parity("mover crossing seams", cfg, 80);
}

TEST(ShardSeams, ScanRangeWidensTheHaloCorrectly)
{
    // Look-ahead rays reach scan.range rows past a candidate, across band
    // seams: parity at range 3 exercises reads several rows out of the
    // band.
    auto cfg = crossing_config(400, 83);
    cfg.scan.range = 3;
    cfg.scan.congestion_weight = 0.8;
    expect_parity("scan range 3", cfg, 50);
}

// --- Registry-wide band parity ----------------------------------------------

TEST(ShardParity, RegistryScenariosBitIdenticalAtAllBandCounts) {
    for (const auto& s : scenario::all()) {
        const int steps = pedsim::testing::budget_past_events(
            s, /*base_small=*/60, /*base_large=*/20, /*margin=*/30,
            /*waypoint_floor=*/300);
        expect_parity(s.name, s.sim, steps);
    }
}
