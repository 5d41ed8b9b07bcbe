// Golden-fingerprint regression corpus: every built-in scenario, run for a
// deterministic per-scenario step budget, must reproduce the position
// fingerprint checked in at tests/golden/fingerprints.csv — one row per
// scenario, because the engines are bit-identical by contract. Both
// engines (cpu and gpu-simt) run at {1, 4} host threads against that
// row, so any refactor that silently changes a trajectory — a reordered
// RNG draw, a perturbed candidate sort, a drifted event expansion — fails
// here with the exact (scenario, engine, threads) coordinates.
//
// Regenerate the corpus after an INTENDED behaviour change with:
//
//   ./build/golden_test --update-golden
//
// which writes the cpu 1-thread fingerprints, refuses (exit 1, nothing
// written) when any engine or thread count disagrees with them, and
// commit the rewritten CSV alongside the change that justifies it.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "backend/device.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "test_budget.hpp"

// Defined by CMake: the in-tree corpus path, so the test reads (and
// --update-golden rewrites) the checked-in file from any build directory.
#ifndef PEDSIM_GOLDEN_FILE
#error "PEDSIM_GOLDEN_FILE must point at tests/golden/fingerprints.csv"
#endif

using namespace pedsim;

namespace {

constexpr int kGoldenThreads[] = {1, 4};

/// Engine axis of the matrix: the two paper engines. The first entry at
/// the first thread count is the corpus writer.
constexpr backend::DeviceType kGoldenEngines[] = {
    backend::DeviceType::kCpu,
    backend::DeviceType::kSimt,
};

/// One corpus row: a scenario's step budget and final fingerprint.
struct GoldenRow {
    std::string scenario;
    int steps = 0;
    std::uint64_t fingerprint = 0;
};

/// One live run of the matrix.
struct LiveRun {
    GoldenRow row;
    std::string engine;
    int threads = 0;

    [[nodiscard]] std::string where() const {
        return row.scenario + " / " + engine + " @ " +
               std::to_string(threads) + " threads";
    }
};

/// Deterministic per-scenario budget: past the last EXPANDED dynamic
/// event (+20 settling steps), past the last waypoint advance for
/// chained scenarios (floor 280 — waypoint_test pins that registry
/// chains complete within it), capped small for the 480x480 baseline.
/// Changing these constants invalidates the corpus — regenerate it.
int golden_steps(const scenario::Scenario& s) {
    return pedsim::testing::budget_past_events(s, /*base_small=*/60,
                                               /*base_large=*/25,
                                               /*margin=*/20,
                                               /*waypoint_floor=*/280);
}

/// Every scenario x engine x thread count, scenario-major; each
/// scenario's first run is the cpu 1-thread writer.
std::vector<LiveRun> run_matrix() {
    std::vector<LiveRun> runs;
    for (const auto& s : scenario::all()) {
        const int steps = golden_steps(s);
        for (const auto engine : kGoldenEngines) {
            for (const int threads : kGoldenThreads) {
                const std::string label = backend::device_name(engine);
                // Like ScenarioRunner::run_one, attach the run's
                // coordinates to anything thrown — an anonymous abort of
                // a 76-run sweep is undiagnosable.
                try {
                    core::SimConfig cfg = s.sim;
                    cfg.exec.threads = threads;
                    const auto sim = backend::make_engine(engine, cfg);
                    sim->run(steps);
                    runs.push_back(
                        {{s.name, steps, scenario::position_fingerprint(*sim)},
                         label,
                         threads});
                } catch (const std::exception& e) {
                    throw std::runtime_error(
                        "golden run '" + s.name + "' (" + label + ", " +
                        std::to_string(threads) + " threads): " + e.what());
                }
            }
        }
    }
    return runs;
}

std::string hex(std::uint64_t v) {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

std::map<std::string, GoldenRow> load_corpus(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("cannot read golden corpus: " + path);
    }
    std::map<std::string, GoldenRow> rows;
    std::string line;
    bool header = true;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;
        if (header) {  // column names, skipped by content
            header = false;
            continue;
        }
        std::istringstream is(line);
        GoldenRow row;
        std::string steps, fp;
        if (!std::getline(is, row.scenario, ',') ||
            !std::getline(is, steps, ',') || !std::getline(is, fp)) {
            throw std::runtime_error("golden corpus: malformed line: " +
                                     line);
        }
        row.steps = std::stoi(steps);
        row.fingerprint = std::stoull(fp, nullptr, 16);
        if (!rows.emplace(row.scenario, row).second) {
            throw std::runtime_error("golden corpus: duplicate scenario " +
                                     row.scenario);
        }
    }
    return rows;
}

void write_corpus(const std::string& path,
                  const std::vector<GoldenRow>& rows) {
    std::ofstream out(path);
    if (!out) {
        throw std::runtime_error("cannot write golden corpus: " + path);
    }
    out << "scenario,steps,fingerprint\n";
    for (const auto& r : rows) {
        out << r.scenario << "," << r.steps << "," << hex(r.fingerprint)
            << "\n";
    }
}

/// --update-golden: the cpu 1-thread row of every scenario, written only
/// when every other run of the matrix reproduces it.
int update_corpus() {
    std::vector<GoldenRow> rows;
    int disagreements = 0;
    for (const auto& run : run_matrix()) {
        if (rows.empty() || rows.back().scenario != run.row.scenario) {
            rows.push_back(run.row);
            continue;
        }
        if (run.row.fingerprint != rows.back().fingerprint) {
            std::fprintf(stderr, "%s: fingerprint %s, cpu @ 1 thread %s\n",
                         run.where().c_str(), hex(run.row.fingerprint).c_str(),
                         hex(rows.back().fingerprint).c_str());
            ++disagreements;
        }
    }
    if (disagreements > 0) {
        std::fprintf(stderr,
                     "%d runs disagree with the cpu 1-thread run; corpus "
                     "not written\n",
                     disagreements);
        return 1;
    }
    write_corpus(PEDSIM_GOLDEN_FILE, rows);
    std::printf("wrote %zu golden rows to %s\n", rows.size(),
                PEDSIM_GOLDEN_FILE);
    return 0;
}

}  // namespace

TEST(Golden, CorpusHasOneRowPerScenario) {
    const auto golden = load_corpus(PEDSIM_GOLDEN_FILE);
    for (const auto& name : scenario::names()) {
        EXPECT_EQ(golden.count(name), 1u)
            << name << " has no golden row — regenerate with ./golden_test "
            << "--update-golden";
    }
    EXPECT_EQ(golden.size(), scenario::names().size())
        << "corpus rows for scenarios no longer in the registry";
}

TEST(Golden, FingerprintsMatchTheCheckedInCorpus) {
    const auto golden = load_corpus(PEDSIM_GOLDEN_FILE);
    ASSERT_FALSE(golden.empty());
    for (const auto& run : run_matrix()) {
        const auto it = golden.find(run.row.scenario);
        if (it == golden.end()) continue;  // CorpusHasOneRowPerScenario
        EXPECT_EQ(run.row.steps, it->second.steps)
            << run.where() << ": step-budget formula drifted";
        EXPECT_EQ(run.row.fingerprint, it->second.fingerprint)
            << run.where() << ": trajectory drifted — if intended, "
            << "regenerate with ./golden_test --update-golden and commit "
            << "the CSV";
    }
}

int main(int argc, char** argv) {
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--update-golden") return update_corpus();
    }
    return RUN_ALL_TESTS();
}
