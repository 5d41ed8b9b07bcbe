// Golden STEP-SEQUENCE corpus: where golden_test pins only each run's
// final position fingerprint, this suite pins the full per-step
// StepResult stream — proposals, moves, conflicts, per-group crossings
// and waypoint advances for EVERY step — for a small scenario subset on
// both engines (cpu and gpu-simt) at {1, 4} host threads. A regression
// that cancels out by the end of a run (two compensating RNG changes, a
// transient stall, a waypoint advanced one step late) is invisible to a
// final fingerprint but fails here with the exact (scenario, engine,
// threads, step, field) coordinates.
//
// The subset spans the workload axes: a static corridor, a timed-door
// scenario, a periodic-gate scenario, and the 3-waypoint chain scenario
// (whose stream is also the witness that agents route through all
// waypoints in order — crossings cannot precede chain completion).
//
// Regenerate after an INTENDED behaviour change with:
//
//   ./build/golden_sequence_test --update-golden
//
// and commit the rewritten tests/golden/sequences/*.csv alongside the
// change that justifies it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "backend/device.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "test_budget.hpp"

// Defined by CMake: the in-tree corpus directory, so the gate reads (and
// --update-golden rewrites) the checked-in files from any build dir.
#ifndef PEDSIM_SEQUENCE_DIR
#error "PEDSIM_SEQUENCE_DIR must point at tests/golden/sequences"
#endif

using namespace pedsim;

namespace {

/// The pinned subset (<= 4 scenarios x both engines, per the corpus
/// contract): one per workload axis. Adding a scenario here means
/// regenerating the corpus.
constexpr const char* kSequenceScenarios[] = {
    "corridor_small",  // static geometry, band placement
    "timed_exit",      // timed door, region spawn
    "pulsing_gate",    // periodic gate (cycle expansion)
    "relay_race",      // 3-waypoint chains on both groups
};

constexpr int kSequenceThreads[] = {1, 4};

/// Leaner than the fingerprint corpus (streams are one row per step) but
/// still past every expanded event and, for relay_race, past the last
/// waypoint advance (floor 200; waypoint_test pins completion).
int sequence_steps(const scenario::Scenario& s) {
    return pedsim::testing::budget_past_events(s, /*base_small=*/60,
                                               /*base_large=*/25,
                                               /*margin=*/20,
                                               /*waypoint_floor=*/200);
}

std::string sequence_path(const std::string& scenario_name) {
    return std::string(PEDSIM_SEQUENCE_DIR) + "/" + scenario_name + ".csv";
}

std::vector<core::StepResult> run_stream(const scenario::Scenario& s,
                                         backend::DeviceType engine,
                                         int threads, int steps) {
    core::SimConfig cfg = s.sim;
    cfg.exec.threads = threads;
    const auto sim = backend::make_engine(engine, cfg);
    std::vector<core::StepResult> stream;
    stream.reserve(static_cast<std::size_t>(steps));
    sim->run(steps, [&stream](const core::StepResult& sr) {
        stream.push_back(sr);
        return true;
    });
    return stream;
}

/// The engines (cpu and gpu-simt at any thread count) are
/// bit-identical by contract, so ONE stream per scenario is the golden
/// artifact; every (engine, threads) combination must reproduce it
/// exactly. The serial CPU run is the canonical writer.
std::vector<core::StepResult> compute_stream(const scenario::Scenario& s) {
    return run_stream(s, backend::DeviceType::kCpu, 1, sequence_steps(s));
}

std::vector<core::StepResult> load_stream(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("cannot read sequence corpus: " + path +
                                 " — regenerate with ./golden_sequence_test "
                                 "--update-golden");
    }
    std::vector<core::StepResult> stream;
    std::string line;
    bool header = true;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;
        if (header) {
            header = false;
            continue;
        }
        std::istringstream is(line);
        core::StepResult sr;
        char comma;
        if (!(is >> sr.step >> comma >> sr.proposals >> comma >> sr.moves >>
              comma >> sr.conflicts >> comma >> sr.crossed_top >> comma >>
              sr.crossed_bottom >> comma >> sr.waypoint_advances)) {
            throw std::runtime_error("sequence corpus: malformed line: " +
                                     line);
        }
        stream.push_back(sr);
    }
    return stream;
}

void write_stream(const std::string& path,
                  const std::vector<core::StepResult>& stream) {
    std::ofstream out(path);
    if (!out) {
        throw std::runtime_error("cannot write sequence corpus: " + path);
    }
    out << "step,proposals,moves,conflicts,crossed_top,crossed_bottom,"
           "waypoint_advances\n";
    for (const auto& sr : stream) {
        out << sr.step << "," << sr.proposals << "," << sr.moves << ","
            << sr.conflicts << "," << sr.crossed_top << ","
            << sr.crossed_bottom << "," << sr.waypoint_advances << "\n";
    }
}

/// First index where the streams differ, or -1 when equal — failures name
/// the exact step instead of dumping two full vectors.
int first_divergence(const std::vector<core::StepResult>& a,
                     const std::vector<core::StepResult>& b) {
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (!(a[i] == b[i])) return static_cast<int>(i);
    }
    return a.size() == b.size() ? -1 : static_cast<int>(n);
}

}  // namespace

TEST(GoldenSequence, EveryEngineAndThreadCountReproducesTheCheckedInStream) {
    for (const char* name : kSequenceScenarios) {
        const auto s = scenario::get(name);
        const auto golden = load_stream(sequence_path(name));
        ASSERT_EQ(golden.size(),
                  static_cast<std::size_t>(sequence_steps(s)))
            << name << ": step-budget formula drifted — regenerate with "
            << "./golden_sequence_test --update-golden";
        for (const auto engine :
             {backend::DeviceType::kCpu, backend::DeviceType::kSimt}) {
            for (const int threads : kSequenceThreads) {
                const auto live =
                    run_stream(s, engine, threads,
                               static_cast<int>(golden.size()));
                const int at = first_divergence(golden, live);
                EXPECT_EQ(at, -1)
                    << name << " / " << backend::device_name(engine)
                    << " @ " << threads << " threads: stream diverges at "
                    << "step " << at << " — if intended, regenerate with "
                    << "./golden_sequence_test --update-golden";
            }
        }
    }
}

TEST(GoldenSequence, WaypointScenarioRoutesThroughChainsBeforeCrossing) {
    // The relay_race stream itself witnesses in-order multi-goal routing:
    // nobody can cross before completing a 3-waypoint chain, so by any
    // step the stream's cumulative advances must cover chain_len advances
    // for every cumulative crosser — and the corpus must actually contain
    // both advances and crossings.
    const auto s = scenario::get("relay_race");
    const auto chain_len = static_cast<long long>(
        std::max(s.sim.layout.waypoints[0].size(),
                 s.sim.layout.waypoints[1].size()));
    ASSERT_EQ(chain_len, 3) << "relay_race is the 3-waypoint acceptance case";
    const auto golden = load_stream(sequence_path("relay_race"));
    ASSERT_FALSE(golden.empty());
    long long advances = 0, crossed = 0;
    for (const auto& sr : golden) {
        advances += sr.waypoint_advances;
        crossed += sr.crossed_top + sr.crossed_bottom;
        ASSERT_GE(advances, chain_len * crossed)
            << "step " << sr.step
            << ": an agent crossed with an incomplete waypoint chain";
    }
    EXPECT_GT(advances, 0) << "corpus never advanced a waypoint";
    EXPECT_GT(crossed, 0) << "corpus never saw a chained agent cross";
}

TEST(GoldenSequence, CorpusCoversThePinnedSubset) {
    for (const char* name : kSequenceScenarios) {
        ASSERT_TRUE(scenario::has(name))
            << name << " left the registry; update kSequenceScenarios";
        EXPECT_NO_THROW(load_stream(sequence_path(name))) << name;
    }
}

int main(int argc, char** argv) {
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--update-golden") {
            // Regeneration is authoritative: clear stale per-scenario
            // files first, so a scenario dropped from the subset leaves
            // a deletion the CI dirty-diff gate can see — not an
            // orphaned, never-verified corpus file.
            std::filesystem::create_directories(PEDSIM_SEQUENCE_DIR);
            for (const auto& entry :
                 std::filesystem::directory_iterator(PEDSIM_SEQUENCE_DIR)) {
                if (entry.path().extension() == ".csv") {
                    std::filesystem::remove(entry.path());
                }
            }
            for (const char* name : kSequenceScenarios) {
                const auto s = scenario::get(name);
                const auto stream = compute_stream(s);
                write_stream(sequence_path(name), stream);
                std::printf("wrote %zu steps to %s\n", stream.size(),
                            sequence_path(name).c_str());
            }
            return 0;
        }
    }
    return RUN_ALL_TESTS();
}
