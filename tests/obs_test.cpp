// Observability contract tests: span nesting and thread attribution in
// the trace export, counter/histogram arithmetic, well-formedness of the
// Chrome trace JSON (parseable, ts strictly increasing per thread), and
// the must-not-perturb guard — a golden-registry scenario produces the
// same position fingerprint with tracing+metrics on and off, on both
// engines.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backend/device.hpp"
#include "obs/cli.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

using namespace pedsim;

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON checker: validates the grammar subset our writers emit
// (objects, arrays, strings with escapes, numbers, true/false/null).
// Fails the test with position info instead of silently accepting noise.

class JsonChecker {
  public:
    explicit JsonChecker(const std::string& text) : s_(text) {}

    [[nodiscard]] bool valid() {
        skip_ws();
        if (!value()) return false;
        skip_ws();
        return at_ == s_.size();
    }

    [[nodiscard]] std::size_t failed_at() const { return at_; }

  private:
    bool value() {
        if (at_ >= s_.size()) return false;
        switch (s_[at_]) {
            case '{':
                return object();
            case '[':
                return array();
            case '"':
                return string();
            case 't':
                return literal("true");
            case 'f':
                return literal("false");
            case 'n':
                return literal("null");
            default:
                return number();
        }
    }
    bool object() {
        ++at_;  // '{'
        skip_ws();
        if (peek() == '}') {
            ++at_;
            return true;
        }
        for (;;) {
            skip_ws();
            if (!string()) return false;
            skip_ws();
            if (peek() != ':') return false;
            ++at_;
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (peek() == ',') {
                ++at_;
                continue;
            }
            if (peek() == '}') {
                ++at_;
                return true;
            }
            return false;
        }
    }
    bool array() {
        ++at_;  // '['
        skip_ws();
        if (peek() == ']') {
            ++at_;
            return true;
        }
        for (;;) {
            skip_ws();
            if (!value()) return false;
            skip_ws();
            if (peek() == ',') {
                ++at_;
                continue;
            }
            if (peek() == ']') {
                ++at_;
                return true;
            }
            return false;
        }
    }
    bool string() {
        if (peek() != '"') return false;
        ++at_;
        while (at_ < s_.size()) {
            const char c = s_[at_];
            if (c == '"') {
                ++at_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20) return false;
            if (c == '\\') {
                ++at_;
                if (at_ >= s_.size()) return false;
                const char e = s_[at_];
                if (e == 'u') {
                    if (at_ + 4 >= s_.size()) return false;
                    at_ += 4;
                } else if (std::string("\"\\/bfnrt").find(e) ==
                           std::string::npos) {
                    return false;
                }
            }
            ++at_;
        }
        return false;
    }
    bool number() {
        const std::size_t start = at_;
        if (peek() == '-') ++at_;
        while (at_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[at_])) ||
                s_[at_] == '.' || s_[at_] == 'e' || s_[at_] == 'E' ||
                s_[at_] == '+' || s_[at_] == '-')) {
            ++at_;
        }
        return at_ > start;
    }
    bool literal(const char* word) {
        const std::string w(word);
        if (s_.compare(at_, w.size(), w) != 0) return false;
        at_ += w.size();
        return true;
    }
    [[nodiscard]] char peek() const {
        return at_ < s_.size() ? s_[at_] : '\0';
    }
    void skip_ws() {
        while (at_ < s_.size() &&
               (s_[at_] == ' ' || s_[at_] == '\n' || s_[at_] == '\t' ||
                s_[at_] == '\r')) {
            ++at_;
        }
    }

    const std::string& s_;
    std::size_t at_ = 0;
};

void expect_valid_json(const std::string& text) {
    JsonChecker checker(text);
    EXPECT_TRUE(checker.valid())
        << "JSON invalid near offset " << checker.failed_at() << ": ..."
        << text.substr(checker.failed_at() > 40 ? checker.failed_at() - 40
                                                : 0,
                       80);
}

/// All (tid, ts) pairs in emission order, scanned from the exporter's
/// fixed key order (... "tid":N,"ts":X ...).
std::vector<std::pair<int, double>> tid_ts_pairs(const std::string& json) {
    std::vector<std::pair<int, double>> out;
    std::size_t at = 0;
    for (;;) {
        const std::size_t tid_at = json.find("\"tid\":", at);
        if (tid_at == std::string::npos) break;
        const int tid = std::stoi(json.substr(tid_at + 6));
        const std::size_t ts_at = json.find("\"ts\":", tid_at);
        if (ts_at == std::string::npos) break;
        const double ts = std::stod(json.substr(ts_at + 5));
        out.emplace_back(tid, ts);
        at = ts_at + 5;
    }
    return out;
}

// ---------------------------------------------------------------------------

TEST(Stopwatch, MeasuresForward) {
    const obs::Stopwatch w;
    const std::uint64_t a = w.elapsed_ns();
    const std::uint64_t b = w.elapsed_ns();
    EXPECT_LE(a, b);
    EXPECT_GE(w.seconds(), 0.0);
    EXPECT_EQ(w.start_ns() + a, w.start_ns() + a);  // start_ns is stable
}

TEST(Metrics, CounterArithmetic) {
    obs::Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(Metrics, HistogramArithmetic) {
    obs::Histogram h;
    h.record(1);
    h.record(100);
    h.record(1000);
    const auto s = h.snapshot();
    EXPECT_EQ(s.count, 3u);
    EXPECT_EQ(s.sum, 1101u);
    EXPECT_EQ(s.min, 1u);
    EXPECT_EQ(s.max, 1000u);
    EXPECT_DOUBLE_EQ(s.mean(), 1101.0 / 3.0);
    // Log2 buckets: 1 -> bucket 1, 100 -> bucket 7, 1000 -> bucket 10.
    EXPECT_EQ(s.buckets[1], 1u);
    EXPECT_EQ(s.buckets[7], 1u);
    EXPECT_EQ(s.buckets[10], 1u);
    // Quantiles are bucket upper bounds: good to a factor of 2.
    EXPECT_EQ(s.approx_quantile(0.0), 1u);
    EXPECT_EQ(s.approx_quantile(0.5), 127u);
    EXPECT_EQ(s.approx_quantile(0.99), 1023u);
}

TEST(Metrics, HistogramZeroSample) {
    obs::Histogram h;
    h.record(0);
    const auto s = h.snapshot();
    EXPECT_EQ(s.buckets[0], 1u);
    EXPECT_EQ(s.min, 0u);
    EXPECT_EQ(s.max, 0u);
    EXPECT_EQ(s.approx_quantile(0.5), 0u);
}

TEST(Metrics, StaticsAreNoopsWithoutRegistry) {
    ASSERT_EQ(obs::MetricsRegistry::active(), nullptr);
    obs::MetricsRegistry::add("nobody.listening");
    obs::MetricsRegistry::observe("nobody.listening", 7);  // must not crash
}

TEST(Metrics, SummaryDerivedHitRate) {
    obs::MetricsRegistry reg;
    reg.counter("doors.field_cache.hit").add(3);
    reg.counter("doors.field_cache.miss").add(1);
    const std::string summary = reg.summary();
    EXPECT_NE(summary.find("doors.field_cache hit rate: 75.0%"),
              std::string::npos)
        << summary;
    EXPECT_NE(summary.find("3 hits / 1 misses"), std::string::npos);
}

TEST(Metrics, JsonIsWellFormed) {
    obs::MetricsRegistry reg;
    reg.counter("sim.steps").add(60);
    reg.histogram("step.latency_ns").record(123456);
    reg.histogram("step.latency_ns").record(654321);
    const std::string json = reg.json();
    expect_valid_json(json);
    EXPECT_NE(json.find("\"schema\":\"pedsim-metrics-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"sim.steps\":60"), std::string::npos);
}

TEST(Metrics, InstallStatics) {
    obs::MetricsRegistry reg;
    EXPECT_EQ(obs::MetricsRegistry::install(&reg), nullptr);
    obs::MetricsRegistry::add("installed.counter", 5);
    obs::MetricsRegistry::observe("installed.histogram", 9);
    EXPECT_EQ(obs::MetricsRegistry::install(nullptr), &reg);
    ASSERT_NE(reg.find_counter("installed.counter"), nullptr);
    EXPECT_EQ(reg.find_counter("installed.counter")->value(), 5u);
    ASSERT_NE(reg.find_histogram("installed.histogram"), nullptr);
    EXPECT_EQ(reg.find_histogram("installed.histogram")->snapshot().count,
              1u);
    EXPECT_EQ(reg.find_counter("never.recorded"), nullptr);
}

TEST(Trace, SpanIsNoopWithoutTracer) {
    ASSERT_EQ(obs::Tracer::active(), nullptr);
    obs::Span span("unobserved", "k", 1);  // must not crash or allocate
}

TEST(Trace, NestedSpansExportOuterFirst) {
    obs::Tracer tracer;
    obs::Tracer::install(&tracer);
    {
        obs::Span outer("outer");
        {
            obs::Span inner("inner", "depth", 1);
        }
        {
            obs::Span inner2("inner2");
        }
    }
    obs::Tracer::install(nullptr);

    EXPECT_EQ(tracer.event_count(), 3u);
    EXPECT_EQ(tracer.thread_count(), 1u);

    const std::string json = tracer.chrome_trace_json();
    expect_valid_json(json);
    // Export is open order: outer opened before both inner spans, even
    // though its buffer entry was recorded last (close order).
    const auto outer_at = json.find("\"name\":\"outer\"");
    const auto inner_at = json.find("\"name\":\"inner\"");
    const auto inner2_at = json.find("\"name\":\"inner2\"");
    ASSERT_NE(outer_at, std::string::npos);
    ASSERT_NE(inner_at, std::string::npos);
    ASSERT_NE(inner2_at, std::string::npos);
    EXPECT_LT(outer_at, inner_at);
    EXPECT_LT(inner_at, inner2_at);
    // Span args ride along.
    EXPECT_NE(json.find("\"args\":{\"depth\":1}"), std::string::npos);
}

TEST(Trace, ThreadsAreAttributedSeparately) {
    obs::Tracer tracer;
    obs::Tracer::install(&tracer);
    {
        obs::Span main_span("main_work");
        std::thread a([] { obs::Span s("thread_a_work"); });
        std::thread b([] { obs::Span s("thread_b_work"); });
        a.join();
        b.join();
    }
    obs::Tracer::install(nullptr);

    EXPECT_EQ(tracer.event_count(), 3u);
    EXPECT_EQ(tracer.thread_count(), 3u);

    const std::string json = tracer.chrome_trace_json();
    expect_valid_json(json);
    // Each event's tid matches its recording thread: with one event per
    // thread, the three names must sit under three distinct tids.
    bool seen_tid[3] = {false, false, false};
    for (const auto& [tid, ts] : tid_ts_pairs(json)) {
        ASSERT_GE(tid, 0);
        ASSERT_LT(tid, 3);
        EXPECT_FALSE(seen_tid[tid]) << "two events under tid " << tid;
        seen_tid[tid] = true;
    }
    EXPECT_TRUE(seen_tid[0] && seen_tid[1] && seen_tid[2]);
}

TEST(Trace, TimestampsStrictlyIncreasePerThread) {
    obs::Tracer tracer;
    obs::Tracer::install(&tracer);
    // Force ties: record spans faster than the clock can tick on coarse
    // hosts, plus explicit same-timestamp records.
    for (int i = 0; i < 200; ++i) {
        obs::Span s("tick", "i", i);
    }
    const std::uint64_t t = obs::now_ns();
    tracer.record("same_a", t, t);
    tracer.record("same_b", t, t);
    tracer.record("same_c", t, t + 5);
    obs::Tracer::install(nullptr);

    const std::string json = tracer.chrome_trace_json();
    expect_valid_json(json);
    const auto pairs = tid_ts_pairs(json);
    ASSERT_EQ(pairs.size(), 203u);
    double last = -1.0;
    for (const auto& [tid, ts] : pairs) {
        ASSERT_EQ(tid, 0);
        EXPECT_GT(ts, last) << "ts not strictly increasing";
        last = ts;
    }
    // Ties break by end time, longest span first.
    EXPECT_LT(json.find("\"name\":\"same_c\""),
              json.find("\"name\":\"same_a\""));
}

TEST(Trace, WriteFileRoundTrip) {
    obs::Tracer tracer;
    obs::Tracer::install(&tracer);
    { obs::Span s("roundtrip"); }
    obs::Tracer::install(nullptr);
    const std::string path =
        ::testing::TempDir() + "obs_test_roundtrip.json";
    tracer.write_chrome_trace(path);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    expect_valid_json(text.substr(0, text.find_last_not_of('\n') + 1));
    EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
    EXPECT_THROW(tracer.write_chrome_trace("/nonexistent-dir/x.json"),
                 std::runtime_error);
}

// ---------------------------------------------------------------------------
// The core contract: observability must never perturb the simulation.
// Run a golden-registry scenario (relay_race: waypoint chains + the full
// four-stage pipeline) on both engines with observability off, then again
// with tracing AND metrics installed; the position fingerprints must be
// bit-identical.

TEST(ObsDeterminism, TracingDoesNotPerturbEitherEngine) {
    ASSERT_TRUE(scenario::has("relay_race"));
    const scenario::Scenario s = scenario::get("relay_race");
    constexpr int kSteps = 60;

    const auto fingerprint_of = [&](scenario::EngineKind engine) {
        core::SimConfig cfg = s.sim;
        cfg.exec.threads = 4;
        const auto sim = backend::make_engine(engine, cfg);
        sim->run(kSteps);
        return scenario::position_fingerprint(*sim);
    };

    const std::uint64_t cpu_off =
        fingerprint_of(scenario::EngineKind::kCpu);
    const std::uint64_t gpu_off =
        fingerprint_of(scenario::EngineKind::kSimt);
    // Cross-engine parity must already hold without observability.
    ASSERT_EQ(cpu_off, gpu_off);

    obs::Tracer tracer;
    obs::MetricsRegistry registry;
    obs::Tracer::install(&tracer);
    obs::MetricsRegistry::install(&registry);
    const std::uint64_t cpu_on = fingerprint_of(scenario::EngineKind::kCpu);
    const std::uint64_t gpu_on =
        fingerprint_of(scenario::EngineKind::kSimt);
    obs::Tracer::install(nullptr);
    obs::MetricsRegistry::install(nullptr);

    EXPECT_EQ(cpu_on, cpu_off);
    EXPECT_EQ(gpu_on, gpu_off);

    // And the observed run actually produced observations.
    EXPECT_GT(tracer.event_count(), 0u);
    ASSERT_NE(registry.find_counter("sim.steps"), nullptr);
    EXPECT_EQ(registry.find_counter("sim.steps")->value(),
              2u * kSteps);
    EXPECT_NE(registry.find_counter("doors.field_cache.miss"), nullptr);
    EXPECT_NE(registry.find_histogram("step.latency_ns"), nullptr);
    const std::string json = tracer.chrome_trace_json();
    expect_valid_json(json);
    // Both engines' stage pipeline and the SIMT launches show up.
    EXPECT_NE(json.find("\"name\":\"stage/movement\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"simt/launch\""), std::string::npos);
}

}  // namespace
