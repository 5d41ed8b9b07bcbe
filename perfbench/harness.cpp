// Workload runner of the repository benchmark; perfbench/run.py builds and
// runs it.
//
//   perfbench_harness --plan=FILE --out=FILE [--trace-dir=DIR]
//
// run.py generates the plan from the workload seed, so this program only
// ever sees generated inputs. It times calls into the library's public API
// from outside — scenario::prepare_scenario, backend::make_engine,
// core::Simulator::step, ScenarioRunner::run_prepared, io::parse_scenario,
// core::GpuSimulator::launch_log and the server's framed protocol — and
// writes the raw samples as JSON, each run's fingerprint next to the
// fingerprint of its cpu 1-thread oracle. run.py compares the two and turns
// the samples into metrics. With --trace-dir it keeps one obs::Tracer per
// phase, wraps every timed call in a bench/* span, and writes each phase's
// Chrome trace to DIR/<phase>.json. The timed loops then run traced only
// half the time (every other step, pass or half second) and mark each
// sample, so tracing's cost is measured against the same work in the same
// run. Single-threaded timed work (set-up, 1-thread engines, sweep passes)
// runs pinned to whichever CPU a short probe finds quickest at the time.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "backend/device.hpp"
#include "core/gpu_simulator.hpp"
#include "exec/thread_pool.hpp"
#include "io/args.hpp"
#include "io/json.hpp"
#include "io/scenario_file.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"

namespace {

using namespace pedsim;
namespace proto = server::protocol;
using backend::DeviceType;

// ---- Inputs and outputs -------------------------------------------------

/// The plan run.py writes: one `key value...` record per line.
class Plan {
  public:
    explicit Plan(const std::string& path) {
        std::ifstream in(path);
        if (!in) throw std::runtime_error("cannot read plan " + path);
        for (std::string line; std::getline(in, line);) {
            std::istringstream words(line);
            std::vector<std::string> rec;
            for (std::string w; words >> w;) rec.push_back(w);
            if (!rec.empty()) records_.push_back(std::move(rec));
        }
    }

    /// Every record whose key is `key`, in file order.
    [[nodiscard]] std::vector<std::vector<std::string>> all(
        const std::string& key) const {
        std::vector<std::vector<std::string>> out;
        for (const auto& r : records_) {
            if (r[0] == key) out.push_back(r);
        }
        return out;
    }
    /// The values of the record `key`; throws when it is missing.
    [[nodiscard]] std::vector<std::string> values(
        const std::string& key) const {
        for (const auto& r : records_) {
            if (r[0] == key && r.size() > 1) return {r.begin() + 1, r.end()};
        }
        throw std::runtime_error("plan: missing '" + key + "'");
    }
    [[nodiscard]] std::string get(const std::string& key) const {
        return values(key).front();
    }
    [[nodiscard]] std::vector<std::uint64_t> seeds(
        const std::string& key) const {
        std::vector<std::uint64_t> out;
        for (const auto& v : values(key)) out.push_back(std::stoull(v));
        return out;
    }

  private:
    std::vector<std::vector<std::string>> records_;
};

std::string hex(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double seconds_between(std::uint64_t t0, std::uint64_t t1) {
    return static_cast<double>(t1 - t0) * 1e-9;
}

double ms_between(std::uint64_t t0, std::uint64_t t1) {
    return static_cast<double>(t1 - t0) * 1e-6;
}

/// Heap bytes in use now (arena chunks plus mmapped chunks, every arena),
/// from glibc's mallinfo2(). Unlike the resident set it does not depend on
/// whether an allocation reuses pages an earlier one freed.
double heap_mb() {
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

/// Resident-set high-water mark of this process.
double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void put(io::JsonWriter& w, const char* key, double v) {
    w.key(key);
    w.value(v);
}
void put_count(io::JsonWriter& w, const char* key, std::uint64_t v) {
    w.key(key);
    w.value(v);
}
void put_str(io::JsonWriter& w, const char* key, const std::string& v) {
    w.key(key);
    w.value(v);
}

/// One obs::Tracer per traced phase (setup, each engine, sweep, server)
/// when tracing is on; write_all() saves each as DIR/<phase>.json.
class Traces {
  public:
    explicit Traces(std::string dir) : dir_(std::move(dir)) {}

    /// The phase's tracer, or nullptr when tracing is off.
    obs::Tracer* get(const std::string& phase) {
        if (dir_.empty()) return nullptr;
        auto& t = tracers_[phase];
        if (!t) t = std::make_unique<obs::Tracer>();
        return t.get();
    }
    void write_all() const {
        for (const auto& [phase, t] : tracers_) {
            t->write_chrome_trace(dir_ + "/" + phase + ".json");
        }
    }

  private:
    std::string dir_;
    std::map<std::string, std::unique_ptr<obs::Tracer>> tracers_;
};

/// Installs a phase's tracer (if any) for one scope.
class TraceScope {
  public:
    explicit TraceScope(obs::Tracer* t) : t_(t) {
        if (t_) obs::Tracer::install(t_);
    }
    ~TraceScope() {
        if (t_) obs::Tracer::install(nullptr);
    }
    TraceScope(const TraceScope&) = delete;
    TraceScope& operator=(const TraceScope&) = delete;

  private:
    obs::Tracer* t_;
};

// ---- CPU choice for single-threaded timed work --------------------------

/// A 256 KiB table holding one cycle through all its slots (Sattolo's
/// shuffle of a fixed xorshift stream), walked by probe_ns().
const std::vector<std::uint32_t>& probe_ring() {
    static const std::vector<std::uint32_t> ring = [] {
        std::vector<std::uint32_t> r(1u << 16);
        for (std::uint32_t i = 0; i < r.size(); ++i) r[i] = i;
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        for (std::size_t i = r.size() - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(r[i], r[x % i]);
        }
        return r;
    }();
    return ring;
}

volatile std::uint32_t probe_sink = 0;

/// Time of a fixed ~0.2 ms probe: dependent loads with a data-dependent
/// branch per step, like the heap and grid accesses of a field build.
std::uint64_t probe_ns() {
    const auto& ring = probe_ring();
    const std::uint64_t t0 = obs::now_ns();
    std::uint32_t i = 0;
    std::uint32_t acc = 0;
    for (int k = 0; k < 30000; ++k) {
        i = ring[i];
        if ((i & 1u) != 0) {
            acc += i >> 3;
        } else {
            acc ^= i * 3u;
        }
    }
    const std::uint64_t t1 = obs::now_ns();
    probe_sink = acc;
    return t1 - t0;
}

/// Runs the scope's single-threaded timed work on whichever of the
/// process's CPUs is quickest now. On a shared host a vCPU whose
/// hyperthread sibling runs another tenant's work runs 1.3-1.5x slower,
/// and which vCPUs are slow changes within seconds. The scheduler cannot
/// see that and leaves a busy thread where it is, so an unpinned thread
/// measures the vCPU it happened to land on. The constructor runs
/// probe_ns() twice on every allowed CPU and pins the calling thread to
/// the quickest; the destructor restores the process's CPU set.
class OnFastestCpu {
  public:
    OnFastestCpu() {
        // Threads inherit the CPU set of the thread that starts them, so
        // the shared pool starts first and its workers keep every CPU.
        exec::ThreadPool::shared();
        CPU_ZERO(&allowed_);
        if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
        ok_ = true;
        int best = -1;
        std::uint64_t best_ns = UINT64_MAX;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (!CPU_ISSET(c, &allowed_)) continue;
            pin(c);
            const std::uint64_t ns = std::min(probe_ns(), probe_ns());
            if (ns < best_ns) {
                best_ns = ns;
                best = c;
            }
        }
        if (best >= 0) pin(best);
    }
    ~OnFastestCpu() {
        if (ok_) sched_setaffinity(0, sizeof allowed_, &allowed_);
    }
    OnFastestCpu(const OnFastestCpu&) = delete;
    OnFastestCpu& operator=(const OnFastestCpu&) = delete;

  private:
    static void pin(int cpu) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof one, &one);
    }

    cpu_set_t allowed_{};
    bool ok_ = false;
};

// ---- Setup: field builds and placement ----------------------------------

struct SetupRep {
    double fields_s = 0.0;     ///< summed prepare_scenario
    double placement_s = 0.0;  ///< summed make_engine on the prepared schedule
    std::uint64_t fields_built = 0;  ///< main + waypoint fields
};

std::uint64_t fields_built(const scenario::PreparedScenario& p) {
    return p.schedule->field_count() + p.schedule->waypoint_field_count();
}

/// One cold setup of every scenario in `set` (at its own seed), timed per
/// public call.
SetupRep setup_once(const std::vector<scenario::Scenario>& set) {
    SetupRep rep;
    for (const auto& s : set) {
        const std::uint64_t t0 = obs::now_ns();
        scenario::PreparedScenario p;
        {
            obs::Span span("bench/prepare_scenario");
            p = scenario::prepare_scenario(s);
        }
        const std::uint64_t t1 = obs::now_ns();
        std::unique_ptr<core::Simulator> sim;
        {
            obs::Span span("bench/make_engine");
            sim = backend::make_engine(DeviceType::kCpu, s.sim, p.schedule);
        }
        const std::uint64_t t2 = obs::now_ns();
        rep.fields_s += seconds_between(t0, t1);
        rep.placement_s += seconds_between(t1, t2);
        rep.fields_built += fields_built(p);
    }
    return rep;
}

void put_setup(io::JsonWriter& w, const std::vector<SetupRep>& reps) {
    w.key("setup");
    w.begin_array();
    for (const auto& r : reps) {
        w.begin_object();
        put(w, "fields_s", r.fields_s);
        put(w, "placement_s", r.placement_s);
        put_count(w, "fields_built", r.fields_built);
        w.end_object();
    }
    w.end_array();
}

// ---- paper_dense / paper_sparse: timed steps per engine -----------------

struct EngineSpec {
    std::string id;
    backend::EngineSelect select;
    int threads = 1;
    int warmup = 1;  ///< untimed steps; the first is inside engine_mb
    int steps = 0;   ///< timed steps
};

/// 16x16 blocks (the SIMT tile) holding at least one agent.
std::uint64_t count_occupied_blocks(const grid::Environment& env) {
    const int edge = grid::GridConfig::kTileEdge;
    std::uint64_t n = 0;
    for (int br = 0; br < env.rows(); br += edge) {
        for (int bc = 0; bc < env.cols(); bc += edge) {
            bool any = false;
            for (int r = br; r < br + edge && !any; ++r) {
                for (int c = bc; c < bc + edge && !any; ++c) {
                    any = env.index_at(r, c) > 0;
                }
            }
            n += any ? 1 : 0;
        }
    }
    return n;
}

struct EngineRun {
    std::uint64_t seed = 0;
    std::string error;
    std::uint64_t fingerprint = 0;
    double engine_mb = 0.0;
    std::vector<double> step_ms;         ///< untraced timed steps
    std::vector<double> traced_step_ms;  ///< timed steps run traced
    std::uint64_t proposals = 0;
    std::uint64_t moves = 0;
    // gpu-simt only: launch_log() over the timed steps, block occupancy.
    bool simt = false;
    std::uint64_t launches = 0;
    std::uint64_t blocks = 0;
    std::uint64_t warp_instructions = 0;
    std::uint64_t global_transactions = 0;
    double modeled_s = 0.0;
    std::uint64_t occupied_blocks = 0;
    std::uint64_t grid_blocks = 0;
};

/// One engine of one seed, alive across the interleaved rounds. A throw
/// records the error and drops the engine from the remaining rounds.
struct LiveEngine {
    std::unique_ptr<core::Simulator> sim;
    const core::GpuSimulator* gpu = nullptr;
    std::size_t log0 = 0;  ///< launch_log() records before the timed steps
    std::uint64_t timed = 0;  ///< timed steps so far, counted when traced
    EngineRun run;

    void fail(const std::exception& ex) {
        run.error = ex.what();
        sim.reset();
        gpu = nullptr;
    }
};

/// Build and warm up one engine; engine_mb is the heap growth (bytes still
/// allocated) across construction and the warm-up steps.
void start_engine(const scenario::Scenario& s,
                  const scenario::PreparedScenario& prepared,
                  const EngineSpec& e, std::uint64_t seed, LiveEngine& live) {
    live.run.seed = seed;
    try {
        core::SimConfig cfg = s.sim;
        cfg.seed = seed;
        cfg.exec.threads = e.threads;
        const double heap0 = heap_mb();
        {
            obs::Span span("bench/make_engine");
            live.sim = backend::make_engine(e.select, cfg, prepared.schedule);
        }
        for (int k = 0; k < e.warmup; ++k) {
            obs::Span span("bench/step");
            live.sim->step();
        }
        live.run.engine_mb = heap_mb() - heap0;
        live.gpu = dynamic_cast<const core::GpuSimulator*>(live.sim.get());
        if (live.gpu) {
            obs::Span span("bench/launch_log");
            live.log0 = live.gpu->launch_log().records().size();
        }
        live.run.step_ms.reserve(static_cast<std::size_t>(e.steps));
    } catch (const std::exception& ex) {
        live.fail(ex);
    }
}

/// `n` timed step() calls. With a tracer, every other timed step of the
/// engine runs traced and is kept apart in traced_step_ms.
void step_engine(LiveEngine& live, int n, obs::Tracer* tracer) {
    if (!live.sim) return;
    try {
        for (int k = 0; k < n; ++k) {
            const bool traced = tracer != nullptr && live.timed++ % 2 == 0;
            const TraceScope scope(traced ? tracer : nullptr);
            const std::uint64_t t0 = obs::now_ns();
            core::StepResult r;
            {
                obs::Span span("bench/step");
                r = live.sim->step();
            }
            (traced ? live.run.traced_step_ms : live.run.step_ms)
                .push_back(ms_between(t0, obs::now_ns()));
            live.run.proposals += static_cast<std::uint64_t>(r.proposals);
            live.run.moves += static_cast<std::uint64_t>(r.moves);
            if (live.gpu) {
                live.run.occupied_blocks +=
                    count_occupied_blocks(live.sim->environment());
            }
        }
    } catch (const std::exception& ex) {
        live.fail(ex);
    }
}

/// The final fingerprint and, for gpu-simt, launch_log() over the timed
/// steps.
void finish_engine(LiveEngine& live) {
    if (!live.sim) return;
    auto& run = live.run;
    run.fingerprint = scenario::position_fingerprint(*live.sim);
    if (!live.gpu) return;
    obs::Span span("bench/launch_log");
    const auto& recs = live.gpu->launch_log().records();
    run.simt = true;
    run.launches = recs.size() - live.log0;
    for (std::size_t i = live.log0; i < recs.size(); ++i) {
        run.blocks += recs[i].stats.blocks;
        run.warp_instructions += recs[i].stats.warp_instructions;
        run.global_transactions += recs[i].stats.global_transactions;
        run.modeled_s += recs[i].modeled_seconds;
    }
    const auto& grid = live.sim->config().grid;
    const int edge = grid::GridConfig::kTileEdge;
    run.grid_blocks = static_cast<std::uint64_t>((grid.rows / edge) *
                                                 (grid.cols / edge));
}

void put_engine_run(io::JsonWriter& w, const EngineRun& run) {
    w.begin_object();
    put_count(w, "seed", run.seed);
    if (!run.error.empty()) {
        put_str(w, "error", run.error);
        w.end_object();
        return;
    }
    put_str(w, "fingerprint", hex(run.fingerprint));
    put(w, "engine_mb", run.engine_mb);
    put_count(w, "proposals", run.proposals);
    put_count(w, "moves", run.moves);
    w.key("step_ms");
    w.begin_array();
    for (const double ms : run.step_ms) w.value(ms);
    w.end_array();
    if (!run.traced_step_ms.empty()) {
        w.key("traced_step_ms");
        w.begin_array();
        for (const double ms : run.traced_step_ms) w.value(ms);
        w.end_array();
    }
    if (run.simt) {
        w.key("simt");
        w.begin_object();
        put_count(w, "launches", run.launches);
        put_count(w, "blocks", run.blocks);
        put_count(w, "warp_instructions", run.warp_instructions);
        put_count(w, "global_transactions", run.global_transactions);
        put(w, "modeled_s", run.modeled_s);
        put_count(w, "occupied_blocks", run.occupied_blocks);
        put_count(w, "grid_blocks", run.grid_blocks);
        w.end_object();
    }
    w.end_object();
}

/// The registry scenario the plan names, with its population and model
/// overrides (the paper's density ladder reuses paper_corridor's grid).
scenario::Scenario paper_scenario(const Plan& plan) {
    auto s = scenario::get(plan.get("scenario"));
    for (const auto& r : plan.all("agents_per_side")) {
        s.sim.agents_per_side = std::stoull(r.at(1));
    }
    for (const auto& r : plan.all("model")) {
        s.sim.model = r.at(1) == "aco" ? core::Model::kAco : core::Model::kLem;
    }
    return s;
}

/// Every engine of a seed lives through `rounds` rounds; each round steps
/// each engine through its share of its timed steps, and the set-up
/// repetitions ride along between rounds. A burst of host noise therefore
/// lands on every engine and on set-up alike instead of on whichever ran
/// at the time, and each metric's samples span the whole run.
void run_paper(const Plan& plan, Traces& traces, io::JsonWriter& w) {
    const auto s = paper_scenario(plan);
    const auto seeds = plan.seeds("seeds");
    const auto setup_reps =
        static_cast<std::size_t>(std::stoul(plan.get("setup_reps")));
    const int rounds = std::stoi(plan.get("rounds"));
    std::vector<EngineSpec> engines;
    for (const auto& r : plan.all("engine")) {
        engines.push_back({r.at(1), backend::parse_device(r.at(2)),
                           std::stoi(r.at(3)), std::stoi(r.at(4)),
                           std::stoi(r.at(5))});
    }
    const auto prepared = scenario::prepare_scenario(s);
    // One set-up repetition builds the engine of every seed the run steps.
    std::vector<scenario::Scenario> seeded(seeds.size(), s);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
        seeded[i].sim.seed = seeds[i];
    }

    std::vector<SetupRep> reps;
    std::vector<std::vector<EngineRun>> runs(engines.size());
    const std::size_t slots = seeds.size() * static_cast<std::size_t>(rounds);
    std::size_t slot = 0;
    for (const auto seed : seeds) {
        std::vector<LiveEngine> live(engines.size());
        for (std::size_t i = 0; i < engines.size(); ++i) {
            const TraceScope scope(traces.get(engines[i].id));
            start_engine(s, prepared, engines[i], seed, live[i]);
        }
        for (int round = 0; round < rounds; ++round, ++slot) {
            while (reps.size() < setup_reps * (slot + 1) / slots) {
                const OnFastestCpu cpu;
                const TraceScope scope(traces.get("setup"));
                reps.push_back(setup_once(seeded));
            }
            for (std::size_t i = 0; i < engines.size(); ++i) {
                const int steps = engines[i].steps;
                std::optional<OnFastestCpu> cpu;
                if (engines[i].threads == 1) cpu.emplace();
                step_engine(live[i],
                            steps * (round + 1) / rounds -
                                steps * round / rounds,
                            traces.get(engines[i].id));
            }
        }
        for (std::size_t i = 0; i < engines.size(); ++i) {
            finish_engine(live[i]);
            runs[i].push_back(std::move(live[i].run));
        }
    }
    put_setup(w, reps);

    std::set<int> oracle_steps;
    w.key("engines");
    w.begin_array();
    for (std::size_t i = 0; i < engines.size(); ++i) {
        const auto& e = engines[i];
        oracle_steps.insert(e.warmup + e.steps);
        w.begin_object();
        put_str(w, "id", e.id);
        put_count(w, "threads", static_cast<std::uint64_t>(e.threads));
        put_count(w, "steps", static_cast<std::uint64_t>(e.warmup + e.steps));
        w.key("runs");
        w.begin_array();
        for (const auto& run : runs[i]) put_engine_run(w, run);
        w.end_array();
        w.end_object();
    }
    w.end_array();

    // The oracle: a cold cpu 1-thread engine per seed, outside every timed
    // window, fingerprinted at each step count an engine stopped at.
    w.key("oracle");
    w.begin_array();
    for (const auto seed : seeds) {
        std::vector<std::pair<int, std::string>> fps;
        std::string error;
        try {
            core::SimConfig cfg = s.sim;
            cfg.seed = seed;
            cfg.exec.threads = 1;
            const auto sim = backend::make_engine(DeviceType::kCpu, cfg);
            int done = 0;
            for (const int target : oracle_steps) {
                for (; done < target; ++done) sim->step();
                fps.emplace_back(target,
                                 hex(scenario::position_fingerprint(*sim)));
            }
        } catch (const std::exception& ex) {
            error = ex.what();
        }
        w.begin_object();
        put_count(w, "seed", seed);
        if (!error.empty()) put_str(w, "error", error);
        w.key("fingerprints");
        w.begin_object();
        for (const auto& [steps, fp] : fps) {
            put_str(w, std::to_string(steps).c_str(), fp);
        }
        w.end_object();
        w.end_object();
    }
    w.end_array();
}

// ---- registry_sweep: cold setup and run of every registry scenario ------

std::vector<scenario::Scenario> registry_except(const Plan& plan) {
    std::set<std::string> skip;
    for (const auto& r : plan.all("exclude")) skip.insert(r.at(1));
    std::vector<scenario::Scenario> out;
    for (const auto& name : scenario::names()) {
        if (skip.count(name) == 0) out.push_back(scenario::get(name));
    }
    return out;
}

void run_sweep(const Plan& plan, Traces& traces,
               io::JsonWriter& w) {
    const auto set = registry_except(plan);
    const auto pass_seeds = plan.seeds("pass_seeds");
    const double seconds = std::stod(plan.get("seconds"));
    const int min_passes = std::stoi(plan.get("min_passes"));
    scenario::RunnerOptions opts;
    opts.engines = {DeviceType::kCpu};
    opts.engine_threads = 1;
    const scenario::ScenarioRunner runner(opts);

    struct Run {
        std::size_t scenario = 0;
        int pass = 0;
        std::uint64_t seed = 0;
        std::string error;
        double fields_s = 0.0;     ///< prepare_scenario
        double run_s = 0.0;        ///< run_prepared: placement + stepping
        double placement_s = 0.0;  ///< make_engine inside run_prepared
        double step_s = 0.0;       ///< stepping inside run_prepared
        std::uint64_t steps = 0;
        std::uint64_t moves = 0;
        std::uint64_t conflicts = 0;
        std::uint64_t fields_built = 0;
        std::uint64_t fingerprint = 0;
        bool traced = false;
    };
    std::vector<Run> runs;
    double wall_s = 0.0;
    int passes = 0;
    {
        // With a tracer, every other pass runs traced.
        obs::Tracer* const tracer = traces.get("sweep");
        const std::uint64_t start = obs::now_ns();
        while (passes < min_passes ||
               seconds_between(start, obs::now_ns()) < seconds) {
            const std::uint64_t seed =
                pass_seeds[static_cast<std::size_t>(passes) %
                           pass_seeds.size()];
            const bool traced = tracer != nullptr && passes % 2 == 0;
            const TraceScope scope(traced ? tracer : nullptr);
            const OnFastestCpu cpu;
            for (std::size_t i = 0; i < set.size(); ++i) {
                const auto& s = set[i];
                Run run;
                run.scenario = i;
                run.pass = passes;
                run.seed = seed;
                run.traced = traced;
                try {
                    const std::uint64_t t0 = obs::now_ns();
                    scenario::PreparedScenario p;
                    {
                        obs::Span span("bench/prepare_scenario");
                        p = scenario::prepare_scenario(s);
                    }
                    const std::uint64_t t1 = obs::now_ns();
                    scenario::RunRecord rec;
                    {
                        obs::Span span("bench/run_prepared");
                        rec = runner.run_prepared(p, DeviceType::kCpu,
                                                  s.sim.model, seed,
                                                  s.default_steps);
                    }
                    const std::uint64_t t2 = obs::now_ns();
                    run.fields_s = seconds_between(t0, t1);
                    run.run_s = seconds_between(t1, t2);
                    run.placement_s = rec.setup_seconds;
                    run.step_s = rec.result.wall_seconds;
                    run.steps =
                        static_cast<std::uint64_t>(rec.result.steps_run);
                    run.moves = rec.result.total_moves;
                    run.conflicts = rec.result.total_conflicts;
                    run.fields_built = fields_built(p);
                    run.fingerprint = rec.fingerprint;
                } catch (const std::exception& ex) {
                    run.error = ex.what();
                }
                runs.push_back(std::move(run));
            }
            ++passes;
        }
        wall_s = seconds_between(start, obs::now_ns());
    }

    // The oracle: a cold ScenarioRunner::run_one (the engine builds its own
    // schedule) per distinct (scenario, seed), after the timed window.
    std::map<std::pair<std::size_t, std::uint64_t>, std::string> oracle;
    for (const auto& run : runs) {
        const auto key = std::make_pair(run.scenario, run.seed);
        if (oracle.count(key) != 0) continue;
        const auto& s = set[run.scenario];
        try {
            oracle[key] = hex(runner
                                  .run_one(s, DeviceType::kCpu, s.sim.model,
                                           run.seed, s.default_steps)
                                  .fingerprint);
        } catch (const std::exception& ex) {
            oracle[key] = std::string("error: ") + ex.what();
        }
    }

    put(w, "wall_s", wall_s);
    put_count(w, "passes", static_cast<std::uint64_t>(passes));
    w.key("runs");
    w.begin_array();
    for (const auto& run : runs) {
        w.begin_object();
        put_str(w, "scenario", set[run.scenario].name);
        put_count(w, "pass", static_cast<std::uint64_t>(run.pass));
        put_count(w, "seed", run.seed);
        w.key("traced");
        w.value(run.traced);
        put_str(w, "oracle", oracle.at({run.scenario, run.seed}));
        if (!run.error.empty()) {
            put_str(w, "error", run.error);
        } else {
            put_str(w, "fingerprint", hex(run.fingerprint));
            put(w, "fields_s", run.fields_s);
            put(w, "run_s", run.run_s);
            put(w, "placement_s", run.placement_s);
            put(w, "step_s", run.step_s);
            put_count(w, "steps", run.steps);
            put_count(w, "moves", run.moves);
            put_count(w, "conflicts", run.conflicts);
            put_count(w, "fields_built", run.fields_built);
        }
        w.end_object();
    }
    w.end_array();
}

// ---- server_mix: a closed loop against pedsim_server --------------------

/// A variant of the k-th registry scenario of class `cls` (mover, waypoint
/// or door): every door, cycle and mover fires `shift` steps later and the
/// name carries the variant id, so each variant is a distinct text and a
/// distinct cache key that builds its own fields.
scenario::Scenario make_variant(const std::string& id, const std::string& cls,
                                int k, int shift) {
    std::vector<scenario::Scenario> members;
    for (const auto& name : scenario::names()) {
        auto s = scenario::get(name);
        const bool mover = !s.sim.movers.empty();
        const bool waypoint = !mover && s.sim.layout.has_waypoints();
        const bool door = !mover && !waypoint &&
                          (!s.sim.doors.empty() || !s.sim.cycles.empty());
        if ((cls == "mover" && mover) || (cls == "waypoint" && waypoint) ||
            (cls == "door" && door)) {
            members.push_back(std::move(s));
        }
    }
    if (members.empty()) {
        throw std::runtime_error("no registry scenario of class " + cls);
    }
    auto s = members[static_cast<std::size_t>(k) % members.size()];
    const auto by = static_cast<std::uint64_t>(shift);
    for (auto& d : s.sim.doors) d.step += by;
    for (auto& c : s.sim.cycles) c.start += by;
    for (auto& m : s.sim.movers) m.start += by;
    s.name += "_" + id;
    return s;
}

struct Job {
    std::string key;  ///< "R:<registry name>" or "T:<variant id>"
    proto::JobRequest request;
};

/// One job as the client saw it; times are ms since the loop started.
struct JobTiming {
    std::size_t job = 0;
    double submit_ms = 0.0;
    double accept_ms = -1.0;
    double first_step_ms = -1.0;
    double done_ms = -1.0;
    std::uint64_t queue_depth = 0;
    std::uint64_t retries = 0;
    bool cache_hit = false;
    bool traced = false;  ///< a tracer was installed at submission
    std::string error;    ///< kJobError text or an unrecovered rejection
    std::uint64_t fingerprint = 0;
};

/// A connected Unix-domain stream socket, closed on destruction.
class Connection {
  public:
    explicit Connection(const std::string& path) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof(addr.sun_path)) {
            throw std::runtime_error("socket path too long: " + path);
        }
        std::memcpy(addr.sun_path, path.data(), path.size());
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0) {
            throw std::runtime_error(std::string("socket: ") +
                                     std::strerror(errno));
        }
        if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
            const std::string err = std::strerror(errno);
            ::close(fd_);
            throw std::runtime_error("connect " + path + ": " + err);
        }
    }
    ~Connection() { ::close(fd_); }
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    [[nodiscard]] int fd() const { return fd_; }

  private:
    int fd_ = -1;
};

/// One connection of the closed loop: keeps `depth` jobs in flight, taking
/// every `stride`-th job of the list from `first`, until the deadline;
/// then drains. Every frame is timestamped as it arrives. Never throws:
/// a connection-level failure lands in `fatal`.
void client_loop(const std::string& socket_path, const std::vector<Job>& jobs,
                 std::size_t first, std::size_t stride, std::size_t depth,
                 std::uint64_t start_ns, std::uint64_t deadline_ns,
                 std::vector<JobTiming>& out, std::string& fatal) {
    try {
        const Connection conn(socket_path);
        const int fd = conn.fd();
        const auto now_ms = [&] { return ms_between(start_ns, obs::now_ns()); };
        std::unordered_map<std::uint64_t, std::size_t> inflight;  // id -> out
        const auto read_one = [&](proto::Frame& f) {
            obs::Span span("bench/read_frame");
            if (!proto::read_frame(fd, f, proto::Direction::kReply)) {
                throw std::runtime_error("server closed the connection");
            }
        };
        // Folds one result frame into its job; true when it ended the job.
        const auto fold = [&](const proto::Frame& f) {
            switch (f.type) {
                case proto::MsgType::kStep: {
                    const auto batch = proto::decode_steps(f.payload);
                    auto& t = out.at(inflight.at(batch.job_id));
                    if (t.first_step_ms < 0) t.first_step_ms = now_ms();
                    return false;
                }
                case proto::MsgType::kDone: {
                    const auto done = proto::decode_done(f.payload);
                    auto& t = out.at(inflight.at(done.job_id));
                    t.done_ms = now_ms();
                    t.fingerprint = done.fingerprint;
                    t.cache_hit = done.cache_hit;
                    inflight.erase(done.job_id);
                    return true;
                }
                case proto::MsgType::kJobError: {
                    const auto err = proto::decode_error(f.payload);
                    auto& t = out.at(inflight.at(err.job_id));
                    t.done_ms = now_ms();
                    t.error = "job error: " + err.message;
                    inflight.erase(err.job_id);
                    return true;
                }
                default:
                    throw proto::ProtocolError(
                        "unexpected frame type " +
                        std::to_string(static_cast<int>(f.type)));
            }
        };
        std::size_t next = first;
        const auto submit = [&] {
            JobTiming t;
            t.job = next % jobs.size();
            next += stride;
            t.submit_ms = now_ms();
            t.traced = obs::Tracer::active() != nullptr;
            const auto payload = proto::encode_submit(jobs[t.job].request);
            for (;;) {
                {
                    obs::Span span("bench/write_frame");
                    proto::write_frame(fd, proto::MsgType::kSubmit, payload);
                }
                proto::Frame f;
                read_one(f);
                while (f.type != proto::MsgType::kAccepted &&
                       f.type != proto::MsgType::kRejected) {
                    fold(f);
                    read_one(f);
                }
                if (f.type == proto::MsgType::kAccepted) {
                    const auto acc = proto::decode_accepted(f.payload);
                    t.accept_ms = now_ms();
                    t.queue_depth = acc.queue_depth;
                    out.push_back(t);
                    inflight[acc.job_id] = out.size() - 1;
                    return;
                }
                const auto reason = proto::decode_error(f.payload).message;
                if (reason.find("queue full") == std::string::npos ||
                    inflight.empty()) {
                    t.error = "rejected: " + reason;
                    t.done_ms = now_ms();
                    out.push_back(t);
                    return;
                }
                // Bounded admission: wait for one of ours, then retry.
                ++t.retries;
                do {
                    read_one(f);
                } while (!fold(f));
            }
        };
        while (obs::now_ns() < deadline_ns) {
            while (inflight.size() < depth && obs::now_ns() < deadline_ns) {
                submit();
            }
            if (inflight.empty()) continue;
            proto::Frame f;
            read_one(f);
            fold(f);
        }
        while (!inflight.empty()) {
            proto::Frame f;
            read_one(f);
            fold(f);
        }
    } catch (const std::exception& ex) {
        fatal = ex.what();
    }
}

void run_server(const Plan& plan, Traces& traces,
                io::JsonWriter& w) {
    const auto socket_path = plan.get("socket");
    const auto registry = registry_except(plan);
    const auto seeds = plan.seeds("seeds");
    const int setup_reps = std::stoi(plan.get("setup_reps"));

    // What the server will run under each key: registry scenarios as they
    // are, variant texts as parse_scenario reads them.
    std::map<std::string, scenario::Scenario> scenarios;
    std::map<std::string, std::string> texts;
    double parse_ms = 0.0;
    std::vector<Job> jobs;
    std::vector<scenario::Scenario> distinct;
    std::vector<SetupRep> reps;
    std::map<std::pair<std::string, std::uint64_t>, std::string> oracle;
    double oracle_run_s = 0.0;
    {
        const TraceScope scope(traces.get("setup"));
        for (const auto& r : plan.all("variant")) {
            const auto key = "T:" + r.at(1);
            texts[key] = io::scenario_to_text(make_variant(
                r.at(1), r.at(2), std::stoi(r.at(3)), std::stoi(r.at(4))));
            const std::uint64_t t0 = obs::now_ns();
            {
                obs::Span span("bench/parse_scenario");
                scenarios[key] = io::parse_scenario(texts[key]);
            }
            parse_ms += ms_between(t0, obs::now_ns());
        }
        for (const auto& r : plan.all("job")) {
            Job job;
            auto& req = job.request;
            if (r.at(1) == "R") {
                const auto& s =
                    registry.at(std::stoull(r.at(2)) % registry.size());
                job.key = "R:" + s.name;
                scenarios.emplace(job.key, s);
                req.registry = true;
                req.scenario = s.name;
            } else {
                job.key = "T:" + r.at(2);
                req.registry = false;
                req.scenario = texts.at(job.key);
            }
            const auto& s = scenarios.at(job.key);
            req.engine = DeviceType::kCpu;
            req.model = s.sim.model;
            req.seed = seeds.at(std::stoull(r.at(3)) % seeds.size());
            req.steps = s.default_steps;
            req.engine_threads = 1;
            jobs.push_back(std::move(job));
        }
        if (jobs.empty()) throw std::runtime_error("plan: no jobs");

        // Set-up cost of the job set: every distinct scenario once, cold.
        // Half the repetitions run here and half after the client loop, so
        // a burst of host load cannot cover them all.
        for (const auto& [key, s] : scenarios) distinct.push_back(s);
        for (int i = 0; i < setup_reps / 2; ++i) {
            const OnFastestCpu cpu;
            reps.push_back(setup_once(distinct));
        }

        // The oracle: in-process run_prepared of every distinct (scenario,
        // seed) the job list holds, before timing starts.
        scenario::RunnerOptions opts;
        opts.engine_threads = 1;
        const scenario::ScenarioRunner runner(opts);
        std::map<std::string, scenario::PreparedScenario> prepared;
        for (const auto& job : jobs) {
            const auto key = std::make_pair(job.key, job.request.seed);
            if (oracle.count(key) != 0) continue;
            try {
                auto it = prepared.find(job.key);
                if (it == prepared.end()) {
                    it = prepared
                             .emplace(job.key, scenario::prepare_scenario(
                                                   scenarios.at(job.key)))
                             .first;
                }
                const std::uint64_t t0 = obs::now_ns();
                scenario::RunRecord rec;
                {
                    obs::Span span("bench/run_prepared");
                    rec = runner.run_prepared(it->second, job.request.engine,
                                              job.request.model,
                                              job.request.seed,
                                              job.request.steps);
                }
                oracle_run_s += seconds_between(t0, obs::now_ns());
                oracle[key] = hex(rec.fingerprint);
            } catch (const std::exception& ex) {
                oracle[key] = std::string("error: ") + ex.what();
            }
        }
    }

    const auto conns = std::stoul(plan.get("connections"));
    const auto depth = std::stoul(plan.get("inflight"));
    const double seconds = std::stod(plan.get("seconds"));
    std::vector<std::vector<JobTiming>> timings(conns);
    std::vector<std::string> fatal(conns);
    double wall_s = 0.0;
    {
        obs::Tracer* const tracer = traces.get("server");
        const std::uint64_t start = obs::now_ns();
        const auto deadline =
            start + static_cast<std::uint64_t>(seconds * 1e9);
        std::vector<std::thread> threads;
        try {
            for (std::size_t c = 0; c < conns; ++c) {
                threads.emplace_back(client_loop, std::cref(socket_path),
                                     std::cref(jobs), c, conns, depth, start,
                                     deadline, std::ref(timings[c]),
                                     std::ref(fatal[c]));
            }
        } catch (...) {
            for (auto& t : threads) t.join();
            throw;
        }
        // With a tracer, the loop runs traced every other half second.
        for (bool on = true; tracer != nullptr; on = !on) {
            const std::uint64_t now = obs::now_ns();
            if (now >= deadline) break;
            obs::Tracer::install(on ? tracer : nullptr);
            std::this_thread::sleep_for(std::chrono::nanoseconds(
                std::min<std::uint64_t>(deadline - now, 500'000'000)));
        }
        obs::Tracer::install(nullptr);
        for (auto& t : threads) t.join();
        wall_s = seconds_between(start, obs::now_ns());
    }
    server::Client stats_client(socket_path);
    const auto stats = stats_client.stats();
    {
        const TraceScope scope(traces.get("setup"));
        while (reps.size() < static_cast<std::size_t>(setup_reps)) {
            const OnFastestCpu cpu;
            reps.push_back(setup_once(distinct));
        }
    }

    put_setup(w, reps);
    put(w, "parse_ms", parse_ms);
    put(w, "oracle_run_s", oracle_run_s);
    put_count(w, "oracle_runs", oracle.size());
    put(w, "wall_s", wall_s);
    put_count(w, "cache_entries", stats.cache_entries);
    w.key("fatal");
    w.begin_array();
    for (const auto& f : fatal) {
        if (!f.empty()) w.value(f);
    }
    w.end_array();
    w.key("jobs");
    w.begin_array();
    for (const auto& conn_timings : timings) {
        for (const auto& t : conn_timings) {
            const auto& job = jobs[t.job];
            w.begin_object();
            put_count(w, "job", t.job);
            put_str(w, "key", job.key);
            put_count(w, "seed", job.request.seed);
            put_str(w, "oracle", oracle.at({job.key, job.request.seed}));
            put(w, "submit_ms", t.submit_ms);
            put(w, "accept_ms", t.accept_ms);
            put(w, "first_step_ms", t.first_step_ms);
            put(w, "done_ms", t.done_ms);
            put_count(w, "queue_depth", t.queue_depth);
            put_count(w, "retries", t.retries);
            w.key("cache_hit");
            w.value(t.cache_hit);
            w.key("traced");
            w.value(t.traced);
            if (!t.error.empty()) {
                put_str(w, "error", t.error);
            } else if (t.done_ms >= 0) {
                put_str(w, "fingerprint", hex(t.fingerprint));
            }
            w.end_object();
        }
    }
    w.end_array();
}

}  // namespace

int main(int argc, char** argv) {
    std::signal(SIGPIPE, SIG_IGN);
    const pedsim::io::ArgParser args(argc, argv);
    const auto plan_path = args.get("plan");
    const auto out_path = args.get("out");
    if (plan_path.empty() || out_path.empty()) {
        std::fprintf(stderr,
                     "usage: perfbench_harness --plan=FILE --out=FILE "
                     "[--trace-dir=DIR]\n");
        return 2;
    }
    try {
        const Plan plan(plan_path);
        Traces traces(args.get("trace-dir"));
        const auto kind = plan.get("kind");
        pedsim::io::JsonWriter w;
        w.begin_object();
        put_str(w, "kind", kind);
        if (kind == "paper") {
            run_paper(plan, traces, w);
        } else if (kind == "sweep") {
            run_sweep(plan, traces, w);
        } else if (kind == "server") {
            run_server(plan, traces, w);
        } else {
            throw std::runtime_error("plan: unknown kind '" + kind + "'");
        }
        put(w, "peak_rss_mb", peak_rss_mb());
        w.end_object();
        traces.write_all();
        std::ofstream out(out_path);
        out << w.str() << '\n';
        if (!out) throw std::runtime_error("cannot write " + out_path);
        return 0;
    } catch (const std::exception& ex) {
        std::fprintf(stderr, "perfbench_harness: %s\n", ex.what());
        return 1;
    }
}
