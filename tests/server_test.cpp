// Resident-server suite: wire protocol round-trips and fuzz cases,
// admission-queue fairness and bounds, warm-cache semantics, and
// end-to-end socket round-trips pinning the server determinism contract —
// server-returned fingerprints bit-identical to in-process runs, cache
// hits bit-identical to misses, cache entries sharing their distance
// fields, malformed frames killing one session but never the server,
// finished sessions reaped, graceful drain delivering every admitted
// job's results, and a job whose client has gone releasing its executor.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/door_schedule.hpp"
#include "grid/field_store.hpp"
#include "io/scenario_file.hpp"
#include "obs/metrics.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "server/admission.hpp"
#include "server/cache.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

using namespace pedsim;
using namespace pedsim::server;

namespace {

/// Unique socket path per test (Unix sockets outlive crashed tests, so
/// never share one).
std::string test_socket(const char* tag) {
    static int counter = 0;
    return "/tmp/pedsim_test_" + std::to_string(::getpid()) + "_" + tag +
           "_" + std::to_string(counter++) + ".sock";
}

/// A server running on its own thread; stops and joins on destruction.
struct ServerFixture {
    explicit ServerFixture(ServerOptions opts) : srv(std::move(opts)) {
        srv.bind();  // before the thread starts: connect cannot race it
        thread = std::thread([this] { srv.serve(); });
    }
    ~ServerFixture() {
        srv.request_stop();
        thread.join();
    }
    Server srv;
    std::thread thread;
};

/// Highest descriptor open in this process (below 4096), by fcntl
/// alone so a child may call it between fork and exec.
int highest_open_fd() {
    int top = 2;
    for (int fd = 3; fd < 4096; ++fd) {
        if (::fcntl(fd, F_GETFD) != -1) top = fd;
    }
    return top;
}

/// pedsim_server in a child process: unlike ServerFixture, it can be
/// ended while a job is still running. A positive `nofile_headroom`
/// lowers the child's RLIMIT_NOFILE, between fork and exec, to its
/// highest open descriptor + 1 + `nofile_headroom`: the server's own
/// descriptors and the sanitizer runtimes fit, and few connections do.
struct ServerProcess {
    ServerProcess(const std::string& socket, const std::string& metrics,
                  int nofile_headroom = 0) {
        std::vector<std::string> args = {PEDSIM_SERVER_BIN,
                                         "--socket=" + socket, "--threads=1",
                                         "--metrics-json=" + metrics};
        std::vector<char*> argv;
        for (auto& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        pid = ::fork();
        if (pid == 0) {
            // Async-signal-safe calls only: the test process has threads.
            if (nofile_headroom > 0) {
                rlimit lim{};
                ::getrlimit(RLIMIT_NOFILE, &lim);
                lim.rlim_cur = static_cast<rlim_t>(highest_open_fd() + 1 +
                                                   nofile_headroom);
                ::setrlimit(RLIMIT_NOFILE, &lim);
            }
            ::execve(argv[0], argv.data(), environ);
            ::_exit(127);
        }
        if (pid < 0) return;
        for (int i = 0; i < 1000; ++i) {  // until it listens (<= 10 s)
            try {
                Client probe(socket);
                return;
            } catch (const std::exception&) {
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
            }
        }
    }
    ~ServerProcess() { stop(SIGKILL); }
    ServerProcess(const ServerProcess&) = delete;
    ServerProcess& operator=(const ServerProcess&) = delete;
    /// Signal the server and reap it; SIGTERM drains and writes metrics.
    /// Returns the wait status, or -1 when no server was running.
    int stop(int sig) {
        if (pid <= 0) return -1;
        ::kill(pid, sig);
        int status = -1;
        ::waitpid(pid, &status, 0);
        pid = -1;
        return status;
    }
    pid_t pid = -1;
};

protocol::JobRequest registry_job(const std::string& name,
                                  backend::DeviceType engine,
                                  int steps = 40) {
    protocol::JobRequest req;
    req.registry = true;
    req.scenario = name;
    req.engine = engine;
    req.model = core::Model::kLem;
    req.seed = scenario::get(name).sim.seed;
    req.steps = steps;
    return req;
}

/// The in-process truth the server must reproduce bit-for-bit.
scenario::RunRecord local_run(const protocol::JobRequest& req,
                              std::vector<core::StepResult>* steps = nullptr) {
    const scenario::ScenarioRunner runner;
    const auto s = req.registry ? scenario::get(req.scenario)
                                : io::parse_scenario(req.scenario);
    const core::StepObserver obs =
        steps == nullptr ? core::StepObserver{}
                         : [&](const core::StepResult& sr) {
                               steps->push_back(sr);
                               return true;
                           };
    return runner.run_prepared({s, nullptr}, req.engine, req.model, req.seed,
                               req.steps, obs);
}

}  // namespace

// --- Protocol -----------------------------------------------------------

TEST(Protocol, SubmitRoundTrip) {
    protocol::JobRequest req;
    req.registry = false;
    req.scenario = "name = x\nsteps = 7\n";
    req.engine = backend::DeviceType::kSimt;
    req.model = core::Model::kAco;
    req.seed = 0xDEADBEEFCAFEF00Dull;
    req.steps = 123;
    req.engine_threads = 3;
    const auto decoded = protocol::decode_submit(protocol::encode_submit(req));
    EXPECT_EQ(decoded.registry, req.registry);
    EXPECT_EQ(decoded.scenario, req.scenario);
    EXPECT_EQ(decoded.engine, req.engine);
    EXPECT_EQ(decoded.model, req.model);
    EXPECT_EQ(decoded.seed, req.seed);
    EXPECT_EQ(decoded.steps, req.steps);
    EXPECT_EQ(decoded.engine_threads, req.engine_threads);
}

TEST(Protocol, StepsAndDoneRoundTrip) {
    protocol::StepBatch batch;
    batch.job_id = 42;
    for (int i = 0; i < 3; ++i) {
        core::StepResult s;
        s.step = static_cast<std::uint64_t>(i);
        s.proposals = 10 + i;
        s.moves = 8 + i;
        s.conflicts = i;
        s.crossed_top = 1;
        s.crossed_bottom = 2;
        s.waypoint_advances = i;
        batch.steps.push_back(s);
    }
    const auto rt = protocol::decode_steps(protocol::encode_steps(batch));
    EXPECT_EQ(rt.job_id, 42u);
    EXPECT_EQ(rt.steps, batch.steps);

    protocol::DoneMsg done;
    done.job_id = 42;
    done.fingerprint = 0x0123456789ABCDEFull;
    done.result.steps_run = 100;
    done.result.crossed_top = 5;
    done.result.crossed_bottom = 6;
    done.result.total_moves = 700;
    done.result.total_conflicts = 8;
    done.result.wall_seconds = 0.25;
    done.result.modeled_device_seconds = 0.125;
    done.setup_seconds = 0.5;
    done.engine_threads = 2;
    done.cache_hit = true;
    const auto d = protocol::decode_done(protocol::encode_done(done));
    EXPECT_EQ(d.fingerprint, done.fingerprint);
    EXPECT_EQ(d.result.total_moves, done.result.total_moves);
    EXPECT_DOUBLE_EQ(d.result.wall_seconds, 0.25);
    EXPECT_DOUBLE_EQ(d.setup_seconds, 0.5);
    EXPECT_EQ(d.engine_threads, 2);
    EXPECT_TRUE(d.cache_hit);
}

TEST(Protocol, MalformedPayloadsThrow) {
    // Underrun: a submit frame cut short.
    auto payload = protocol::encode_submit(protocol::JobRequest{});
    payload.resize(payload.size() - 1);
    EXPECT_THROW(protocol::decode_submit(payload), protocol::ProtocolError);
    // Trailing garbage after a complete message.
    auto acc = protocol::encode_accepted({1, 2});
    acc.push_back(0xFF);
    EXPECT_THROW(protocol::decode_accepted(acc), protocol::ProtocolError);
    // Out-of-range enum fields.
    protocol::Writer w;
    w.u8(7);  // bad source
    EXPECT_THROW(protocol::decode_submit(w.take()), protocol::ProtocolError);
    // Engine byte 2 names no device.
    auto engine = protocol::encode_submit(protocol::JobRequest{});
    engine[1] = 2;
    EXPECT_THROW(protocol::decode_submit(engine), protocol::ProtocolError);
    // A step count the payload cannot hold: a 12-byte kStep payload that
    // claims 0xFFFFFFFF records must fail by name, not reserve for them.
    protocol::Writer steps;
    steps.u64(1);
    steps.u32(0xFFFFFFFFu);
    EXPECT_THROW(protocol::decode_steps(steps.take()),
                 protocol::ProtocolError);
}

TEST(Protocol, DirectionSplitCoversTheTypeSpace) {
    // Requests 1 and 3, replies 16-21, nothing in both halves. Type 2 is
    // unknown: no client frame may stop the server.
    for (int t = 0; t < 256; ++t) {
        const auto b = static_cast<std::uint8_t>(t);
        EXPECT_FALSE(protocol::known_request_type(b) &&
                     protocol::known_reply_type(b))
            << "type " << t << " claimed by both directions";
    }
    EXPECT_TRUE(protocol::known_request_type(
        static_cast<std::uint8_t>(protocol::MsgType::kSubmit)));
    EXPECT_FALSE(protocol::known_request_type(2));
    EXPECT_FALSE(protocol::known_reply_type(2));
    EXPECT_TRUE(protocol::known_request_type(
        static_cast<std::uint8_t>(protocol::MsgType::kStats)));
    EXPECT_TRUE(protocol::known_reply_type(
        static_cast<std::uint8_t>(protocol::MsgType::kAccepted)));
    EXPECT_TRUE(protocol::known_reply_type(
        static_cast<std::uint8_t>(protocol::MsgType::kStatsReply)));
    EXPECT_FALSE(protocol::known_request_type(0));
    EXPECT_FALSE(protocol::known_reply_type(0));
}

TEST(Protocol, WrongDirectionFramesThrowAtTheFramingLayer) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    // A request frame read by a client is session-fatal, with the
    // direction named in the error. Empty payloads keep the socket clean
    // after the throw (the check fires on the header, before the payload
    // would be drained).
    protocol::write_frame(fds[0], protocol::MsgType::kSubmit, {});
    protocol::Frame frame;
    try {
        protocol::read_frame(fds[1], frame, protocol::Direction::kReply);
        FAIL() << "request frame accepted by a reply-direction reader";
    } catch (const protocol::ProtocolError& e) {
        EXPECT_NE(std::string(e.what())
                      .find("wrong-direction frame: request type 1 sent to "
                            "the client"),
                  std::string::npos)
            << e.what();
    }

    // A reply frame read by a server is equally fatal.
    protocol::write_frame(fds[1], protocol::MsgType::kAccepted, {});
    try {
        protocol::read_frame(fds[0], frame, protocol::Direction::kRequest);
        FAIL() << "reply frame accepted by a request-direction reader";
    } catch (const protocol::ProtocolError& e) {
        EXPECT_NE(std::string(e.what())
                      .find("wrong-direction frame: reply type 16 sent to "
                            "the server"),
                  std::string::npos)
            << e.what();
    }

    // Right-direction frames still pass on the same sockets.
    protocol::write_frame(fds[0], protocol::MsgType::kStats, {});
    EXPECT_TRUE(
        protocol::read_frame(fds[1], frame, protocol::Direction::kRequest));
    EXPECT_EQ(frame.type, protocol::MsgType::kStats);
    ::close(fds[0]);
    ::close(fds[1]);
}

// --- Admission queue ----------------------------------------------------

TEST(Admission, RoundRobinAcrossClients) {
    AdmissionQueue<int> q(16);
    std::string reason;
    // Client 1 floods; client 2 submits two jobs afterwards.
    EXPECT_TRUE(q.push(1, 10, &reason));
    EXPECT_TRUE(q.push(1, 11, &reason));
    EXPECT_TRUE(q.push(1, 12, &reason));
    EXPECT_TRUE(q.push(1, 13, &reason));
    EXPECT_TRUE(q.push(2, 20, &reason));
    EXPECT_TRUE(q.push(2, 21, &reason));
    std::vector<int> order;
    int v = 0;
    for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(q.pop(v));
        order.push_back(v);
    }
    // Alternating service while both lanes are live, FIFO within a lane.
    EXPECT_EQ(order, (std::vector<int>{10, 20, 11, 21, 12, 13}));
}

TEST(Admission, RejectsWhenFullAndDrainsAfterClose) {
    AdmissionQueue<int> q(2);
    std::string reason;
    EXPECT_TRUE(q.push(1, 1, &reason));
    EXPECT_TRUE(q.push(1, 2, &reason));
    EXPECT_FALSE(q.push(1, 3, &reason));
    EXPECT_NE(reason.find("queue full"), std::string::npos) << reason;
    q.close();
    EXPECT_FALSE(q.push(2, 4, &reason));
    EXPECT_NE(reason.find("shutting down"), std::string::npos) << reason;
    int v = 0;
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 1);
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 2);
    EXPECT_FALSE(q.pop(v));  // closed and drained
}

// --- Warm cache ---------------------------------------------------------

TEST(Cache, KeysSeparateTextAndRegistryNamespaces) {
    // A scenario FILE whose text happens to equal a registry NAME must
    // never alias the built-in.
    EXPECT_NE(ScenarioCache::key_for_text("forward"),
              ScenarioCache::key_for_registry("forward"));
    EXPECT_NE(ScenarioCache::key_for_text("a"),
              ScenarioCache::key_for_text("b"));
}

TEST(Cache, PerturbationLinesEnterTheContentKey) {
    // The warm cache keys scenario text by its content, so two texts
    // differing only in a perturbation line must occupy distinct entries:
    // a cached unperturbed build must never satisfy a perturbed submit.
    const auto base = io::scenario_to_text(scenario::get("corridor_small"));
    const auto perturbed = base + "noshow = top 0.25 0\n";
    EXPECT_NE(ScenarioCache::key_for_text(base),
              ScenarioCache::key_for_text(perturbed));
    // And the perturbed text itself is valid and round-trip exact.
    const auto s = io::parse_scenario(perturbed);
    ASSERT_EQ(s.sim.perturb.no_shows.size(), 1u);
    EXPECT_EQ(io::parse_scenario(io::scenario_to_text(s)).sim, s.sim);
}

TEST(Cache, DistinctTextsAlwaysBuildSeparately) {
    // The key is the submission's bytes, not a digest of them, so texts
    // that differ anywhere — one byte, a trailing byte, a prefix, the
    // namespace a registry name lives in — never share an entry, and no
    // job is handed another scenario's prepared state.
    const auto base = io::scenario_to_text(scenario::get("corridor_small"));
    std::vector<std::string> texts{"", base, base + "\n",
                                   base.substr(0, base.size() - 1)};
    for (std::size_t i = 0; i < base.size(); i += base.size() / 16) {
        std::string flipped = base;
        flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
        texts.push_back(flipped);
    }
    ScenarioCache cache;
    int builds = 0;
    const auto build_for = [&](const std::string& label) {
        return [&builds, label] {
            ++builds;
            scenario::PreparedScenario p;
            p.scenario.name = label;
            return p;
        };
    };
    for (const auto& t : texts) {
        bool hit = true;
        const auto entry =
            cache.get_or_prepare(ScenarioCache::key_for_text(t),
                                 build_for(t), &hit);
        EXPECT_FALSE(hit);
        EXPECT_EQ(entry->scenario.name, t);
    }
    bool hit = true;
    const auto named = cache.get_or_prepare(
        ScenarioCache::key_for_registry(base), build_for("registry"), &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(named->scenario.name, "registry");
    EXPECT_EQ(builds, static_cast<int>(texts.size()) + 1);
    EXPECT_EQ(cache.size(), texts.size() + 1);
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(Cache, IdenticalTextsHitTheCache) {
    // Byte-equal texts from separate buffers share one entry and one
    // build, whoever submits them.
    const auto text = io::scenario_to_text(scenario::get("corridor_small"));
    const std::string copy(text.begin(), text.end());
    ScenarioCache cache;
    int builds = 0;
    const auto build = [&] {
        ++builds;
        return scenario::prepare_scenario(io::parse_scenario(text));
    };
    const auto a = cache.get_or_prepare(ScenarioCache::key_for_text(text),
                                        build);
    bool hit = false;
    const auto b = cache.get_or_prepare(ScenarioCache::key_for_text(copy),
                                        build, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(cache.size(), 1u);
}

TEST(Cache, BuildsOnceThenShares) {
    ScenarioCache cache;
    int builds = 0;
    const auto build = [&] {
        ++builds;
        return scenario::prepare_scenario(scenario::get("corridor_small"));
    };
    const auto key = ScenarioCache::key_for_registry("corridor_small");
    const auto a = cache.get_or_prepare(key, build);
    bool hit = false;
    const auto b = cache.get_or_prepare(key, build, &hit);
    EXPECT_EQ(builds, 1);
    EXPECT_TRUE(hit);
    EXPECT_EQ(a.get(), b.get());  // the same shared entry, not a copy
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(Cache, ThrowingBuildIsCachedPerKey) {
    ScenarioCache cache;
    const auto key = ScenarioCache::key_for_text("garbage");
    const auto boom = [&]() -> scenario::PreparedScenario {
        throw std::invalid_argument("unparseable");
    };
    EXPECT_THROW(cache.get_or_prepare(key, boom), std::invalid_argument);
    // Deterministic input, deterministic error: rethrown, not rebuilt.
    int calls = 0;
    const auto count = [&]() -> scenario::PreparedScenario {
        ++calls;
        throw std::invalid_argument("unparseable");
    };
    EXPECT_THROW(cache.get_or_prepare(key, count), std::invalid_argument);
    EXPECT_EQ(calls, 0);
}

// --- End-to-end over the socket ----------------------------------------

TEST(ServerRoundTrip, FingerprintsMatchLocalAndCacheHitsAreBitIdentical) {
    const auto sock = test_socket("roundtrip");
    ServerFixture fixture({sock, 2, 16});
    Client client(sock);

    const auto req = registry_job("corridor_small",
                                  backend::DeviceType::kCpu, 60);
    std::vector<core::StepResult> local_steps;
    const auto local = local_run(req, &local_steps);

    // First submission: a cache miss. Second: a hit. Both bit-identical
    // to the in-process run — steps stream included.
    for (const bool expect_hit : {false, true}) {
        const auto sub = client.submit(req);
        ASSERT_TRUE(sub.accepted) << sub.reason;
        const auto r = client.wait_any();
        ASSERT_FALSE(r.failed) << r.error;
        EXPECT_EQ(r.cache_hit, expect_hit);
        EXPECT_EQ(r.fingerprint, local.fingerprint);
        EXPECT_EQ(r.steps, local_steps);
        EXPECT_EQ(r.result.total_moves, local.result.total_moves);
        EXPECT_EQ(r.result.steps_run, local.result.steps_run);
    }
    const auto stats = client.stats();
    EXPECT_EQ(stats.cache_misses, 1u);
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.completed, 2u);
}

TEST(ServerRoundTrip, ScenarioTextSubmissionMatchesRegistrySubmission) {
    const auto sock = test_socket("text");
    ServerFixture fixture({sock, 2, 16});
    Client client(sock);

    auto by_name = registry_job("bottleneck_doorway",
                                backend::DeviceType::kSimt, 40);
    protocol::JobRequest by_text = by_name;
    by_text.registry = false;
    by_text.scenario =
        io::scenario_to_text(scenario::get("bottleneck_doorway"));

    ASSERT_TRUE(client.submit(by_name).accepted);
    ASSERT_TRUE(client.submit(by_text).accepted);
    const auto results = client.wait_all();
    ASSERT_EQ(results.size(), 2u);
    ASSERT_FALSE(results[0].failed) << results[0].error;
    ASSERT_FALSE(results[1].failed) << results[1].error;
    EXPECT_EQ(results[0].fingerprint, results[1].fingerprint);
    EXPECT_EQ(results[0].fingerprint, local_run(by_name).fingerprint);
}

TEST(ServerRoundTrip, GarbageScenarioTextFailsPerJobNotPerServer) {
    const auto sock = test_socket("garbage");
    ServerFixture fixture({sock, 1, 16});
    Client client(sock);

    protocol::JobRequest bad;
    bad.registry = false;
    bad.scenario = "this is not a scenario file\x01\x02";
    bad.engine = backend::DeviceType::kCpu;
    bad.steps = 10;
    ASSERT_TRUE(client.submit(bad).accepted);
    const auto r = client.wait_any();
    EXPECT_TRUE(r.failed);
    EXPECT_FALSE(r.error.empty());

    // An unbounded look-ahead is rejected at parse time instead of
    // pinning the executor on its first step.
    auto far = scenario::get("corridor_small");
    far.sim.scan.range = 2000000000;
    protocol::JobRequest pinned;
    pinned.registry = false;
    pinned.scenario = io::scenario_to_text(far);
    pinned.engine = backend::DeviceType::kCpu;
    pinned.steps = 10;
    ASSERT_TRUE(client.submit(pinned).accepted);
    const auto r2 = client.wait_any();
    EXPECT_TRUE(r2.failed);
    EXPECT_NE(r2.error.find("scan_range"), std::string::npos) << r2.error;

    // A nonsense model parameter fails by name instead of returning a
    // fingerprint (alpha = nan got 5 of 400 agents across, silently).
    protocol::JobRequest nan_alpha = pinned;
    nan_alpha.scenario =
        "alpha = nan\n" + io::scenario_to_text(scenario::get("corridor_small"));
    ASSERT_TRUE(client.submit(nan_alpha).accepted);
    const auto r3 = client.wait_any();
    EXPECT_TRUE(r3.failed);
    EXPECT_NE(r3.error.find("alpha"), std::string::npos) << r3.error;

    // The server survived all three: a good job still runs on the same
    // connection.
    const auto good = registry_job("corridor_small",
                                   backend::DeviceType::kCpu, 20);
    ASSERT_TRUE(client.submit(good).accepted);
    const auto r4 = client.wait_any();
    ASSERT_FALSE(r4.failed) << r4.error;
    EXPECT_EQ(r4.fingerprint, local_run(good).fingerprint);
}

TEST(ServerRoundTrip, UnknownRegistryNameAndBadStepsAreRejected) {
    const auto sock = test_socket("reject");
    ServerFixture fixture({sock, 1, 16});
    Client client(sock);
    auto req = registry_job("corridor_small", backend::DeviceType::kCpu);
    req.scenario = "no_such_scenario";
    const auto s1 = client.submit(req);
    EXPECT_FALSE(s1.accepted);
    EXPECT_NE(s1.reason.find("no_such_scenario"), std::string::npos)
        << s1.reason;
    auto zero = registry_job("corridor_small", backend::DeviceType::kCpu);
    zero.steps = 0;
    const auto s2 = client.submit(zero);
    EXPECT_FALSE(s2.accepted);
    EXPECT_NE(s2.reason.find("steps"), std::string::npos) << s2.reason;
}

TEST(ServerRoundTrip, QueueFullRejectionNamesTheBound) {
    // executors=0 is the test-only "never drain" configuration: admission
    // is deterministic — max_queue jobs fit, the next is rejected.
    const auto sock = test_socket("full");
    ServerFixture fixture({sock, 0, 2});
    Client client(sock);
    const auto req = registry_job("corridor_small",
                                  backend::DeviceType::kCpu, 10);
    EXPECT_TRUE(client.submit(req).accepted);
    EXPECT_TRUE(client.submit(req).accepted);
    const auto third = client.submit(req);
    EXPECT_FALSE(third.accepted);
    EXPECT_NE(third.reason.find("queue full"), std::string::npos)
        << third.reason;
}

TEST(ServerFuzz, MalformedFramesKillTheSessionNotTheServer) {
    const auto sock = test_socket("fuzz");
    ServerFixture fixture({sock, 1, 16});
    // Connected before the abuse and kept open throughout.
    Client bystander(sock);

    const auto raw_connect = [&] {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, sock.c_str(),
                     sizeof(addr.sun_path) - 1);
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        EXPECT_GE(fd, 0);
        EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr)),
                  0);
        return fd;
    };
    const auto expect_closed = [](int fd) {
        // The server closes a session it cannot resync; read drains any
        // buffered output then hits EOF.
        char buf[256];
        for (;;) {
            const ssize_t r = ::read(fd, buf, sizeof(buf));
            if (r <= 0) {
                EXPECT_EQ(r, 0);
                break;
            }
        }
        ::close(fd);
    };

    {
        // Oversized length field: 0xFFFFFFFF payload announcement.
        const int fd = raw_connect();
        const std::uint8_t frame[5] = {1, 0xFF, 0xFF, 0xFF, 0xFF};
        ASSERT_EQ(::write(fd, frame, sizeof(frame)), 5);
        expect_closed(fd);
    }
    {
        // Unknown frame type.
        const int fd = raw_connect();
        const std::uint8_t frame[5] = {99, 0, 0, 0, 0};
        ASSERT_EQ(::write(fd, frame, sizeof(frame)), 5);
        expect_closed(fd);
    }
    {
        // Truncated frame: header promising 100 bytes, connection closed
        // after 3.
        const int fd = raw_connect();
        const std::uint8_t frame[8] = {1, 100, 0, 0, 0, 0xAA, 0xBB, 0xCC};
        ASSERT_EQ(::write(fd, frame, sizeof(frame)), 8);
        ::close(fd);
    }
    {
        // A submit frame whose payload decodes to garbage fields.
        const int fd = raw_connect();
        const std::uint8_t frame[8] = {1, 3, 0, 0, 0, 0xFF, 0xFF, 0xFF};
        ASSERT_EQ(::write(fd, frame, sizeof(frame)), 8);
        expect_closed(fd);
    }
    {
        // Type 2, empty payload: an unknown type (no client frame may stop
        // the server), so only the sender's session ends.
        const int fd = raw_connect();
        const std::uint8_t frame[5] = {2, 0, 0, 0, 0};
        ASSERT_EQ(::write(fd, frame, sizeof(frame)), 5);
        expect_closed(fd);
    }

    // After all five abusive sessions the server still serves real work,
    // on the connection that stayed open and on a new one.
    const auto req =
        registry_job("corridor_small", backend::DeviceType::kCpu, 20);
    const std::uint64_t truth = local_run(req).fingerprint;
    Client fresh(sock);
    for (Client* client : {&bystander, &fresh}) {
        ASSERT_TRUE(client->submit(req).accepted);
        const auto r = client->wait_any();
        ASSERT_FALSE(r.failed) << r.error;
        EXPECT_EQ(r.fingerprint, truth);
    }
}

TEST(ServerFuzz, WrongDirectionFrameKillsTheSessionNotTheServer) {
    const auto sock = test_socket("direction");
    ServerFixture fixture({sock, 1, 16});

    // A reply-type frame (kAccepted = 16) pushed at the server: the type
    // is known to the protocol, but it travels the wrong way. The session
    // dies at the framing layer; the server keeps serving.
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const std::uint8_t frame[5] = {16, 0, 0, 0, 0};
    ASSERT_EQ(::write(fd, frame, sizeof(frame)), 5);
    char buf[64];
    ssize_t r;
    while ((r = ::read(fd, buf, sizeof(buf))) > 0) {
    }
    EXPECT_EQ(r, 0);  // clean close, not a hung session
    ::close(fd);

    Client client(sock);
    const auto req =
        registry_job("corridor_small", backend::DeviceType::kCpu, 20);
    ASSERT_TRUE(client.submit(req).accepted);
    const auto ok = client.wait_any();
    ASSERT_FALSE(ok.failed) << ok.error;
    EXPECT_EQ(ok.fingerprint, local_run(req).fingerprint);
}

TEST(ServerRoundTrip, NegativeEngineKnobsAreRejectedAtAdmission) {
    const auto sock = test_socket("knobs");
    ServerFixture fixture({sock, 1, 16});
    Client client(sock);

    auto negative = registry_job("corridor_small",
                                 backend::DeviceType::kCpu, 10);
    negative.engine_threads = -1;
    const auto s1 = client.submit(negative);
    EXPECT_FALSE(s1.accepted);
    EXPECT_NE(s1.reason.find("engine_threads must be in [0, 4096], got -1"),
              std::string::npos)
        << s1.reason;

    auto absurd = registry_job("corridor_small",
                               backend::DeviceType::kCpu, 10);
    absurd.engine_threads = 1 << 20;
    const auto s2 = client.submit(absurd);
    EXPECT_FALSE(s2.accepted);
    EXPECT_NE(s2.reason.find("engine_threads must be in [0, 4096]"),
              std::string::npos)
        << s2.reason;

    // The session survived both rejections; a sane job still runs.
    const auto good = registry_job("corridor_small",
                                   backend::DeviceType::kCpu, 20);
    ASSERT_TRUE(client.submit(good).accepted);
    const auto r = client.wait_any();
    ASSERT_FALSE(r.failed) << r.error;
}

TEST(ServerLifecycle, SecondServerOnALiveSocketFailsWithoutBreakingIt) {
    const auto sock = test_socket("livebind");
    ServerFixture fixture({sock, 1, 16});

    // A second server must refuse to steal the live socket...
    Server second({sock, 1, 16});
    try {
        second.bind();
        FAIL() << "second bind on a live socket succeeded";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what())
                      .find("address in use by a running server"),
                  std::string::npos)
            << e.what();
    }

    // ...and the failed attempt (including `second`'s destructor) must
    // leave the first server fully functional.
    Client client(sock);
    const auto req =
        registry_job("corridor_small", backend::DeviceType::kCpu, 20);
    ASSERT_TRUE(client.submit(req).accepted);
    const auto r = client.wait_any();
    ASSERT_FALSE(r.failed) << r.error;
    EXPECT_EQ(r.fingerprint, local_run(req).fingerprint);
}

TEST(ServerLifecycle, StaleSocketFileIsReclaimed) {
    // A dead server's leftover socket file (bound once, listener gone,
    // never unlinked) must not block the next startup.
    const auto sock = test_socket("stale");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    ::close(fd);  // socket file remains on disk, nobody listening

    ServerFixture fixture({sock, 1, 16});
    Client client(sock);
    const auto req = registry_job("corridor_small",
                                  backend::DeviceType::kCpu, 10);
    ASSERT_TRUE(client.submit(req).accepted);
    EXPECT_FALSE(client.wait_any().failed);
}

TEST(ServerLifecycle, FinishedSessionsAreReaped) {
    // Each connection's session thread is joined at a later accept once
    // the client hangs up; before, every one stayed until shutdown with
    // its stack mapping (8 MB of address space each).
    const auto sock = test_socket("reap");
    ServerFixture fixture({sock, 1, 16});
    // This process's thread count (/proc/self/status) and mapping count.
    const auto threads = [] {
        std::ifstream in("/proc/self/status");
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind("Threads:", 0) == 0) {
                return std::stol(line.substr(8));
            }
        }
        return -1L;
    };
    const auto mappings = [] {
        std::ifstream in("/proc/self/maps");
        long n = 0;
        for (std::string line; std::getline(in, line);) ++n;
        return n;
    };
    const auto cycle = [&sock] { return Client(sock).stats(); };
    // Readings taken while one fresh connection is the only live session,
    // once the sessions before it have exited. The thread count is read
    // once: it is what is compared and what is returned.
    const auto settled = [&](long want_threads) {
        for (int i = 0; i < 500; ++i) {
            Client probe(sock);
            const bool alone = probe.stats().live_sessions == 1;
            const long n = threads();
            if (alone && (want_threads < 0 || n == want_threads)) {
                return std::make_pair(n, mappings());
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        return std::make_pair(-1L, -1L);
    };
    for (int i = 0; i < 8; ++i) cycle();  // settle the allocator
    // A session that has left the live count may not have exited yet, so
    // one reading can hold an extra thread; the baseline is the fewest.
    auto baseline = settled(-1);
    for (int i = 0; i < 20; ++i) {
        const auto reading = settled(-1);
        if (reading.first < baseline.first) baseline = reading;
    }
    const auto [threads0, maps0] = baseline;
    ASSERT_GT(threads0, 0);
    for (int i = 0; i < 200; ++i) ASSERT_GE(cycle().live_sessions, 1u);
    const auto [threads1, maps1] = settled(threads0);
    EXPECT_EQ(threads1, threads0);
    // 200 unjoined sessions would add about 400 mappings (a stack and its
    // guard page each); the slack covers the allocator's per-thread
    // arenas and cached stacks.
    EXPECT_LT(maps1 - maps0, 64L) << maps0 << " -> " << maps1;
}

TEST(ServerLifecycle, DescriptorLimitNeitherEndsNorSpinsTheServer) {
    // Any accept() error but EINTR used to end serve(): a burst of clients
    // at the descriptor limit made the server drain, exit and unlink its
    // socket, and every later connect got ENOENT.
    const auto sock = test_socket("fdlimit");
    const auto metrics = sock + ".metrics.json";
    constexpr int kHeadroom = 12;
    ServerProcess server(sock, metrics, kHeadroom);
    ASSERT_GT(server.pid, 0) << "cannot start " << PEDSIM_SERVER_BIN;

    // More connections than the server has descriptors, each asking for
    // stats. The connects are non-blocking: one that finds the backlog
    // full ends the burst instead of hanging it.
    const int burst = highest_open_fd() + 1 + kHeadroom + 8;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
    std::vector<int> fds;
    for (int i = 0; i < burst; ++i) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
        ASSERT_GE(fd, 0);
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
            ::close(fd);
            break;
        }
        ::fcntl(fd, F_SETFL, 0);  // blocking from here on
        protocol::write_frame(fd, protocol::MsgType::kStats, {});
        fds.push_back(fd);
    }
    // Collect replies until none comes for half a second: the server has
    // answered every connection it could accept and sits at its limit.
    std::vector<bool> done(fds.size(), false);
    std::size_t replies = 0;
    for (;;) {  // each pass settles at least one connection
        std::vector<pollfd> waiting;
        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (!done[i]) waiting.push_back({fds[i], POLLIN, 0});
        }
        if (waiting.empty() ||
            ::poll(waiting.data(), waiting.size(), 500) <= 0) {
            break;
        }
        for (std::size_t i = 0, w = 0; i < fds.size(); ++i) {
            if (done[i] || waiting[w++].revents == 0) continue;
            done[i] = true;
            protocol::Frame frame;
            try {
                if (protocol::read_frame(fds[i], frame,
                                         protocol::Direction::kReply)) {
                    ++replies;
                }
            } catch (const std::exception&) {
                // Reset by a server that went away: not a reply.
            }
        }
    }
    EXPECT_GT(replies, 0u);
    EXPECT_LT(replies, fds.size()) << "the burst never reached the limit";
    for (const int fd : fds) ::close(fd);

    // Descriptors free up as the burst hangs up; a new client is served.
    {
        Client client(sock);
        EXPECT_GE(client.stats().live_sessions, 1u);
    }
    const int status = server.stop(SIGTERM);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
    std::ifstream in(metrics);
    std::stringstream json;
    json << in.rdbuf();
    const std::string key = "\"server.accept.errors\":";
    const auto at = json.str().find(key);
    ASSERT_NE(at, std::string::npos) << json.str();
    const long errors = std::stol(json.str().substr(at + key.size()));
    EXPECT_GE(errors, 1);
    // One retry per back-off interval, not a spin on a readable listener.
    EXPECT_LT(errors, 1000);
    std::remove(metrics.c_str());
}

TEST(ServerRoundTrip, VariantTextAdoptsTheRegistryEntrysFields) {
    // A conveyor_platform copy whose mover starts later is its own cache
    // entry but passes through the registry scenario's 50 wall
    // configurations: the server keeps one copy of each field.
    const auto sock = test_socket("fields");
    ServerFixture fixture({sock, 2, 16});
    Client client(sock);
    const auto by_name =
        registry_job("conveyor_platform", backend::DeviceType::kCpu, 80);
    auto later = scenario::get("conveyor_platform");
    later.sim.movers.at(0).start += 15;
    protocol::JobRequest by_text = by_name;
    by_text.registry = false;
    by_text.scenario = io::scenario_to_text(later);

    grid::FieldStore store;
    const core::DoorSchedule sched(scenario::get("conveyor_platform").sim,
                                   &store);
    ASSERT_EQ(sched.field_count(), 50u);

    ASSERT_TRUE(client.submit(by_name).accepted);
    const auto r1 = client.wait_any();
    ASSERT_FALSE(r1.failed) << r1.error;
    EXPECT_EQ(r1.fingerprint, local_run(by_name).fingerprint);
    const auto before = client.stats();
    EXPECT_EQ(before.field_bytes, store.bytes());

    obs::MetricsRegistry metrics;  // the server runs in this process
    obs::MetricsRegistry::install(&metrics);
    const auto sub = client.submit(by_text);
    const auto r2 = sub.accepted ? client.wait_any() : RemoteResult{};
    obs::MetricsRegistry::install(nullptr);
    ASSERT_TRUE(sub.accepted) << sub.reason;
    ASSERT_FALSE(r2.failed) << r2.error;
    EXPECT_FALSE(r2.cache_hit);
    EXPECT_EQ(r2.fingerprint, local_run(by_text).fingerprint);
    const auto after = client.stats();
    EXPECT_EQ(after.cache_entries, 2u);
    EXPECT_EQ(after.field_bytes, before.field_bytes);
    // Every one of the copy's 50 fields was adopted, none built.
    const auto* shared = metrics.find_counter("doors.field_store.shared");
    ASSERT_NE(shared, nullptr);
    EXPECT_EQ(shared->value(), 50u);
}

TEST(ServerRoundTrip, PerturbedScenariosMatchLocalRunsBitForBit) {
    // The perturbation layer must behave identically under the server's
    // warm-cache path: same Philox streams, same firing order, whichever
    // engine runs the job.
    const auto sock = test_socket("perturb");
    ServerFixture fixture({sock, 2, 16});
    Client client(sock);

    const std::vector<std::string> scenarios = {
        "no_show_commute", "platform_dwell", "surge_stadium"};
    const std::vector<backend::DeviceType> engines = {
        backend::DeviceType::kCpu, backend::DeviceType::kSimt};
    for (const auto& name : scenarios) {
        const auto truth =
            local_run(registry_job(name, backend::DeviceType::kCpu, 60));
        for (const auto& engine : engines) {
            const auto req = registry_job(name, engine, 60);
            ASSERT_TRUE(client.submit(req).accepted);
            const auto r = client.wait_any();
            ASSERT_FALSE(r.failed) << name << ": " << r.error;
            EXPECT_EQ(r.fingerprint, truth.fingerprint)
                << name << " diverged on the server";
        }
    }
}

TEST(ServerConcurrency, ConcurrentClientsGetDeterministicResults) {
    const auto sock = test_socket("concurrent");
    ServerFixture fixture({sock, 3, 32});

    // Each client submits the full engine matrix for its scenario; all
    // fingerprints must equal the in-process truth, and the cross-engine
    // ones must agree with each other (cpu == simt).
    const std::vector<std::string> scenarios = {"corridor_small",
                                                "bottleneck_doorway",
                                                "pillar_field"};
    const std::vector<backend::DeviceType> engines = {
        backend::DeviceType::kCpu, backend::DeviceType::kSimt};

    std::vector<std::thread> threads;
    std::vector<std::string> failures(scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        threads.emplace_back([&, i] {
            try {
                Client client(sock);
                std::vector<protocol::JobRequest> reqs;
                for (const auto& engine : engines) {
                    reqs.push_back(registry_job(scenarios[i], engine, 40));
                }
                const auto results = client.run_batch(reqs);
                const auto truth = local_run(reqs[0]);
                for (const auto& r : results) {
                    if (r.failed) {
                        failures[i] = r.error;
                        return;
                    }
                    if (r.fingerprint != truth.fingerprint) {
                        failures[i] = scenarios[i] +
                                      ": fingerprint mismatch across engines";
                        return;
                    }
                }
            } catch (const std::exception& e) {
                failures[i] = e.what();
            }
        });
    }
    for (auto& t : threads) t.join();
    for (std::size_t i = 0; i < failures.size(); ++i) {
        EXPECT_TRUE(failures[i].empty())
            << scenarios[i] << ": " << failures[i];
    }
}

TEST(ServerShutdown, DrainDeliversAdmittedJobsBeforeExit) {
    const auto sock = test_socket("drain");
    auto fixture = std::make_unique<ServerFixture>(
        ServerOptions{sock, 1, 16});
    Client client(sock);
    const auto req = registry_job("corridor_small",
                                  backend::DeviceType::kCpu, 80);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 4; ++i) {
        const auto s = client.submit(req);
        ASSERT_TRUE(s.accepted) << s.reason;
        ids.push_back(s.job_id);
    }
    // Graceful stop (the SIGTERM path) with 4 jobs admitted: every one
    // must still stream its results before the server exits.
    fixture->srv.request_stop();
    const auto results = client.wait_all();
    fixture.reset();  // serve() returned; join
    ASSERT_EQ(results.size(), 4u);
    const auto truth = local_run(req);
    for (const auto& r : results) {
        ASSERT_FALSE(r.failed) << r.error;
        EXPECT_EQ(r.fingerprint, truth.fingerprint);
    }
}

TEST(ServerAbandon, JobOfADisconnectedClientFreesTheExecutor) {
    // One executor. A client submits a job of 2^31 - 1 steps and hangs
    // up; the executor must drop that job and serve the next client.
    const auto sock = test_socket("abandon");
    const auto metrics = sock + ".metrics.json";
    ServerProcess server(sock, metrics);
    ASSERT_GT(server.pid, 0) << "cannot start " << PEDSIM_SERVER_BIN;
    {
        Client gone(sock);
        const auto s = gone.submit(
            registry_job("corridor_small", backend::DeviceType::kCpu,
                         std::numeric_limits<int>::max()));
        ASSERT_TRUE(s.accepted) << s.reason;
    }
    const auto req =
        registry_job("corridor_small", backend::DeviceType::kCpu, 10);
    auto fresh = std::async(std::launch::async, [&] {
        Client client(sock);
        const auto s = client.submit(req);
        if (!s.accepted) throw std::runtime_error(s.reason);
        const auto r = client.wait_any();
        return std::make_pair(r, client.stats());
    });
    if (fresh.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
        server.stop(SIGKILL);  // ends the blocked client's read
        FAIL() << "a fresh 10-step job did not finish within 10 s: the "
                  "abandoned job still holds the only executor";
    }
    const auto [r, stats] = fresh.get();
    ASSERT_FALSE(r.failed) << r.error;
    EXPECT_EQ(r.fingerprint, local_run(req).fingerprint);
    EXPECT_EQ(stats.completed, 1u);  // the abandoned job is not counted
    server.stop(SIGTERM);
    std::ifstream in(metrics);
    std::stringstream json;
    json << in.rdbuf();
    EXPECT_NE(json.str().find("\"server.jobs.abandoned\":1"),
              std::string::npos)
        << json.str();
    std::remove(metrics.c_str());
}
