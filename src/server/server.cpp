#include "server/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <stdexcept>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "exec/thread_pool.hpp"
#include "io/scenario_file.hpp"
#include "obs/metrics.hpp"
#include "scenario/registry.hpp"

namespace pedsim::server {

namespace {

std::uint64_t steady_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// StepResults per kStep frame: small enough to stream incrementally,
/// large enough that a 25k-step run is hundreds of frames, not 25k.
constexpr std::size_t kStepBatch = 64;

/// Admission cap on the per-job engine-thread override: far above any
/// sane host, low enough that an absurd request is named at admission
/// instead of stalling an executor in thread-pool construction.
constexpr int kMaxEngineThreads = 4096;

}  // namespace

/// Per-connection state. Frames to one client can come from its session
/// thread (accept/reject/stats) and several executors at once, so every
/// write goes through send() under the mutex; after the first write
/// failure the connection is dead and further output is dropped (the job
/// itself still runs to completion — results are discarded, never the
/// server).
struct Server::Connection {
    int fd = -1;
    std::uint64_t client_id = 0;
    std::mutex write_mutex;
    std::atomic<bool> dead{false};

    void send(protocol::MsgType type,
              const std::vector<std::uint8_t>& payload) {
        const std::lock_guard<std::mutex> lock(write_mutex);
        send_locked(type, payload);
    }

    /// Caller already holds write_mutex (the admission fast path, which
    /// spans queue push + accept frame under one lock).
    void send_locked(protocol::MsgType type,
                     const std::vector<std::uint8_t>& payload) {
        if (dead.load(std::memory_order_relaxed)) return;
        try {
            protocol::write_frame(fd, type, payload);
        } catch (const std::exception&) {
            dead.store(true, std::memory_order_relaxed);
        }
    }

    ~Connection() {
        if (fd >= 0) ::close(fd);
    }
};

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)), queue_(opts_.max_queue) {
    // A client vanishing mid-stream must surface as EPIPE on the write,
    // not kill the process.
    ::signal(SIGPIPE, SIG_IGN);
    if (::pipe(stop_pipe_) != 0) {
        throw std::runtime_error(std::string("pipe: ") +
                                 std::strerror(errno));
    }
}

Server::~Server() {
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        ::unlink(opts_.socket_path.c_str());
    }
    for (int i = 0; i < 2; ++i) {
        if (stop_pipe_[i] >= 0) ::close(stop_pipe_[i]);
    }
}

void Server::bind() {
    if (opts_.socket_path.empty()) {
        throw std::runtime_error("server: empty socket path");
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts_.socket_path.size() >= sizeof(addr.sun_path)) {
        throw std::runtime_error("server: socket path too long: " +
                                 opts_.socket_path);
    }
    std::strncpy(addr.sun_path, opts_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        throw std::runtime_error(std::string("socket: ") +
                                 std::strerror(errno));
    }
    // Only a genuinely stale socket (a dead server's leftover) may be
    // unlinked. Probe with a connect() first: a peer answering means a
    // live server owns this path, and unlinking would silently steal its
    // socket out from under it.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe < 0) {
        throw std::runtime_error(std::string("socket: ") +
                                 std::strerror(errno));
    }
    const int probe_rc = ::connect(
        probe, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    const int probe_errno = errno;
    ::close(probe);
    if (probe_rc == 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw std::runtime_error("bind " + opts_.socket_path +
                                 ": address in use by a running server");
    }
    if (probe_errno == ECONNREFUSED) {
        // Nobody listening behind the file: stale, safe to reclaim.
        ::unlink(opts_.socket_path.c_str());
    }
    // ENOENT (no file) and any other probe failure fall through to
    // ::bind, which reports the real error on its own terms.
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
        const std::string err = std::strerror(errno);
        // Close before throwing: the destructor unlinks the path only for
        // a bound listener, and this path may belong to someone else.
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw std::runtime_error("bind " + opts_.socket_path + ": " + err);
    }
    if (::listen(listen_fd_, 64) != 0) {
        const std::string err = std::strerror(errno);
        ::close(listen_fd_);
        ::unlink(opts_.socket_path.c_str());
        listen_fd_ = -1;
        throw std::runtime_error("listen: " + err);
    }
}

void Server::request_stop() {
    const char byte = 1;
    // Async-signal-safe: one write, result deliberately ignored (the pipe
    // being full already means a stop is pending).
    [[maybe_unused]] const ssize_t r = ::write(stop_pipe_[1], &byte, 1);
}

void Server::serve() {
    if (listen_fd_ < 0) bind();

    // The executors ARE exec::ThreadPool tasks: the scheduler thread
    // publishes them as one run() job, each loop claims its task index
    // immediately (freeing the pool's job slot for engine-internal
    // dispatches), and run() returning doubles as the "all executors
    // drained" barrier at shutdown. Capacity-clamped: a loop beyond
    // workers+1 could not get a thread until another loop exits.
    const int capacity = exec::ThreadPool::shared().workers() + 1;
    const int executors = std::min(opts_.executors, capacity);
    std::thread scheduler;
    if (executors > 0) {
        scheduler = std::thread([this, executors] {
            exec::ThreadPool::shared().run(executors, executors,
                                           [this](int) { executor_loop(); });
        });
    }

    for (;;) {
        pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
        const int n = ::poll(fds, 2, -1);
        if (n < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if ((fds[1].revents & POLLIN) != 0) break;  // stop requested
        if ((fds[0].revents & POLLIN) == 0) continue;
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR) continue;
            break;
        }
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        conn->client_id =
            next_client_id_.fetch_add(1, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock(sessions_mutex_);
        live_conns_.push_back(conn);
        sessions_.emplace_back(
            [this, conn]() mutable { session_loop(std::move(conn)); });
    }

    // Shutdown sequence. 1) Stop accepting (close + unlink so late
    // connects fail fast).
    ::close(listen_fd_);
    ::unlink(opts_.socket_path.c_str());
    listen_fd_ = -1;
    // 2) Close admission and drain: executors finish every queued job and
    // stream its results; run() returns once all loops exit.
    queue_.close();
    if (scheduler.joinable()) scheduler.join();
    // 3) Now that every result is on the wire, unblock session readers
    // still parked in read_frame() and join them.
    {
        const std::lock_guard<std::mutex> lock(sessions_mutex_);
        for (const auto& weak : live_conns_) {
            if (const auto conn = weak.lock()) {
                ::shutdown(conn->fd, SHUT_RDWR);
            }
        }
    }
    for (;;) {
        std::thread t;
        {
            const std::lock_guard<std::mutex> lock(sessions_mutex_);
            if (sessions_.empty()) break;
            t = std::move(sessions_.back());
            sessions_.pop_back();
        }
        if (t.joinable()) t.join();
    }
}

void Server::session_loop(std::shared_ptr<Connection> conn) {
    protocol::Frame frame;
    try {
        // Direction::kRequest: reply-typed frames (kAccepted, kStep, ...)
        // arriving at the server are rejected at the framing layer with a
        // named ProtocolError — they never reach this switch.
        while (protocol::read_frame(conn->fd, frame,
                                    protocol::Direction::kRequest)) {
            switch (frame.type) {
                case protocol::MsgType::kSubmit:
                    handle_submit(conn, frame.payload);
                    break;
                case protocol::MsgType::kStats:
                    conn->send(protocol::MsgType::kStatsReply,
                               protocol::encode_stats(stats()));
                    break;
                default:
                    // Unreachable given the direction check, but a byte
                    // stream deserves defence in depth.
                    throw protocol::ProtocolError(
                        "unexpected client frame type");
            }
        }
    } catch (const std::exception&) {
        // ProtocolError (malformed framing) or a socket error: this
        // session is unrecoverable — a byte stream cannot resync — but
        // only this session. The server keeps serving.
        obs::MetricsRegistry::add("server.session.protocol_errors");
    }
    conn->dead.store(true, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(sessions_mutex_);
    live_conns_.erase(
        std::remove_if(live_conns_.begin(), live_conns_.end(),
                       [&](const std::weak_ptr<Connection>& w) {
                           const auto c = w.lock();
                           return c == nullptr || c.get() == conn.get();
                       }),
        live_conns_.end());
}

void Server::handle_submit(const std::shared_ptr<Connection>& conn,
                           const std::vector<std::uint8_t>& payload) {
    // Decode errors are ProtocolError -> session closes (the frame itself
    // is broken). Everything past decoding is a per-job answer.
    const protocol::JobRequest req = protocol::decode_submit(payload);

    const auto reject = [&](const std::string& reason) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        obs::MetricsRegistry::add("server.jobs.rejected");
        conn->send(protocol::MsgType::kRejected,
                   protocol::encode_error({0, reason}));
    };

    if (req.steps <= 0) {
        reject("steps must be > 0, got " + std::to_string(req.steps));
        return;
    }
    // Admission owns field sanity: a negative or huge thread override
    // would otherwise travel all the way into engine creation /
    // thread-pool construction and fail there with an unrelated message
    // (or worse, a wrapped allocation size).
    if (req.engine_threads < 0 || req.engine_threads > kMaxEngineThreads) {
        reject("engine_threads must be in [0, " +
               std::to_string(kMaxEngineThreads) + "], got " +
               std::to_string(req.engine_threads));
        return;
    }
    if (req.registry && !scenario::has(req.scenario)) {
        reject("unknown registry scenario '" + req.scenario + "'");
        return;
    }

    Job job;
    job.id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
    job.request = req;
    job.cache_key = req.registry
                        ? ScenarioCache::key_for_registry(req.scenario)
                        : ScenarioCache::key_for_text(req.scenario);
    job.admitted_ns = steady_ns();
    // The job's shared_ptr keeps the connection (and its fd) alive until
    // the last result frame is written, even if the session reader exits.
    job.conn = conn;

    const std::uint64_t id = job.id;
    std::string reason;
    // Push and accept under ONE write-lock hold: an executor that pops
    // the job immediately serializes its first kStep/kDone behind this
    // lock, so the client always sees kAccepted before any frame of the
    // job it accepts — the invariant Client::pump's demux relies on.
    const std::lock_guard<std::mutex> lock(conn->write_mutex);
    if (!queue_.push(conn->client_id, std::move(job), &reason)) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        obs::MetricsRegistry::add("server.jobs.rejected");
        conn->send_locked(protocol::MsgType::kRejected,
                          protocol::encode_error({0, reason}));
        return;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::add("server.jobs.accepted");
    conn->send_locked(protocol::MsgType::kAccepted,
                      protocol::encode_accepted({id, queue_.depth()}));
}

void Server::executor_loop() {
    Job job;
    while (queue_.pop(job)) {
        execute(job);
        job = Job{};  // drop the connection reference between jobs
    }
}

void Server::execute(Job& job) {
    const auto& req = job.request;
    try {
        bool cache_hit = false;
        const auto prepared = cache_.get_or_prepare(
            job.cache_key,
            [&] {
                return scenario::prepare_scenario(
                    req.registry ? scenario::get(req.scenario)
                                 : io::parse_scenario(req.scenario));
            },
            &cache_hit);

        scenario::RunnerOptions ropts;
        ropts.engine_threads = req.engine_threads;
        const scenario::ScenarioRunner runner(ropts);

        protocol::StepBatch batch;
        batch.job_id = job.id;
        batch.steps.reserve(kStepBatch);
        const auto observer = [&](const core::StepResult& sr) {
            batch.steps.push_back(sr);
            if (batch.steps.size() >= kStepBatch) {
                job.conn->send(protocol::MsgType::kStep,
                               protocol::encode_steps(batch));
                batch.steps.clear();
            }
            return true;
        };
        const auto rec = runner.run_prepared(*prepared, req.engine,
                                             req.model, req.seed, req.steps,
                                             observer);
        if (!batch.steps.empty()) {
            job.conn->send(protocol::MsgType::kStep,
                           protocol::encode_steps(batch));
        }
        protocol::DoneMsg done;
        done.job_id = job.id;
        done.fingerprint = rec.fingerprint;
        done.result = rec.result;
        done.setup_seconds = rec.setup_seconds;
        done.engine_threads = rec.engine_threads;
        done.cache_hit = cache_hit;
        // Count before the kDone write: a client that has seen its result
        // must see it reflected in a subsequent stats() reply.
        completed_.fetch_add(1, std::memory_order_relaxed);
        obs::MetricsRegistry::add("server.jobs.completed");
        job.conn->send(protocol::MsgType::kDone, protocol::encode_done(done));
    } catch (const std::exception& e) {
        // Garbage scenario text, a failing engine constructor, anything
        // the run throws: one job's failure, reported on that job's id.
        // The executor and the server carry on.
        failed_.fetch_add(1, std::memory_order_relaxed);
        obs::MetricsRegistry::add("server.jobs.failed");
        job.conn->send(protocol::MsgType::kJobError,
                       protocol::encode_error({job.id, e.what()}));
    }
    obs::MetricsRegistry::observe("server.job.latency_ns",
                                  steady_ns() - job.admitted_ns);
}

protocol::StatsMsg Server::stats() const {
    protocol::StatsMsg m;
    m.cache_hits = cache_.hits();
    m.cache_misses = cache_.misses();
    m.cache_entries = cache_.size();
    m.accepted = accepted_.load(std::memory_order_relaxed);
    m.rejected = rejected_.load(std::memory_order_relaxed);
    m.completed = completed_.load(std::memory_order_relaxed);
    m.failed = failed_.load(std::memory_order_relaxed);
    m.queue_depth = queue_.depth();
    return m;
}

}  // namespace pedsim::server
