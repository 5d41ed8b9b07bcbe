// Resident batch simulation server.
//
// One process owns the scenario-keyed warm cache (cache.hpp) and accepts
// jobs over a Unix-domain stream socket (protocol.hpp). Sessions — one
// reader thread per connection, joined at the next accept once its
// connection has closed — validate and admit jobs into the bounded
// round-robin AdmissionQueue (admission.hpp); execution happens on the
// EXISTING exec::ThreadPool: a scheduler thread publishes `executors`
// long-lived drain loops as pool tasks, each popping jobs and streaming
// StepResult batches plus the terminal fingerprint record back over the
// submitting connection.
//
// Determinism contract: a server-returned fingerprint is bit-identical to
// ScenarioRunner::run_one for the same (scenario, engine, model, seed,
// steps, engine_threads) — the warm schedule is a pure function of the
// scenario, and execution goes through the same run_prepared path the
// in-process batch runner uses.
//
// Graceful shutdown (SIGTERM via request_stop()): stop accepting
// connections, close admission (new submits are rejected "server shutting
// down"), drain every in-flight and queued job so its results reach the
// client, then close sessions and return from serve(). No client frame
// can stop the server.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/admission.hpp"
#include "server/cache.hpp"
#include "server/protocol.hpp"

namespace pedsim::server {

struct ServerOptions {
    std::string socket_path;
    /// Concurrent job executors published as exec::ThreadPool tasks.
    /// Clamped to the pool's capacity (workers + 1). 0 is a test-only
    /// configuration: jobs are admitted but never executed.
    int executors = 2;
    /// Admission bound: total queued (not yet executing) jobs.
    std::size_t max_queue = 64;
};

class Server {
  public:
    explicit Server(ServerOptions opts);
    ~Server();
    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Bind + listen on opts.socket_path (unlinking a stale socket file
    /// first). Throws std::runtime_error on failure. Separate from
    /// serve() so callers can bind before spawning the serve thread —
    /// once bind() returns, connect() cannot race the listener.
    void bind();

    /// Accept/serve until request_stop(); drains jobs before returning.
    /// An accept() that fails for want of descriptors or memory, or on a
    /// connection aborted in the backlog, counts `server.accept.errors`
    /// and is retried after a short wait; any other accept error ends the
    /// loop as a stop would.
    void serve();

    /// Async-signal-safe stop trigger (writes one byte to a self-pipe);
    /// callable from a SIGTERM handler or any thread.
    void request_stop();

    [[nodiscard]] protocol::StatsMsg stats() const;
    [[nodiscard]] const std::string& socket_path() const {
        return opts_.socket_path;
    }

  private:
    struct Connection;
    /// One connection's reader thread.
    struct Session {
        std::weak_ptr<Connection> conn;  ///< to unblock its read at stop
        std::thread thread;
        std::atomic<bool> exited{false};  ///< session_loop has returned
    };
    struct Job {
        std::uint64_t id = 0;
        protocol::JobRequest request;
        std::shared_ptr<Connection> conn;
        /// ScenarioCache key: the namespaced submission bytes.
        std::string cache_key;
        /// Admission timestamp (steady ns) for the latency histogram.
        std::uint64_t admitted_ns = 0;
    };

    /// Start a session thread for an accepted socket; a thread that
    /// cannot start closes the socket and counts as a refused connection.
    void start_session(int fd);
    /// Join every session whose loop has exited.
    void reap_sessions();
    void session_loop(std::shared_ptr<Connection> conn);
    void handle_submit(const std::shared_ptr<Connection>& conn,
                       const std::vector<std::uint8_t>& payload);
    void executor_loop();
    void execute(Job& job);

    ServerOptions opts_;
    int listen_fd_ = -1;
    int stop_pipe_[2] = {-1, -1};
    AdmissionQueue<Job> queue_;
    ScenarioCache cache_;

    std::atomic<std::uint64_t> next_job_id_{1};
    std::atomic<std::uint64_t> next_client_id_{1};
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> failed_{0};
    std::atomic<std::uint64_t> live_sessions_{0};

    /// Started, not yet joined; only the serve() thread touches it.
    std::vector<std::unique_ptr<Session>> sessions_;
};

}  // namespace pedsim::server
