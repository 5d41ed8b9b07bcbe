// Client side of the resident simulation server: connect, submit jobs,
// demultiplex the interleaved result stream.
//
// The client is synchronous and single-threaded: submit() writes one
// kSubmit and reads frames until that submission's kAccepted/kRejected
// arrives (buffering any step/done frames of earlier jobs it passes),
// wait_any()/wait_all() then drain completions. run_batch() composes the
// two with a retry loop on "queue full" rejections, so a caller can throw
// an arbitrarily large batch at a bounded-admission server and still get
// every result exactly once, in submission order.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "server/protocol.hpp"

namespace pedsim::server {

/// Everything the server reports about one finished job. `failed` jobs
/// carry only `error`; successful jobs carry the full record.
struct RemoteResult {
    std::uint64_t job_id = 0;
    bool failed = false;
    std::string error;
    std::vector<core::StepResult> steps;
    core::RunResult result;
    std::uint64_t fingerprint = 0;
    double setup_seconds = 0.0;
    int engine_threads = 0;
    bool cache_hit = false;
};

class Client {
  public:
    /// Connect to a server socket; throws std::runtime_error on failure.
    explicit Client(const std::string& socket_path);
    ~Client();
    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    struct Submission {
        bool accepted = false;
        std::uint64_t job_id = 0;  ///< valid when accepted
        std::string reason;        ///< valid when rejected
    };

    /// Submit one job and wait for its admission verdict.
    Submission submit(const protocol::JobRequest& req);

    /// Block until any in-flight job reaches kDone/kJobError; returns it.
    /// Throws std::runtime_error when nothing is in flight.
    RemoteResult wait_any();

    /// Drain every in-flight job.
    std::vector<RemoteResult> wait_all();

    /// Submit the whole batch (retrying "queue full" rejections after
    /// draining a completion) and return results in `reqs` order. Any
    /// other rejection throws std::runtime_error naming the reason.
    std::vector<RemoteResult> run_batch(
        const std::vector<protocol::JobRequest>& reqs);

    /// Counter snapshot from the server.
    protocol::StatsMsg stats();

    [[nodiscard]] std::size_t in_flight() const { return inflight_.size(); }

  private:
    /// Read one frame and fold it into the demux state. Returns true when
    /// the frame completed a job (pushed onto finished_).
    bool pump(protocol::Frame& frame);

    int fd_ = -1;
    std::unordered_map<std::uint64_t, RemoteResult> inflight_;
    std::deque<RemoteResult> finished_;
};

}  // namespace pedsim::server
