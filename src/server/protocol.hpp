// Wire protocol of the resident simulation server: length-prefixed binary
// frames over a Unix-domain stream socket.
//
// Frame layout (all integers little-endian):
//
//   u8  type        one of MsgType
//   u32 payload_len <= kMaxPayload
//   ... payload_len payload bytes
//
// Client -> server: kSubmit (one job), kStats (counter snapshot).
// Server -> client: every kSubmit is answered by exactly one kAccepted or
// kRejected before the server reads the client's next frame; accepted
// jobs later produce any number of kStep batches followed by exactly one
// kDone or kJobError. Step/Done/JobError frames carry the job id, so
// results of concurrently executing jobs may interleave freely on the
// wire and clients demultiplex by id.
//
// Error containment, from the fuzz suite's point of view:
//   - a malformed FRAME (oversized length, truncated header/payload,
//     unknown type, trailing payload bytes) is a session-level
//     ProtocolError: the server closes that connection and keeps serving
//     everyone else;
//   - a malformed JOB (garbage scenario text, unknown registry name,
//     a config the engine rejects) is a per-job failure: kRejected at
//     admission or kJobError at execution, and the session stays open.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/device.hpp"
#include "core/simulator.hpp"

namespace pedsim::server::protocol {

/// Hard cap on payload size: a length field beyond this is treated as
/// framing garbage (ProtocolError), never as an allocation request.
inline constexpr std::uint32_t kMaxPayload = 16u << 20;

enum class MsgType : std::uint8_t {
    // client -> server
    kSubmit = 1,
    kStats = 3,
    // server -> client
    kAccepted = 16,
    kRejected = 17,
    kStep = 18,
    kDone = 19,
    kJobError = 20,
    kStatsReply = 21,
};

/// Session-fatal wire-format violation (see the containment contract
/// above). Job-level problems never use this type.
class ProtocolError : public std::runtime_error {
  public:
    using std::runtime_error::runtime_error;
};

struct Frame {
    MsgType type = MsgType::kSubmit;
    std::vector<std::uint8_t> payload;
};

/// Little-endian payload builder.
class Writer {
  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void f64(double v);
    /// u32 length + raw bytes.
    void str(const std::string& s);

    [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian payload reader; any underrun (or, via
/// expect_done, trailing garbage) throws ProtocolError.
class Reader {
  public:
    explicit Reader(const std::vector<std::uint8_t>& buf) : buf_(buf) {}
    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    double f64();
    std::string str();
    [[nodiscard]] bool done() const { return pos_ == buf_.size(); }
    /// Payload bytes not yet consumed.
    [[nodiscard]] std::size_t remaining() const { return buf_.size() - pos_; }
    /// Throws when payload bytes remain unconsumed: a well-formed message
    /// is exactly its fields, nothing more.
    void expect_done(const char* what) const;

  private:
    const std::vector<std::uint8_t>& buf_;
    std::size_t pos_ = 0;
};

// --- Framed socket I/O (blocking, EINTR-safe) ---------------------------

/// Which half of the protocol a reader expects. The type space is split
/// by direction (requests 1 and 3, replies 16-21): a server must never
/// accept a reply frame and a client must never accept a request frame —
/// a wrong-direction frame used to pass framing and fail later with a
/// confusing decode error (or be silently mis-handled by a demux switch).
enum class Direction : std::uint8_t {
    kRequest,  ///< client -> server (what a server reads)
    kReply,    ///< server -> client (what a client reads)
};

/// True when `t` is a client->server frame type.
bool known_request_type(std::uint8_t t);
/// True when `t` is a server->client frame type.
bool known_reply_type(std::uint8_t t);

/// Read one frame, accepting only `expect`-direction types. Returns false
/// on clean EOF at a frame boundary; throws ProtocolError on mid-frame
/// EOF, an oversized length, an unknown type, or a known type travelling
/// the wrong direction; std::runtime_error on socket errors.
bool read_frame(int fd, Frame& out, Direction expect);

/// Write one frame (header + payload as a single buffered write, so
/// frames from different writer threads never interleave as long as each
/// call is externally serialized per fd).
void write_frame(int fd, MsgType type,
                 const std::vector<std::uint8_t>& payload);

// --- Message bodies -----------------------------------------------------

/// One job submission. `registry` selects the interpretation of
/// `scenario`: the text of a scenario file (parsed server-side) or the
/// name of a built-in from scenario::registry.
struct JobRequest {
    bool registry = false;
    std::string scenario;
    backend::DeviceType engine = backend::DeviceType::kCpu;
    core::Model model = core::Model::kLem;
    std::uint64_t seed = 0;
    int steps = 0;
    /// Engine-internal thread override; 0 keeps the scenario's policy
    /// (mirrors RunnerOptions::engine_threads).
    int engine_threads = 0;
};

std::vector<std::uint8_t> encode_submit(const JobRequest& req);
JobRequest decode_submit(const std::vector<std::uint8_t>& payload);

struct AcceptedMsg {
    std::uint64_t job_id = 0;
    std::uint64_t queue_depth = 0;  ///< depth after admission
};
std::vector<std::uint8_t> encode_accepted(const AcceptedMsg& m);
AcceptedMsg decode_accepted(const std::vector<std::uint8_t>& payload);

/// kRejected and kJobError share the shape {job_id, text}; a rejection's
/// job_id is 0 (the job never existed).
struct ErrorMsg {
    std::uint64_t job_id = 0;
    std::string message;
};
std::vector<std::uint8_t> encode_error(const ErrorMsg& m);
ErrorMsg decode_error(const std::vector<std::uint8_t>& payload);

/// A batch of consecutive StepResults of one job. Batching (the server
/// flushes every kStepBatch steps) keeps syscall counts sane for
/// thousand-step runs while still streaming incrementally.
struct StepBatch {
    std::uint64_t job_id = 0;
    std::vector<core::StepResult> steps;
};
std::vector<std::uint8_t> encode_steps(const StepBatch& m);
StepBatch decode_steps(const std::vector<std::uint8_t>& payload);

/// Terminal success record of a job: everything a client needs to rebuild
/// a scenario::RunRecord it could have produced locally.
struct DoneMsg {
    std::uint64_t job_id = 0;
    std::uint64_t fingerprint = 0;
    core::RunResult result;
    double setup_seconds = 0.0;
    /// The run's configured engine thread count
    /// (scenario::RunRecord::engine_threads). Inside a server executor
    /// every engine slice runs inline (the pool's nested-run rule,
    /// docs/SERVER.md), so the job stepped on one thread.
    std::int32_t engine_threads = 0;
    bool cache_hit = false;
};
std::vector<std::uint8_t> encode_done(const DoneMsg& m);
DoneMsg decode_done(const std::vector<std::uint8_t>& payload);

/// Server counter snapshot (kStats -> kStatsReply).
struct StatsMsg {
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_entries = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t queue_depth = 0;
    /// Distinct distance-table bytes resident in the cache's field store.
    std::uint64_t field_bytes = 0;
    /// Connections whose session reader is still running.
    std::uint64_t live_sessions = 0;
};
std::vector<std::uint8_t> encode_stats(const StatsMsg& m);
StatsMsg decode_stats(const std::vector<std::uint8_t>& payload);

}  // namespace pedsim::server::protocol
