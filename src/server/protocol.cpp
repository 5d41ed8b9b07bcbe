#include "server/protocol.hpp"

#include <bit>
#include <cerrno>
#include <cstring>

#include <unistd.h>

namespace pedsim::server::protocol {

void Writer::u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

void Writer::u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
}

std::uint8_t Reader::u8() {
    if (pos_ + 1 > buf_.size()) throw ProtocolError("payload underrun (u8)");
    return buf_[pos_++];
}

std::uint32_t Reader::u32() {
    if (pos_ + 4 > buf_.size()) throw ProtocolError("payload underrun (u32)");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(buf_[pos_ + static_cast<std::size_t>(
                                                        i)])
             << (8 * i);
    }
    pos_ += 4;
    return v;
}

std::uint64_t Reader::u64() {
    if (pos_ + 8 > buf_.size()) throw ProtocolError("payload underrun (u64)");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(buf_[pos_ + static_cast<std::size_t>(
                                                        i)])
             << (8 * i);
    }
    pos_ += 8;
    return v;
}

double Reader::f64() { return std::bit_cast<double>(u64()); }

std::string Reader::str() {
    const std::uint32_t n = u32();
    if (pos_ + n > buf_.size()) {
        throw ProtocolError("payload underrun (string of " +
                            std::to_string(n) + " bytes)");
    }
    std::string s(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return s;
}

void Reader::expect_done(const char* what) const {
    if (!done()) {
        throw ProtocolError(std::string(what) + ": " +
                            std::to_string(buf_.size() - pos_) +
                            " trailing payload bytes");
    }
}

namespace {

/// read() exactly n bytes. Returns false on EOF before the first byte
/// when eof_ok, throws ProtocolError on EOF mid-buffer, std::runtime_error
/// on errors.
bool read_exact(int fd, std::uint8_t* dst, std::size_t n, bool eof_ok) {
    std::size_t got = 0;
    while (got < n) {
        const ssize_t r = ::read(fd, dst + got, n - got);
        if (r > 0) {
            got += static_cast<std::size_t>(r);
            continue;
        }
        if (r == 0) {
            if (got == 0 && eof_ok) return false;
            throw ProtocolError("connection closed mid-frame (" +
                                std::to_string(got) + "/" +
                                std::to_string(n) + " bytes)");
        }
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("read: ") +
                                 std::strerror(errno));
    }
    return true;
}

}  // namespace

bool known_request_type(std::uint8_t t) {
    switch (static_cast<MsgType>(t)) {
        case MsgType::kSubmit:
        case MsgType::kStats:
            return true;
        default:
            return false;
    }
}

bool known_reply_type(std::uint8_t t) {
    switch (static_cast<MsgType>(t)) {
        case MsgType::kAccepted:
        case MsgType::kRejected:
        case MsgType::kStep:
        case MsgType::kDone:
        case MsgType::kJobError:
        case MsgType::kStatsReply:
            return true;
        default:
            return false;
    }
}

bool read_frame(int fd, Frame& out, Direction expect) {
    std::uint8_t header[5];
    if (!read_exact(fd, header, sizeof(header), /*eof_ok=*/true)) {
        return false;
    }
    if (!known_request_type(header[0]) && !known_reply_type(header[0])) {
        throw ProtocolError("unknown frame type " +
                            std::to_string(int{header[0]}));
    }
    // Direction check at the framing layer: a wrong-direction frame is
    // wire garbage (session-fatal), never decoded or demuxed.
    if (expect == Direction::kRequest && !known_request_type(header[0])) {
        throw ProtocolError("wrong-direction frame: reply type " +
                            std::to_string(int{header[0]}) +
                            " sent to the server");
    }
    if (expect == Direction::kReply && !known_reply_type(header[0])) {
        throw ProtocolError("wrong-direction frame: request type " +
                            std::to_string(int{header[0]}) +
                            " sent to the client");
    }
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
        len |= static_cast<std::uint32_t>(header[1 + i]) << (8 * i);
    }
    if (len > kMaxPayload) {
        throw ProtocolError("frame length " + std::to_string(len) +
                            " exceeds cap " + std::to_string(kMaxPayload));
    }
    out.type = static_cast<MsgType>(header[0]);
    out.payload.resize(len);
    if (len > 0) {
        read_exact(fd, out.payload.data(), len, /*eof_ok=*/false);
    }
    return true;
}

void write_frame(int fd, MsgType type,
                 const std::vector<std::uint8_t>& payload) {
    if (payload.size() > kMaxPayload) {
        throw std::runtime_error("frame payload exceeds cap");
    }
    std::vector<std::uint8_t> buf;
    buf.reserve(5 + payload.size());
    buf.push_back(static_cast<std::uint8_t>(type));
    const auto len = static_cast<std::uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i) {
        buf.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
    }
    buf.insert(buf.end(), payload.begin(), payload.end());
    std::size_t sent = 0;
    while (sent < buf.size()) {
        // Plain write(): callers run with SIGPIPE ignored (the server and
        // client both set this up), so a dead peer surfaces as EPIPE.
        const ssize_t w = ::write(fd, buf.data() + sent, buf.size() - sent);
        if (w >= 0) {
            sent += static_cast<std::size_t>(w);
            continue;
        }
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("write: ") +
                                 std::strerror(errno));
    }
}

std::vector<std::uint8_t> encode_submit(const JobRequest& req) {
    Writer w;
    w.u8(req.registry ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(req.engine));
    w.u8(req.model == core::Model::kLem ? 0 : 1);
    w.u64(req.seed);
    w.i32(req.steps);
    w.i32(req.engine_threads);
    w.str(req.scenario);
    return w.take();
}

JobRequest decode_submit(const std::vector<std::uint8_t>& payload) {
    Reader r(payload);
    JobRequest req;
    const std::uint8_t source = r.u8();
    if (source > 1) {
        throw ProtocolError("submit: bad source " + std::to_string(source));
    }
    req.registry = source == 1;
    const std::uint8_t engine = r.u8();
    if (engine > static_cast<std::uint8_t>(backend::DeviceType::kSimt)) {
        throw ProtocolError("submit: bad engine " + std::to_string(engine));
    }
    req.engine = static_cast<backend::DeviceType>(engine);
    const std::uint8_t model = r.u8();
    if (model > 1) {
        throw ProtocolError("submit: bad model " + std::to_string(model));
    }
    req.model = model == 0 ? core::Model::kLem : core::Model::kAco;
    req.seed = r.u64();
    req.steps = r.i32();
    req.engine_threads = r.i32();
    req.scenario = r.str();
    r.expect_done("submit");
    return req;
}

std::vector<std::uint8_t> encode_accepted(const AcceptedMsg& m) {
    Writer w;
    w.u64(m.job_id);
    w.u64(m.queue_depth);
    return w.take();
}

AcceptedMsg decode_accepted(const std::vector<std::uint8_t>& payload) {
    Reader r(payload);
    AcceptedMsg m;
    m.job_id = r.u64();
    m.queue_depth = r.u64();
    r.expect_done("accepted");
    return m;
}

std::vector<std::uint8_t> encode_error(const ErrorMsg& m) {
    Writer w;
    w.u64(m.job_id);
    w.str(m.message);
    return w.take();
}

ErrorMsg decode_error(const std::vector<std::uint8_t>& payload) {
    Reader r(payload);
    ErrorMsg m;
    m.job_id = r.u64();
    m.message = r.str();
    r.expect_done("error");
    return m;
}

std::vector<std::uint8_t> encode_steps(const StepBatch& m) {
    Writer w;
    w.u64(m.job_id);
    w.u32(static_cast<std::uint32_t>(m.steps.size()));
    for (const auto& s : m.steps) {
        w.u64(s.step);
        w.i32(s.proposals);
        w.i32(s.moves);
        w.i32(s.conflicts);
        w.i32(s.crossed_top);
        w.i32(s.crossed_bottom);
        w.i32(s.waypoint_advances);
    }
    return w.take();
}

/// Wire size of one StepResult record in a kStep payload: the u64 step
/// plus six i32 counters.
constexpr std::size_t kStepRecordBytes = 8 + 6 * 4;

StepBatch decode_steps(const std::vector<std::uint8_t>& payload) {
    Reader r(payload);
    StepBatch m;
    m.job_id = r.u64();
    const std::uint32_t n = r.u32();
    // A count the payload cannot hold is rejected before it sizes the
    // reservation: a hostile count would otherwise allocate up to 128 GiB.
    if (n > r.remaining() / kStepRecordBytes) {
        throw ProtocolError("steps: count " + std::to_string(n) +
                            " exceeds the " + std::to_string(r.remaining()) +
                            "-byte payload");
    }
    m.steps.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        core::StepResult s;
        s.step = r.u64();
        s.proposals = r.i32();
        s.moves = r.i32();
        s.conflicts = r.i32();
        s.crossed_top = r.i32();
        s.crossed_bottom = r.i32();
        s.waypoint_advances = r.i32();
        m.steps.push_back(s);
    }
    r.expect_done("steps");
    return m;
}

std::vector<std::uint8_t> encode_done(const DoneMsg& m) {
    Writer w;
    w.u64(m.job_id);
    w.u64(m.fingerprint);
    w.i32(m.result.steps_run);
    w.u64(m.result.crossed_top);
    w.u64(m.result.crossed_bottom);
    w.u64(m.result.total_moves);
    w.u64(m.result.total_conflicts);
    w.f64(m.result.wall_seconds);
    w.f64(m.result.modeled_device_seconds);
    w.f64(m.setup_seconds);
    w.i32(m.engine_threads);
    w.u8(m.cache_hit ? 1 : 0);
    return w.take();
}

DoneMsg decode_done(const std::vector<std::uint8_t>& payload) {
    Reader r(payload);
    DoneMsg m;
    m.job_id = r.u64();
    m.fingerprint = r.u64();
    m.result.steps_run = r.i32();
    m.result.crossed_top = static_cast<std::size_t>(r.u64());
    m.result.crossed_bottom = static_cast<std::size_t>(r.u64());
    m.result.total_moves = r.u64();
    m.result.total_conflicts = r.u64();
    m.result.wall_seconds = r.f64();
    m.result.modeled_device_seconds = r.f64();
    m.setup_seconds = r.f64();
    m.engine_threads = r.i32();
    m.cache_hit = r.u8() != 0;
    r.expect_done("done");
    return m;
}

std::vector<std::uint8_t> encode_stats(const StatsMsg& m) {
    Writer w;
    w.u64(m.cache_hits);
    w.u64(m.cache_misses);
    w.u64(m.cache_entries);
    w.u64(m.accepted);
    w.u64(m.rejected);
    w.u64(m.completed);
    w.u64(m.failed);
    w.u64(m.queue_depth);
    return w.take();
}

StatsMsg decode_stats(const std::vector<std::uint8_t>& payload) {
    Reader r(payload);
    StatsMsg m;
    m.cache_hits = r.u64();
    m.cache_misses = r.u64();
    m.cache_entries = r.u64();
    m.accepted = r.u64();
    m.rejected = r.u64();
    m.completed = r.u64();
    m.failed = r.u64();
    m.queue_depth = r.u64();
    r.expect_done("stats");
    return m;
}

}  // namespace pedsim::server::protocol
