#include "server/client.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace pedsim::server {

Client::Client(const std::string& socket_path) {
    ::signal(SIGPIPE, SIG_IGN);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
        throw std::runtime_error("client: socket path too long: " +
                                 socket_path);
    }
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
        throw std::runtime_error(std::string("socket: ") +
                                 std::strerror(errno));
    }
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        const std::string err = std::strerror(errno);
        ::close(fd_);
        fd_ = -1;
        throw std::runtime_error("connect " + socket_path + ": " + err);
    }
}

Client::~Client() {
    if (fd_ >= 0) ::close(fd_);
}

bool Client::pump(protocol::Frame& frame) {
    switch (frame.type) {
        case protocol::MsgType::kStep: {
            const auto batch = protocol::decode_steps(frame.payload);
            auto& r = inflight_[batch.job_id];
            r.job_id = batch.job_id;
            r.steps.insert(r.steps.end(), batch.steps.begin(),
                           batch.steps.end());
            return false;
        }
        case protocol::MsgType::kDone: {
            const auto done = protocol::decode_done(frame.payload);
            auto it = inflight_.find(done.job_id);
            RemoteResult r =
                it != inflight_.end() ? std::move(it->second) : RemoteResult{};
            if (it != inflight_.end()) inflight_.erase(it);
            r.job_id = done.job_id;
            r.result = done.result;
            r.fingerprint = done.fingerprint;
            r.setup_seconds = done.setup_seconds;
            r.engine_threads = done.engine_threads;
            r.cache_hit = done.cache_hit;
            finished_.push_back(std::move(r));
            return true;
        }
        case protocol::MsgType::kJobError: {
            const auto err = protocol::decode_error(frame.payload);
            auto it = inflight_.find(err.job_id);
            RemoteResult r =
                it != inflight_.end() ? std::move(it->second) : RemoteResult{};
            if (it != inflight_.end()) inflight_.erase(it);
            r.job_id = err.job_id;
            r.failed = true;
            r.error = err.message;
            finished_.push_back(std::move(r));
            return true;
        }
        default:
            throw protocol::ProtocolError("client: unexpected frame type " +
                                          std::to_string(static_cast<int>(
                                              frame.type)));
    }
}

Client::Submission Client::submit(const protocol::JobRequest& req) {
    protocol::write_frame(fd_, protocol::MsgType::kSubmit,
                          protocol::encode_submit(req));
    protocol::Frame frame;
    // The server answers every submit with exactly one accept/reject
    // before reading the session's next frame; frames of other in-flight
    // jobs may arrive first and are folded into the demux state.
    while (protocol::read_frame(fd_, frame, protocol::Direction::kReply)) {
        if (frame.type == protocol::MsgType::kAccepted) {
            const auto acc = protocol::decode_accepted(frame.payload);
            inflight_[acc.job_id].job_id = acc.job_id;
            return {true, acc.job_id, ""};
        }
        if (frame.type == protocol::MsgType::kRejected) {
            const auto rej = protocol::decode_error(frame.payload);
            return {false, 0, rej.message};
        }
        pump(frame);
    }
    throw std::runtime_error("server closed the connection mid-submit");
}

RemoteResult Client::wait_any() {
    while (finished_.empty()) {
        if (inflight_.empty()) {
            throw std::runtime_error("wait_any: no jobs in flight");
        }
        protocol::Frame frame;
        if (!protocol::read_frame(fd_, frame,
                                  protocol::Direction::kReply)) {
            throw std::runtime_error(
                "server closed the connection with " +
                std::to_string(inflight_.size()) + " jobs in flight");
        }
        pump(frame);
    }
    RemoteResult r = std::move(finished_.front());
    finished_.pop_front();
    return r;
}

std::vector<RemoteResult> Client::wait_all() {
    std::vector<RemoteResult> out;
    while (!inflight_.empty() || !finished_.empty()) {
        out.push_back(wait_any());
    }
    return out;
}

std::vector<RemoteResult> Client::run_batch(
    const std::vector<protocol::JobRequest>& reqs) {
    std::unordered_map<std::uint64_t, std::size_t> index_of;
    std::vector<RemoteResult> results(reqs.size());
    std::vector<bool> got(reqs.size(), false);
    const auto collect = [&](RemoteResult r) {
        const auto it = index_of.find(r.job_id);
        if (it == index_of.end()) return;  // not ours (cannot happen)
        results[it->second] = std::move(r);
        got[it->second] = true;
    };
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        for (;;) {
            const Submission s = submit(reqs[i]);
            if (s.accepted) {
                index_of.emplace(s.job_id, i);
                break;
            }
            // Bounded admission: drain one completion to free a slot,
            // then retry. Any other rejection is a real error.
            if (s.reason.find("queue full") == std::string::npos) {
                throw std::runtime_error("job " + std::to_string(i) +
                                         " rejected: " + s.reason);
            }
            collect(wait_any());
        }
    }
    for (auto& r : wait_all()) collect(std::move(r));
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (!got[i]) {
            throw std::runtime_error("job " + std::to_string(i) +
                                     " produced no result");
        }
    }
    return results;
}

protocol::StatsMsg Client::stats() {
    protocol::write_frame(fd_, protocol::MsgType::kStats, {});
    protocol::Frame frame;
    while (protocol::read_frame(fd_, frame, protocol::Direction::kReply)) {
        if (frame.type == protocol::MsgType::kStatsReply) {
            return protocol::decode_stats(frame.payload);
        }
        pump(frame);
    }
    throw std::runtime_error("server closed the connection mid-stats");
}

}  // namespace pedsim::server
