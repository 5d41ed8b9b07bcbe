// Bounded admission queue with per-client round-robin fairness.
//
// Jobs enter per-client FIFO lanes; pop() serves lanes round-robin, so a
// client that floods the server cannot starve a client submitting one
// job (it waits at most one full rotation). The bound is on TOTAL queued
// jobs across all lanes: when full, push() rejects with a named reason
// instead of blocking — admission control, not backpressure, so a
// client always gets an immediate accept/reject answer per submission.
//
// close() stops admission (pushes reject with "shutting down") while
// pop() keeps draining until empty — the graceful-shutdown half of the
// server's SIGTERM contract.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace pedsim::server {

template <typename JobT>
class AdmissionQueue {
  public:
    explicit AdmissionQueue(std::size_t max_depth) : max_depth_(max_depth) {}

    /// Admit one job from `client`. Returns false — with *reason set to a
    /// client-presentable message — when the queue is full or closed.
    bool push(std::uint64_t client, JobT job, std::string* reason) {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (closed_) {
                if (reason != nullptr) *reason = "server shutting down";
                obs::MetricsRegistry::add("server.queue.rejected");
                return false;
            }
            if (depth_ >= max_depth_) {
                if (reason != nullptr) {
                    *reason = "queue full (" + std::to_string(depth_) + "/" +
                              std::to_string(max_depth_) + " jobs)";
                }
                obs::MetricsRegistry::add("server.queue.rejected");
                return false;
            }
            lane_for(client).jobs.push_back(std::move(job));
            ++depth_;
            obs::MetricsRegistry::observe("server.queue.depth", depth_);
        }
        ready_.notify_one();
        return true;
    }

    /// Blocking round-robin pop. Returns false when the queue is closed
    /// AND drained — the executor-loop exit condition.
    bool pop(JobT& out) {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock, [this] { return depth_ > 0 || closed_; });
        if (depth_ == 0) return false;  // closed and drained
        // Serve the first non-empty lane at or after the cursor.
        std::size_t idx = cursor_;
        while (lanes_[idx].jobs.empty()) idx = (idx + 1) % lanes_.size();
        auto& lane = lanes_[idx];
        out = std::move(lane.jobs.front());
        lane.jobs.pop_front();
        --depth_;
        if (lane.jobs.empty()) {
            // Retire the drained lane; the element shifting into `idx` is
            // the lane the rotation visits next, so the cursor stays put.
            lanes_.erase(lanes_.begin() + static_cast<std::ptrdiff_t>(idx));
            cursor_ = lanes_.empty() ? 0 : idx % lanes_.size();
        } else {
            cursor_ = (idx + 1) % lanes_.size();
        }
        return true;
    }

    /// Stop admission; queued jobs keep draining through pop().
    void close() {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        ready_.notify_all();
    }

    [[nodiscard]] std::size_t depth() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return depth_;
    }

  private:
    struct Lane {
        std::uint64_t client = 0;
        std::deque<JobT> jobs;
    };

    Lane& lane_for(std::uint64_t client) {
        for (auto& lane : lanes_) {
            if (lane.client == client) return lane;
        }
        lanes_.push_back(Lane{client, {}});
        return lanes_.back();
    }

    mutable std::mutex mutex_;
    std::condition_variable ready_;
    std::vector<Lane> lanes_;   ///< live lanes, rotation order
    std::size_t cursor_ = 0;    ///< next lane the rotation serves
    std::size_t depth_ = 0;     ///< total queued jobs across lanes
    std::size_t max_depth_;
    bool closed_ = false;
};

}  // namespace pedsim::server
