#include "server/cache.hpp"

#include "obs/metrics.hpp"

namespace pedsim::server {

// The tags differ in their first byte, so a text key never equals a
// registry key whatever the submitted bytes are.
std::string ScenarioCache::key_for_text(std::string_view text) {
    std::string key = "\x01text\x01";
    key.append(text);
    return key;
}

std::string ScenarioCache::key_for_registry(std::string_view name) {
    std::string key = "\x02registry\x02";
    key.append(name);
    return key;
}

std::shared_ptr<const scenario::PreparedScenario>
ScenarioCache::get_or_prepare(const std::string& key, const Builder& build,
                              bool* hit) {
    std::shared_ptr<Entry> entry;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (hit != nullptr) *hit = it != entries_.end();
        if (it != entries_.end()) {
            entry = it->second;
            hits_.fetch_add(1, std::memory_order_relaxed);
            obs::MetricsRegistry::add("server.cache.hit");
        } else {
            entry = std::make_shared<Entry>();
            entries_.emplace(key, entry);
            misses_.fetch_add(1, std::memory_order_relaxed);
            obs::MetricsRegistry::add("server.cache.miss");
        }
    }
    // The expensive build (scenario parse + every phase's Dijkstra field)
    // runs outside the registry lock: concurrent jobs on OTHER scenarios
    // proceed; concurrent jobs on THIS scenario block here instead of
    // duplicating the precompute.
    std::call_once(entry->once, [&] {
        try {
            entry->value = std::make_shared<const scenario::PreparedScenario>(
                build());
        } catch (...) {
            entry->error = std::current_exception();
        }
    });
    if (entry->error != nullptr) std::rethrow_exception(entry->error);
    return entry->value;
}

std::size_t ScenarioCache::size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

}  // namespace pedsim::server
