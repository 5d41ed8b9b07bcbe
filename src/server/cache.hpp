// Scenario-keyed warm cache of the resident server: the submitted
// scenario's bytes -> PreparedScenario (parsed Scenario + the shared
// immutable DoorSchedule with every phase's geodesic field and waypoint
// field sets precomputed).
//
// Keying is by CONTENT, not by name: two clients submitting byte-equal
// scenario text share one entry, and a registry-name submission lives in
// its own key namespace so a scenario file that happens to contain a
// built-in's name can never alias it. The key IS the namespaced bytes,
// not a digest of them, so every hit compares the full content and two
// different submissions can never share an entry. The cached schedule is
// read-only after construction and independent of seed/model/steps/
// threads (the core::Simulator warm-constructor contract), so one entry
// serves every job permutation concurrently. The cache owns one
// grid::FieldStore for all of its entries: builders pass it to
// scenario::prepare_scenario, so every distinct distance field is resident
// once per cache however many entries pass through its configuration.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "grid/field_store.hpp"
#include "scenario/runner.hpp"

namespace pedsim::server {

class ScenarioCache {
  public:
    using Builder = std::function<scenario::PreparedScenario()>;

    /// Key of a scenario submitted as file text: the text namespace tag
    /// followed by the text's bytes.
    static std::string key_for_text(std::string_view text);
    /// Key of a registry-name submission: a separate namespace tag
    /// followed by the name.
    static std::string key_for_registry(std::string_view name);

    /// Find-or-build the entry for `key`. On a miss, `build` runs exactly
    /// once per key even under concurrent lookups (later callers block on
    /// the build); a throwing build is cached as the entry's permanent
    /// outcome — deterministic input, deterministic error — and rethrown
    /// to every caller. Counts server.cache.hit/.miss (a lookup that
    /// arrives while the entry is still building counts as a hit: the
    /// precompute is shared, which is what the counter measures).
    /// `hit`, when non-null, receives whether the entry already existed
    /// at lookup — the per-job flag the Done frame reports.
    std::shared_ptr<const scenario::PreparedScenario> get_or_prepare(
        const std::string& key, const Builder& build, bool* hit = nullptr);

    /// The store every entry's schedule interns its fields through.
    [[nodiscard]] grid::FieldStore& field_store() { return fields_; }
    /// Distinct resident distance-table bytes across all entries.
    [[nodiscard]] std::size_t field_bytes() const { return fields_.bytes(); }

    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] std::uint64_t hits() const {
        return hits_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t misses() const {
        return misses_.load(std::memory_order_relaxed);
    }

  private:
    struct Entry {
        std::once_flag once;
        std::shared_ptr<const scenario::PreparedScenario> value;
        std::exception_ptr error;
    };

    grid::FieldStore fields_;
    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::shared_ptr<Entry>> entries_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

}  // namespace pedsim::server
