// Content-keyed store of distance fields: one resident copy of each
// distinct field, shared by every schedule that interns through the store.
//
// The paper keeps a single distance matrix in constant memory that every
// thread of every step reads. A resident server holds many schedules whose
// wall configurations repeat one another's (a scenario text that only
// shifts a registry scenario's event times passes through exactly the
// registry scenario's configurations), so core::DoorSchedule interns every
// field here: a field some live schedule already holds is adopted instead
// of built again. A field is a pure function of its key, and a repaired
// field equals a full build bit for bit, so which schedule built a field
// never changes a result. The store holds weak references only: an entry
// expires with the last schedule holding its field.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "grid/distance_field.hpp"

namespace pedsim::grid {

/// Everything a distance field is a function of. Two keys name the same
/// field exactly when they compare equal; a hash match alone never does.
struct FieldKey {
    enum class Kind : std::uint8_t {
        kAnalytic,      ///< DistanceField(config)
        kGeodesic,      ///< two groups, goals[g] (empty = far edge row)
        kSharedTarget,  ///< DistanceField::shared_target(goals[0][0])
    };
    Kind kind = Kind::kAnalytic;
    GridConfig grid;
    std::array<std::vector<std::uint32_t>, 2> goals;
    /// Sorted, deduplicated wall cells.
    std::vector<std::uint32_t> walls;

    bool operator==(const FieldKey&) const = default;
};

/// Thread-safe: schedules built concurrently may share one store.
class FieldStore {
  public:
    using Field = std::shared_ptr<const DistanceField>;

    /// The resident field of `key`, or null.
    [[nodiscard]] Field find(const FieldKey& key) const;

    /// Make `field`, the field of `key`, resident and return it. When
    /// another thread made a field of `key` resident since find() missed,
    /// that one is returned and `field` is dropped: callers build outside
    /// the lock and adopt the winner.
    Field insert(FieldKey key, Field field);

    /// Table bytes of the resident fields (DistanceField::bytes()).
    [[nodiscard]] std::size_t bytes() const;

  private:
    struct KeyHash {
        std::size_t operator()(const FieldKey& key) const;
    };

    mutable std::mutex mutex_;
    std::unordered_map<FieldKey, std::weak_ptr<const DistanceField>, KeyHash>
        fields_;
    /// insert() drops expired entries once the map reaches this size, so
    /// the map stays within twice the resident count.
    std::size_t sweep_at_ = 64;
};

}  // namespace pedsim::grid
