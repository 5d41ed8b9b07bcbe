#include "grid/field_store.hpp"

#include <algorithm>

namespace pedsim::grid {

std::size_t FieldStore::KeyHash::operator()(const FieldKey& key) const {
    std::uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a over 32-bit words
    const auto mix = [&h](std::uint64_t v) {
        h = (h ^ v) * 0x100000001B3ull;
    };
    mix(static_cast<std::uint64_t>(key.kind));
    mix(static_cast<std::uint64_t>(key.grid.rows));
    mix(static_cast<std::uint64_t>(key.grid.cols));
    for (const auto* cells : {&key.goals[0], &key.goals[1], &key.walls}) {
        mix(cells->size());
        for (const auto c : *cells) mix(c);
    }
    return static_cast<std::size_t>(h);
}

FieldStore::Field FieldStore::find(const FieldKey& key) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = fields_.find(key);
    return it == fields_.end() ? nullptr : it->second.lock();
}

FieldStore::Field FieldStore::insert(FieldKey key, Field field) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = fields_[std::move(key)];
    if (auto resident = slot.lock()) return resident;
    slot = field;
    if (fields_.size() >= sweep_at_) {
        std::erase_if(fields_, [](const auto& kv) {
            return kv.second.expired();
        });
        sweep_at_ = std::max<std::size_t>(64, 2 * fields_.size());
    }
    return field;
}

std::size_t FieldStore::bytes() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto& [key, weak] : fields_) {
        if (const auto field = weak.lock()) n += field->bytes();
    }
    return n;
}

}  // namespace pedsim::grid
