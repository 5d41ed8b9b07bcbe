#include "rng/stream.hpp"

namespace pedsim::rng {

Stream::Stream(std::uint64_t seed, Stage stage, std::uint64_t entity,
               std::uint64_t step) noexcept {
    // Whiten the structured coordinates so that adjacent (entity, step)
    // tuples land on unrelated keys. The stage is folded into the seed word.
    const std::uint64_t k =
        splitmix64(seed ^ (static_cast<std::uint64_t>(stage) << 56));
    const std::uint64_t c0 = splitmix64(entity ^ 0xA5A5A5A5A5A5A5A5ull);
    const std::uint64_t c1 = splitmix64(step ^ 0x5A5A5A5A5A5A5A5Aull);
    key_ = {static_cast<std::uint32_t>(k), static_cast<std::uint32_t>(k >> 32)};
    counter_ = {static_cast<std::uint32_t>(c0),
                static_cast<std::uint32_t>(c0 >> 32),
                static_cast<std::uint32_t>(c1),
                static_cast<std::uint32_t>(c1 >> 32)};
}

void Stream::refill() noexcept {
    block_ = Philox4x32::generate(counter_, key_);
    // 128-bit counter increment; lane 0 is the fast word. The high lanes
    // carry so a stream never repeats within 2^128 blocks.
    if (++counter_[0] == 0 && ++counter_[1] == 0 && ++counter_[2] == 0) {
        ++counter_[3];
    }
    cursor_ = 0;
}

std::uint32_t Stream::next_u32() noexcept {
    if (cursor_ >= 4) refill();
    return block_[cursor_++];
}

std::uint64_t Stream::next_u64() noexcept {
    const std::uint64_t lo = next_u32();
    const std::uint64_t hi = next_u32();
    return (hi << 32) | lo;
}

double Stream::next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint32_t Stream::next_below(std::uint32_t bound) noexcept {
    // Lemire 2019: multiply-shift with rejection of the biased residue.
    std::uint64_t m = static_cast<std::uint64_t>(next_u32()) * bound;
    auto lo = static_cast<std::uint32_t>(m);
    if (lo < bound) {
        const std::uint32_t threshold = (0u - bound) % bound;
        while (lo < threshold) {
            m = static_cast<std::uint64_t>(next_u32()) * bound;
            lo = static_cast<std::uint32_t>(m);
        }
    }
    return static_cast<std::uint32_t>(m >> 32);
}

}  // namespace pedsim::rng
