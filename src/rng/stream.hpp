// Counter-based random streams keyed on structured simulation identifiers.
//
// The paper draws device-side randomness from CURAND with one state per
// thread. We reproduce that contract: a `Stream` is cheap to construct on
// the fly from (seed, entity, step, stage) and yields a deterministic
// sequence independent of any other stream and of evaluation order.
//
// Every member is inline: the engines build a stream and draw from it
// once per drawing agent and per contested cell, on the step's hot path
// (docs/PERFORMANCE.md, "Measured: the decision path").
#pragma once

#include <cstdint>

#include "rng/philox.hpp"

namespace pedsim::rng {

/// Stage tags keep draws made by different kernels of the same step from
/// colliding even when they share an entity id.
enum class Stage : std::uint32_t {
    kPlacement = 0,      ///< initial agent placement (host-side data prep)
    kTourConstruction,   ///< LEM rank draw / ACO roulette draw
    kMovement,           ///< scatter-to-gather winner selection
    kGeneric,            ///< library users / examples
    kAnts,               ///< classic Ant System (TSP substrate)
    kPerturbation,       ///< fault-injection layer: no-show draws, surge
                         ///< placement (isolated so perturbations-off runs
                         ///< consume exactly the seed's streams)
};

/// A deterministic random stream: Philox4x32-10 evaluated on an
/// incrementing counter. Copyable, 44 bytes, no heap.
class Stream {
  public:
    /// Identifies a stream by simulation coordinates. Every distinct tuple
    /// gives an independent stream (keys are SplitMix64-whitened).
    Stream(std::uint64_t seed, Stage stage, std::uint64_t entity,
           std::uint64_t step) noexcept {
        // Whiten the structured coordinates so that adjacent (entity,
        // step) tuples land on unrelated keys. The stage is folded into
        // the seed word.
        const std::uint64_t k =
            splitmix64(seed ^ (static_cast<std::uint64_t>(stage) << 56));
        const std::uint64_t c0 = splitmix64(entity ^ 0xA5A5A5A5A5A5A5A5ull);
        const std::uint64_t c1 = splitmix64(step ^ 0x5A5A5A5A5A5A5A5Aull);
        key_ = {static_cast<std::uint32_t>(k),
                static_cast<std::uint32_t>(k >> 32)};
        counter_ = {static_cast<std::uint32_t>(c0),
                    static_cast<std::uint32_t>(c0 >> 32),
                    static_cast<std::uint32_t>(c1),
                    static_cast<std::uint32_t>(c1 >> 32)};
    }

    /// Raw 32-bit draw.
    std::uint32_t next_u32() noexcept {
        if (cursor_ >= 4) refill();
        return block_[static_cast<std::size_t>(cursor_++)];
    }

    /// Raw 64-bit draw (two 32-bit lanes).
    std::uint64_t next_u64() noexcept {
        const std::uint64_t lo = next_u32();
        const std::uint64_t hi = next_u32();
        return (hi << 32) | lo;
    }

    /// Uniform double in [0, 1). 53-bit resolution.
    double next_double() noexcept {
        return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
    }

    /// Unbiased uniform integer in [0, bound). bound must be > 0.
    /// Uses Lemire's multiply-shift rejection method.
    std::uint32_t next_below(std::uint32_t bound) noexcept {
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

  private:
    void refill() noexcept {
        block_ = Philox4x32::generate(counter_, key_);
        // 128-bit counter increment; lane 0 is the fast word. The high
        // lanes carry so a stream never repeats within 2^128 blocks.
        if (++counter_[0] == 0 && ++counter_[1] == 0 && ++counter_[2] == 0) {
            ++counter_[3];
        }
        cursor_ = 0;
    }

    Philox4x32::Key key_;
    Philox4x32::Counter counter_;
    Philox4x32::Output block_{};
    int cursor_ = 4;  // empty: refill on first use
};

}  // namespace pedsim::rng
