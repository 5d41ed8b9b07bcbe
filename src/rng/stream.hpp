// Counter-based random streams keyed on structured simulation identifiers.
//
// The paper draws device-side randomness from CURAND with one state per
// thread. We reproduce that contract: a `Stream` is cheap to construct on
// the fly from (seed, entity, step, stage) and yields a deterministic
// sequence independent of any other stream and of evaluation order.
//
// Every member is inline: the engines build a stream and draw from it
// once per drawing agent and per contested cell, on the step's hot path.
// They build each stage's Stream::Base once per step, and the host engine
// queues its streams in StreamBatches, whose first blocks are computed
// lane-parallel (docs/PERFORMANCE.md, "Measured: the decision path").
#pragma once

#include <array>
#include <cstddef>
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
    /// The (seed, stage, step) part of a stream's coordinates: the
    /// whitened key and counter words 2-3, which every entity's stream of
    /// one stage and step shares. An engine builds one per stage at the
    /// start of a step, so each stream it then builds costs one
    /// SplitMix64 instead of three.
    struct Base {
        Philox4x32::Key key{};
        std::uint32_t ctr2 = 0;
        std::uint32_t ctr3 = 0;

        Base() = default;
        Base(std::uint64_t seed, Stage stage, std::uint64_t step) noexcept {
            // Whiten the structured coordinates so that adjacent (entity,
            // step) tuples land on unrelated keys. The stage is folded
            // into the seed word.
            const std::uint64_t k =
                splitmix64(seed ^ (static_cast<std::uint64_t>(stage) << 56));
            const std::uint64_t c1 = splitmix64(step ^ 0x5A5A5A5A5A5A5A5Aull);
            key = {static_cast<std::uint32_t>(k),
                   static_cast<std::uint32_t>(k >> 32)};
            ctr2 = static_cast<std::uint32_t>(c1);
            ctr3 = static_cast<std::uint32_t>(c1 >> 32);
        }
    };

    /// Identifies a stream by simulation coordinates. Every distinct tuple
    /// gives an independent stream (keys are SplitMix64-whitened).
    Stream(std::uint64_t seed, Stage stage, std::uint64_t entity,
           std::uint64_t step) noexcept
        : Stream(Base(seed, stage, step), entity) {}

    /// The stream of `entity` under `base`: the stream the four-argument
    /// constructor gives for (seed, stage, entity, step).
    Stream(const Base& base, std::uint64_t entity) noexcept
        : key_(base.key), counter_(first_counter(base, entity)) {}

    /// The same stream with its first block already computed:
    /// `first_block` must be Philox4x32::generate(first_counter(base,
    /// entity), base.key), as StreamBatch computes it for a batch of
    /// lanes. The stream then draws exactly what Stream(base, entity)
    /// draws, continuing past the first block as that one does.
    Stream(const Base& base, std::uint64_t entity,
           const Philox4x32::Output& first_block) noexcept
        : Stream(base, entity) {
        block_ = first_block;
        advance();
        cursor_ = 0;
    }

    /// The counter of the first block of `entity`'s stream under `base`.
    static Philox4x32::Counter first_counter(const Base& base,
                                             std::uint64_t entity) noexcept {
        const std::uint64_t c0 = splitmix64(entity ^ 0xA5A5A5A5A5A5A5A5ull);
        return {static_cast<std::uint32_t>(c0),
                static_cast<std::uint32_t>(c0 >> 32), base.ctr2, base.ctr3};
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
        advance();
        cursor_ = 0;
    }

    /// 128-bit counter increment; lane 0 is the fast word. The high lanes
    /// carry so a stream never repeats within 2^128 blocks.
    void advance() noexcept {
        if (++counter_[0] == 0 && ++counter_[1] == 0 && ++counter_[2] == 0) {
            ++counter_[3];
        }
    }

    Philox4x32::Key key_;
    Philox4x32::Counter counter_;
    Philox4x32::Output block_{};
    int cursor_ = 4;  // empty: refill on first use
};

/// Up to kLanes streams of one Stream::Base, each queued with a caller's
/// item. flush() computes the first blocks of all queued streams together,
/// in lane-parallel loops, then hands each item, in queue order, its
/// stream primed with its block — the stream Stream(base, entity) gives,
/// so every draw is the one an unbatched stream makes. Meant for the
/// caller's stack: construction initializes only the count, and a slot
/// filled through next() but never committed costs nothing.
template <typename Item>
class StreamBatch {
  public:
    static constexpr std::size_t kLanes = 32;

    /// The slot the next commit() queues.
    Item& next() noexcept { return items_[n_]; }

    /// Queue next()'s item on the stream of `entity`. Returns true when
    /// the batch is full: flush it before the next commit.
    bool commit(std::uint64_t entity) noexcept {
        entity_[n_] = entity;
        return ++n_ == kLanes;
    }

    /// Call fn(item, stream) for every queued item, in queue order, on its
    /// primed stream under `base`; leaves the batch empty.
    template <typename Fn>
    void flush(const Stream::Base& base, Fn&& fn) {
        if (n_ == 0) return;
        Philox4x32::Lanes<kLanes> x;
        for (std::size_t l = 0; l < n_; ++l) {
            const auto ctr = Stream::first_counter(base, entity_[l]);
            for (std::size_t w = 0; w < 4; ++w) x[w][l] = ctr[w];
        }
        Philox4x32::generate(x, base.key, n_);
        for (std::size_t l = 0; l < n_; ++l) {
            Stream s(base, entity_[l], {x[0][l], x[1][l], x[2][l], x[3][l]});
            fn(items_[l], s);
        }
        n_ = 0;
    }

  private:
    std::array<Item, kLanes> items_;
    std::array<std::uint64_t, kLanes> entity_;
    std::size_t n_ = 0;
};

}  // namespace pedsim::rng
