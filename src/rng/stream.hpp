// Counter-based random streams keyed on structured simulation identifiers.
//
// The paper draws device-side randomness from CURAND with one state per
// thread. We reproduce that contract: a `Stream` is cheap to construct on
// the fly from (seed, entity, step, stage) and yields a deterministic
// sequence independent of any other stream and of evaluation order.
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
/// incrementing counter. Copyable, 24 bytes, no heap.
class Stream {
  public:
    /// Identifies a stream by simulation coordinates. Every distinct tuple
    /// gives an independent stream (keys are SplitMix64-whitened).
    Stream(std::uint64_t seed, Stage stage, std::uint64_t entity,
           std::uint64_t step) noexcept;

    /// Raw 32-bit draw.
    std::uint32_t next_u32() noexcept;

    /// Raw 64-bit draw (two 32-bit lanes).
    std::uint64_t next_u64() noexcept;

    /// Uniform double in [0, 1). 53-bit resolution.
    double next_double() noexcept;

    /// Unbiased uniform integer in [0, bound). bound must be > 0.
    /// Uses Lemire's multiply-shift rejection method.
    std::uint32_t next_below(std::uint32_t bound) noexcept;

  private:
    void refill() noexcept;

    Philox4x32::Key key_;
    Philox4x32::Counter counter_;
    Philox4x32::Output block_{};
    int cursor_ = 4;  // empty: refill on first use
};

}  // namespace pedsim::rng
