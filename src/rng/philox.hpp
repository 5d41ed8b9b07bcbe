// Philox4x32-10 counter-based pseudo-random generator.
//
// This is the same family CURAND exposes as CURAND_RNG_PSEUDO_PHILOX4_32_10
// (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).
// A counter-based generator is the natural fit for the paper's data-driven
// kernels: every (thread, step, stage) tuple owns an independent stream and
// the produced values are independent of thread scheduling, which is what
// makes the CPU and GPU-style engines bit-identical for the same seed.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace pedsim::rng {

/// 128-bit counter / 64-bit key block cipher evaluated for 10 rounds.
/// Stateless: `generate` is a pure function of (counter, key).
struct Philox4x32 {
    using Counter = std::array<std::uint32_t, 4>;
    using Key = std::array<std::uint32_t, 2>;
    using Output = std::array<std::uint32_t, 4>;

    static constexpr std::uint32_t kMult0 = 0xD2511F53u;
    static constexpr std::uint32_t kMult1 = 0xCD9E8D57u;
    static constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;  // golden ratio
    static constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;  // sqrt(3) - 1
    static constexpr int kRounds = 10;

    /// Counter blocks of up to N lanes, stored word-major so that a loop
    /// over lanes runs on contiguous words: word w of lane l is x[w][l].
    template <std::size_t N>
    using Lanes = std::array<std::array<std::uint32_t, N>, 4>;

    /// One Philox round on lanes [0, n): two 32x32->64 multiplies, xors
    /// with key and counter. The lane loop carries no dependence, so the
    /// compiler vectorizes it (SSE2 pmuludq at the baseline target).
    template <std::size_t N>
    static constexpr void round(Lanes<N>& x, const Key& key, std::size_t n) {
        for (std::size_t l = 0; l < n; ++l) {
            const std::uint64_t p0 =
                static_cast<std::uint64_t>(kMult0) * x[0][l];
            const std::uint64_t p1 =
                static_cast<std::uint64_t>(kMult1) * x[2][l];
            const std::uint32_t w1 = x[1][l];
            const std::uint32_t w3 = x[3][l];
            x[0][l] = static_cast<std::uint32_t>(p1 >> 32) ^ w1 ^ key[0];
            x[1][l] = static_cast<std::uint32_t>(p1);
            x[2][l] = static_cast<std::uint32_t>(p0 >> 32) ^ w3 ^ key[1];
            x[3][l] = static_cast<std::uint32_t>(p0);
        }
    }

    /// Full 10-round keyed bijection of lanes [0, n), in place. Every lane
    /// shares `key`.
    template <std::size_t N>
    static constexpr void generate(Lanes<N>& x, Key key, std::size_t n) {
        for (int r = 0; r < kRounds; ++r) {
            round(x, key, n);
            key[0] += kWeyl0;
            key[1] += kWeyl1;
        }
    }

    /// Full 10-round keyed bijection of one counter block: the one-lane
    /// case of the lane generate.
    static constexpr Output generate(const Counter& ctr, const Key& key) {
        Lanes<1> x{{{ctr[0]}, {ctr[1]}, {ctr[2]}, {ctr[3]}}};
        generate(x, key, 1);
        return Output{x[0][0], x[1][0], x[2][0], x[3][0]};
    }
};

/// SplitMix64 — used to derive well-mixed keys/counters from structured
/// identifiers (seed, agent id, step, stage). Passes into Philox keys.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

}  // namespace pedsim::rng
