// Row-level primitives of the per-step hot path, built on simd::VecU8.
//
// The grid stores each row padded to kRowAlign bytes with kWallOcc
// sentinels (leading sentinel column, trailing pad, halo rows above and
// below — see grid::Environment). Bit masks over a padded row use one
// 64-bit word per 64-byte block, bit p standing for byte position p,
// which is logical column p - 1 (the engines' proposal plane).
//
// Everything here is integer masks, integer counts, or verbatim double
// loads — no floating-point arithmetic — which is why the engines can use
// the dispatch functions while every fingerprint stays bit-identical to
// the scalar build. The simd::scalar reference implementations are always
// compiled; tests/simd_test.cpp pins dispatch == reference per primitive.
#pragma once

#include <bit>
#include <cstdint>

#include "simd/simd.hpp"

namespace pedsim::simd {

inline constexpr int kWordBits = 64;

/// Dense-lane mask for one VecU8 worth of eq_bits output.
inline constexpr std::uint32_t kLaneMask =
    kU8Lanes >= 32 ? 0xFFFFFFFFu : ((1u << kU8Lanes) - 1u);

namespace scalar {

/// Occupied (non-zero) bytes among p[0..len): walls count, empties don't.
inline int count_occupied(const std::uint8_t* p, int len) {
    int n = 0;
    for (int i = 0; i < len; ++i) n += (p[i] != 0);
    return n;
}

/// out[i] = base[idx[i]] — verbatim element copies, no arithmetic.
inline void gather_f64(const double* base, const std::int32_t* idx, int n,
                       double* out) {
    for (int i = 0; i < n; ++i) {
        out[i] = base[static_cast<std::size_t>(idx[i])];
    }
}

}  // namespace scalar

inline int count_occupied(const std::uint8_t* p, int len) {
    const VecU8 zero = VecU8::splat(0);
    int n = 0;
    int i = 0;
    for (; i + kU8Lanes <= len; i += kU8Lanes) {
        const std::uint32_t eq0 = VecU8::eq_bits(VecU8::loadu(p + i), zero);
        n += std::popcount(~eq0 & kLaneMask);
    }
    for (; i < len; ++i) n += (p[i] != 0);
    return n;
}

inline void gather_f64(const double* base, const std::int32_t* idx, int n,
                       double* out) {
#if PEDSIM_SIMD_AVX2
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128i vi =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + i));
        _mm256_storeu_pd(out + i, _mm256_i32gather_pd(base, vi, 8));
    }
    for (; i < n; ++i) out[i] = base[static_cast<std::size_t>(idx[i])];
#else
    scalar::gather_f64(base, idx, n, out);
#endif
}

/// Invoke fn(p) for every set bit position p, in ascending order (words
/// ascending, bits by count-trailing-zeros) — the row-major cell order the
/// engines' scalar loops used, so iteration order is preserved exactly.
template <typename Fn>
inline void for_each_set_bit(const std::uint64_t* words, int nwords,
                             Fn&& fn) {
    for (int w = 0; w < nwords; ++w) {
        std::uint64_t m = words[w];
        while (m != 0) {
            fn(w * kWordBits + std::countr_zero(m));
            m &= m - 1;
        }
    }
}

}  // namespace pedsim::simd
