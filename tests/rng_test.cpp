// Unit and property tests for the counter-based RNG substrate.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "core/rules.hpp"
#include "rng/distributions.hpp"
#include "rng/philox.hpp"
#include "rng/stream.hpp"

namespace pedsim::rng {
namespace {

// --- Philox block cipher -------------------------------------------------

TEST(Philox, MatchesRandom123ZeroVector) {
    const auto out = Philox4x32::generate({0, 0, 0, 0}, {0, 0});
    const Philox4x32::Output want{0x6627e8d5u, 0xe169c58du, 0xbc57ac4cu,
                                  0x9b00dbd8u};
    EXPECT_EQ(out, want);
}

TEST(Philox, MatchesRandom123OnesVector) {
    const auto out = Philox4x32::generate(
        {0xffffffffu, 0xffffffffu, 0xffffffffu, 0xffffffffu},
        {0xffffffffu, 0xffffffffu});
    const Philox4x32::Output want{0x408f276du, 0x41c83b0eu, 0xa20bc7c6u,
                                  0x6d5451fdu};
    EXPECT_EQ(out, want);
}

TEST(Philox, MatchesRandom123PiVector) {
    const auto out = Philox4x32::generate(
        {0x243f6a88u, 0x85a308d3u, 0x13198a2eu, 0x03707344u},
        {0xa4093822u, 0x299f31d0u});
    const Philox4x32::Output want{0xd16cfe09u, 0x94fdccebu, 0x5001e420u,
                                  0x24126ea1u};
    EXPECT_EQ(out, want);
}

TEST(Philox, IsDeterministic) {
    const Philox4x32::Counter ctr{1, 2, 3, 4};
    const Philox4x32::Key key{5, 6};
    EXPECT_EQ(Philox4x32::generate(ctr, key), Philox4x32::generate(ctr, key));
}

TEST(Philox, CounterAvalanche) {
    // Flipping one counter bit should change (on average) half the output
    // bits; require at least a quarter as a loose avalanche bound.
    const Philox4x32::Key key{0xdeadbeefu, 0xcafef00du};
    const auto a = Philox4x32::generate({7, 8, 9, 10}, key);
    const auto b = Philox4x32::generate({7 ^ 1u, 8, 9, 10}, key);
    int differing = 0;
    for (int i = 0; i < 4; ++i) {
        differing += __builtin_popcount(a[static_cast<std::size_t>(i)] ^
                                        b[static_cast<std::size_t>(i)]);
    }
    EXPECT_GT(differing, 32);
}

TEST(Philox, LaneBlocksMatchOneLaneGenerate) {
    // Random keys and counters at every batch size 1-32: each lane below n
    // holds generate() of its own counter, and the lanes past n, a partial
    // batch's unused tail, are left as they were.
    std::mt19937_64 rng(0x5eed);
    for (std::size_t n = 1; n <= 32; ++n) {
        for (int trial = 0; trial < 8; ++trial) {
            const Philox4x32::Key key{static_cast<std::uint32_t>(rng()),
                                      static_cast<std::uint32_t>(rng())};
            Philox4x32::Lanes<32> x{};
            for (auto& word : x) {
                for (auto& v : word) v = static_cast<std::uint32_t>(rng());
            }
            const auto before = x;
            Philox4x32::generate(x, key, n);
            for (std::size_t l = 0; l < 32; ++l) {
                const Philox4x32::Counter ctr{before[0][l], before[1][l],
                                              before[2][l], before[3][l]};
                const Philox4x32::Output got{x[0][l], x[1][l], x[2][l],
                                             x[3][l]};
                if (l < n) {
                    EXPECT_EQ(got, Philox4x32::generate(ctr, key))
                        << "n " << n << " lane " << l;
                } else {
                    EXPECT_EQ(got, ctr) << "n " << n << " lane " << l;
                }
            }
        }
    }
}

TEST(SplitMix, DistinctOnSequentialInputs) {
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(splitmix64(i));
    EXPECT_EQ(seen.size(), 1000u);
}

// --- Stream --------------------------------------------------------------

TEST(Stream, SameCoordinatesSameSequence) {
    Stream a(42, Stage::kTourConstruction, 17, 100);
    Stream b(42, Stage::kTourConstruction, 17, 100);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Stream, DifferentEntityDiffers) {
    Stream a(42, Stage::kTourConstruction, 17, 100);
    Stream b(42, Stage::kTourConstruction, 18, 100);
    int equal = 0;
    for (int i = 0; i < 64; ++i) equal += (a.next_u32() == b.next_u32());
    EXPECT_LT(equal, 4);
}

TEST(Stream, DifferentStageDiffers) {
    Stream a(42, Stage::kTourConstruction, 17, 100);
    Stream b(42, Stage::kMovement, 17, 100);
    int equal = 0;
    for (int i = 0; i < 64; ++i) equal += (a.next_u32() == b.next_u32());
    EXPECT_LT(equal, 4);
}

TEST(Stream, DifferentStepDiffers) {
    Stream a(42, Stage::kMovement, 17, 100);
    Stream b(42, Stage::kMovement, 17, 101);
    int equal = 0;
    for (int i = 0; i < 64; ++i) equal += (a.next_u32() == b.next_u32());
    EXPECT_LT(equal, 4);
}

TEST(Stream, DoubleInUnitInterval) {
    Stream s(1, Stage::kGeneric, 0, 0);
    for (int i = 0; i < 10000; ++i) {
        const double x = s.next_double();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Stream, UniformMeanAndVariance) {
    Stream s(7, Stage::kGeneric, 3, 9);
    const int n = 200000;
    double sum = 0.0, sum2 = 0.0;
    for (int i = 0; i < n; ++i) {
        const double x = s.next_double();
        sum += x;
        sum2 += x * x;
    }
    const double m = sum / n;
    const double v = sum2 / n - m * m;
    EXPECT_NEAR(m, 0.5, 0.005);
    EXPECT_NEAR(v, 1.0 / 12.0, 0.005);
}

TEST(Stream, NextBelowBounds) {
    Stream s(3, Stage::kGeneric, 1, 1);
    for (std::uint32_t bound : {1u, 2u, 3u, 7u, 8u, 100u, 1000u}) {
        for (int i = 0; i < 1000; ++i) {
            EXPECT_LT(s.next_below(bound), bound);
        }
    }
}

TEST(Stream, NextBelowIsApproximatelyUniform) {
    Stream s(5, Stage::kGeneric, 2, 2);
    constexpr std::uint32_t kBound = 8;
    std::array<int, kBound> hist{};
    const int n = 80000;
    for (int i = 0; i < n; ++i) ++hist[s.next_below(kBound)];
    // Chi-square with 7 dof: 99.9th percentile ~ 24.3.
    const double expected = static_cast<double>(n) / kBound;
    double chi2 = 0.0;
    for (const int h : hist) {
        chi2 += (h - expected) * (h - expected) / expected;
    }
    EXPECT_LT(chi2, 24.3);
}

// --- Stream bases, primed streams and batches -----------------------------

/// x given x ^ (x >> shift): each pass fixes `shift` more high bits.
std::uint64_t unxorshift(std::uint64_t y, int shift) {
    std::uint64_t x = y;
    for (int done = shift; done < 64; done += shift) x = y ^ (x >> shift);
    return x;
}

/// The inverse of an odd multiplier modulo 2^64 (Newton's iteration, each
/// step doubling the correct low bits from 3).
std::uint64_t inverse_mod_2_64(std::uint64_t m) {
    std::uint64_t inv = m;
    for (int i = 0; i < 5; ++i) inv *= 2 - m * inv;
    return inv;
}

/// splitmix64's inverse, so a test can pick a stream's counter words.
std::uint64_t unsplitmix64(std::uint64_t z) {
    z = unxorshift(z, 31) * inverse_mod_2_64(0x94D049BB133111EBull);
    z = unxorshift(z, 27) * inverse_mod_2_64(0xBF58476D1CE4E5B9ull);
    return unxorshift(z, 30) - 0x9E3779B97F4A7C15ull;
}

/// The entity whose stream starts at counter words 0-1 = `words01`, and
/// the step whose Stream::Base has counter words 2-3 = `words23`.
std::uint64_t entity_for(std::uint64_t words01) {
    return unsplitmix64(words01) ^ 0xA5A5A5A5A5A5A5A5ull;
}
std::uint64_t step_for(std::uint64_t words23) {
    return unsplitmix64(words23) ^ 0x5A5A5A5A5A5A5A5Aull;
}

constexpr std::array<Stage, 6> kStages{
    Stage::kPlacement, Stage::kTourConstruction, Stage::kMovement,
    Stage::kGeneric,   Stage::kAnts,             Stage::kPerturbation};

TEST(StreamBase, UnsplitmixInvertsSplitmix) {
    std::mt19937_64 rng(11);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t z = rng();
        EXPECT_EQ(splitmix64(unsplitmix64(z)), z);
    }
}

TEST(StreamBase, BaseAndEntityGiveTheFourArgumentStream) {
    std::mt19937_64 rng(12);
    for (const Stage stage : kStages) {
        for (int trial = 0; trial < 200; ++trial) {
            const std::uint64_t seed = rng();
            const std::uint64_t entity = trial < 100 ? rng() : rng() % 1000;
            const std::uint64_t step = trial < 100 ? rng() : rng() % 1000;
            Stream want(seed, stage, entity, step);
            Stream got(Stream::Base(seed, stage, step), entity);
            for (int k = 0; k < 12; ++k) {  // three blocks
                ASSERT_EQ(got.next_u32(), want.next_u32())
                    << "stage " << static_cast<int>(stage) << " draw " << k;
            }
        }
    }
}

/// A primed stream against a fresh one over 10^3 next_u32 calls (250
/// blocks), with next_below and next_double mixed in so draws straddle
/// block boundaries.
void expect_primed_matches_fresh(const Stream::Base& base,
                                 std::uint64_t entity) {
    Stream fresh(base, entity);
    Stream primed(base, entity,
                  Philox4x32::generate(Stream::first_counter(base, entity),
                                       base.key));
    for (int k = 0; k < 1000; ++k) {
        ASSERT_EQ(primed.next_u32(), fresh.next_u32()) << "draw " << k;
        if (k % 7 == 3) {
            ASSERT_EQ(primed.next_double(), fresh.next_double());
        }
        if (k % 11 == 5) {
            ASSERT_EQ(primed.next_below(6), fresh.next_below(6));
        }
    }
}

TEST(StreamBase, PrimedStreamContinuesAsTheFreshOne) {
    std::mt19937_64 rng(13);
    for (int trial = 0; trial < 50; ++trial) {
        expect_primed_matches_fresh(
            Stream::Base(rng(), kStages[static_cast<std::size_t>(trial) % 6],
                         rng()),
            rng());
    }
}

TEST(StreamBase, PrimedStreamCarriesLikeTheFreshOne) {
    // Counter word 0 = 0xFFFFFFFF: the first advance carries into word 1;
    // with words 0-2 all ones it carries into word 3.
    const std::uint64_t seed = 77;
    const Stream::Base plain(seed, Stage::kMovement, 5);
    const Stream::Base ones23(seed, Stage::kMovement,
                              step_for(0x12345678FFFFFFFFull));
    ASSERT_EQ(ones23.ctr2, 0xFFFFFFFFu);
    for (const std::uint64_t words01 :
         {0x00000000FFFFFFFFull, 0x9ABCDEF0FFFFFFFFull, 0xFFFFFFFFFFFFFFFFull,
          0xFFFFFFFFFFFFFFFEull}) {
        const std::uint64_t entity = entity_for(words01);
        ASSERT_EQ(Stream::first_counter(plain, entity)[0],
                  static_cast<std::uint32_t>(words01));
        expect_primed_matches_fresh(plain, entity);
        expect_primed_matches_fresh(ones23, entity);
    }
}

TEST(StreamBatch, EveryBatchSizeDrawsTheUnbatchedStreams) {
    // Batch sizes 1-32, partial batches included, and a batch reused
    // after a flush: each queued item gets its own stream, in queue order.
    std::mt19937_64 rng(14);
    StreamBatch<int> batch;
    for (int n = 1; n <= 32; ++n) {
        const Stream::Base base(rng(), Stage::kTourConstruction, rng());
        std::vector<std::uint64_t> entities;
        bool full = false;
        for (int l = 0; l < n; ++l) {
            entities.push_back(l % 3 == 0 ? rng() : rng() % 4096);
            batch.next() = l;
            full = batch.commit(entities.back());
        }
        EXPECT_EQ(full, n == 32);
        int seen = 0;
        batch.flush(base, [&](int& item, Stream& s) {
            ASSERT_EQ(item, seen);
            Stream want(base, entities[static_cast<std::size_t>(item)]);
            for (int k = 0; k < 9; ++k) ASSERT_EQ(s.next_u32(), want.next_u32());
            ++seen;
        });
        EXPECT_EQ(seen, n);
        batch.flush(base, [&](int&, Stream&) { ADD_FAILURE() << "not empty"; });
    }
}

// --- Distributions -------------------------------------------------------

TEST(Distributions, LemRankDrawSingleCandidate) {
    Stream s(1, Stage::kGeneric, 0, 0);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(lem_rank_draw(s, 1), 0);
}

TEST(Distributions, LemRankDrawWithinRange) {
    Stream s(1, Stage::kGeneric, 0, 0);
    for (int count : {2, 3, 5, 8}) {
        for (int i = 0; i < 2000; ++i) {
            const int r = lem_rank_draw(s, count);
            EXPECT_GE(r, 0);
            EXPECT_LT(r, count);
        }
    }
}

TEST(Distributions, LemRankDrawPrefersRankZero) {
    // The clamped-normal draw sends the entire negative half plus the
    // [0, 0.5) mass to rank 0 — over 69% for sigma = 1.
    Stream s(2, Stage::kGeneric, 0, 0);
    const int n = 50000;
    int zero = 0;
    for (int i = 0; i < n; ++i) zero += (lem_rank_draw(s, 8, 1.0) == 0);
    const double frac = static_cast<double>(zero) / n;
    EXPECT_GT(frac, 0.66);
    EXPECT_LT(frac, 0.73);
}

TEST(Distributions, LemRankDrawSigmaControlsSpread) {
    Stream s1(3, Stage::kGeneric, 0, 0);
    Stream s2(3, Stage::kGeneric, 1, 0);
    const int n = 50000;
    double mean_small = 0.0, mean_large = 0.0;
    for (int i = 0; i < n; ++i) {
        mean_small += lem_rank_draw(s1, 8, 0.5);
        mean_large += lem_rank_draw(s2, 8, 3.0);
    }
    EXPECT_LT(mean_small / n, mean_large / n);
}

// --- The rank draw at its edges ----------------------------------------------

/// The rank draw as it read before lem_rank's rank-0 shortcut: Box-Muller
/// with mean 0, the clamp, then lround. lem_rank must agree with it on
/// every input.
int reference_rank(double u1, double u2, int count, double sigma) {
    const double r = std::sqrt(-2.0 * std::log(u1));
    double x = 0.0 + sigma * r * std::cos(2.0 * M_PI * u2);
    if (x < 0.0) x = 0.0;
    const double top = static_cast<double>(count - 1);
    if (x > top) x = top;
    return static_cast<int>(std::lround(x));
}

/// The configured sigmas, plus one so large that any positive cos would
/// push the reference off rank 0 right at the shortcut's ends.
constexpr std::array<double, 5> kSigmas{0.0, 0.5, 1.0, 3.0, 1e12};

/// u1 values from r = 0 (u1 = 1) to the largest r a stream can give
/// (u1 = 2^-53).
constexpr std::array<double, 4> kU1s{1.0, 0.5, 1e-3, 0x1.0p-53};

/// lem_rank against the reference at u2 for every u1, sigma and count
/// 2..8; returns the number of disagreements.
int mismatches_at(double u2) {
    int bad = 0;
    for (const double u1 : kU1s) {
        for (const double sigma : kSigmas) {
            for (int count = 2; count <= 8; ++count) {
                bad += lem_rank(u1, u2, count, sigma) !=
                       reference_rank(u1, u2, count, sigma);
            }
        }
    }
    return bad;
}

TEST(Distributions, LemRankMatchesReferenceNearCosZeros) {
    // Every u2 within 2^-16 of the two zeros of cos(2 pi u2), at a 2^-30
    // step: the shortcut's ends (2^-20 from each zero) and both sides.
    for (const double zero : {0.25, 0.75}) {
        int bad = 0;
        for (double d = -0x1.0p-16; d <= 0x1.0p-16; d += 0x1.0p-30) {
            bad += mismatches_at(zero + d);
        }
        EXPECT_EQ(bad, 0) << "near u2 = " << zero;
    }
}

TEST(Distributions, LemRankShortcutEndsAndNeighbours) {
    for (const double end : {kRankZeroLo, kRankZeroHi}) {
        for (const double u2 : {std::nextafter(end, 0.0), end,
                                std::nextafter(end, 1.0)}) {
            EXPECT_EQ(mismatches_at(u2), 0) << "u2 = " << u2;
        }
        // The sign the shortcut relies on, at its ends themselves.
        EXPECT_LT(std::cos(2.0 * M_PI * end), -5.9e-6);
    }
    // Across each zero of cos the full expression gives ranks above 0,
    // so the comparisons above can tell the two sides apart.
    EXPECT_GT(lem_rank(0.5, 0.25 - 0x1.0p-20, 8, 1e12), 0);
    EXPECT_GT(lem_rank(0.5, 0.75 + 0x1.0p-20, 8, 1e12), 0);
}

TEST(Distributions, LemRankDrawMatchesReferenceOnStreams) {
    // 10^6 draws. Each draw's two uniforms (u1 first, then u2) go through
    // lem_rank and the reference at every sigma and count; lem_rank_draw
    // on the stream itself must give the same rank and leave the stream
    // where the two uniforms did.
    Stream s(29, Stage::kTourConstruction, 0, 0);
    const int n = 1000000;
    int bad = 0;
    int shortcut = 0;
    for (int i = 0; i < n; ++i) {
        Stream ref = s;
        const double u1 = 1.0 - ref.next_double();
        const double u2 = ref.next_double();
        shortcut += (u2 >= kRankZeroLo && u2 <= kRankZeroHi);
        for (const double sigma : kSigmas) {
            for (int count = 2; count <= 8; ++count) {
                bad += lem_rank(u1, u2, count, sigma) !=
                       reference_rank(u1, u2, count, sigma);
            }
        }
        const double sigma =
            kSigmas[static_cast<std::size_t>(i) % kSigmas.size()];
        const int count = 2 + i % 7;
        bad += lem_rank_draw(s, count, sigma) !=
               reference_rank(u1, u2, count, sigma);
        bad += s.next_u32() != ref.next_u32();
    }
    EXPECT_EQ(bad, 0);
    // About half of all draws skip log, sqrt and cos.
    EXPECT_NEAR(static_cast<double>(shortcut) / n, 0.5, 0.002);
}

TEST(Distributions, RoundRankMatchesLround) {
    // Every half k + 0.5 and integer k on [0, 8], with both nextafter
    // neighbours of each, then 10^6 random values.
    const auto check = [](double x) {
        ASSERT_EQ(round_rank(x), static_cast<int>(std::lround(x)))
            << "x = " << x;
    };
    for (int k = 0; k <= 8; ++k) {
        for (const double at : {static_cast<double>(k), k + 0.5}) {
            if (at > 8.0) continue;
            check(at);
            check(std::nextafter(at, 0.0));
            if (at < 8.0) check(std::nextafter(at, 8.0));
        }
    }
    check(0.49999999999999994);  // where int(x + 0.5) would round up
    std::mt19937_64 rng(15);
    std::uniform_real_distribution<double> u(0.0, 8.0);
    for (int i = 0; i < 1000000; ++i) check(u(rng));
}

TEST(Distributions, Popcount8MatchesStdPopcount) {
    for (unsigned byte = 0; byte < 256; ++byte) {
        EXPECT_EQ(core::popcount8(byte), std::popcount(byte)) << byte;
    }
}

TEST(Distributions, RouletteZeroTotalReturnsMinusOne) {
    Stream s(4, Stage::kGeneric, 0, 0);
    const double w[3] = {0.0, 0.0, 0.0};
    EXPECT_EQ(roulette(s, w, 3), -1);
}

TEST(Distributions, RouletteSingleMassAlwaysWins) {
    Stream s(4, Stage::kGeneric, 0, 0);
    const double w[4] = {0.0, 0.0, 5.0, 0.0};
    for (int i = 0; i < 200; ++i) EXPECT_EQ(roulette(s, w, 4), 2);
}

TEST(Distributions, RouletteProportionalSelection) {
    Stream s(5, Stage::kGeneric, 0, 0);
    const double w[3] = {1.0, 2.0, 7.0};
    std::array<int, 3> hist{};
    const int n = 90000;
    for (int i = 0; i < n; ++i) ++hist[static_cast<std::size_t>(roulette(s, w, 3))];
    EXPECT_NEAR(hist[0] / static_cast<double>(n), 0.1, 0.01);
    EXPECT_NEAR(hist[1] / static_cast<double>(n), 0.2, 0.01);
    EXPECT_NEAR(hist[2] / static_cast<double>(n), 0.7, 0.01);
}

TEST(Distributions, RouletteNeverPicksZeroWeightSlot) {
    Stream s(6, Stage::kGeneric, 0, 0);
    const double w[4] = {1.0, 0.0, 1.0, 0.0};
    for (int i = 0; i < 5000; ++i) {
        const int r = roulette(s, w, 4);
        EXPECT_TRUE(r == 0 || r == 2);
    }
}

}  // namespace
}  // namespace pedsim::rng
