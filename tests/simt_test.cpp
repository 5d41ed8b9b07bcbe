// Tests for the SIMT device simulator: launch geometry, divergence
// accounting, coalescing, halo-tile loading, occupancy and timing model.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "simt/device_spec.hpp"
#include "simt/launch.hpp"
#include "simt/occupancy.hpp"
#include "simt/shared_tile.hpp"
#include "simt/timing_model.hpp"

namespace pedsim::simt {
namespace {

const DeviceSpec kSpec = DeviceSpec::gtx560ti();

// --- Launch geometry -------------------------------------------------------

TEST(Launch, VisitsEveryThreadExactlyOnce) {
    const Dim2 grid{4, 3};
    const Dim2 block{16, 16};
    std::vector<int> visits(static_cast<std::size_t>(grid.count()) *
                                block.count(),
                            0);
    launch<NoShared>(kSpec, grid, block, 1,
                     [&](ThreadCtx& ctx, NoShared&, int) {
                         const int block_id =
                             ctx.block_idx.y * grid.x + ctx.block_idx.x;
                         ++visits[static_cast<std::size_t>(
                             block_id * block.count() + ctx.flat_tid())];
                     });
    for (const int v : visits) EXPECT_EQ(v, 1);
}

TEST(Launch, StatsCountBlocksWarpsThreads) {
    const Dim2 grid{2, 2};
    const Dim2 block{16, 16};
    const auto ks = launch<NoShared>(kSpec, grid, block, 1,
                                     [](ThreadCtx&, NoShared&, int) {});
    EXPECT_EQ(ks.blocks, 4u);
    EXPECT_EQ(ks.threads, 4u * 256u);
    EXPECT_EQ(ks.warps, 4u * 8u);  // 256 threads = 8 warps per block
}

TEST(Launch, SharedStatePerBlockSurvivesPhases) {
    struct Shared {
        std::array<int, 256> slot{};
    };
    const Dim2 grid{3, 1};
    const Dim2 block{16, 16};
    int failures = 0;
    launch<Shared>(kSpec, grid, block, 2,
                   [&](ThreadCtx& ctx, Shared& sh, int phase) {
                       const auto t = static_cast<std::size_t>(ctx.flat_tid());
                       if (phase == 0) {
                           sh.slot[t] = ctx.block_idx.x * 1000 + ctx.flat_tid();
                       } else {
                           // Phase 1 sees phase 0's writes (barrier works).
                           failures += (sh.slot[t] !=
                                        ctx.block_idx.x * 1000 + ctx.flat_tid());
                       }
                   });
    EXPECT_EQ(failures, 0);
}

TEST(Launch, PhaseBarrierOrdersWritesAcrossWarps) {
    // Thread 0 of each block reads a slot written by the *last* thread in
    // phase 0; without the barrier the value would be missing.
    struct Shared {
        int last = -1;
    };
    const Dim2 block{16, 16};
    int observed = -2;
    launch<Shared>(kSpec, Dim2{1, 1}, block, 2,
                   [&](ThreadCtx& ctx, Shared& sh, int phase) {
                       if (phase == 0 && ctx.flat_tid() == 255) sh.last = 99;
                       if (phase == 1 && ctx.flat_tid() == 0) observed = sh.last;
                   });
    EXPECT_EQ(observed, 99);
}

TEST(Launch, ThreadIndexDecomposition) {
    const Dim2 block{8, 32};
    bool ok = true;
    launch<NoShared>(kSpec, Dim2{2, 1}, block, 1,
                     [&](ThreadCtx& ctx, NoShared&, int) {
                         ok &= ctx.flat_tid() ==
                               ctx.thread_idx.y * 8 + ctx.thread_idx.x;
                         ok &= ctx.lane() == ctx.flat_tid() % 32;
                     });
    EXPECT_TRUE(ok);
}

// --- Divergence accounting ---------------------------------------------------

TEST(Divergence, UniformBranchIsNotDivergent) {
    const auto ks = launch<NoShared>(
        kSpec, Dim2{1, 1}, Dim2{16, 16}, 1,
        [](ThreadCtx& ctx, NoShared&, int) {
            ctx.branch(0, ctx.flat_tid() < 32);  // warp-aligned predicate
        });
    EXPECT_EQ(ks.branch_evals, 8u);
    EXPECT_EQ(ks.divergent_branches, 0u);
}

TEST(Divergence, LaneDependentBranchDiverges) {
    const auto ks = launch<NoShared>(
        kSpec, Dim2{1, 1}, Dim2{16, 16}, 1,
        [](ThreadCtx& ctx, NoShared&, int) {
            ctx.branch(0, ctx.lane() < 7);  // splits every warp
        });
    EXPECT_EQ(ks.branch_evals, 8u);
    EXPECT_EQ(ks.divergent_branches, 8u);
}

TEST(Divergence, AllTakenIsUniform) {
    const auto ks = launch<NoShared>(
        kSpec, Dim2{1, 1}, Dim2{16, 16}, 1,
        [](ThreadCtx& ctx, NoShared&, int) { ctx.branch(0, true); });
    EXPECT_EQ(ks.divergent_branches, 0u);
}

TEST(Divergence, SitesAreTrackedIndependently) {
    const auto ks = launch<NoShared>(
        kSpec, Dim2{1, 1}, Dim2{16, 16}, 1,
        [](ThreadCtx& ctx, NoShared&, int) {
            ctx.branch(0, true);              // uniform
            ctx.branch(1, ctx.lane() == 0);   // divergent
        });
    EXPECT_EQ(ks.branch_evals, 16u);
    EXPECT_EQ(ks.divergent_branches, 8u);
}

TEST(Divergence, WarpInstructionsAreLockstepMax) {
    const auto ks = launch<NoShared>(
        kSpec, Dim2{1, 1}, Dim2{32, 1}, 1,
        [](ThreadCtx& ctx, NoShared&, int) {
            ctx.instr(static_cast<std::uint32_t>(ctx.lane()) + 1);
        });
    // One warp; max lane count is 32.
    EXPECT_EQ(ks.warps, 1u);
    EXPECT_EQ(ks.warp_instructions, 32u);
}

// --- Coalescing ---------------------------------------------------------------

TEST(Coalescing, ContiguousWarpAccessIsOneTransactionPerSegment) {
    alignas(128) static float data[1024];
    const auto ks = launch<NoShared>(
        kSpec, Dim2{1, 1}, Dim2{32, 1}, 1,
        [&](ThreadCtx& ctx, NoShared&, int) {
            const auto addr =
                reinterpret_cast<std::uint64_t>(data + ctx.lane());
            ctx.global_load(0, addr, sizeof(float));
        });
    // 32 consecutive aligned floats = 128 bytes => one 128B transaction.
    EXPECT_EQ(ks.global_transactions, 1u);
    EXPECT_EQ(ks.global_load_bytes, 32u * sizeof(float));
}

TEST(Coalescing, StridedWarpAccessExplodesTransactions) {
    std::vector<float> data(32 * 64);
    const auto ks = launch<NoShared>(
        kSpec, Dim2{1, 1}, Dim2{32, 1}, 1,
        [&](ThreadCtx& ctx, NoShared&, int) {
            const auto addr = reinterpret_cast<std::uint64_t>(
                data.data() + ctx.lane() * 64);  // 256B stride
            ctx.global_load(0, addr, sizeof(float));
        });
    EXPECT_EQ(ks.global_transactions, 32u);
}

TEST(Coalescing, PerWarpSegmentsAreNotSharedAcrossWarps) {
    std::vector<float> data(256);
    const auto ks = launch<NoShared>(
        kSpec, Dim2{1, 1}, Dim2{16, 16}, 1,
        [&](ThreadCtx& ctx, NoShared&, int) {
            // Every warp reads the same 128-byte segment.
            ctx.global_load(0, reinterpret_cast<std::uint64_t>(data.data()),
                            sizeof(float));
        });
    EXPECT_EQ(ks.global_transactions, 8u);  // one per warp
}

// --- Halo tiles (paper Fig. 3) -------------------------------------------------

class HaloTileTest : public ::testing::Test {
  protected:
    void SetUp() override {
        rows_ = 48;
        cols_ = 48;
        data_.resize(static_cast<std::size_t>(rows_) * cols_);
        for (int r = 0; r < rows_; ++r) {
            for (int c = 0; c < cols_; ++c) {
                data_[static_cast<std::size_t>(r) * cols_ + c] = r * 1000 + c;
            }
        }
        view_ = {data_.data(), rows_, cols_};
    }

    int rows_, cols_;
    std::vector<int> data_;
    GlobalView<int> view_;
};

TEST_F(HaloTileTest, RingCoordCovers68DistinctPositions) {
    std::set<std::pair<int, int>> seen;
    for (int i = 0; i < kHaloRing; ++i) {
        const auto [r, c] = halo_ring_coord(i);
        EXPECT_TRUE(r == -1 || r == kTileEdge || c == -1 || c == kTileEdge);
        EXPECT_GE(r, -1);
        EXPECT_LE(r, kTileEdge);
        seen.insert({r, c});
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(kHaloRing));
}

TEST_F(HaloTileTest, RemappedLoadStagesCorrectValues) {
    struct Shared {
        HaloTile<int> tile;
    };
    int mismatches = 0;
    launch<Shared>(kSpec, Dim2{3, 3}, Dim2{16, 16}, 2,
                   [&](ThreadCtx& ctx, Shared& sh, int phase) {
                       if (phase == 0) {
                           sh.tile.load_halo_remapped(ctx, view_, -1);
                           return;
                       }
                       // Verify every local position (including halo) against
                       // global memory, sampling from thread (0,0).
                       if (ctx.flat_tid() != 0) return;
                       for (int lr = -1; lr <= kTileEdge; ++lr) {
                           for (int lc = -1; lc <= kTileEdge; ++lc) {
                               const int gr = ctx.block_idx.y * kTileEdge + lr;
                               const int gc = ctx.block_idx.x * kTileEdge + lc;
                               const int want =
                                   view_.in_bounds(gr, gc)
                                       ? view_.at(gr, gc)
                                       : -1;
                               mismatches += (sh.tile.at(lr, lc) != want);
                           }
                       }
                   });
    EXPECT_EQ(mismatches, 0);
}

TEST_F(HaloTileTest, NaiveLoadStagesIdenticalValues) {
    struct Shared {
        HaloTile<int> remapped;
        HaloTile<int> naive;
    };
    int mismatches = 0;
    launch<Shared>(kSpec, Dim2{3, 3}, Dim2{16, 16}, 2,
                   [&](ThreadCtx& ctx, Shared& sh, int phase) {
                       if (phase == 0) {
                           sh.remapped.load_halo_remapped(ctx, view_, -1);
                           sh.naive.load_halo_naive(ctx, view_, -1);
                           return;
                       }
                       if (ctx.flat_tid() != 0) return;
                       for (int lr = -1; lr <= kTileEdge; ++lr) {
                           for (int lc = -1; lc <= kTileEdge; ++lc) {
                               mismatches += (sh.remapped.at(lr, lc) !=
                                              sh.naive.at(lr, lc));
                           }
                       }
                   });
    EXPECT_EQ(mismatches, 0);
}

TEST_F(HaloTileTest, RemappedLoadAvoidsDivergence) {
    // The paper's whole point (Fig. 3): the index-mapped halo load keeps
    // warps convergent while the naive load splits them.
    struct SharedA {
        HaloTile<int> tile;
    };
    const auto remapped = launch<SharedA>(
        kSpec, Dim2{3, 3}, Dim2{16, 16}, 1,
        [&](ThreadCtx& ctx, SharedA& sh, int) {
            sh.tile.load_halo_remapped(ctx, view_, -1);
        });
    const auto naive = launch<SharedA>(
        kSpec, Dim2{3, 3}, Dim2{16, 16}, 1,
        [&](ThreadCtx& ctx, SharedA& sh, int) {
            sh.tile.load_halo_naive(ctx, view_, -1);
        });
    EXPECT_EQ(remapped.divergent_branches, 0u);
    EXPECT_GT(naive.divergent_branches, 50u);
    EXPECT_GT(naive.divergence_rate(), 0.3);
}

// --- Occupancy calculator (paper section IV.a) -----------------------------------

TEST(Occupancy, Paper256ThreadBlocksReach100Percent) {
    const auto r = occupancy(SmLimits::cc20(), 256, 20, 0);
    EXPECT_DOUBLE_EQ(r.occupancy, 1.0);
    EXPECT_EQ(r.active_blocks_per_sm, 6);
    EXPECT_EQ(r.active_threads_per_sm, 1536);
}

TEST(Occupancy, Blocks512CannotReach100PercentOnCc20) {
    // 1536 / 512 = 3 blocks = 48 warps — actually still 100%; but 1024
    // leaves a third of the SM idle (1024 of 1536).
    const auto r1024 = occupancy(SmLimits::cc20(), 1024, 16, 0);
    EXPECT_LT(r1024.occupancy, 0.7);
}

TEST(Occupancy, SmallBlocksHitTheBlockLimit) {
    // 64-thread blocks: 8-block cap => 512 threads of 1536 = 33%.
    const auto r = occupancy(SmLimits::cc20(), 64, 16, 0);
    EXPECT_EQ(r.active_blocks_per_sm, 8);
    EXPECT_NEAR(r.occupancy, 512.0 / 1536.0, 1e-12);
    EXPECT_EQ(r.limiter, OccupancyResult::Limiter::kBlocks);
}

TEST(Occupancy, RegisterPressureLimits) {
    // 63 regs/thread (Fermi max): 256-thread blocks need 63*32 rounded to
    // 64 => 2016*8 warps... blocks limited by 32768 register file.
    const auto r = occupancy(SmLimits::cc20(), 256, 63, 0);
    EXPECT_LT(r.occupancy, 0.5);
    EXPECT_EQ(r.limiter, OccupancyResult::Limiter::kRegisters);
}

TEST(Occupancy, SharedMemoryLimits) {
    // 24KB/block of 48KB => 2 blocks of 256 threads = 16 warps of 48.
    const auto r = occupancy(SmLimits::cc20(), 256, 16, 24 * 1024);
    EXPECT_EQ(r.active_blocks_per_sm, 2);
    EXPECT_EQ(r.limiter, OccupancyResult::Limiter::kSharedMem);
}

TEST(Occupancy, RejectsBadBlockSize) {
    EXPECT_THROW(occupancy(SmLimits::cc20(), 0, 0, 0), std::invalid_argument);
    EXPECT_THROW(occupancy(SmLimits::cc20(), 2048, 0, 0),
                 std::invalid_argument);
}

// --- Timing model -----------------------------------------------------------------

TEST(Timing, ZeroWorkCostsLaunchOverheadOnly) {
    const TimingModel tm(kSpec);
    KernelStats ks;
    EXPECT_DOUBLE_EQ(tm.seconds(ks), kSpec.launch_overhead_us * 1e-6);
}

TEST(Timing, ComputeScalesWithWarpInstructions) {
    const TimingModel tm(kSpec);
    KernelStats a, b;
    a.warp_instructions = 1'000'000;
    b.warp_instructions = 2'000'000;
    const double ta = tm.breakdown(a).compute_seconds;
    const double tb = tm.breakdown(b).compute_seconds;
    EXPECT_NEAR(tb / ta, 2.0, 1e-9);
}

TEST(Timing, DivergencePenaltyIncreasesComputeTime) {
    const TimingModel tm(kSpec);
    KernelStats a, b;
    a.warp_instructions = b.warp_instructions = 1'000'000;
    b.divergent_branches = 100'000;
    EXPECT_GT(tm.breakdown(b).compute_seconds,
              tm.breakdown(a).compute_seconds);
}

TEST(Timing, MemoryBoundKernelsAreBandwidthLimited) {
    const TimingModel tm(kSpec);
    KernelStats ks;
    ks.global_transactions = 10'000'000;  // 1.28 GB of traffic
    const auto b = tm.breakdown(ks);
    EXPECT_GT(b.memory_seconds, b.compute_seconds);
    EXPECT_NEAR(b.memory_seconds,
                10e6 * 128 / (kSpec.dram_bandwidth_gbs * 1e9), 1e-9);
}

TEST(Timing, AtomicsSerializeCost) {
    const TimingModel tm(kSpec);
    KernelStats with, without;
    with.warp_instructions = without.warp_instructions = 1000;
    with.atomics = 1'000'000;
    EXPECT_GT(tm.seconds(with), 10 * tm.seconds(without));
}

TEST(Timing, KeplerOutrunsFermiOnComputeBoundWork) {
    KernelStats ks;
    ks.warp_instructions = 50'000'000;
    const double fermi = TimingModel(DeviceSpec::gtx560ti()).seconds(ks);
    const double kepler = TimingModel(DeviceSpec::kepler_gk110()).seconds(ks);
    EXPECT_LT(kepler, fermi);
}

// --- Launch log ---------------------------------------------------------------------

TEST(LaunchLog, AggregatesByKernelName) {
    LaunchLog log;
    for (int i = 0; i < 3; ++i) {
        LaunchRecord rec;
        rec.kernel_name = i == 1 ? "b" : "a";
        rec.modeled_seconds = 1.0;
        rec.stats.warp_instructions = 10;
        log.add(rec);
    }
    const auto agg = log.by_kernel();
    ASSERT_EQ(agg.size(), 2u);
    EXPECT_EQ(agg[0].kernel_name, "a");
    EXPECT_DOUBLE_EQ(agg[0].modeled_seconds, 2.0);
    EXPECT_EQ(agg[0].stats.warp_instructions, 20u);
    EXPECT_DOUBLE_EQ(log.total_modeled_seconds(), 3.0);
}

}  // namespace
}  // namespace pedsim::simt
