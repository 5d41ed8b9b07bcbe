// Ablations of the paper's GPU design (section IV) and its Kepler outlook
// (section VII), read from shared gpu-simt windows.
//
// Per density d, at seed 42 + d (fig5_exec_time's seed), three 480x480
// ACO windows of --measure steps after --warmup run on the GTX 560 Ti
// timing model. Their functional results are identical; only the costs
// differ:
//   - paper:  warp-remapped halo load, scatter-to-gather movement;
//   - naive:  boundary threads load the tile halo (IV.b);
//   - atomic: one global atomic per movement proposer (IV.d).
// Tables:
//   IV.a  occupancy on CC 2.0 per block size, next to the block sizes the
//         paper window's kernels launched (the paper: 256 threads, 100%);
//   IV.b  divergence and modeled time of the tiled kernels (initial_calc
//         and movement), paper vs naive;
//   IV.d  movement-kernel time, paper (gather) vs atomic;
//   VII   the paper window's launches re-costed on a Kepler GK110.
//
//   ./ablation_simt [--densities=5,10,20,30] [--measure=10] [--warmup=5]
//       [--threads=N] [--out=ablation_simt.csv]
#include <map>
#include <set>

#include "backend/device.hpp"
#include "bench_common.hpp"
#include "simt/occupancy.hpp"

using namespace pedsim;

int main(int argc, char** argv) try {
    const io::ArgParser args(argc, argv);
    const int warmup = args.get_int32("warmup", 5, 0);
    const int measure = args.get_int32("measure", 10, 1);
    const auto densities =
        bench::parse_densities(args.get("densities", "5,10,20,30"));

    bench::print_protocol(
        "Ablation — section IV's GPU design choices and section VII's "
        "Kepler outlook",
        "480x480 grid, ACO model; per density three gpu-simt windows of " +
            std::to_string(measure) + " measured steps after " +
            std::to_string(warmup) +
            " warmup (seed 42 + density) on the GTX 560 Ti timing model: the "
            "paper's configuration, the naive halo load and atomic movement");

    io::CsvWriter csv(bench::csv_path(args, "ablation_simt.csv"));
    csv.header({"total_agents", "threads", "remapped_divergence",
                "naive_divergence", "remapped_tiled_ms", "naive_tiled_ms",
                "gather_movement_ms", "atomic_movement_ms",
                "atomics_per_step", "fermi_ms", "kepler_ms"});
    io::TablePrinter tiling({"total_agents", "divergence remapped",
                             "divergence naive", "tiled_ms remapped",
                             "tiled_ms naive"});
    io::TablePrinter conflict({"total_agents", "gather_ms", "atomic_ms",
                               "atomics/step", "slowdown_x"});
    io::TablePrinter device({"total_agents", "Fermi_ms/step",
                             "Kepler_ms/step", "speedup_x"});

    const simt::TimingModel fermi(simt::DeviceSpec::gtx560ti());
    const simt::TimingModel kepler(simt::DeviceSpec::kepler_gk110());
    std::map<int, std::set<std::string>> launched;  // threads/block -> kernels
    for (const int d : densities) {
        core::SimConfig cfg;
        cfg.model = core::Model::kAco;
        cfg.agents_per_side = bench::paper_agents_per_side(d);
        cfg.seed = 42 + static_cast<std::uint64_t>(d);
        const int threads = bench::apply_threads(args, cfg);
        const auto window = [&](core::GpuOptions opt) {
            return bench::gpu_window(*backend::make_simt(cfg, opt), warmup,
                                     measure);
        };
        const auto paper = window({});
        const auto naive = window({.remapped_halo_load = false});
        const auto atomic = window({.atomic_movement = true});

        for (const auto& rec : paper.launches) {
            launched[rec.block_x * rec.block_y].insert(rec.kernel_name);
        }
        const double div_remapped =
            paper.stats({"initial_calc", "movement"}).divergence_rate();
        const double div_naive =
            naive.stats({"initial_calc", "movement"}).divergence_rate();
        const double tiled_remapped =
            paper.seconds_per_step(fermi, {"initial_calc", "movement"}) * 1e3;
        const double tiled_naive =
            naive.seconds_per_step(fermi, {"initial_calc", "movement"}) * 1e3;
        const double gather_ms =
            paper.seconds_per_step(fermi, {"movement"}) * 1e3;
        const double atomic_ms =
            atomic.seconds_per_step(fermi, {"movement"}) * 1e3;
        const std::uint64_t atomics =
            atomic.stats({"movement"}).atomics /
            static_cast<std::uint64_t>(measure);
        const double fermi_ms = paper.seconds_per_step(fermi) * 1e3;
        const double kepler_ms = paper.seconds_per_step(kepler) * 1e3;

        const auto agents = std::to_string(2 * cfg.agents_per_side);
        csv.row(2 * cfg.agents_per_side, threads, div_remapped, div_naive,
                tiled_remapped, tiled_naive, gather_ms, atomic_ms, atomics,
                fermi_ms, kepler_ms);
        tiling.add_row({agents, io::TablePrinter::num(div_remapped, 4),
                        io::TablePrinter::num(div_naive, 4),
                        io::TablePrinter::num(tiled_remapped, 3),
                        io::TablePrinter::num(tiled_naive, 3)});
        conflict.add_row({agents, io::TablePrinter::num(gather_ms, 3),
                          io::TablePrinter::num(atomic_ms, 3),
                          std::to_string(atomics),
                          io::TablePrinter::num(atomic_ms / gather_ms, 2)});
        device.add_row({agents, io::TablePrinter::num(fermi_ms, 3),
                        io::TablePrinter::num(kepler_ms, 3),
                        io::TablePrinter::num(fermi_ms / kepler_ms, 2)});
    }

    std::printf(
        "IV.a — occupancy on CC 2.0 at 20 registers/thread, and the block "
        "sizes the paper window launched\n\n");
    io::TablePrinter occupancy(
        {"threads/block", "occupancy", "blocks/SM", "window kernels"});
    for (const int t : {64, 128, 192, 256, 384, 512, 768, 1024}) {
        const auto r = simt::occupancy(simt::SmLimits::cc20(), t, 20, 0);
        std::string kernels;
        for (const auto& name : launched[t]) {
            kernels += (kernels.empty() ? "" : " ") + name;
        }
        occupancy.add_row({std::to_string(t),
                           io::TablePrinter::num(100.0 * r.occupancy, 0) + "%",
                           std::to_string(r.active_blocks_per_sm),
                           kernels.empty() ? "-" : kernels});
    }
    occupancy.print();
    std::printf(
        "\npaper: 256 threads/block reaches 100%% occupancy.\n\n"
        "IV.b — halo-tile loading: warp-remapped (paper Fig. 3) vs naive; "
        "tiled kernels\n\n");
    tiling.print();
    std::printf(
        "\nexpected: the remapped load keeps the halo stage divergence-free; "
        "the naive load splits warps at every tile edge.\n\n"
        "IV.d — movement conflict resolution: scatter-to-gather vs "
        "atomics; movement kernel\n\n");
    conflict.print();
    std::printf(
        "\nexpected: atomics add serialized latency that grows with agent "
        "density — the paper's reason for scatter-to-gather.\n\n"
        "VII — the paper window's kernel stream on a GTX 560 Ti (Fermi) and "
        "re-costed on a Kepler GK110\n\n");
    device.print();
    std::printf("\npaper: Kepler \"would add to the performance\".\n");
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
}
