// Ablation: device generations (paper section VII future work).
//
// "Using Kepler Architecture with advanced features would add to the
// performance." This bench re-costs the same kernel stream on the Fermi
// GTX 560 Ti (Table I), a Kepler GK110, and the occupancy consequences of
// alternative block sizes.
//
//   ./ablation_device [--density=10] [--measure=10] [--warmup=3]
#include "backend/device.hpp"
#include "bench_common.hpp"
#include "simt/occupancy.hpp"

using namespace pedsim;

int main(int argc, char** argv) {
    const io::ArgParser args(argc, argv);
    const int warmup = args.get_int32("warmup", 3, 0);
    const int measure = args.get_int32("measure", 10, 1);
    const int density = args.get_int32("density", 10, 1, bench::kMaxDensity);

    bench::print_protocol(
        "Ablation — device generation and block sizing",
        "480x480 grid, ACO model; the same kernel stream costed on "
        "different DeviceSpecs");

    io::CsvWriter csv(bench::csv_path(args, "ablation_device.csv"));
    csv.header({"device", "threads", "ms_per_step", "speedup_vs_fermi"});
    io::TablePrinter table({"device", "ms/step", "vs_Fermi"});

    core::SimConfig cfg;
    cfg.model = core::Model::kAco;
    cfg.agents_per_side = bench::paper_agents_per_side(density);
    cfg.seed = 77;
    const int threads = bench::apply_threads(args, cfg);

    double fermi_ms = 0.0;
    for (const auto& spec :
         {simt::DeviceSpec::gtx560ti(), simt::DeviceSpec::kepler_gk110()}) {
        core::GpuOptions opt;
        opt.device = spec;
        const auto sim = backend::make_simt(cfg, opt);
        sim->run(warmup);
        const double before = sim->modeled_seconds();
        sim->run(measure);
        const double ms = (sim->modeled_seconds() - before) * 1e3 / measure;
        if (fermi_ms == 0.0) fermi_ms = ms;
        csv.row(spec.name, threads, ms, fermi_ms / ms);
        table.add_row({spec.name, io::TablePrinter::num(ms, 3),
                       io::TablePrinter::num(fermi_ms / ms, 2)});
    }
    table.print();

    // Occupancy view of the paper's 256-thread choice (section IV.a).
    std::printf("\nOccupancy on CC 2.0 (paper: 256 threads/block = 100%%):\n");
    io::TablePrinter occ({"threads/block", "occupancy", "blocks/SM"});
    for (const int t : {64, 128, 192, 256, 384, 512, 768, 1024}) {
        const auto r = simt::occupancy(simt::SmLimits::cc20(), t, 20, 0);
        occ.add_row({std::to_string(t),
                     io::TablePrinter::num(100.0 * r.occupancy, 0) + "%",
                     std::to_string(r.active_blocks_per_sm)});
    }
    occ.print();
    return 0;
}
