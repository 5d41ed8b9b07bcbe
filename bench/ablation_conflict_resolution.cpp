// Ablation: scatter-to-gather vs atomic conflict resolution (section IV.d).
//
// The paper replaces per-agent atomic claims on target cells with a
// gather formulation ("an atomic operation serializes an application and
// thus increases computation time"). This bench quantifies that choice:
// identical functional behaviour, but the movement kernel is re-costed
// with one global atomic per proposer.
//
//   ./ablation_conflict_resolution [--measure=10] [--warmup=5]
#include "backend/device.hpp"
#include "bench_common.hpp"

using namespace pedsim;

int main(int argc, char** argv) {
    const io::ArgParser args(argc, argv);
    const int warmup = args.get_int32("warmup", 5, 0);
    const int measure = args.get_int32("measure", 10, 1);

    bench::print_protocol(
        "Ablation — movement conflict resolution: scatter-to-gather vs "
        "atomics",
        "480x480 grid, ACO model; modeled movement-kernel seconds per step");

    io::CsvWriter csv(bench::csv_path(args, "ablation_conflict.csv"));
    csv.header({"total_agents", "threads", "gather_ms_per_step",
                "atomic_ms_per_step", "atomic_ops_per_step", "slowdown"});
    io::TablePrinter table({"total_agents", "gather_ms", "atomic_ms",
                            "atomics/step", "slowdown_x"});

    for (const int d : {5, 10, 20, 30}) {
        core::SimConfig cfg;
        cfg.model = core::Model::kAco;
        cfg.agents_per_side = bench::paper_agents_per_side(d);
        cfg.seed = 11 + static_cast<std::uint64_t>(d);
        const int threads = bench::apply_threads(args, cfg);

        double movement_ms[2] = {0, 0};
        std::uint64_t atomics = 0;
        for (const bool atomic : {false, true}) {
            core::GpuOptions opt;
            opt.atomic_movement = atomic;
            const auto sim = backend::make_simt(cfg, opt);
            sim->run(warmup);
            const auto before = sim->launch_log().records().size();
            sim->run(measure);
            double ms = 0.0;
            std::uint64_t at = 0;
            const auto& recs = sim->launch_log().records();
            for (std::size_t i = before; i < recs.size(); ++i) {
                if (recs[i].kernel_name != "movement") continue;
                ms += recs[i].modeled_seconds * 1e3;
                at += recs[i].stats.atomics;
            }
            movement_ms[atomic] = ms / measure;
            if (atomic) atomics = at / static_cast<std::uint64_t>(measure);
        }
        const double slowdown = movement_ms[1] / movement_ms[0];
        csv.row(2 * cfg.agents_per_side, threads, movement_ms[0],
                movement_ms[1], atomics, slowdown);
        table.add_row({std::to_string(2 * cfg.agents_per_side),
                       io::TablePrinter::num(movement_ms[0], 3),
                       io::TablePrinter::num(movement_ms[1], 3),
                       std::to_string(atomics),
                       io::TablePrinter::num(slowdown, 2)});
    }
    table.print();
    std::printf(
        "\nexpected: atomics add serialized latency that grows with agent "
        "density — the paper's reason for scatter-to-gather.\n");
    return 0;
}
