// Panic alarm scenario — the paper's section VII future-work feature.
//
// A bi-directional crowd crosses normally until an alarm sounds at a
// chosen step; agents within the danger radius abandon their goals and
// flee the epicentre (marked 'X' in the frames). Shows the evacuation
// wave, then recovery once agents leave the radius.
//
//   ./panic_alarm [--model=aco|lem] [--agents=600] [--grid=96]
//       [--trigger=150] [--radius=20] [--steps=500] [--seed=9]
#include <cstdio>
#include <string>

#include "backend/device.hpp"
#include "core/cpu_simulator.hpp"
#include "io/args.hpp"
#include "io/ascii_render.hpp"

using namespace pedsim;

namespace {

/// Render with the panic epicentre overlaid.
std::string render_with_epicentre(const grid::Environment& env, int er,
                                  int ec, bool alarm_on) {
    io::RenderOptions opts;
    opts.max_rows = 40;
    opts.max_cols = 80;
    std::string frame = io::render(env, opts);
    if (!alarm_on) return frame;
    // Project the epicentre into downsampled frame coordinates.
    const int block_r = std::max(1, (env.rows() + opts.max_rows - 1) /
                                        opts.max_rows);
    const int block_c = std::max(1, (env.cols() + opts.max_cols - 1) /
                                        opts.max_cols);
    const int out_cols = (env.cols() + block_c - 1) / block_c;
    const int fr = er / block_r;
    const int fc = ec / block_c;
    // Frame layout: border line, then rows of ('|' + out_cols + '|\n').
    const std::size_t line_len = static_cast<std::size_t>(out_cols) + 3;
    const std::size_t pos =
        line_len + static_cast<std::size_t>(fr) * line_len + 1 +
        static_cast<std::size_t>(fc);
    if (pos < frame.size()) frame[pos] = 'X';
    return frame;
}

}  // namespace

int main(int argc, char** argv) {
    const io::ArgParser args(argc, argv);
    if (args.has("help")) {
        std::puts(
            "panic_alarm — crisis scenario (paper future work)\n"
            "  --model=aco|lem  movement model (default aco)\n"
            "  --agents=N       agents per side (default 600)\n"
            "  --grid=N         grid edge (default 96)\n"
            "  --trigger=N      alarm step (default 150)\n"
            "  --radius=R       danger radius in cells (default 20)\n"
            "  --steps=N        total steps (default 500)\n"
            "  --seed=N");
        return 0;
    }

    core::SimConfig cfg;
    cfg.grid.rows = cfg.grid.cols = args.get_int32("grid", 96);
    cfg.agents_per_side =
        static_cast<std::size_t>(args.get_int32("agents", 600, 1));
    cfg.model = args.get("model", "aco") == "lem" ? core::Model::kLem
                                                  : core::Model::kAco;
    cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 9));
    cfg.panic.enabled = true;
    cfg.panic.trigger_step =
        static_cast<std::uint64_t>(args.get_int32("trigger", 150, 0));
    cfg.panic.row = cfg.grid.rows / 2;
    cfg.panic.col = cfg.grid.cols / 2;
    cfg.panic.radius = args.get_double("radius", 20.0);
    const int steps = args.get_int32("steps", 500, 1);

    const auto sim = backend::make_cpu(cfg);

    std::printf(
        "panic alarm scenario: %s model, alarm at step %llu, epicentre "
        "(%d,%d), radius %.0f\n\n",
        cfg.model == core::Model::kLem ? "LEM" : "ACO",
        static_cast<unsigned long long>(cfg.panic.trigger_step),
        cfg.panic.row, cfg.panic.col, cfg.panic.radius);

    int frame_every = 50;
    for (int s = 0; s < steps; ++s) {
        sim->step();
        const bool alarm_on = cfg.panic.active(sim->current_step());
        const bool key_frame =
            s % frame_every == 0 ||
            static_cast<std::uint64_t>(s) + 1 == cfg.panic.trigger_step;
        if (!key_frame) continue;

        // Count agents inside the danger zone.
        std::size_t in_zone = 0, panicked = 0;
        const auto& p = sim->properties();
        for (std::size_t i = 1; i < p.rows(); ++i) {
            if (!p.active[i]) continue;
            in_zone += cfg.panic.affects(p.row[i], p.col[i]);
            panicked += p.panicked[i];
        }

        std::fputs(render_with_epicentre(sim->environment(), cfg.panic.row,
                                         cfg.panic.col, alarm_on)
                       .c_str(),
                   stdout);
        std::printf(
            "step %4llu | alarm %s | in danger zone %zu | fleeing %zu | "
            "crossed %zu\n\n",
            static_cast<unsigned long long>(sim->current_step()),
            alarm_on ? "ON " : "off", in_zone, panicked,
            sim->crossed_total(grid::Group::kTop) +
                sim->crossed_total(grid::Group::kBottom));
    }
    std::puts(
        "Note how the zone around X empties after the alarm and normal flow "
        "resumes outside the radius.");
    return 0;
}
