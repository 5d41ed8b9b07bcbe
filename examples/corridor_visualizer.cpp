// Corridor visualizer: watch two pedestrian streams cross in the terminal.
//
// Renders the environment as ASCII frames ('v'/'V' walking down, '^'/'A'
// walking up, ':' mixed blocks) while printing live flow metrics — the
// scenario the paper's introduction motivates, at a human-watchable scale.
//
//   ./corridor_visualizer [--model=aco|lem] [--agents=500] [--grid=96]
//       [--steps=600] [--fps=0] [--frame_every=10] [--seed=7]
//
// fps > 0 animates in place (ANSI); fps = 0 prints frames sequentially.
#include <chrono>
#include <cstdio>
#include <thread>

#include "backend/device.hpp"
#include "core/cpu_simulator.hpp"
#include "core/metrics.hpp"
#include "io/args.hpp"
#include "io/ascii_render.hpp"

using namespace pedsim;

int main(int argc, char** argv) {
    const io::ArgParser args(argc, argv);
    if (args.has("help")) {
        std::puts(
            "corridor_visualizer — ASCII animation of bi-directional flow\n"
            "  --model=aco|lem   movement model (default aco)\n"
            "  --agents=N        agents per side (default 500)\n"
            "  --grid=N          grid edge (default 96)\n"
            "  --steps=N         simulation steps (default 600)\n"
            "  --frame_every=N   steps per rendered frame (default 10)\n"
            "  --fps=N           animate at N fps in place; 0 = scroll\n"
            "  --seed=N          RNG seed");
        return 0;
    }

    core::SimConfig cfg;
    cfg.grid.rows = cfg.grid.cols = args.get_int32("grid", 96);
    cfg.agents_per_side =
        static_cast<std::size_t>(args.get_int32("agents", 500, 1));
    cfg.model = args.get("model", "aco") == "lem" ? core::Model::kLem
                                                  : core::Model::kAco;
    cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
    const int steps = args.get_int32("steps", 600, 1);
    const int frame_every = args.get_int32("frame_every", 10, 1);
    const int fps = args.get_int32("fps", 0, 0);

    const auto sim = backend::make_cpu(cfg);
    core::GridlockDetector gridlock(60);

    io::RenderOptions render_opts;
    render_opts.max_rows = 40;
    render_opts.max_cols = 80;

    int moves_window = 0;
    for (int s = 0; s < steps; ++s) {
        const auto sr = sim->step();
        moves_window += sr.moves;
        gridlock.update(sr);
        if (s % frame_every != 0 && s != steps - 1) continue;

        if (fps > 0) std::printf("\x1b[H\x1b[2J");  // home + clear
        std::fputs(io::render(sim->environment(), render_opts).c_str(),
                   stdout);
        std::printf(
            "step %4llu | model %s | on grid %zu | crossed v:%zu ^:%zu | "
            "moves/frame %d%s\n",
            static_cast<unsigned long long>(sim->current_step()),
            cfg.model == core::Model::kLem ? "LEM" : "ACO",
            sim->environment().population(),
            sim->crossed_total(grid::Group::kTop),
            sim->crossed_total(grid::Group::kBottom), moves_window,
            gridlock.gridlocked() ? " | GRIDLOCK" : "");
        moves_window = 0;
        if (fps > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1000 / fps));
        }
        if (sim->environment().population() == 0) {
            std::puts("corridor drained — everyone crossed.");
            break;
        }
    }
    return 0;
}
