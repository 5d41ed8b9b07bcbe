// Scenario gallery: lists the built-in scenario registry and renders each
// scenario's walls plus initial agent placement as ASCII art, or steps it
// forward and prints frames of the run.
//
//   ./scenario_gallery                 # every built-in
//   ./scenario_gallery room_evacuation # just one
//   ./scenario_gallery --file=my.scenario      # a scenario file
//   ./scenario_gallery panic_crossing --preview=200 --frame-every=20
//   ./scenario_gallery --export=DIR    # also write DIR/<name>.scenario
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "backend/device.hpp"
#include "core/cpu_simulator.hpp"
#include "core/door_schedule.hpp"
#include "io/args.hpp"
#include "io/ascii_render.hpp"
#include "io/scenario_file.hpp"
#include "obs/cli.hpp"
#include "scenario/registry.hpp"

using namespace pedsim;

namespace {

/// The grid, then one status line: step, agents on the grid, crossings
/// per group and moves since the previous frame. A panic scenario adds
/// the alarm state and the agents in the danger zone and fleeing, and
/// marks the epicentre 'X' while the alarm is on.
void print_frame(const core::Simulator& sim, const core::PanicConfig& panic,
                 std::uint64_t moves) {
    const bool alarm = panic.active(sim.current_step());
    std::optional<io::Mark> mark;
    if (alarm) mark = io::Mark{panic.row, panic.col};
    std::fputs(io::render(sim.environment(), mark).c_str(), stdout);
    std::printf("step %llu | on grid %zu | crossed v:%zu ^:%zu | "
                "moves/frame %llu",
                static_cast<unsigned long long>(sim.current_step()),
                sim.environment().population(),
                sim.crossed_total(grid::Group::kTop),
                sim.crossed_total(grid::Group::kBottom),
                static_cast<unsigned long long>(moves));
    if (panic.enabled) {
        std::size_t in_zone = 0, fleeing = 0;
        const auto& p = sim.properties();
        for (std::size_t i = 1; i < p.rows(); ++i) {
            if (!p.active[i]) continue;
            in_zone += panic.affects(p.row[i], p.col[i]);
            fleeing += p.panicked[i];
        }
        std::printf(" | alarm %s | in danger zone %zu | fleeing %zu",
                    alarm ? "ON" : "off", in_zone, fleeing);
    }
    std::puts("\n");
}

/// Step up to `steps` steps, printing a frame every `frame_every` steps
/// (0: none) and one at the end. The run stops early once the grid is
/// empty and no surge is left to refill it.
void run_frames(core::Simulator& sim, const core::SimConfig& cfg, int steps,
                int frame_every) {
    const auto drained = [&] {
        const auto& surges = cfg.perturb.surges;
        return sim.environment().population() == 0 &&
               std::none_of(surges.begin(), surges.end(),
                            [&](const core::SurgeSpec& s) {
                                return s.step >= sim.current_step();
                            });
    };
    std::uint64_t moves = 0;
    for (int s = 1; s <= steps && !drained(); ++s) {
        moves += static_cast<std::uint64_t>(sim.step().moves);
        if (frame_every > 0 && s % frame_every == 0 && s < steps) {
            print_frame(sim, cfg.panic, moves);
            moves = 0;
        }
    }
    print_frame(sim, cfg.panic, moves);
}

}  // namespace

int main(int argc, char** argv) try {
    const io::ArgParser args(argc, argv);
    if (args.has("help")) {
        std::puts(
            "scenario_gallery — browse the built-in scenario library\n"
            "  [name...]       render only the named scenarios\n"
            "  --file=PATH     add a scenario file to the named scenarios\n"
            "  --export=DIR    also write each scenario as\n"
            "                  DIR/<name>.scenario (each export is\n"
            "                  re-parsed and re-serialized; drift fails)\n"
            "  --preview=N     run N steps before rendering (0 = placement\n"
            "                  only); the run stops once the grid is empty\n"
            "  --frame-every=N also print a frame every N steps of the\n"
            "                  --preview run\n"
            "  --threads=N     host threads for the preview runs");
        std::puts(obs::cli_help());
        return 0;
    }
    obs::ObsSession session(args);

    const int preview = args.get_int32("preview", 0, 0);
    const int frame_every = args.get_int32("frame-every", 0, 0);
    if (frame_every > 0 && preview == 0) {
        throw std::invalid_argument(
            "--frame-every: frames come from a --preview=N run");
    }
    const int threads = args.get_threads();
    std::vector<scenario::Scenario> scenarios;
    if (args.positional().empty() && !args.has("file")) {
        scenarios = scenario::all();
    }
    for (const auto& name : args.positional()) {
        if (!scenario::has(name)) {
            throw std::invalid_argument("unknown scenario: " + name);
        }
        scenarios.push_back(scenario::get(name));
    }
    if (args.has("file")) {
        scenarios.push_back(io::load_scenario_file(args.get("file")));
    }

    for (auto& s : scenarios) {
        s.sim.exec.threads = threads;
        std::printf("=== %s ===\n%s\n", s.name.c_str(),
                    s.description.c_str());
        // Event count is post-expansion: a cycle or mover contributes
        // every open/close it will fire, not one authored line.
        const auto expanded = core::expand_dynamic_events(
            s.sim.doors, s.sim.cycles, s.sim.movers);
        std::printf(
            "grid %dx%d, %zu agents, model %s, seed %llu, %d default "
            "steps, %zu wall cells, %zu wall events (%zu doors, %zu "
            "cycles, %zu movers), anticipate %d\n",
            s.sim.grid.rows, s.sim.grid.cols, s.sim.total_agents(),
            s.sim.model == core::Model::kLem ? "lem" : "aco",
            static_cast<unsigned long long>(s.sim.seed), s.default_steps,
            s.sim.layout.wall_cells.size(), expanded.size(),
            s.sim.doors.size(), s.sim.cycles.size(), s.sim.movers.size(),
            s.sim.anticipate.horizon);

        // Walls + placement by default; --preview steps the crowd forward
        // on the (exec-policy-aware) CPU engine before rendering.
        const auto sim = backend::make_engine(backend::DeviceType::kCpu, s.sim);
        run_frames(*sim, s.sim, preview, frame_every);

        if (args.has("export")) {
            const auto path =
                args.get("export") + "/" + s.name + ".scenario";
            const auto text = io::scenario_to_text(s);
            std::ofstream out(path);
            out << text;
            out.close();
            if (!out) throw std::runtime_error("cannot write " + path);
            // Round-trip self-check: re-parse the exported file and
            // re-serialize; any serializer/parser drift fails the export.
            if (io::scenario_to_text(io::load_scenario_file(path)) != text) {
                throw std::runtime_error("round-trip drift: " + path +
                                         " re-serializes differently");
            }
            std::printf("wrote %s (round-trip ok)\n\n", path.c_str());
        }
    }
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
}
