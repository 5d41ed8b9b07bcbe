// Scenario gallery: lists the built-in scenario registry and renders each
// scenario's walls plus initial agent placement as ASCII art.
//
//   ./scenario_gallery                 # every built-in
//   ./scenario_gallery room_evacuation # just one
//   ./scenario_gallery --export=DIR    # also write DIR/<name>.scenario
#include <cstdio>
#include <fstream>

#include "backend/device.hpp"
#include "core/cpu_simulator.hpp"
#include "core/door_schedule.hpp"
#include "io/args.hpp"
#include "io/ascii_render.hpp"
#include "io/scenario_file.hpp"
#include "obs/cli.hpp"
#include "scenario/registry.hpp"

using namespace pedsim;

int main(int argc, char** argv) {
    const io::ArgParser args(argc, argv);
    if (args.has("help")) {
        std::puts(
            "scenario_gallery — browse the built-in scenario library\n"
            "  [name...]     render only the named scenarios\n"
            "  --export=DIR  also write each scenario as DIR/<name>.scenario\n"
            "                (each export is re-parsed and re-serialized; "
            "drift fails)\n"
            "  --preview=N   run N steps before rendering (0 = placement "
            "only)\n"
            "  --threads=N   host threads for the preview runs");
        std::puts(obs::cli_help());
        return 0;
    }
    obs::ObsSession session(args);

    std::vector<std::string> wanted = args.positional();
    if (wanted.empty()) wanted = scenario::names();

    for (const auto& name : wanted) {
        if (!scenario::has(name)) {
            std::fprintf(stderr, "unknown scenario: %s\n", name.c_str());
            return 1;
        }
        auto s = scenario::get(name);
        s.sim.exec.threads = args.get_threads();
        std::printf("=== %s ===\n%s\n", s.name.c_str(),
                    s.description.c_str());
        // Event count is post-expansion: a cycle or mover contributes
        // every open/close it will fire, not one authored line.
        const auto expanded = core::expand_dynamic_events(
            s.sim.doors, s.sim.cycles, s.sim.movers, s.sim.grid);
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
        const auto sim = backend::make_cpu(s.sim);
        const int preview = args.get_int32("preview", 0, 0);
        if (preview > 0) sim->run(preview);
        std::fputs(io::render(sim->environment()).c_str(), stdout);
        std::fputs("\n", stdout);

        if (args.has("export")) {
            const auto path =
                args.get("export") + "/" + s.name + ".scenario";
            const auto text = io::scenario_to_text(s);
            std::ofstream out(path);
            out << text;
            out.close();
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n", path.c_str());
                return 1;
            }
            // Round-trip self-check: re-parse the exported file and
            // re-serialize; any serializer/parser drift fails the export.
            try {
                const auto back = io::load_scenario_file(path);
                if (io::scenario_to_text(back) != text) {
                    std::fprintf(stderr,
                                 "round-trip drift: %s re-serializes "
                                 "differently\n",
                                 path.c_str());
                    return 1;
                }
            } catch (const std::exception& e) {
                std::fprintf(stderr, "round-trip parse of %s failed: %s\n",
                             path.c_str(), e.what());
                return 1;
            }
            std::printf("wrote %s (round-trip ok)\n\n", path.c_str());
        }
    }
    return 0;
}
