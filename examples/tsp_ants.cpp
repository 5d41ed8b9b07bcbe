// Ant System on the TSP — the substrate the paper's pedestrian model
// modifies (section II.B). Demonstrates the original Dorigo Ant System
// converging on instances with known optima, against the nearest-neighbour
// baseline, with the convergence curve printed.
//
//   ./tsp_ants [--cities=24] [--instance=circle|random] [--iters=80]
//       [--alpha=1] [--beta=5] [--rho=0.5] [--q=100] [--seed=1]
#include <cstdio>
#include <stdexcept>
#include <string>

#include "aco/ant_system.hpp"
#include "aco/tsp.hpp"
#include "io/args.hpp"
#include "io/table.hpp"

using namespace pedsim;

int main(int argc, char** argv) try {
    const io::ArgParser args(argc, argv);
    if (args.has("help")) {
        std::puts(
            "tsp_ants — classic Ant System on the TSP\n"
            "  --cities=N            instance size (default 24)\n"
            "  --instance=circle|random\n"
            "  --iters=N             colony iterations (default 80)\n"
            "  --alpha --beta --rho --q   AS parameters\n"
            "  --seed=N");
        return 0;
    }

    const auto n = static_cast<std::size_t>(args.get_int32("cities", 24, 3));
    const int iters = args.get_int32("iters", 80, 1);
    const std::string instance = args.get("instance", "circle");
    if (instance != "circle" && instance != "random") {
        throw std::invalid_argument(
            "--instance: expected circle or random, got '" + instance + "'");
    }
    const bool circle = instance == "circle";

    const auto tsp = circle
                         ? aco::TspInstance::circle(n, 100.0)
                         : aco::TspInstance::random_uniform(
                               n, 100.0,
                               static_cast<std::uint64_t>(
                                   args.get_int("seed", 1)));

    aco::AntSystemParams params;
    params.alpha = args.get_double("alpha", 1.0);
    params.beta = args.get_double("beta", 5.0);
    params.rho = args.get_double("rho", 0.5);
    params.q = args.get_double("q", 100.0);
    params.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

    const double nn =
        tsp.tour_length(aco::nearest_neighbor_tour(tsp));
    std::printf("instance: %s, %zu cities\n", circle ? "circle" : "random",
                n);
    std::printf("nearest-neighbour baseline: %.2f\n", nn);
    if (circle) {
        std::printf("known optimum:              %.2f\n",
                    aco::TspInstance::circle_optimum(n, 100.0));
    }

    aco::AntSystem as(tsp, params);
    const auto result = as.run(iters);

    std::printf("\nconvergence (best tour length so far):\n");
    io::TablePrinter table({"iteration", "best_length", "vs_NN"});
    for (int it = 0; it < iters; it += std::max(1, iters / 12)) {
        const double best =
            result.best_by_iteration[static_cast<std::size_t>(it)];
        table.add_row({std::to_string(it), io::TablePrinter::num(best, 2),
                       io::TablePrinter::num(best / nn, 3)});
    }
    table.add_row({std::to_string(iters - 1),
                   io::TablePrinter::num(result.best_length, 2),
                   io::TablePrinter::num(result.best_length / nn, 3)});
    table.print();

    std::printf("\nbest tour found: %.2f (iteration %d)\n",
                result.best_length, result.best_iteration);
    if (circle) {
        const double opt = aco::TspInstance::circle_optimum(n, 100.0);
        std::printf("gap to optimum: %.2f%%\n",
                    100.0 * (result.best_length / opt - 1.0));
    }
    return 0;
} catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
}
