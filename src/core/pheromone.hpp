// Per-group pheromone fields (paper section IV.a: "two separate matrices
// ... to keep track of pheromones deposited by the top and bottom
// pedestrians"). Agents read their own group's field — the trail stands in
// for the visual cue of following predecessors headed the same way.
#pragma once

#include <algorithm>
#include <vector>

#include "grid/environment.hpp"
#include "grid/neighborhood.hpp"

namespace pedsim::core {

class PheromoneField {
  public:
    PheromoneField(grid::GridConfig cfg, double tau0, double tau_min)
        : cfg_(cfg),
          tau_min_(tau_min),
          top_(cfg.cell_count(), tau0),
          bottom_(cfg.cell_count(), tau0) {}

    [[nodiscard]] double at(grid::Group g, int r, int c) const {
        return field(g)[flat(r, c)];
    }
    void deposit(grid::Group g, int r, int c, double amount) {
        field(g)[flat(r, c)] += amount;
    }
    /// Eq. (3): tau <- (1 - rho) tau, floored at tau_min so trails can
    /// always regrow.
    void evaporate(double rho) {
        const double keep = 1.0 - rho;
        for (auto* f : {&top_, &bottom_}) {
            for (auto& v : *f) v = std::max(v * keep, tau_min_);
        }
    }

    [[nodiscard]] const std::vector<double>& raw(grid::Group g) const {
        return field(g);
    }
    [[nodiscard]] std::vector<double>& raw(grid::Group g) { return field(g); }

  private:
    [[nodiscard]] std::size_t flat(int r, int c) const {
        return static_cast<std::size_t>(r) * cfg_.cols +
               static_cast<std::size_t>(c);
    }
    [[nodiscard]] const std::vector<double>& field(grid::Group g) const {
        return g == grid::Group::kTop ? top_ : bottom_;
    }
    [[nodiscard]] std::vector<double>& field(grid::Group g) {
        return g == grid::Group::kTop ? top_ : bottom_;
    }

    grid::GridConfig cfg_;
    double tau_min_;
    std::vector<double> top_;
    std::vector<double> bottom_;
};

}  // namespace pedsim::core
