// Shared step-budget helper for the determinism and golden harnesses:
// base budget by grid size, extended past the last EXPANDED dynamic
// event (doors plus every cycle/mover firing, surges, mid-run no-shows
// and the panic alarm) so all wall toggles, phase-field swaps and
// perturbations happen inside the compared window, and past the
// last waypoint advance for scenarios with chains (the advance step is
// dynamic, so the floor is a tuned constant per suite — waypoint_test
// pins that the registry chains actually complete inside their budget).
// The suites pick different base/margin constants (golden runs leaner),
// but the loop logic lives once so a new event axis cannot silently
// shrink one harness's window.
#pragma once

#include <algorithm>

#include "core/door_schedule.hpp"
#include "scenario/scenario.hpp"

namespace pedsim::testing {

inline int budget_past_events(const scenario::Scenario& s, int base_small,
                              int base_large, int margin,
                              int waypoint_floor = 0) {
    int budget = s.sim.grid.rows >= 256 ? base_large : base_small;
    for (const auto& e : core::expand_dynamic_events(
             s.sim.doors, s.sim.cycles, s.sim.movers)) {
        budget = std::max(budget, static_cast<int>(e.step) + margin);
    }
    // Perturbation events are dynamic events too: every surge injection
    // and the latest possible mid-run no-show drop must fire inside the
    // compared window, or the corpus would silently pin only the
    // unperturbed prefix.
    for (const auto& g : s.sim.perturb.surges) {
        budget = std::max(budget, static_cast<int>(g.step) + margin);
    }
    for (const auto& n : s.sim.perturb.no_shows) {
        budget = std::max(budget, static_cast<int>(n.last_step) + margin);
    }
    // The panic alarm is timed too: without this the window can end at
    // the trigger step and pin no panicked step at all.
    if (s.sim.panic.enabled) {
        budget = std::max(budget,
                          static_cast<int>(s.sim.panic.trigger_step) + margin);
    }
    if (s.sim.layout.has_waypoints()) {
        budget = std::max(budget, waypoint_floor);
    }
    return budget;
}

}  // namespace pedsim::testing
