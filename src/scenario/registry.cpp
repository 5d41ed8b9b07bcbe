#include "scenario/registry.hpp"

#include <cstdlib>
#include <stdexcept>

namespace pedsim::scenario {

namespace {

/// The paper's baseline: empty 480x480 bidirectional corridor, 1,280
/// agents per side, LEM. `sim` is a default-constructed SimConfig on
/// purpose — this entry must stay bit-identical to the seed defaults.
Scenario paper_corridor() {
    Scenario s;
    s.name = "paper_corridor";
    s.description =
        "The paper's empty 480x480 bidirectional corridor, 1280 agents per "
        "side, LEM (sections V-VI baseline)";
    s.default_steps = 500;
    return s;
}

/// Same corridor at test scale: quick to run on both engines.
Scenario corridor_small() {
    Scenario s;
    s.name = "corridor_small";
    s.description =
        "64x64 empty bidirectional corridor, 400 agents per side, LEM";
    s.sim.grid.rows = s.sim.grid.cols = 64;
    s.sim.agents_per_side = 400;
    s.default_steps = 300;
    return s;
}

/// A two-cell-thick wall across the middle with one doorway: the crowd
/// funnels through a 16-column gap in both directions. (An 8-wide gap at
/// this density deadlocks in counterflow — real, but a poor showcase.)
Scenario bottleneck_doorway() {
    Scenario s;
    s.name = "bottleneck_doorway";
    s.description =
        "64x64 bidirectional corridor split by a wall with one 16-wide "
        "doorway at mid-grid";
    s.sim.grid.rows = s.sim.grid.cols = 64;
    s.sim.agents_per_side = 180;
    add_wall_rect(s.sim.layout, s.sim.grid, 31, 0, 32, 23);
    add_wall_rect(s.sim.layout, s.sim.grid, 31, 40, 32, 63);
    canonicalize(s.sim.layout);
    s.default_steps = 400;
    return s;
}

/// A regular field of 2x2 pillars across the mid-grid; ACO so trails can
/// route the two streams around the obstacles.
Scenario pillar_field() {
    Scenario s;
    s.name = "pillar_field";
    s.description =
        "64x64 bidirectional corridor with a regular field of 2x2 pillars, "
        "ACO routing";
    s.sim.grid.rows = s.sim.grid.cols = 64;
    s.sim.agents_per_side = 250;
    s.sim.model = core::Model::kAco;
    for (int r = 20; r <= 42; r += 8) {
        for (int c = 6; c <= 58; c += 8) {
            add_wall_rect(s.sim.layout, s.sim.grid, r, c, r + 1, c + 1);
        }
    }
    canonicalize(s.sim.layout);
    s.default_steps = 400;
    return s;
}

/// An hourglass: side walls thicken linearly toward the waist at mid-grid,
/// squeezing both streams through a 28-column throat.
Scenario narrowing_corridor() {
    Scenario s;
    s.name = "narrowing_corridor";
    s.description =
        "64x64 bidirectional hourglass corridor narrowing to a 28-wide "
        "waist at mid-grid";
    s.sim.grid.rows = s.sim.grid.cols = 64;
    s.sim.agents_per_side = 220;
    for (int r = 15; r <= 49; ++r) {
        const int t = 18 - std::abs(32 - r);  // wall depth from each side
        if (t <= 0) continue;
        add_wall_rect(s.sim.layout, s.sim.grid, r, 0, r, t - 1);
        add_wall_rect(s.sim.layout, s.sim.grid, r, 64 - t, r, 63);
    }
    canonicalize(s.sim.layout);
    s.default_steps = 500;
    return s;
}

/// A walled room with a single 4-cell door on the east wall; one group
/// spawns inside and evacuates through the door (goal cells = the door).
/// Forward priority is off: "forward" means south, but the way out is
/// wherever the geodesic field says it is.
Scenario room_evacuation() {
    Scenario s;
    s.name = "room_evacuation";
    s.description =
        "48x48 walled room, 320 agents evacuating through a single 4-cell "
        "door in the east wall";
    s.sim.grid.rows = s.sim.grid.cols = 48;
    s.sim.model = core::Model::kLem;
    s.sim.forward_priority = false;
    s.sim.cross_margin = 2;
    add_wall_rect(s.sim.layout, s.sim.grid, 0, 0, 0, 47);    // north wall
    add_wall_rect(s.sim.layout, s.sim.grid, 47, 0, 47, 47);  // south wall
    add_wall_rect(s.sim.layout, s.sim.grid, 1, 0, 46, 0);    // west wall
    add_wall_rect(s.sim.layout, s.sim.grid, 1, 47, 21, 47);  // east wall ...
    add_wall_rect(s.sim.layout, s.sim.grid, 26, 47, 46, 47); // ... door gap
    add_goal_rect(s.sim.layout, s.sim.grid, grid::Group::kTop, 22, 47, 25,
                  47);
    s.sim.layout.spawns.push_back(
        {grid::Group::kTop, 6, 6, 41, 41, 320});
    canonicalize(s.sim.layout);
    s.default_steps = 600;
    return s;
}

/// The small corridor with the section VII panic alarm: at step 60 an
/// epicentre at mid-grid makes agents within radius 10 flee.
Scenario panic_crossing() {
    Scenario s;
    s.name = "panic_crossing";
    s.description =
        "64x64 bidirectional corridor with a panic alarm at step 60, "
        "epicentre mid-grid, radius 10";
    s.sim.grid.rows = s.sim.grid.cols = 64;
    s.sim.agents_per_side = 400;
    s.sim.panic.enabled = true;
    s.sim.panic.trigger_step = 60;
    s.sim.panic.row = 32;
    s.sim.panic.col = 32;
    s.sim.panic.radius = 10.0;
    s.default_steps = 300;
    return s;
}

/// A sealed chamber above a full-width wall; the single door opens at
/// step 30 (the evacuation-alarm story of section VII, but with geometry
/// instead of a behavioural flag). Until then every goal is walled off —
/// the geodesic field is all-unreachable and the crowd piles against the
/// wall under forward priority.
Scenario timed_exit() {
    Scenario s;
    s.name = "timed_exit";
    s.description =
        "48x48 chamber sealed by a full-width wall; an 8-wide door opens "
        "at step 30 and the crowd drains to the bottom edge";
    s.sim.grid.rows = s.sim.grid.cols = 48;
    add_wall_rect(s.sim.layout, s.sim.grid, 24, 0, 25, 47);
    s.sim.layout.spawns.push_back({grid::Group::kTop, 2, 2, 18, 45, 240});
    s.sim.doors.push_back(
        {30, 24, 20, 25, 27, core::DoorAction::kOpen});
    canonicalize(s.sim.layout);
    s.default_steps = 300;
    return s;
}

/// The bottleneck corridor whose 16-wide gap slams shut in two stages:
/// half at step 45, sealed at step 90. Agents caught mid-doorway are
/// swept (retired); latecomers stay trapped on their side while agents
/// already through keep crossing.
Scenario closing_corridor() {
    Scenario s;
    s.name = "closing_corridor";
    s.description =
        "64x64 bidirectional corridor whose mid-grid doorway closes in two "
        "stages (steps 45 and 90), trapping latecomers";
    s.sim.grid.rows = s.sim.grid.cols = 64;
    s.sim.agents_per_side = 200;
    add_wall_rect(s.sim.layout, s.sim.grid, 31, 0, 32, 23);
    add_wall_rect(s.sim.layout, s.sim.grid, 31, 40, 32, 63);
    s.sim.doors.push_back(
        {45, 31, 24, 32, 31, core::DoorAction::kClose});
    s.sim.doors.push_back(
        {90, 31, 32, 32, 39, core::DoorAction::kClose});
    canonicalize(s.sim.layout);
    s.default_steps = 300;
    return s;
}

/// Staged evacuation: a packed hall above a full-width wall, three 8-wide
/// doors opening in sequence (steps 30 / 70 / 110). ACO, so trails have
/// to re-route as each new door changes the geodesic field.
Scenario phased_evacuation() {
    Scenario s;
    s.name = "phased_evacuation";
    s.description =
        "64x64 hall sealed by a full-width wall; three 8-wide doors open "
        "in sequence (steps 30, 70, 110), ACO routing";
    s.sim.grid.rows = s.sim.grid.cols = 64;
    s.sim.model = core::Model::kAco;
    add_wall_rect(s.sim.layout, s.sim.grid, 30, 0, 31, 63);
    s.sim.layout.spawns.push_back({grid::Group::kTop, 2, 2, 20, 61, 400});
    s.sim.doors.push_back({30, 30, 8, 31, 15, core::DoorAction::kOpen});
    s.sim.doors.push_back({70, 30, 28, 31, 35, core::DoorAction::kOpen});
    s.sim.doors.push_back({110, 30, 48, 31, 55, core::DoorAction::kOpen});
    canonicalize(s.sim.layout);
    s.default_steps = 350;
    return s;
}

/// The bottleneck wall with its gap run as a pulsing gate: a CycleEvent
/// opens the 16-wide doorway for 20 of every 40 steps, five times. The
/// run alternates between two wall configurations, so the phase cache
/// holds exactly two fields no matter how many pulses fire.
Scenario pulsing_gate() {
    Scenario s;
    s.name = "pulsing_gate";
    s.description =
        "64x64 bidirectional corridor split by a wall whose 16-wide gate "
        "pulses open for 20 of every 40 steps (5 pulses from step 20)";
    s.sim.grid.rows = s.sim.grid.cols = 64;
    s.sim.agents_per_side = 180;
    add_wall_rect(s.sim.layout, s.sim.grid, 31, 0, 32, 63);
    s.sim.cycles.push_back({20, 40, 20, 31, 24, 32, 39, 5});
    canonicalize(s.sim.layout);
    s.default_steps = 260;
    return s;
}

/// A moving wall: an 8-wide, 4-deep "train" slides along the mid-grid
/// platform one cell every 4 steps, cutting across both pedestrian
/// streams. Agents under its leading edge are swept (retired), exactly
/// like any closing door; each position is a fresh wall configuration, so
/// this is the mover's O(count)-fields stress case.
Scenario conveyor_platform() {
    Scenario s;
    s.name = "conveyor_platform";
    s.description =
        "64x64 bidirectional corridor crossed by an 8x4 wall block sliding "
        "east one cell every 4 steps (48 moves from step 10)";
    s.sim.grid.rows = s.sim.grid.cols = 64;
    s.sim.agents_per_side = 220;
    add_wall_rect(s.sim.layout, s.sim.grid, 30, 0, 33, 7);
    s.sim.movers.push_back({10, 4, 0, 1, 30, 0, 33, 7, 48});
    canonicalize(s.sim.layout);
    s.default_steps = 260;
    return s;
}

/// The sealed chamber of timed_exit with anticipatory routing: the door
/// opens at step 60, and from step 20 (horizon 40) candidate scoring
/// blends toward the open-door phase's field, so the crowd pre-stages at
/// the door instead of pressing uniformly against the wall. Forward
/// priority is off so the blended field actually steers (a free forward
/// cell would otherwise bypass the scan row).
Scenario prestaged_evacuation() {
    Scenario s;
    s.name = "prestaged_evacuation";
    s.description =
        "48x48 sealed chamber; an 8-wide door opens at step 60 and "
        "anticipatory routing (horizon 40) pre-stages the crowd at it";
    s.sim.grid.rows = s.sim.grid.cols = 48;
    s.sim.forward_priority = false;
    add_wall_rect(s.sim.layout, s.sim.grid, 24, 0, 25, 47);
    s.sim.layout.spawns.push_back({grid::Group::kTop, 2, 2, 18, 45, 240});
    s.sim.doors.push_back({60, 24, 20, 25, 27, core::DoorAction::kOpen});
    s.sim.anticipate.horizon = 40;
    canonicalize(s.sim.layout);
    s.default_steps = 320;
    return s;
}

/// Waypoint slalom: both groups must zigzag through three ordered
/// checkpoints (opposite corners for the two directions) before their
/// edge goal counts. No walls — the FINAL field stays analytic while the
/// chained waypoint fields are geodesic, exercising the mixed mode. The
/// acceptance scenario for multi-goal routing: three waypoints, in order,
/// on both groups.
Scenario relay_race() {
    Scenario s;
    s.name = "relay_race";
    s.description =
        "48x48 bidirectional corridor where each group slaloms through 3 "
        "ordered waypoints (radius 6) before its edge goal counts";
    s.sim.grid.rows = s.sim.grid.cols = 48;
    s.sim.agents_per_side = 100;
    s.sim.layout.waypoint_radius = 6;
    add_waypoint(s.sim.layout, s.sim.grid, grid::Group::kTop, 12, 14);
    add_waypoint(s.sim.layout, s.sim.grid, grid::Group::kTop, 24, 34);
    add_waypoint(s.sim.layout, s.sim.grid, grid::Group::kTop, 36, 14);
    add_waypoint(s.sim.layout, s.sim.grid, grid::Group::kBottom, 36, 34);
    add_waypoint(s.sim.layout, s.sim.grid, grid::Group::kBottom, 24, 14);
    add_waypoint(s.sim.layout, s.sim.grid, grid::Group::kBottom, 12, 34);
    canonicalize(s.sim.layout);
    s.default_steps = 240;
    return s;
}

/// Two offset "stairwell landings" (gaps in full-width walls) chained as
/// waypoints, then a final approach checkpoint before the exit: the
/// checkpoint -> stairwell -> exit evacuation workload. ACO, so trails
/// have to follow the chained geodesic fields through both gaps.
Scenario stairwell_evacuation() {
    Scenario s;
    s.name = "stairwell_evacuation";
    s.description =
        "48x48 building with two offset stairwell gaps chained as "
        "waypoints; 100 agents evacuate to a south exit, ACO routing";
    s.sim.grid.rows = s.sim.grid.cols = 48;
    s.sim.model = core::Model::kAco;
    add_wall_rect(s.sim.layout, s.sim.grid, 16, 0, 16, 33);   // floor 1 ...
    add_wall_rect(s.sim.layout, s.sim.grid, 16, 40, 16, 47);  // ... gap 34-39
    add_wall_rect(s.sim.layout, s.sim.grid, 32, 0, 32, 5);    // floor 2 ...
    add_wall_rect(s.sim.layout, s.sim.grid, 32, 12, 32, 47);  // ... gap 6-11
    add_goal_rect(s.sim.layout, s.sim.grid, grid::Group::kTop, 47, 32, 47,
                  43);
    s.sim.layout.waypoint_radius = 3;
    add_waypoint(s.sim.layout, s.sim.grid, grid::Group::kTop, 16, 37);
    add_waypoint(s.sim.layout, s.sim.grid, grid::Group::kTop, 32, 8);
    add_waypoint(s.sim.layout, s.sim.grid, grid::Group::kTop, 40, 36);
    s.sim.layout.spawns.push_back({grid::Group::kTop, 2, 2, 12, 45, 100});
    canonicalize(s.sim.layout);
    s.default_steps = 300;
    return s;
}

/// Waypoints + dynamic geometry: both groups pass the same two mid-grid
/// checkpoints (in opposite order — the cells dedupe to two shared
/// fields) on either side of a pulsing gate, so every chained field is
/// phase-cached across the cycle's two wall configurations and swaps
/// mid-chain when the gate fires.
Scenario checkpoint_loop() {
    Scenario s;
    s.name = "checkpoint_loop";
    s.description =
        "64x64 corridor with two shared checkpoints either side of a "
        "16-wide gate pulsing open 20 of every 40 steps";
    s.sim.grid.rows = s.sim.grid.cols = 64;
    s.sim.agents_per_side = 100;
    add_wall_rect(s.sim.layout, s.sim.grid, 31, 0, 32, 63);
    s.sim.cycles.push_back({20, 40, 20, 31, 24, 32, 39, 5});
    s.sim.layout.waypoint_radius = 7;
    add_waypoint(s.sim.layout, s.sim.grid, grid::Group::kTop, 24, 32);
    add_waypoint(s.sim.layout, s.sim.grid, grid::Group::kTop, 40, 32);
    add_waypoint(s.sim.layout, s.sim.grid, grid::Group::kBottom, 40, 32);
    add_waypoint(s.sim.layout, s.sim.grid, grid::Group::kBottom, 24, 32);
    canonicalize(s.sim.layout);
    s.default_steps = 280;
    return s;
}

/// No-show commute: the small corridor where 20% of the top group never
/// shows up and 30% of the bottom group drops out at a seeded step in the
/// first 80 (commuters giving up). All randomness is Stage::kPerturbation,
/// so the survivors walk exactly the clean run's paths.
Scenario no_show_commute() {
    Scenario s;
    s.name = "no_show_commute";
    s.description =
        "64x64 bidirectional corridor where 20% of the top group never "
        "shows and 30% of the bottom group drops out by step 80";
    s.sim.grid.rows = s.sim.grid.cols = 64;
    s.sim.agents_per_side = 400;
    s.sim.perturb.no_shows.push_back({1, 0.20, 0});
    s.sim.perturb.no_shows.push_back({2, 0.30, 80});
    s.default_steps = 300;
    return s;
}

/// Platform dwell: the relay-race waypoint slalom with service time — the
/// top group boards for 12 steps at each checkpoint, the bottom for 6 —
/// and the top group additionally throttled to 70% walking speed. The
/// dwell acceptance scenario: chain advancement is driven by hold expiry,
/// not just movement.
Scenario platform_dwell() {
    Scenario s;
    s.name = "platform_dwell";
    s.description =
        "48x48 waypoint slalom where agents dwell at each checkpoint (12 "
        "steps top / 6 bottom) and the top group walks at 70% speed";
    s.sim.grid.rows = s.sim.grid.cols = 48;
    s.sim.agents_per_side = 100;
    s.sim.layout.waypoint_radius = 6;
    add_waypoint(s.sim.layout, s.sim.grid, grid::Group::kTop, 12, 14);
    add_waypoint(s.sim.layout, s.sim.grid, grid::Group::kTop, 24, 34);
    add_waypoint(s.sim.layout, s.sim.grid, grid::Group::kTop, 36, 14);
    add_waypoint(s.sim.layout, s.sim.grid, grid::Group::kBottom, 36, 34);
    add_waypoint(s.sim.layout, s.sim.grid, grid::Group::kBottom, 24, 14);
    add_waypoint(s.sim.layout, s.sim.grid, grid::Group::kBottom, 12, 34);
    s.sim.perturb.dwells.push_back({1, 12});
    s.sim.perturb.dwells.push_back({2, 6});
    s.sim.perturb.speeds.push_back({1, 0.70});
    canonicalize(s.sim.layout);
    s.default_steps = 300;
    return s;
}

/// Surge stadium: a room-evacuation hall whose initial crowd is joined by
/// two late gate-release waves (steps 40 and 90) injected into the spawn
/// hall mid-run — the stadium-egress shape where pressure arrives in
/// pulses rather than all at once.
Scenario surge_stadium() {
    Scenario s;
    s.name = "surge_stadium";
    s.description =
        "48x48 walled hall draining through a 4-cell east door; gate "
        "releases inject 120 agents at step 40 and 80 more at step 90";
    s.sim.grid.rows = s.sim.grid.cols = 48;
    s.sim.forward_priority = false;
    s.sim.cross_margin = 2;
    add_wall_rect(s.sim.layout, s.sim.grid, 0, 0, 0, 47);
    add_wall_rect(s.sim.layout, s.sim.grid, 47, 0, 47, 47);
    add_wall_rect(s.sim.layout, s.sim.grid, 1, 0, 46, 0);
    add_wall_rect(s.sim.layout, s.sim.grid, 1, 47, 21, 47);
    add_wall_rect(s.sim.layout, s.sim.grid, 26, 47, 46, 47);
    add_goal_rect(s.sim.layout, s.sim.grid, grid::Group::kTop, 22, 47, 25,
                  47);
    s.sim.layout.spawns.push_back({grid::Group::kTop, 6, 6, 41, 41, 160});
    s.sim.perturb.surges.push_back({40, 1, 120, 2, 2, 20, 20});
    s.sim.perturb.surges.push_back({90, 1, 80, 28, 2, 45, 20});
    canonicalize(s.sim.layout);
    s.default_steps = 500;
    return s;
}

using Builder = Scenario (*)();

constexpr std::pair<const char*, Builder> kBuiltins[] = {
    {"paper_corridor", paper_corridor},
    {"corridor_small", corridor_small},
    {"bottleneck_doorway", bottleneck_doorway},
    {"pillar_field", pillar_field},
    {"narrowing_corridor", narrowing_corridor},
    {"room_evacuation", room_evacuation},
    {"panic_crossing", panic_crossing},
    {"timed_exit", timed_exit},
    {"closing_corridor", closing_corridor},
    {"phased_evacuation", phased_evacuation},
    {"pulsing_gate", pulsing_gate},
    {"conveyor_platform", conveyor_platform},
    {"prestaged_evacuation", prestaged_evacuation},
    {"relay_race", relay_race},
    {"stairwell_evacuation", stairwell_evacuation},
    {"checkpoint_loop", checkpoint_loop},
    {"no_show_commute", no_show_commute},
    {"platform_dwell", platform_dwell},
    {"surge_stadium", surge_stadium},
};

}  // namespace

const std::vector<std::string>& names() {
    static const std::vector<std::string> kNames = [] {
        std::vector<std::string> v;
        for (const auto& [name, builder] : kBuiltins) v.emplace_back(name);
        return v;
    }();
    return kNames;
}

bool has(const std::string& name) {
    for (const auto& [key, builder] : kBuiltins) {
        if (name == key) return true;
    }
    return false;
}

Scenario get(const std::string& name) {
    for (const auto& [key, builder] : kBuiltins) {
        if (name == key) return builder();
    }
    throw std::out_of_range("unknown scenario: " + name);
}

std::vector<Scenario> all() {
    std::vector<Scenario> v;
    for (const auto& [key, builder] : kBuiltins) v.push_back(builder());
    return v;
}

}  // namespace pedsim::scenario
