// Simulation configuration for the bi-directional pedestrian models.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "exec/exec_policy.hpp"
#include "grid/environment.hpp"
#include "grid/placement.hpp"

namespace pedsim::core {

/// Movement model (paper sections II.A / II.B, III).
enum class Model {
    kLem,  ///< Least Effort Model, eq. (1)
    kAco,  ///< modified Ant System, eqs. (2)-(5) with goal heuristic
};

/// LEM tuning. The paper draws "a random number from a normal distribution"
/// to pick a rank (section IV.c); sigma controls how strongly the draw
/// prefers the least-effort candidate (rank 0).
struct LemParams {
    double sigma = 1.0;

    bool operator==(const LemParams&) const = default;
};

/// Modified-ACO tuning. The paper leaves alpha/beta/rho/Q unspecified;
/// defaults follow Dorigo & Stuetzle's classic Ant System values, with the
/// deposit Q and floor tau_min calibrated on the Fig. 6a medium-density
/// scenarios (docs/REPRODUCTION.md, ablation_aco_params row).
struct AcoParams {
    double alpha = 1.0;    ///< pheromone weight
    double beta = 2.0;     ///< goal-heuristic weight
    double rho = 0.10;     ///< evaporation rate per step, eq. (3)
    double q = 1.0;        ///< deposit numerator, eq. (5): dtau = q / L_k
    double tau0 = 0.1;     ///< initial pheromone level
    double tau_min = 1e-3; ///< evaporation floor (avoids dead fields)

    bool operator==(const AcoParams&) const = default;
};

/// Panic alarm (paper section VII future work: "introduce a panic alarm to
/// emulate some sort of crisis situation"). From `trigger_step` on, agents
/// within `radius` of the epicentre abandon their goal and flee: empty
/// neighbours are ranked by *descending* distance from the epicentre and
/// chosen with the LEM rank draw; pheromone is ignored while panicked.
struct PanicConfig {
    bool enabled = false;
    std::uint64_t trigger_step = 0;
    int row = 0;
    int col = 0;
    double radius = 0.0;

    [[nodiscard]] bool active(std::uint64_t step) const {
        return enabled && step >= trigger_step;
    }
    [[nodiscard]] bool affects(int r, int c) const {
        const double dr = r - row;
        const double dc = c - col;
        return dr * dr + dc * dc <= radius * radius;
    }

    bool operator==(const PanicConfig&) const = default;
};

/// What a timed door event does to its cells.
enum class DoorAction : std::uint8_t {
    kOpen,   ///< wall cells in the rect become empty
    kClose,  ///< cells in the rect become walls
};

/// One timed wall event (ROADMAP follow-up to the scenario subsystem:
/// doors that open/close mid-run). At the START of step `step` — before
/// any stage of that step executes — the inclusive rect
/// [row0, row1] x [col0, col1] opens (walls removed) or closes (walls
/// added). Like the panic alarm, an event fires as a pure function of the
/// step counter, never of thread count or engine, so runs stay
/// bit-identical. An agent standing in a closing door is retired from the
/// simulation (deterministically: its position is itself a pure function
/// of (seed, step)).
struct DoorEvent {
    std::uint64_t step = 0;
    int row0 = 0;
    int col0 = 0;
    int row1 = 0;
    int col1 = 0;
    DoorAction action = DoorAction::kOpen;

    bool operator==(const DoorEvent&) const = default;
};

/// Periodic door: the inclusive rect [row0, row1] x [col0, col1] opens at
/// step `start + k * period` and closes again `duty` steps later, for k in
/// [0, repeats). Authored as a compact cycle, expanded into plain
/// DoorEvents at setup (expand_dynamic_events), so the step-pure event
/// contract of docs/PARALLELISM.md is untouched. The run alternates
/// between exactly two wall configurations, which the DoorSchedule phase
/// cache dedupes — a cycle costs O(2) precomputed fields no matter how
/// many repeats it has. Requires 0 < duty < period and repeats >= 1.
struct CycleEvent {
    std::uint64_t start = 0;    ///< step of the first open
    std::uint64_t period = 2;   ///< steps between consecutive opens
    std::uint64_t duty = 1;     ///< steps the rect stays open per period
    int row0 = 0;
    int col0 = 0;
    int row1 = 0;
    int col1 = 0;
    std::uint64_t repeats = 1;  ///< open/close pairs to expand

    bool operator==(const CycleEvent&) const = default;
};

/// Moving wall: the inclusive rect translates by (drow, dcol) — one cell
/// per firing — at steps `start + k * interval` for k in [0, count)
/// (conveyor / train-platform workloads). Each firing expands into an
/// open of the old position followed by a close of the new one, so agents
/// on the leading edge are swept (retired) exactly like any closing door
/// and the step-pure contract holds. Every translated position must stay
/// on the grid; (drow, dcol) is a unit king move. Unlike cycles, each
/// firing visits a fresh wall configuration, so a mover costs O(count)
/// precomputed fields.
struct MoverEvent {
    std::uint64_t start = 0;     ///< step of the first translation
    std::uint64_t interval = 1;  ///< steps between translations
    int drow = 0;                ///< per-firing translation, in {-1, 0, 1}
    int dcol = 0;                ///< not both zero
    int row0 = 0;                ///< initial position (usually painted as
    int col0 = 0;                ///<   layout walls; open on non-wall
    int row1 = 0;                ///<   cells is a no-op, so an unpainted
    int col1 = 0;                ///<   start simply materializes the wall)
    std::uint64_t count = 1;     ///< number of one-cell translations

    bool operator==(const MoverEvent&) const = default;
};

/// Anticipatory routing: within `horizon` steps of the next door event,
/// candidate scoring blends the current and next phase's distance fields
/// (convex combination, weight ramping toward the next phase as the event
/// nears), so crowds pre-stage at doors about to open. Horizon 0 disables
/// blending entirely — the hot path reads the current field unblended and
/// existing scenarios stay bit-exact. Blending is a pure function of the
/// step counter, so CPU-vs-SIMT and any-thread-count parity hold with it
/// enabled. Crossing tests always use the real (unblended) field.
struct AnticipateConfig {
    int horizon = 0;  ///< steps of look-ahead; 0 = off (seed behaviour)

    bool operator==(const AnticipateConfig&) const = default;
};

/// Heterogeneous walking speeds (future work: "velocity and size of the
/// pedestrians are kept constant in all the simulations"). A seeded
/// fraction of agents is slow: they propose a move only every
/// `slow_period`-th step (phase-shifted per agent to avoid lockstep).
struct SpeedConfig {
    double slow_fraction = 0.0;  ///< 0 = paper behaviour (homogeneous)
    int slow_period = 2;         ///< slow agents act every k-th step

    bool operator==(const SpeedConfig&) const = default;
};

/// One no-show/drop-out rule: each agent of `group` independently fails to
/// participate with probability `probability`, drawn from the dedicated
/// Stage::kPerturbation stream keyed on the agent index (so the draw never
/// consumes — or reorders — any placement/movement stream). With
/// `last_step == 0` a selected agent is retired at placement (never enters
/// the grid); otherwise it drops out at a seeded step uniform in
/// [1, last_step] (commuter who gives up / leaves early).
struct NoShowSpec {
    std::uint8_t group = 0;      ///< 1 = top, 2 = bottom
    double probability = 0.0;    ///< in [0, 1]
    std::uint64_t last_step = 0; ///< 0 = retire at placement

    bool operator==(const NoShowSpec&) const = default;
};

/// Per-group speed class: agents of `group` act only on the fraction of
/// steps selected by a fixed-point Bresenham gate (integer math — the
/// same steps on every backend). `fraction == 1` is a no-op; composes
/// with (and is independent of) the seeded SpeedConfig slow agents.
struct SpeedClassSpec {
    std::uint8_t group = 0;  ///< 1 = top, 2 = bottom
    double fraction = 1.0;   ///< in (0, 1]: share of steps the agent acts

    bool operator==(const SpeedClassSpec&) const = default;
};

/// Waypoint dwell: an agent of `group` reaching a waypoint is held there
/// for `steps` steps (boarding / service time) before its chain advances.
struct DwellSpec {
    std::uint8_t group = 0;   ///< 1 = top, 2 = bottom
    std::uint64_t steps = 1;  ///< hold duration, >= 1

    bool operator==(const DwellSpec&) const = default;
};

/// Spawn-rate surge: at the START of step `step`, `count` extra agents of
/// `group` are injected onto the walkable cells of the inclusive rect
/// [row0, row1] x [col0, col1], sampled with the same partial-Fisher-Yates
/// placement primitive as regions but from a Stage::kPerturbation stream
/// keyed on the surge's authored index. Property rows are pre-allocated at
/// construction, so engine buffers never resize mid-run.
struct SurgeSpec {
    std::uint64_t step = 1;  ///< firing step, >= 1
    std::uint8_t group = 0;  ///< 1 = top, 2 = bottom
    std::uint32_t count = 0;
    int row0 = 0;
    int col0 = 0;
    int row1 = 0;
    int col1 = 0;

    bool operator==(const SurgeSpec&) const = default;
};

/// Deterministic perturbation layer (fault injection for scenarios). All
/// randomness comes from Stage::kPerturbation streams, so with this config
/// empty every existing stream — and therefore every golden fingerprint —
/// is byte-identical to a build without the layer.
struct PerturbationConfig {
    std::vector<NoShowSpec> no_shows;   ///< at most one per group
    std::vector<SpeedClassSpec> speeds; ///< at most one per group
    std::vector<DwellSpec> dwells;      ///< at most one per group
    std::vector<SurgeSpec> surges;      ///< fired in authored order

    [[nodiscard]] bool empty() const {
        return no_shows.empty() && speeds.empty() && dwells.empty() &&
               surges.empty();
    }
    /// Total extra property rows the surges can inject.
    [[nodiscard]] std::size_t surge_total() const {
        std::size_t n = 0;
        for (const auto& s : surges) n += s.count;
        return n;
    }

    bool operator==(const PerturbationConfig&) const = default;
};

/// Separated scanning and movement ranges (future work: "separating the
/// scanning ranges and moving ranges of the pedestrians"). Movement stays
/// one cell, but candidates are scored with a look-ahead: the occupancy of
/// the `range`-cell ray beyond each candidate (in the travel direction)
/// discounts it, steering agents away from congestion they can see.
struct ScanConfig {
    int range = 1;                   ///< 1 = paper behaviour
    double congestion_weight = 1.0;  ///< discount strength in [0, 1]

    bool operator==(const ScanConfig&) const = default;
};

/// Static scenario geometry layered onto the paper's corridor defaults.
/// An empty layout reproduces the seed bit-exactly: no walls, edge-row
/// goals, bidirectional band placement. Walls or custom goals switch the
/// distance field to the obstacle-aware geodesic mode; spawn regions
/// replace the band placement.
struct ScenarioLayout {
    /// Flat cell ids (r * cols + c) of static wall cells.
    std::vector<std::uint32_t> wall_cells;
    /// Per-group goal cells ([0] = top group, [1] = bottom group); an empty
    /// list means the group's far edge row, as in the paper.
    std::array<std::vector<std::uint32_t>, 2> goal_cells;
    /// Per-group ORDERED waypoint chains (flat cell ids): an agent must
    /// pass within `waypoint_radius` of each chain cell in order before
    /// its final goal (goal_cells / the far edge row) takes effect.
    /// Candidate scoring reads the geodesic field of the agent's CURRENT
    /// waypoint (one precomputed field per distinct cell, phase-cached
    /// with the door schedule), so routing survives dynamic geometry.
    /// Order is semantic — these lists are never sorted. Empty = the
    /// plain direct-to-goal behaviour.
    std::array<std::vector<std::uint32_t>, 2> waypoints;
    /// Arrival radius in Chebyshev (king-move) cells: an agent at most
    /// this far from its current waypoint advances to the next one.
    /// Pure geometry — independent of walls — so advancement stays a
    /// function of (position) alone and never needs re-checking when a
    /// door event changes the fields. 0 = must stand on the cell.
    int waypoint_radius = 1;
    /// Spawn regions; empty = the paper's bidirectional bands.
    std::vector<grid::RegionSpawn> spawns;

    [[nodiscard]] bool empty() const {
        return wall_cells.empty() && goal_cells[0].empty() &&
               goal_cells[1].empty() && waypoints[0].empty() &&
               waypoints[1].empty() && spawns.empty();
    }
    [[nodiscard]] bool has_waypoints() const {
        return !waypoints[0].empty() || !waypoints[1].empty();
    }
    /// Walls or custom goals require the geodesic distance field.
    [[nodiscard]] bool needs_geodesic() const {
        return !wall_cells.empty() || !goal_cells[0].empty() ||
               !goal_cells[1].empty();
    }

    bool operator==(const ScenarioLayout&) const = default;
};

struct SimConfig {
    grid::GridConfig grid;  ///< paper: 480x480

    std::size_t agents_per_side = 1280;  ///< paper sweeps 1280..51200
    /// Placement band depth per side; 0 = auto-size at max_band_fill.
    int band_rows = 0;
    double max_band_fill = 0.55;

    Model model = Model::kLem;
    LemParams lem;
    AcoParams aco;

    // Extensions (paper section VII); defaults reproduce the paper.
    PanicConfig panic;
    SpeedConfig speed;
    ScanConfig scan;

    /// Fault-injection layer (no-shows, speed classes, dwell, surges);
    /// empty (the default) reproduces the unperturbed run bit-exactly.
    PerturbationConfig perturb;

    /// Timed wall events, applied at step boundaries in firing order
    /// (stable-sorted by step). Any door event switches the engines to
    /// phase-cached geodesic distance fields (core::DoorSchedule): one
    /// field per distinct wall configuration, precomputed at setup, so a
    /// mid-run event is a pointer swap — never a field build.
    std::vector<DoorEvent> doors;

    /// Periodic doors and moving walls, expanded into the door-event
    /// stream at setup (core::expand_dynamic_events) — by the time an
    /// engine steps, the run is a plain sorted DoorEvent sequence.
    std::vector<CycleEvent> cycles;
    std::vector<MoverEvent> movers;

    /// Anticipatory routing toward the next door event's distance field;
    /// horizon 0 (default) keeps the hot path unblended and bit-exact.
    AnticipateConfig anticipate;

    /// Scenario geometry (walls, goals, spawn regions); the default empty
    /// layout is the paper's corridor.
    ScenarioLayout layout;

    std::uint64_t seed = 42;

    /// Host execution policy for the engine's stage loops (CPU slices /
    /// simulated kernel blocks). Results are bit-identical at any thread
    /// count; only wall-clock changes. Default 1 = the seed's serial path.
    exec::ExecPolicy exec;

    /// An agent has crossed once within this many rows of the target edge;
    /// 0 = auto (the placement band depth).
    int cross_margin = 0;
    /// Crossed agents leave the grid (paper counts crossings; arrivals do
    /// not pile up on the target edge).
    bool exit_on_cross = true;
    /// Paper modification of Sarmady's LEM: an empty forward cell is taken
    /// immediately, skipping the probabilistic draw. Applies to both
    /// models; switchable for the ablation bench.
    bool forward_priority = true;

    /// Effective band depth after auto-sizing.
    [[nodiscard]] int effective_band_rows() const {
        if (band_rows > 0) return band_rows;
        return grid::required_band_rows(agents_per_side, grid.cols,
                                        max_band_fill);
    }
    [[nodiscard]] int effective_cross_margin() const {
        if (cross_margin > 0) return cross_margin;
        // Region-spawned scenarios have no band to infer a margin from:
        // agents must step onto a goal cell (geodesic distance 0 < 1).
        if (!layout.spawns.empty()) return 1;
        return effective_band_rows();
    }
    [[nodiscard]] std::size_t total_agents() const {
        // Surge-injected agents occupy pre-allocated property rows from
        // construction, so they count toward the population even though
        // they activate mid-run. No-show retirees keep their rows.
        std::size_t n = perturb.surge_total();
        if (layout.spawns.empty()) return n + 2 * agents_per_side;
        for (const auto& s : layout.spawns) n += s.count;
        return n;
    }

    bool operator==(const SimConfig&) const = default;
};

/// Check every rule that decides whether `config` can run, and throw
/// std::invalid_argument naming the scenario-file key of the first one it
/// breaks: the grid, the model parameters, the section VII extensions,
/// the layout's cells, the door/cycle/mover events and the perturbation
/// specs (docs/SCENARIOS.md#validation lists every rule). The one home of
/// these rules: the scenario parser calls it on the final config,
/// DoorSchedule before it builds a field, and the Simulator before
/// placement, so no engine runs a config the parser rejects. It reads
/// only the config's lists, never the cells of the grid.
void validate(const SimConfig& config);

}  // namespace pedsim::core
