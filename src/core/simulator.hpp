// Simulator interface: the four-stage per-step pipeline of section IV.
//
// Two engines implement the stage hooks:
//   - CpuSimulator  — the paper's single-threaded reference (plain loops),
//   - GpuSimulator  — the data-driven SIMT implementation (tiled kernels on
//     the device simulator, with modeled timing).
// Stage *semantics* and all stochastic choices are shared pure functions
// keyed on (seed, entity, step), so both engines evolve bit-identically —
// the property behind the paper's Fig. 6b CPU-vs-GPU validation.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/door_schedule.hpp"
#include "core/pheromone.hpp"
#include "core/property_table.hpp"
#include "grid/distance_field.hpp"
#include "grid/environment.hpp"
#include "grid/placement.hpp"
#include "rng/stream.hpp"

namespace pedsim::core {

struct EnvEmpty;  // rules.hpp: padded-occupancy emptiness view

/// One agent's candidate row (a scan-matrix row, section IV.a): `count`
/// slots of scores plus the 0-based grid::kNeighborOffsets index of each
/// slot's cell.
struct CandidateRow {
    const double* values = nullptr;
    const std::int8_t* cells = nullptr;
    int count = 0;
};

/// One resolved movement: agent -> empty cell (from stage d's gather).
struct Move {
    std::int32_t agent;
    int to_row;
    int to_col;
};

struct StepResult {
    std::uint64_t step = 0;
    int proposals = 0;       ///< agents that wrote a FUTURE cell
    int moves = 0;           ///< proposals that won their cell
    int conflicts = 0;       ///< proposals lost to contention
    int crossed_top = 0;     ///< agents that crossed this step
    int crossed_bottom = 0;
    /// Waypoint-chain advances this step, summed over agents (an agent
    /// skipping several clustered waypoints counts each). 0 in scenarios
    /// without waypoint chains.
    int waypoint_advances = 0;

    bool operator==(const StepResult&) const = default;
};

struct RunResult {
    int steps_run = 0;
    std::size_t crossed_top = 0;     ///< cumulative over the run
    std::size_t crossed_bottom = 0;
    std::uint64_t total_moves = 0;
    std::uint64_t total_conflicts = 0;
    double wall_seconds = 0.0;        ///< measured host time
    double modeled_device_seconds = 0.0;  ///< 0 for the CPU engine

    [[nodiscard]] std::size_t crossed_total() const {
        return crossed_top + crossed_bottom;
    }
};

/// Observer invoked after every step; return false to stop the run early.
using StepObserver = std::function<bool(const StepResult&)>;

class Simulator {
  public:
    /// `warm` reuses a precomputed door schedule (field sets included)
    /// instead of rebuilding it. It MUST have been built from a config
    /// with the same grid, layout and dynamic-event lists;
    /// seed/model/exec/step-budget differences are fine (the schedule
    /// never depends on them), which is exactly what lets a resident
    /// server amortize one schedule across many jobs. Passing nullptr
    /// builds a fresh schedule.
    Simulator(const SimConfig& config,
              std::shared_ptr<const DoorSchedule> warm);
    virtual ~Simulator() = default;
    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /// Advance one time step through all four stages.
    StepResult step();

    /// Run `steps` steps (or until the observer stops the run).
    RunResult run(int steps, const StepObserver& observer = {});

    [[nodiscard]] const SimConfig& config() const { return config_; }
    [[nodiscard]] const grid::Environment& environment() const { return env_; }
    [[nodiscard]] const PropertyTable& properties() const { return props_; }
    /// The distance field currently in effect. With door events the
    /// referenced field changes at event boundaries (a swap between
    /// precomputed phase fields); the fields themselves live in the
    /// DoorSchedule pool and stay valid for the simulator's lifetime.
    [[nodiscard]] const grid::DistanceField& distance_field() const {
        return *df_;
    }
    /// The door-event schedule and its phase-cached fields.
    [[nodiscard]] const DoorSchedule& door_schedule() const { return *doors_; }
    /// The candidate-scoring view in effect this step for agents with no
    /// pending waypoint: the current phase field, blended toward the next
    /// phase within the anticipation horizon (AnticipateConfig);
    /// identical to distance_field() when not blending.
    [[nodiscard]] const grid::BlendedField& scoring_field() const {
        return blend_;
    }
    /// The candidate-scoring view steering agent i this step: the field
    /// of its current waypoint while its chain is pending (phase-swapped
    /// and anticipation-blended exactly like the final field), else
    /// scoring_field(). The dump row (i <= 0) reads the final field.
    [[nodiscard]] const grid::BlendedField& scoring_field(
        std::int32_t i, grid::Group g) const {
        if (i <= 0 || !rules_.chains) return blend_;
        const auto& chain = chain_for(g);
        const auto w = props_.waypoint[static_cast<std::size_t>(i)];
        if (w >= chain.size()) return blend_;
        return wp_blend_[chain[w]];
    }
    /// True while agent i still has waypoints to visit. Such agents skip
    /// the forward-priority shortcut (their target is wherever the chain
    /// says, not the group's edge) and cannot cross.
    [[nodiscard]] bool waypoint_pending(std::int32_t i) const {
        if (i <= 0 || !rules_.chains) return false;
        return props_.waypoint[static_cast<std::size_t>(i)] <
               chain_for(props_.group_of(i)).size();
    }
    /// Agents removed because a door closed on their cell.
    [[nodiscard]] std::size_t door_retired() const { return door_retired_; }
    /// Agents retired by the no-show/drop-out perturbation (at placement
    /// or at their seeded drop step).
    [[nodiscard]] std::size_t perturb_retired() const {
        return perturb_retired_;
    }
    /// Agents injected by spawn-rate surges so far.
    [[nodiscard]] std::size_t perturb_spawned() const {
        return perturb_spawned_;
    }
    /// Null for LEM runs.
    [[nodiscard]] const PheromoneField* pheromone() const {
        return pher_.get();
    }
    [[nodiscard]] std::uint64_t current_step() const { return step_; }
    [[nodiscard]] std::size_t crossed_total(grid::Group g) const {
        return g == grid::Group::kTop ? crossed_top_ : crossed_bottom_;
    }
    /// Modeled device seconds accumulated so far (CPU engine: 0).
    [[nodiscard]] virtual double modeled_seconds() const { return 0.0; }

  protected:
    // Stage hooks (paper section IV b-e). `out_moves` receives resolved
    // movements in row-major cell order. The host engine folds initial
    // calculation into its tour-construction pass (decide_host), so only
    // gpu-simt overrides stage_initial_calc. step() builds tour_base_ and
    // move_base_ before the first hook runs.
    virtual void stage_reset() = 0;                       // supporting kernel
    virtual void stage_initial_calc() {}                  // IV.b
    virtual void stage_tour_construction() = 0;           // IV.c
    virtual void stage_movement(std::vector<Move>& out_moves) = 0;  // IV.d

    /// Allocate the proposal planes (proposed_, proposers_) so step()
    /// marks them and resolve_proposals can walk them. The host engine
    /// calls this from its constructor; gpu-simt's movement kernel
    /// gathers at every cell and never needs them.
    void allocate_proposal_planes();

    /// Host stage-d body over rows [begin_row, end_row): resolve every
    /// cell of the proposal plane set in those rows, row-major and
    /// column-ascending, reading occupancy and agent indices from env_.
    /// Appends the winners to `out_moves` and clears the rows' proposal
    /// words and proposer bytes for the next step, so disjoint row ranges
    /// may run concurrently. Contested cells draw their winners in lane
    /// batches (rng::StreamBatch); each holds its move's place in the
    /// row-major order until its batch is drawn.
    void resolve_proposals(int begin_row, int end_row,
                           std::vector<Move>& out_moves);

    /// Shared stage-d epilogue: apply the (disjoint) moves, update tour
    /// lengths, evaporate + deposit pheromone (ACO), retire crossed agents.
    void finish_step(const std::vector<Move>& moves, StepResult& result);
    /// finish_step's per-agent crossing epilogue for an active, uncrossed
    /// agent i: advance its waypoints, then — once its chain is complete
    /// and it stands within `margin` of its target edge — mark it crossed,
    /// count it, and retire it when exit_on_cross is set.
    void finish_agent(std::int32_t i, int margin, StepResult& result);

    /// gpu-simt's decision for agent i (active, on-grid): run the gates
    /// in order and, only when the draw is reached, call `row()` once for
    /// the CandidateRow its initial-calc kernel stored, then draw_future
    /// on agent i's tour-construction stream. Writes the FUTURE cell and
    /// returns true when a proposal was made.
    template <typename RowFn>
    bool decide_future(std::int32_t i, RowFn&& row) {
        const Gate gate = run_gates(i);
        if (gate != Gate::kDraw) return gate == Gate::kForward;
        rng::Stream stream(tour_base_, static_cast<std::uint64_t>(i));
        return draw_future(i, row(), stream);
    }

    /// One draw the host tour construction has queued: agent i and its
    /// candidate row, waiting in a TourBatch for its stream's first block.
    struct TourDraw {
        std::int32_t agent;
        int count;
        double values[grid::kNeighborCount];
        std::int8_t cells[grid::kNeighborCount];
    };
    /// A slice's queued draws, on the slice's stack (about 2.8 KB).
    using TourBatch = rng::StreamBatch<TourDraw>;

    /// The host engine's fused stage b + c for agent i (active, on-grid):
    /// set its FRONT CELL and panic flags and run the gates, the same ones
    /// decide_future runs. At the draw, build_scan_row (rules.hpp) fills
    /// agent i's candidate row into batch.next() through `empty`. A row
    /// whose draw reads the stream is queued: a rank row of 2 or more
    /// candidates, a roulette row of 1 or more. A rank row of one
    /// candidate takes it at once, since lem_rank_draw draws nothing for
    /// it. A full batch is drawn before returning. Reads only state frozen
    /// for the stage and writes only agent i's property row (its queued
    /// draw included), so disjoint agent slices may run concurrently, each
    /// with its own batch.
    void decide_host(std::int32_t i, const EnvEmpty& empty, TourBatch& batch);
    /// Draw every agent queued in `batch` through draw_future, on its
    /// tour-construction stream primed with the block the batch computed;
    /// leaves the batch empty.
    void draw_batch(TourBatch& batch);

    /// True when agent i flees this step (panic active and in radius).
    [[nodiscard]] bool panic_applies(int r, int c) const {
        return config_.panic.active(step_) && config_.panic.affects(r, c);
    }

    /// Agent i's group waypoint chain as slots into
    /// DoorSchedule::waypoint_cells().
    [[nodiscard]] const std::vector<std::uint32_t>& chain_for(
        grid::Group g) const {
        return chain_slots_[g == grid::Group::kTop ? 0 : 1];
    }

    SimConfig config_;
    grid::Environment env_;
    /// Phase-cached fields (one per distinct wall configuration); df_
    /// points at the phase currently in effect. Shared so a warm cache
    /// can hand the same immutable schedule to many engines at once —
    /// everything behind the pointer is read-only after construction.
    std::shared_ptr<const DoorSchedule> doors_;
    const grid::DistanceField* df_;
    /// Candidate-scoring view over df_ (plus, inside the anticipation
    /// horizon, the next phase's field). Updated on the host thread at
    /// each step boundary; stages only read it.
    grid::BlendedField blend_;
    /// Per-group waypoint chains resolved to slots in
    /// doors_.waypoint_cells() ([0] = top, [1] = bottom).
    std::array<std::vector<std::uint32_t>, 2> chain_slots_;
    /// Per-slot scoring views (current phase's waypoint field, blended
    /// toward the next phase inside the anticipation horizon). Updated on
    /// the host thread alongside blend_; stages only read them.
    std::vector<grid::BlendedField> wp_blend_;
    std::vector<grid::PlacedAgent> placed_;
    PropertyTable props_;
    /// Proposal plane (host engine only; empty until
    /// allocate_proposal_planes): rows x env_.bit_words() words in the
    /// padded rows' bit layout — bit c + 1 of row r is set when some
    /// agent's FUTURE cell this step is (r, c).
    std::vector<std::uint64_t> proposed_;
    /// Proposer plane, paired with proposed_: one byte per padded cell of
    /// the grid rows (byte r * stride + p belongs to bit p of row r). Bit
    /// k is set when the agent at kNeighborOffsets[k] from the cell
    /// proposed it. step() marks both planes between tour construction
    /// and movement; resolve_proposals clears them again, so both read
    /// all-zero between steps.
    std::vector<std::uint8_t> proposers_;
    std::unique_ptr<PheromoneField> pher_;
    /// This step's stream bases for tour construction and movement.
    rng::Stream::Base tour_base_;
    rng::Stream::Base move_base_;
    std::uint64_t step_ = 0;
    std::size_t crossed_top_ = 0;
    std::size_t crossed_bottom_ = 0;

  private:
    /// Where decide_future's gates leave agent i: held this step (no
    /// proposal), moved to its forward cell without a draw, or at the
    /// draw over its candidate row.
    enum class Gate { kHold, kForward, kDraw };
    /// decide_future's gates, in order: slow speed class, perturbation
    /// speed gate, waypoint dwell, panic (always draws), forward priority.
    /// Writes the FUTURE cell on kForward. Draws nothing.
    Gate run_gates(std::int32_t i);
    /// True when agent idx draws a rank (LEM, or a panicked agent's flee
    /// row) rather than spinning the roulette wheel (ACO).
    [[nodiscard]] bool rank_draw(std::size_t idx) const {
        return config_.model == Model::kLem ||
               (rules_.panic && props_.panicked[idx] != 0);
    }
    /// decide_future's draw: the rank draw or the roulette wheel over
    /// `row`, on `stream`, agent i's tour-construction stream. Writes the
    /// FUTURE cell and returns true when a proposal was made.
    bool draw_future(std::int32_t i, const CandidateRow& row,
                     rng::Stream& stream);
    /// Set agent idx's FUTURE cell to its neighbour k (a
    /// grid::kNeighborOffsets index).
    void propose(std::size_t idx, int k) {
        const auto off = grid::kNeighborOffsets[static_cast<std::size_t>(k)];
        props_.future_row[idx] = props_.row[idx] + off.dr;
        props_.future_col[idx] = props_.col[idx] + off.dc;
    }

    static std::vector<grid::PlacedAgent> init_agents(
        grid::Environment& env, const SimConfig& config);
    /// Fire every door event scheduled for the current step: mutate the
    /// environment's wall occupancy and swap df_ to the phase's
    /// precomputed field. Runs on the host thread before any stage, so
    /// both engines (and every thread count) see identical geometry.
    void fire_due_doors();
    void apply_door(const DoorEvent& event);
    /// Recompute blend_ for the current step: unblended outside the
    /// anticipation horizon, else a convex combination whose weight ramps
    /// toward the next phase as its event nears. Pure in step_, so every
    /// engine and thread count sees the same scoring field.
    void update_anticipation();
    /// The waypoint-forward cell of agent i at (r, c): the neighbour
    /// minimizing its current waypoint field (ranked visit order breaks
    /// ties). Returns the 0-based neighbour index when that cell is
    /// walkable, else -1 (fall through to the scan-row draw) — the
    /// chain-pending analogue of the paper's forward-priority rule.
    [[nodiscard]] int waypoint_forward_neighbor(std::int32_t i,
                                                grid::Group g, int r,
                                                int c) const;
    /// Advance agent i's waypoint index past every chain entry within the
    /// Chebyshev arrival radius of its current position (clustered
    /// waypoints can advance several at once). Pure in (position, chain,
    /// dwell state), called from the shared finish_step (and once at
    /// construction for agents spawned inside a radius), so engines and
    /// thread counts agree. `next_step` is the first step the agent could
    /// act after this call — it anchors the dwell hold: a group with a
    /// DwellSpec holds the agent at each reached waypoint for the spec's
    /// duration (dwell_until) before the chain advances. Returns the
    /// number of advances.
    int advance_waypoints(std::int32_t i, std::uint64_t next_step);

    /// Seed the perturbation layer at construction: per-group speed gates
    /// and dwell durations, the sorted timed-drop list (retiring
    /// at-placement no-shows immediately), and the surge firing order
    /// with per-surge property-row bases.
    void init_perturbations();
    /// Retire every agent whose seeded drop step is due (fault-injection
    /// no-shows with last_step > 0). Host-thread, step-boundary — same
    /// contract as fire_due_doors.
    void fire_due_drops();
    /// Inject every surge due this step: sample walkable rect cells with
    /// the shared placement primitive (Stage::kPerturbation stream keyed
    /// on the surge's authored index) into pre-allocated property rows.
    /// A surge finding fewer walkable cells than its count injects what
    /// fits — deterministically, since every backend sees the same
    /// environment.
    void fire_due_surges();

    /// This step's resolved moves, filled by stage_movement and read by
    /// finish_step. step() clears it and keeps its capacity, so after the
    /// busiest step no step allocates it.
    std::vector<Move> moves_;

    std::size_t next_door_ = 0;
    std::size_t door_retired_ = 0;

    // Perturbation state (empty config leaves all of it inert).
    /// Per-group act-fraction as a 32.32 fixed-point step gate; 0 = no
    /// gate. Indexed by the group byte (1 = top, 2 = bottom).
    std::array<std::uint64_t, 3> speed_gate_q_{0, 0, 0};
    /// Per-group waypoint dwell duration; 0 = no dwell. Group-byte index.
    std::array<std::uint64_t, 3> dwell_steps_{0, 0, 0};
    /// The per-agent rules this run can apply, derived from the config at
    /// construction. A rule that is off never sets its property column,
    /// so run_gates, finish_step and the waypoint views skip the column's
    /// per-agent load: the result is the same, at less cost per agent.
    struct Rules {
        bool slow_class = false;  ///< speed.slow_fraction > 0
        bool speed_gate = false;  ///< some group's speed_gate_q_ != 0
        bool dwell = false;       ///< some group dwells at its waypoints
        bool panic = false;       ///< panic.enabled
        bool chains = false;      ///< layout.has_waypoints()
    };
    Rules rules_;
    /// Seeded timed drops, sorted by (step, agent).
    std::vector<std::pair<std::uint64_t, std::int32_t>> drops_;
    std::size_t next_drop_ = 0;
    /// Authored-surge indices in firing order (stable-sorted by step).
    std::vector<std::uint32_t> surge_order_;
    std::size_t next_surge_ = 0;
    /// First property row of each authored surge's pre-allocated block.
    std::vector<std::int32_t> surge_base_;
    std::size_t perturb_retired_ = 0;
    std::size_t perturb_spawned_ = 0;
};

inline Simulator::Gate Simulator::run_gates(std::int32_t i) {
    const auto idx = static_cast<std::size_t>(i);

    // Slow agents act only on their phase of the period (speed extension).
    if (rules_.slow_class && props_.speed_class[idx] != 0) {
        const auto period =
            static_cast<std::uint64_t>(config_.speed.slow_period);
        if ((step_ + idx) % period != 0) return Gate::kHold;
    }

    // Perturbation speed class: the agent acts only on the steps a 32.32
    // fixed-point Bresenham gate selects for its group (integer math, so
    // every backend picks the same steps; idx phase-shifts agents so a
    // class never moves in lockstep). Checked before any stream exists —
    // a gated-out step consumes no draws.
    if (rules_.speed_gate) {
        if (const std::uint64_t q = speed_gate_q_[props_.group[idx]]; q != 0) {
            const std::uint64_t t = step_ + idx;
            if ((((t + 1) * q) >> 32) <= ((t * q) >> 32)) return Gate::kHold;
        }
    }

    // Waypoint dwell: held at a service point until the hold expires (the
    // shared finish_step clears dwell_until — also before any draw).
    if (rules_.dwell && props_.dwell_until[idx] != 0) return Gate::kHold;

    // Panicked agents flee on the rank draw over the flee-sorted candidate
    // row; goal, forward priority and pheromone do not apply while fleeing.
    if (rules_.panic && props_.panicked[idx] != 0) return Gate::kDraw;

    // Forward priority (section III): an empty forward cell is taken
    // without any probabilistic calculation. While a waypoint chain is
    // pending, "forward" is the neighbour descending the agent's CURRENT
    // waypoint field (the chain's travel direction — the group's edge-ward
    // cell would march agents past their checkpoints); once the chain is
    // done it is the paper's group-forward cell. Both variants are pure
    // functions of frozen per-step state, so engine/thread parity holds.
    if (!config_.forward_priority) return Gate::kDraw;
    const grid::Group g = props_.group_of(i);
    int k = -1;
    if (!waypoint_pending(i)) {
        if (props_.front_blocked[idx] == 0) k = grid::forward_neighbor(g);
    } else {
        k = waypoint_forward_neighbor(i, g, props_.row[idx], props_.col[idx]);
    }
    if (k < 0) return Gate::kDraw;
    propose(idx, k);
    return Gate::kForward;
}

inline void Simulator::finish_agent(std::int32_t i, int margin,
                                    StepResult& result) {
    const auto idx = static_cast<std::size_t>(i);
    if (rules_.chains) {
        result.waypoint_advances += advance_waypoints(i, step_ + 1);
        if (waypoint_pending(i)) return;
    }
    const grid::Group g = props_.group_of(i);
    if (!df_->crossed_at(g, props_.row[idx], props_.col[idx], margin)) return;
    props_.crossed[idx] = 1;
    if (g == grid::Group::kTop) {
        ++crossed_top_;
        ++result.crossed_top;
    } else {
        ++crossed_bottom_;
        ++result.crossed_bottom;
    }
    if (config_.exit_on_cross) {
        env_.clear(props_.row[idx], props_.col[idx]);
        props_.active[idx] = 0;
    }
}

}  // namespace pedsim::core
