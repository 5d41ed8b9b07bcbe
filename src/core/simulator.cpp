#include "core/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "core/rules.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rng/distributions.hpp"

namespace pedsim::core {

namespace {

/// `config` once validate() accepts it: the schedule, placement and the
/// pheromone planes read it before the constructor body runs.
const SimConfig& validated(const SimConfig& config) {
    validate(config);
    return config;
}

}  // namespace

std::vector<grid::PlacedAgent> Simulator::init_agents(
    grid::Environment& env, const SimConfig& config) {
    obs::Span span("setup/placement");
    // Static walls go in first so both placement modes sample around them.
    for (const auto cell : config.layout.wall_cells) {
        const int r = static_cast<int>(cell) / config.grid.cols;
        const int c = static_cast<int>(cell) % config.grid.cols;
        env.set_wall(r, c);
    }
    if (!config.layout.spawns.empty()) {
        return grid::place_regions(env, config.layout.spawns, config.seed);
    }
    grid::PlacementConfig pc;
    pc.agents_per_side = config.agents_per_side;
    pc.band_rows = config.effective_band_rows();
    pc.max_band_fill = config.max_band_fill;
    pc.seed = config.seed;
    return grid::place_bidirectional(env, pc);
}

Simulator::Simulator(const SimConfig& config,
                     std::shared_ptr<const DoorSchedule> warm)
    : config_(validated(config)),
      env_(config.grid),
      doors_(warm != nullptr ? std::move(warm)
                             : std::make_shared<const DoorSchedule>(config_)),
      df_(&doors_->field_after(0)),
      blend_(df_),
      placed_(init_agents(env_, config_)),
      props_(placed_, config_.perturb.surge_total()) {
    if (config_.model == Model::kAco) {
        pher_ = std::make_unique<PheromoneField>(
            config_.grid, config_.aco.tau0, config_.aco.tau_min);
    }
    init_perturbations();
    rules_.slow_class = config_.speed.slow_fraction > 0.0;
    rules_.speed_gate = std::any_of(speed_gate_q_.begin(), speed_gate_q_.end(),
                                    [](std::uint64_t q) { return q != 0; });
    rules_.panic = config_.panic.enabled;
    rules_.chains = config_.layout.has_waypoints();
    // Heterogeneous speeds: a seeded fraction of agents is slow.
    if (config_.speed.slow_fraction > 0.0) {
        for (std::size_t i = 1; i < props_.rows(); ++i) {
            rng::Stream s(config_.seed, rng::Stage::kPlacement, i,
                          /*step=*/0xFEEDu);
            props_.speed_class[i] =
                s.next_double() < config_.speed.slow_fraction ? 1 : 0;
        }
    }
    // Waypoint chains: resolve each group's ordered cells to slots in the
    // schedule's deduped registry, seed the per-slot scoring views, and
    // advance agents spawned inside the arrival radius of their leading
    // waypoint(s) before the first step.
    if (config_.layout.has_waypoints()) {
        const auto& cells = doors_->waypoint_cells();
        for (std::size_t g = 0; g < 2; ++g) {
            for (const auto cell : config_.layout.waypoints[g]) {
                const auto it = std::lower_bound(cells.begin(), cells.end(),
                                                 cell);
                chain_slots_[g].push_back(static_cast<std::uint32_t>(
                    it - cells.begin()));
            }
        }
        wp_blend_.resize(cells.size());
        for (std::size_t slot = 0; slot < cells.size(); ++slot) {
            wp_blend_[slot] =
                grid::BlendedField(&doors_->waypoint_field_after(0, slot));
        }
        for (std::size_t i = 1; i < props_.rows(); ++i) {
            if (props_.active[i] != 0) {
                advance_waypoints(static_cast<std::int32_t>(i),
                                  /*next_step=*/0);
            }
        }
    }
}

void Simulator::init_perturbations() {
    const PerturbationConfig& p = config_.perturb;
    if (p.empty()) return;
    for (const auto& s : p.speeds) {
        // 32.32 fixed point; fraction 1 never gates, so store the
        // "no gate" sentinel and skip the per-agent arithmetic.
        speed_gate_q_[s.group] =
            s.fraction >= 1.0
                ? 0
                : static_cast<std::uint64_t>(
                      std::llround(s.fraction * 4294967296.0));
    }
    for (const auto& s : p.dwells) {
        dwell_steps_[s.group] = s.steps;
        rules_.dwell = true;
    }
    // No-shows draw one Stage::kPerturbation stream per agent — keyed on
    // the agent index alone, so the draws are independent of iteration
    // order and of every other stage's streams.
    for (const auto& s : p.no_shows) {
        if (s.probability <= 0.0) continue;
        for (const auto& a : placed_) {
            if (static_cast<std::uint8_t>(a.group) != s.group) continue;
            rng::Stream stream(config_.seed, rng::Stage::kPerturbation,
                               static_cast<std::uint64_t>(a.index),
                               /*step=*/0);
            if (stream.next_double() >= s.probability) continue;
            if (s.last_step == 0) {
                // True no-show: never enters the grid.
                const auto idx = static_cast<std::size_t>(a.index);
                env_.clear(props_.row[idx], props_.col[idx]);
                props_.active[idx] = 0;
                ++perturb_retired_;
            } else {
                const std::uint64_t at =
                    1 + stream.next_below(static_cast<std::uint32_t>(
                            std::min<std::uint64_t>(s.last_step, 0xFFFFFFFFu)));
                drops_.emplace_back(at, a.index);
            }
        }
    }
    std::sort(drops_.begin(), drops_.end());
    // Surges fire in step order but keep their authored index for stream
    // keying and their authored-order property-row block.
    surge_base_.reserve(p.surges.size());
    auto base = static_cast<std::int32_t>(placed_.size()) + 1;
    for (const auto& s : p.surges) {
        surge_base_.push_back(base);
        base += static_cast<std::int32_t>(s.count);
        surge_order_.push_back(
            static_cast<std::uint32_t>(surge_order_.size()));
    }
    std::stable_sort(surge_order_.begin(), surge_order_.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return p.surges[a].step < p.surges[b].step;
                     });
}

void Simulator::fire_due_drops() {
    while (next_drop_ < drops_.size() && drops_[next_drop_].first <= step_) {
        const auto idx =
            static_cast<std::size_t>(drops_[next_drop_].second);
        ++next_drop_;
        // Already gone (crossed and exited, door-swept): nothing to do.
        if (props_.active[idx] == 0) continue;
        env_.clear(props_.row[idx], props_.col[idx]);
        props_.active[idx] = 0;
        props_.dwell_until[idx] = 0;
        ++perturb_retired_;
    }
}

void Simulator::fire_due_surges() {
    const auto& surges = config_.perturb.surges;
    while (next_surge_ < surge_order_.size() &&
           surges[surge_order_[next_surge_]].step <= step_) {
        const std::uint32_t k = surge_order_[next_surge_];
        ++next_surge_;
        const SurgeSpec& s = surges[k];
        // Walkable rect cells in place_regions' iteration order, sampled
        // with the shared partial-Fisher-Yates primitive.
        std::vector<std::uint32_t> ids;
        for (int r = s.row0; r <= s.row1; ++r) {
            for (int c = s.col0; c <= s.col1; ++c) {
                if (env_.walkable(r, c)) {
                    ids.push_back(static_cast<std::uint32_t>(env_.flat(r, c)));
                }
            }
        }
        const auto n = std::min<std::size_t>(s.count, ids.size());
        rng::Stream stream(config_.seed, rng::Stage::kPerturbation,
                           /*entity=*/k, /*step=*/1);
        const auto cells = grid::sample_cells(n, std::move(ids), stream);
        for (std::size_t j = 0; j < cells.size(); ++j) {
            const int row = static_cast<int>(cells[j]) / config_.grid.cols;
            const int col = static_cast<int>(cells[j]) % config_.grid.cols;
            const std::int32_t i = surge_base_[k] + static_cast<std::int32_t>(j);
            const auto idx = static_cast<std::size_t>(i);
            env_.place(row, col, static_cast<grid::Group>(s.group), i);
            props_.group[idx] = s.group;
            props_.row[idx] = row;
            props_.col[idx] = col;
            props_.active[idx] = 1;
            ++perturb_spawned_;
            if (config_.layout.has_waypoints()) {
                advance_waypoints(i, /*next_step=*/step_);
            }
        }
        obs::MetricsRegistry::add("perturb.surge_agents",
                                  static_cast<std::uint64_t>(cells.size()));
    }
}

void Simulator::allocate_proposal_planes() {
    const auto rows = static_cast<std::size_t>(env_.rows());
    proposed_.assign(rows * static_cast<std::size_t>(env_.bit_words()), 0);
    proposers_.assign(rows * static_cast<std::size_t>(env_.stride()), 0);
}

bool Simulator::draw_future(std::int32_t i, const CandidateRow& row,
                            rng::Stream& stream) {
    if (row.count <= 0) return false;
    const auto idx = static_cast<std::size_t>(i);
    int slot;
    if (rank_draw(idx)) {
        slot = rng::lem_rank_draw(stream, row.count, config_.lem.sigma);
    } else {
        slot = rng::roulette(stream, row.values, row.count);
        if (slot < 0) return false;
    }
    propose(idx, row.cells[slot]);
    return true;
}

void Simulator::decide_host(std::int32_t i, const EnvEmpty& empty,
                            TourBatch& batch) {
    const auto idx = static_cast<std::size_t>(i);
    const grid::Group g = props_.group_of(i);
    const int r = props_.row[idx];
    const int c = props_.col[idx];
    const auto fwd = grid::kNeighborOffsets[static_cast<std::size_t>(
        grid::forward_neighbor(g))];
    props_.front_blocked[idx] = empty(r + fwd.dr, c + fwd.dc) ? 0 : 1;
    if (rules_.panic) props_.panicked[idx] = panic_applies(r, c) ? 1 : 0;
    if (run_gates(i) != Gate::kDraw) return;
    TourDraw& d = batch.next();
    const auto tau = [&](int rr, int cc) { return pher_->at(g, rr, cc); };
    d.count = build_scan_row(empty, tau, scoring_field(i, g), config_,
                             rules_.panic && props_.panicked[idx] != 0, g, r,
                             c, d.values, d.cells);
    if (d.count < (rank_draw(idx) ? 2 : 1)) {
        if (d.count == 1) propose(idx, d.cells[0]);
        return;
    }
    d.agent = i;
    if (batch.commit(static_cast<std::uint64_t>(i))) draw_batch(batch);
}

void Simulator::draw_batch(TourBatch& batch) {
    batch.flush(tour_base_, [&](const TourDraw& d, rng::Stream& stream) {
        draw_future(d.agent, CandidateRow{d.values, d.cells, d.count},
                    stream);
    });
}

void Simulator::fire_due_doors() {
    const auto& events = doors_->events();
    if (next_door_ >= events.size() || events[next_door_].step > step_) {
        return;
    }
    std::uint64_t fired = 0;
    while (next_door_ < events.size() && events[next_door_].step <= step_) {
        apply_door(events[next_door_]);
        ++next_door_;
        ++fired;
    }
    obs::MetricsRegistry::add("doors.events_fired", fired);
    // O(1) hot-path cost: the phase's geodesic field was precomputed at
    // construction, so an event is wall toggles plus this pointer swap.
    df_ = &doors_->field_after(next_door_);
}

void Simulator::update_anticipation() {
    blend_ = grid::BlendedField(df_);
    // Waypoint views track the same phase swap as df_ (fire_due_doors has
    // already advanced next_door_ past everything due).
    for (std::size_t slot = 0; slot < wp_blend_.size(); ++slot) {
        wp_blend_[slot] = grid::BlendedField(
            &doors_->waypoint_field_after(next_door_, slot));
    }
    const int horizon = config_.anticipate.horizon;
    if (horizon <= 0) return;
    const auto& events = doors_->events();
    if (next_door_ >= events.size()) return;
    // fire_due_doors already applied everything due, so the next event is
    // strictly in the future: remaining >= 1.
    const std::uint64_t next_step = events[next_door_].step;
    const std::uint64_t remaining = next_step - step_;
    if (remaining > static_cast<std::uint64_t>(horizon)) return;
    obs::MetricsRegistry::add("blend.active_steps");
    // The next phase is the configuration after ALL events of that step.
    std::size_t j = next_door_;
    while (j < events.size() && events[j].step == next_step) ++j;
    // Weight ramps from 1/(horizon+1) at the horizon edge to
    // horizon/(horizon+1) one step before the event — never 0 or 1, so
    // both phases always contribute inside the window.
    const double weight = 1.0 - static_cast<double>(remaining) /
                                    (static_cast<double>(horizon) + 1.0);
    const grid::DistanceField* next = &doors_->field_after(j);
    if (next != df_) {  // revisited configuration: nothing to blend
        blend_ = grid::BlendedField(df_, next, weight);
    }
    // Chained fields anticipate identically: an agent mid-chain pre-stages
    // toward where its CURRENT waypoint will be reachable next phase.
    for (std::size_t slot = 0; slot < wp_blend_.size(); ++slot) {
        const grid::DistanceField* now =
            &doors_->waypoint_field_after(next_door_, slot);
        const grid::DistanceField* nxt =
            &doors_->waypoint_field_after(j, slot);
        if (nxt != now) {
            wp_blend_[slot] = grid::BlendedField(now, nxt, weight);
        }
    }
}

void Simulator::apply_door(const DoorEvent& event) {
    for (int r = event.row0; r <= event.row1; ++r) {
        for (int c = event.col0; c <= event.col1; ++c) {
            if (event.action == DoorAction::kClose) {
                if (env_.is_wall(r, c)) continue;
                if (!env_.empty(r, c)) {
                    // The door sweeps its cells: an agent caught in a
                    // closing door is retired (inactive, not crossed).
                    const std::int32_t i = env_.index_at(r, c);
                    env_.clear(r, c);
                    props_.active[static_cast<std::size_t>(i)] = 0;
                    ++door_retired_;
                }
                env_.set_wall(r, c);
            } else if (env_.is_wall(r, c)) {
                env_.clear(r, c);
            }
        }
    }
}

StepResult Simulator::step() {
    obs::Span span("step", "n", static_cast<std::int64_t>(step_));
    auto* const mx = obs::MetricsRegistry::active();
    const std::uint64_t t0 = mx ? obs::now_ns() : 0;

    StepResult res;
    res.step = step_;
    tour_base_ = rng::Stream::Base(config_.seed, rng::Stage::kTourConstruction,
                                   step_);
    move_base_ = rng::Stream::Base(config_.seed, rng::Stage::kMovement, step_);

    // Door events fire at the step boundary, before any stage reads the
    // environment. The SIMT engine rebuilds its global-memory views (and
    // halo tiles) from env_ every launch, so the new kWallOcc cells flow
    // into both engines identically.
    {
        obs::Span s("step/door_events");
        fire_due_doors();
    }
    // Perturbations fire at the same boundary, after doors (so a drop or
    // surge sees the step's final geometry) and before any stage reads
    // the environment — identical on every backend and thread count.
    if (next_drop_ < drops_.size()) {
        obs::Span s("step/perturb_drops");
        fire_due_drops();
    }
    if (next_surge_ < surge_order_.size()) {
        obs::Span s("step/perturb_surges");
        fire_due_surges();
    }
    {
        obs::Span s("step/anticipate");
        update_anticipation();
    }

    {
        obs::Span s("stage/reset");
        stage_reset();
    }
    {
        obs::Span s("stage/initial_calc");
        stage_initial_calc();
    }
    {
        obs::Span s("stage/tour_construction");
        stage_tour_construction();
    }

    // One pass over FUTURE ROW/COL counts the proposals and, for the host
    // engines, marks each proposed cell in the proposal plane and the
    // proposer's direction in the cell's proposer byte; their movement
    // walks the marks instead of sweeping rows and gathering neighbours.
    const bool mark = !proposed_.empty();
    const auto nwords = static_cast<std::size_t>(env_.bit_words());
    const auto stride = static_cast<std::size_t>(env_.stride());
    for (std::size_t i = 1; i < props_.rows(); ++i) {
        const std::int32_t fr = props_.future_row[i];
        if (props_.active[i] == 0 || fr == kNoFuture) continue;
        ++res.proposals;
        if (!mark) continue;
        const std::int32_t fc = props_.future_col[i];
        const auto p = static_cast<std::size_t>(fc) + 1;
        const auto row = static_cast<std::size_t>(fr);
        proposed_[row * nwords + p / 64] |= std::uint64_t{1} << (p % 64);
        const int k = grid::neighbor_index(props_.row[i] - fr,
                                           props_.col[i] - fc);
        proposers_[row * stride + p] |= static_cast<std::uint8_t>(1u << k);
    }

    moves_.clear();
    {
        obs::Span s("stage/movement");
        stage_movement(moves_);
    }
    {
        obs::Span s("stage/finish_step");
        finish_step(moves_, res);
    }

    if (mx) {
        mx->counter("sim.steps").add(1);
        mx->counter("sim.proposals").add(
            static_cast<std::uint64_t>(res.proposals));
        mx->counter("sim.moves").add(static_cast<std::uint64_t>(res.moves));
        mx->counter("sim.conflicts").add(
            static_cast<std::uint64_t>(res.conflicts));
        mx->histogram("step.latency_ns").record(obs::now_ns() - t0);
        mx->histogram("step.conflicts")
            .record(static_cast<std::uint64_t>(res.conflicts));
    }

    ++step_;
    return res;
}

void Simulator::resolve_proposals(int begin_row, int end_row,
                                  std::vector<Move>& out_moves) {
    // Scatter-to-gather (section IV.d) over the proposed cells only. Every
    // FUTURE cell is an empty king-neighbour of its agent, so any other
    // cell would gather no proposer — n == 0 before a stream exists — and
    // skipping it can neither consume nor reorder a draw. Bits are walked
    // row-major, column-ascending: the paper's cell order. The proposer
    // byte's set bits, in ascending k, are the neighbours the per-cell
    // gather finds in kNeighborOffsets order, so the w-th set bit is the
    // gather's w-th proposer.
    const auto proposer = [&](int r, int c, unsigned bits, int w) {
        for (; w > 0; --w) bits &= bits - 1;
        const auto off = grid::kNeighborOffsets[static_cast<std::size_t>(
            std::countr_zero(bits))];
        return env_.index_at(r + off.dr, c + off.dc);
    };
    // A contest waits in the batch with its move's slot; the slot keeps
    // the row-major order until the batch draws the winner. Each cell's
    // stream is its own, so drawing later changes no draw.
    struct Contest {
        std::size_t move;
        unsigned bits;
    };
    rng::StreamBatch<Contest> contests;
    const auto draw_contests = [&] {
        contests.flush(move_base_, [&](const Contest& k, rng::Stream& s) {
            Move& m = out_moves[k.move];
            m.agent = proposer(m.to_row, m.to_col, k.bits,
                               select_winner(s, popcount8(k.bits)));
        });
    };
    const int nwords = env_.bit_words();
    const auto stride = static_cast<std::size_t>(env_.stride());
    for (int r = begin_row; r < end_row; ++r) {
        std::uint64_t* const row =
            proposed_.data() +
            static_cast<std::size_t>(r) * static_cast<std::size_t>(nwords);
        std::uint8_t* const dirs =
            proposers_.data() + static_cast<std::size_t>(r) * stride;
        for (int wi = 0; wi < nwords; ++wi) {
            for (std::uint64_t m = std::exchange(row[wi], 0); m != 0;
                 m &= m - 1) {
                const int p = wi * 64 + std::countr_zero(m);
                const unsigned bits = std::exchange(dirs[p], std::uint8_t{0});
                const int c = p - 1;  // padded bit position -> logical column
                if (!env_.empty(r, c)) continue;
                // select_winner draws nothing for a lone proposer, so only
                // a contest needs the cell's stream.
                if ((bits & (bits - 1)) == 0) {
                    out_moves.push_back({proposer(r, c, bits, 0), r, c});
                    continue;
                }
                contests.next() = {out_moves.size(), bits};
                out_moves.push_back({0, r, c});
                if (contests.commit(
                        static_cast<std::uint64_t>(env_.flat(r, c)))) {
                    draw_contests();
                }
            }
        }
    }
    draw_contests();
}

void Simulator::finish_step(const std::vector<Move>& moves,
                            StepResult& result) {
    // Moves are disjoint by construction (an agent proposes exactly one
    // cell; each cell picked at most one winner), so application order is
    // irrelevant — we use row-major gather order in both engines.
    for (const auto& m : moves) {
        const auto idx = static_cast<std::size_t>(m.agent);
        const int fr = props_.row[idx];
        const int fc = props_.col[idx];
        env_.move(fr, fc, m.to_row, m.to_col);
        props_.tour_length[idx] +=
            step_length(m.to_row - fr, m.to_col - fc);
        props_.row[idx] = m.to_row;
        props_.col[idx] = m.to_col;
    }
    result.moves = static_cast<int>(moves.size());
    result.conflicts = result.proposals - result.moves;

    // Pheromone update (eqs. 3-5): evaporate everywhere, then each mover
    // deposits q / L_k on its new cell in its own group's field.
    if (pher_) {
        pher_->evaporate(config_.aco.rho);
        for (const auto& m : moves) {
            const auto idx = static_cast<std::size_t>(m.agent);
            // Fleeing agents do not reinforce trails — their path is not a
            // route recommendation for followers.
            if (props_.panicked[idx] != 0) continue;
            pher_->deposit(props_.group_of(m.agent), m.to_row, m.to_col,
                           deposit_amount(config_.aco, props_.tour_length[idx]));
        }
    }

    // Waypoint advancement, then crossing: agents within the margin of
    // the target edge are done — but only once their chain is complete
    // (an agent standing on its goal mid-chain keeps routing).
    const int margin = config_.effective_cross_margin();
    if (!rules_.dwell) {
        for (const auto& m : moves) {
            if (props_.crossed[static_cast<std::size_t>(m.agent)] != 0) {
                continue;
            }
            finish_agent(m.agent, margin, result);
        }
        return;
    }
    // With dwell enabled, a holding agent makes progress (hold expiry,
    // chain advance, even crossing) without having moved, so every active
    // agent — not just this step's movers — runs the epilogue.
    for (std::size_t idx = 1; idx < props_.rows(); ++idx) {
        if (props_.active[idx] == 0 || props_.crossed[idx] != 0) continue;
        finish_agent(static_cast<std::int32_t>(idx), margin, result);
    }
}

int Simulator::waypoint_forward_neighbor(std::int32_t i, grid::Group g,
                                         int r, int c) const {
    // The argmin of the waypoint field over the 8 neighbours plays the
    // forward cell's role; ties keep the group's ranked visit order
    // (strict < on a fixed iteration order — deterministic).
    const grid::BlendedField& field = scoring_field(i, g);
    int best_k = -1;
    double best = 0.0;
    for (const int k : grid::ranked_order(g)) {
        const auto off = grid::kNeighborOffsets[static_cast<std::size_t>(k)];
        const int nr = r + off.dr;
        const int nc = c + off.dc;
        if (!env_.in_bounds(nr, nc)) continue;
        const double d = field.cost(g, nr, nc, off.dc);
        if (best_k < 0 || d < best) {
            best = d;
            best_k = k;
        }
    }
    if (best_k < 0) return -1;
    const auto off = grid::kNeighborOffsets[static_cast<std::size_t>(best_k)];
    // Like the paper's rule: only an EMPTY forward cell short-circuits;
    // blocked falls through to the probabilistic scan-row draw.
    return env_.walkable(r + off.dr, c + off.dc) ? best_k : -1;
}

int Simulator::advance_waypoints(std::int32_t i, std::uint64_t next_step) {
    const auto idx = static_cast<std::size_t>(i);
    const auto& chain = chain_for(props_.group_of(i));
    if (chain.empty()) return 0;
    const int radius = config_.layout.waypoint_radius;
    const auto& cells = doors_->waypoint_cells();
    const std::uint64_t dwell = dwell_steps_[props_.group[idx]];
    int advanced = 0;
    while (props_.waypoint[idx] < chain.size()) {
        const auto cell = cells[chain[props_.waypoint[idx]]];
        const int wr = static_cast<int>(cell) / config_.grid.cols;
        const int wc = static_cast<int>(cell) % config_.grid.cols;
        // Chebyshev (king-move) arrival test: pure geometry, so a door
        // event can never retroactively change who has arrived.
        if (std::max(std::abs(props_.row[idx] - wr),
                     std::abs(props_.col[idx] - wc)) > radius) {
            break;
        }
        // Dwell: the first arrival at a waypoint starts a hold of `dwell`
        // steps (the agent proposes no move until next_step reaches
        // dwell_until); the chain advances only once the hold expires.
        // Clustered waypoints each take their own hold — every service
        // point charges its service time.
        if (dwell > 0) {
            if (props_.dwell_until[idx] == 0) {
                props_.dwell_until[idx] = next_step + dwell;
                break;
            }
            if (next_step < props_.dwell_until[idx]) break;
            props_.dwell_until[idx] = 0;
        }
        ++props_.waypoint[idx];
        ++advanced;
    }
    return advanced;
}

RunResult Simulator::run(int steps, const StepObserver& observer) {
    RunResult rr;
    obs::Span span("run", "steps", steps);
    const obs::Stopwatch watch;
    const double modeled0 = modeled_seconds();
    for (int s = 0; s < steps; ++s) {
        const StepResult sr = step();
        ++rr.steps_run;
        rr.total_moves += static_cast<std::uint64_t>(sr.moves);
        rr.total_conflicts += static_cast<std::uint64_t>(sr.conflicts);
        if (observer && !observer(sr)) break;
    }
    rr.wall_seconds = watch.seconds();
    rr.modeled_device_seconds = modeled_seconds() - modeled0;
    rr.crossed_top = crossed_top_;
    rr.crossed_bottom = crossed_bottom_;
    return rr;
}

}  // namespace pedsim::core
