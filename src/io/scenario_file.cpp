#include "io/scenario_file.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "io/strict_parse.hpp"

namespace pedsim::io {

namespace {

std::string trim(const std::string& s) {
    const auto first = s.find_first_not_of(" \t\r");
    if (first == std::string::npos) return "";
    const auto last = s.find_last_not_of(" \t\r");
    return s.substr(first, last - first + 1);
}

std::vector<std::string> split_ws(const std::string& s) {
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string tok;
    while (is >> tok) out.push_back(tok);
    return out;
}

long long to_int(const std::string& key, const std::string& v) {
    long long x = 0;
    if (!strict_stoll(v, x)) {
        throw std::invalid_argument("scenario: bad integer for " + key +
                                    ": '" + v + "'");
    }
    return x;
}

/// Every int field (grid size, step budget, rect coordinates, ranges,
/// horizons) goes through here: a value outside int range would otherwise
/// narrow-cast to a wrapped one that can pass validation — rows =
/// 4294967360 became a 64-row grid, an event rect landed on the wrong
/// cells.
int to_int32(const std::string& key, const std::string& v) {
    const long long x = to_int(key, v);
    if (x < std::numeric_limits<int>::min() ||
        x > std::numeric_limits<int>::max()) {
        throw std::invalid_argument("scenario: " + key +
                                    " value out of int range: '" + v + "'");
    }
    return static_cast<int>(x);
}

/// Population counts are unsigned: a negative value would wrap to
/// 2^64 - 1 and fail much later with an unrelated placement error.
std::size_t to_count(const std::string& key, const std::string& v) {
    const long long x = to_int(key, v);
    if (x < 0) {
        throw std::invalid_argument("scenario: " + key +
                                    " count must be non-negative: '" + v +
                                    "'");
    }
    return static_cast<std::size_t>(x);
}

std::uint64_t to_uint64(const std::string& key, const std::string& v) {
    unsigned long long x = 0;
    if (!strict_stoull(v, x)) {
        throw std::invalid_argument("scenario: bad unsigned integer for " +
                                    key + ": '" + v + "'");
    }
    return static_cast<std::uint64_t>(x);
}

/// Every floating-point value must be finite: std::stod accepts "nan" and
/// "inf", and a NaN passes every range check written as `x < lo`.
double to_double(const std::string& key, const std::string& v) {
    double x = 0.0;
    if (!strict_stod(v, x)) {
        throw std::invalid_argument("scenario: bad number for " + key +
                                    ": '" + v + "'");
    }
    if (!std::isfinite(x)) {
        throw std::invalid_argument("scenario: " + key +
                                    " must be finite: '" + v + "'");
    }
    return x;
}

/// Step counters (door events, the panic trigger) are unsigned: a negative
/// value would wrap to a step that never fires and serialize to a number
/// the round-trip parse rejects.
std::uint64_t to_step(const std::string& key, const std::string& v) {
    const long long x = to_int(key, v);
    if (x < 0) {
        throw std::invalid_argument("scenario: " + key +
                                    " step must be non-negative: '" + v +
                                    "'");
    }
    return static_cast<std::uint64_t>(x);
}

bool to_bool(const std::string& key, const std::string& v) {
    if (v == "true" || v == "1") return true;
    if (v == "false" || v == "0") return false;
    throw std::invalid_argument("scenario: bad bool for " + key + ": '" + v +
                                "'");
}

grid::Group to_group(const std::string& v) {
    if (v == "top") return grid::Group::kTop;
    if (v == "bottom") return grid::Group::kBottom;
    throw std::invalid_argument("scenario: bad group: '" + v + "'");
}

const char* group_name(grid::Group g) {
    return g == grid::Group::kTop ? "top" : "bottom";
}

std::string fmt_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

struct ParseState {
    bool saw_rows = false;
    bool saw_cols = false;
    /// Waypoint chains as authored (row, col) pairs: the flat cell ids
    /// need the FINAL grid dimensions, which a later map block may still
    /// define, so packing happens at the end of the parse.
    std::array<std::vector<std::pair<int, int>>, 2> waypoint_pairs;
};

void apply_key(scenario::Scenario& s, ParseState& st, const std::string& key,
               const std::string& value) {
    auto& sim = s.sim;
    if (key == "name") {
        s.name = value;
    } else if (key == "description") {
        s.description = value;
    } else if (key == "steps") {
        // The step budget is the scenario's, not the engine config's, so
        // core::validate never sees it: a budget below 1 runs nothing.
        s.default_steps = to_int32(key, value);
        if (s.default_steps < 1) {
            throw std::invalid_argument(
                "scenario: steps must be at least 1: '" + value + "'");
        }
    } else if (key == "rows") {
        sim.grid.rows = to_int32(key, value);
        st.saw_rows = true;
    } else if (key == "cols") {
        sim.grid.cols = to_int32(key, value);
        st.saw_cols = true;
    } else if (key == "model") {
        if (value == "lem") {
            sim.model = core::Model::kLem;
        } else if (value == "aco") {
            sim.model = core::Model::kAco;
        } else {
            throw std::invalid_argument("scenario: bad model: '" + value +
                                        "'");
        }
    } else if (key == "seed") {
        // Full 64-bit range: the serializer emits seeds verbatim, and the
        // property suite generates them above int64 max.
        sim.seed = to_uint64(key, value);
    } else if (key == "agents_per_side") {
        sim.agents_per_side = to_count(key, value);
    } else if (key == "band_rows") {
        sim.band_rows = to_int32(key, value);
    } else if (key == "max_band_fill") {
        sim.max_band_fill = to_double(key, value);
    } else if (key == "cross_margin") {
        sim.cross_margin = to_int32(key, value);
    } else if (key == "exit_on_cross") {
        sim.exit_on_cross = to_bool(key, value);
    } else if (key == "forward_priority") {
        sim.forward_priority = to_bool(key, value);
    } else if (key == "sigma") {
        sim.lem.sigma = to_double(key, value);
    } else if (key == "alpha") {
        sim.aco.alpha = to_double(key, value);
    } else if (key == "beta") {
        sim.aco.beta = to_double(key, value);
    } else if (key == "rho") {
        sim.aco.rho = to_double(key, value);
    } else if (key == "q") {
        sim.aco.q = to_double(key, value);
    } else if (key == "tau0") {
        sim.aco.tau0 = to_double(key, value);
    } else if (key == "tau_min") {
        sim.aco.tau_min = to_double(key, value);
    } else if (key == "scan_range") {
        sim.scan.range = to_int32(key, value);
    } else if (key == "congestion_weight") {
        sim.scan.congestion_weight = to_double(key, value);
    } else if (key == "slow_fraction") {
        sim.speed.slow_fraction = to_double(key, value);
    } else if (key == "slow_period") {
        sim.speed.slow_period = to_int32(key, value);
    } else if (key == "noshow") {
        const auto f = split_ws(value);
        if (f.size() != 3) {
            throw std::invalid_argument(
                "scenario: noshow wants 'group probability last_step'");
        }
        core::NoShowSpec n;
        n.group = static_cast<std::uint8_t>(to_group(f[0]));
        n.probability = to_double(key, f[1]);
        n.last_step = to_step(key, f[2]);
        sim.perturb.no_shows.push_back(n);
    } else if (key == "speed") {
        const auto f = split_ws(value);
        if (f.size() != 2) {
            throw std::invalid_argument(
                "scenario: speed wants 'group fraction'");
        }
        core::SpeedClassSpec c;
        c.group = static_cast<std::uint8_t>(to_group(f[0]));
        c.fraction = to_double(key, f[1]);
        sim.perturb.speeds.push_back(c);
    } else if (key == "dwell") {
        const auto f = split_ws(value);
        if (f.size() != 2) {
            throw std::invalid_argument("scenario: dwell wants 'group steps'");
        }
        core::DwellSpec d;
        d.group = static_cast<std::uint8_t>(to_group(f[0]));
        d.steps = to_step(key, f[1]);
        sim.perturb.dwells.push_back(d);
    } else if (key == "surge") {
        const auto f = split_ws(value);
        if (f.size() != 7) {
            throw std::invalid_argument(
                "scenario: surge wants 'step group count row0 col0 row1 "
                "col1'");
        }
        core::SurgeSpec g;
        g.step = to_step(key, f[0]);
        g.group = static_cast<std::uint8_t>(to_group(f[1]));
        const long long count = to_int(key, f[2]);
        if (count < 0 ||
            count > std::numeric_limits<std::uint32_t>::max()) {
            throw std::invalid_argument(
                "scenario: surge count out of range: '" + f[2] + "'");
        }
        g.count = static_cast<std::uint32_t>(count);
        g.row0 = to_int32(key, f[3]);
        g.col0 = to_int32(key, f[4]);
        g.row1 = to_int32(key, f[5]);
        g.col1 = to_int32(key, f[6]);
        sim.perturb.surges.push_back(g);
    } else if (key == "panic") {
        const auto f = split_ws(value);
        if (f.size() != 4) {
            throw std::invalid_argument(
                "scenario: panic wants 'trigger_step row col radius'");
        }
        sim.panic.enabled = true;
        sim.panic.trigger_step = to_step(key, f[0]);
        sim.panic.row = to_int32(key, f[1]);
        sim.panic.col = to_int32(key, f[2]);
        sim.panic.radius = to_double("panic radius", f[3]);
    } else if (key == "door") {
        const auto f = split_ws(value);
        if (f.size() != 6) {
            throw std::invalid_argument(
                "scenario: door wants 'step open|close row0 col0 row1 col1'");
        }
        core::DoorEvent e;
        e.step = to_step(key, f[0]);
        if (f[1] == "open") {
            e.action = core::DoorAction::kOpen;
        } else if (f[1] == "close") {
            e.action = core::DoorAction::kClose;
        } else {
            throw std::invalid_argument(
                "scenario: door action must be open|close, got '" + f[1] +
                "'");
        }
        e.row0 = to_int32(key, f[2]);
        e.col0 = to_int32(key, f[3]);
        e.row1 = to_int32(key, f[4]);
        e.col1 = to_int32(key, f[5]);
        sim.doors.push_back(e);
    } else if (key == "cycle") {
        const auto f = split_ws(value);
        if (f.size() != 8) {
            throw std::invalid_argument(
                "scenario: cycle wants 'start period duty repeats row0 col0 "
                "row1 col1'");
        }
        core::CycleEvent e;
        e.start = to_step(key, f[0]);
        e.period = to_step(key, f[1]);
        e.duty = to_step(key, f[2]);
        e.repeats = to_step(key, f[3]);
        e.row0 = to_int32(key, f[4]);
        e.col0 = to_int32(key, f[5]);
        e.row1 = to_int32(key, f[6]);
        e.col1 = to_int32(key, f[7]);
        sim.cycles.push_back(e);
    } else if (key == "mover") {
        const auto f = split_ws(value);
        if (f.size() != 9) {
            throw std::invalid_argument(
                "scenario: mover wants 'start interval count drow dcol row0 "
                "col0 row1 col1'");
        }
        core::MoverEvent e;
        e.start = to_step(key, f[0]);
        e.interval = to_step(key, f[1]);
        e.count = to_step(key, f[2]);
        e.drow = to_int32(key, f[3]);
        e.dcol = to_int32(key, f[4]);
        e.row0 = to_int32(key, f[5]);
        e.col0 = to_int32(key, f[6]);
        e.row1 = to_int32(key, f[7]);
        e.col1 = to_int32(key, f[8]);
        sim.movers.push_back(e);
    } else if (key == "anticipate") {
        sim.anticipate.horizon = to_int32(key, value);
    } else if (key == "waypoints") {
        // Ordered chain: group then (row, col) pairs. Order is semantic
        // (agents visit in list order); repeated lines append.
        const auto f = split_ws(value);
        if (f.size() < 3 || f.size() % 2 == 0) {
            throw std::invalid_argument(
                "scenario: waypoints wants 'group row col [row col ...]' "
                "with at least one cell");
        }
        const grid::Group g = to_group(f[0]);
        auto& chain = st.waypoint_pairs[g == grid::Group::kTop ? 0 : 1];
        for (std::size_t k = 1; k + 1 < f.size(); k += 2) {
            chain.emplace_back(to_int32(key, f[k]), to_int32(key, f[k + 1]));
        }
    } else if (key == "waypoint_radius") {
        sim.layout.waypoint_radius = to_int32(key, value);
    } else if (key == "spawn") {
        const auto f = split_ws(value);
        if (f.size() != 6) {
            throw std::invalid_argument(
                "scenario: spawn wants 'group row0 col0 row1 col1 count'");
        }
        grid::RegionSpawn r;
        r.group = to_group(f[0]);
        r.row0 = to_int32(key, f[1]);
        r.col0 = to_int32(key, f[2]);
        r.row1 = to_int32(key, f[3]);
        r.col1 = to_int32(key, f[4]);
        r.count = to_count(key, f[5]);
        sim.layout.spawns.push_back(r);
    } else {
        throw std::invalid_argument("scenario: unknown key '" + key + "'");
    }
}

void apply_map(scenario::Scenario& s, const ParseState& st,
               const std::vector<std::string>& rows) {
    auto& sim = s.sim;
    const int map_rows = static_cast<int>(rows.size());
    const int map_cols =
        map_rows > 0 ? static_cast<int>(rows.front().size()) : 0;
    if (map_rows == 0) throw std::invalid_argument("scenario: empty map");
    // Map dimensions define the grid; explicit rows=/cols= keys must agree.
    if ((st.saw_rows && sim.grid.rows != map_rows) ||
        (st.saw_cols && sim.grid.cols != map_cols)) {
        throw std::invalid_argument(
            "scenario: rows=/cols= disagree with the map dimensions");
    }
    sim.grid.rows = map_rows;
    sim.grid.cols = map_cols;
    for (int r = 0; r < map_rows; ++r) {
        if (static_cast<int>(rows[static_cast<std::size_t>(r)].size()) !=
            map_cols) {
            throw std::invalid_argument("scenario: ragged map row " +
                                        std::to_string(r));
        }
        for (int c = 0; c < map_cols; ++c) {
            const char ch = rows[static_cast<std::size_t>(r)]
                                [static_cast<std::size_t>(c)];
            const auto cell = static_cast<std::uint32_t>(
                static_cast<std::size_t>(r) * map_cols +
                static_cast<std::size_t>(c));
            switch (ch) {
                case '#': sim.layout.wall_cells.push_back(cell); break;
                case '.': break;
                case 't': sim.layout.goal_cells[0].push_back(cell); break;
                case 'b': sim.layout.goal_cells[1].push_back(cell); break;
                case '*':
                    sim.layout.goal_cells[0].push_back(cell);
                    sim.layout.goal_cells[1].push_back(cell);
                    break;
                default:
                    throw std::invalid_argument(
                        std::string("scenario: bad map char '") + ch + "'");
            }
        }
    }
}

}  // namespace

scenario::Scenario parse_scenario(const std::string& text) {
    scenario::Scenario s;
    ParseState st;
    std::istringstream is(text);
    std::string line;
    bool in_map = false;
    bool saw_map = false;
    std::vector<std::string> map_rows;
    while (std::getline(is, line)) {
        if (in_map) {
            // Map rows are taken verbatim ('#' is a wall here, not a
            // comment): only trailing whitespace / '\r' is stripped, and
            // indentation is rejected outright — a silently left-trimmed
            // row would shift its walls left. Blank lines end the block.
            std::string row = line;
            while (!row.empty() &&
                   (row.back() == '\r' || row.back() == ' ' ||
                    row.back() == '\t')) {
                row.pop_back();
            }
            if (row.empty()) {
                in_map = false;
                continue;
            }
            if (row.front() == ' ' || row.front() == '\t') {
                throw std::invalid_argument(
                    "scenario: map row " + std::to_string(map_rows.size()) +
                    " starts with whitespace (map rows must be flush-left)");
            }
            map_rows.push_back(std::move(row));
            continue;
        }
        const auto t = trim(line);
        if (t.empty() || t.front() == '#') continue;
        if (t == "map:") {
            if (saw_map) {
                throw std::invalid_argument(
                    "scenario: more than one map block");
            }
            in_map = true;
            saw_map = true;
            continue;
        }
        const auto eq = t.find('=');
        if (eq == std::string::npos) {
            throw std::invalid_argument("scenario: expected key = value: '" +
                                        t + "'");
        }
        apply_key(s, st, trim(t.substr(0, eq)), trim(t.substr(eq + 1)));
    }
    // A `map:` header with no rows is an authoring error, not a no-op —
    // apply_map raises the documented "scenario: empty map".
    if (saw_map) apply_map(s, st, map_rows);
    // Pack waypoint (row, col) pairs against the final grid.
    for (std::size_t g = 0; g < 2; ++g) {
        for (const auto& [r, c] : st.waypoint_pairs[g]) {
            if (r < 0 || c < 0 || r >= s.sim.grid.rows ||
                c >= s.sim.grid.cols) {
                throw std::invalid_argument(
                    "scenario: waypoint cell (" + std::to_string(r) + ", " +
                    std::to_string(c) + ") off the " +
                    std::to_string(s.sim.grid.rows) + "x" +
                    std::to_string(s.sim.grid.cols) + " grid");
            }
            s.sim.layout.waypoints[g].push_back(static_cast<std::uint32_t>(
                static_cast<std::size_t>(r) * s.sim.grid.cols +
                static_cast<std::size_t>(c)));
        }
    }
    scenario::canonicalize(s.sim.layout);
    // Every rule on the final config: a map block may define the grid
    // after the lines whose rects and cells it bounds.
    core::validate(s.sim);
    return s;
}

scenario::Scenario load_scenario_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read scenario file: " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse_scenario(buf.str());
}

namespace {

std::string to_text_canonical(const scenario::Scenario& s) {
    const auto& sim = s.sim;
    std::ostringstream os;
    os << "# pedsim scenario\n";
    os << "name = " << s.name << "\n";
    if (!s.description.empty()) os << "description = " << s.description
                                   << "\n";
    os << "rows = " << sim.grid.rows << "\n";
    os << "cols = " << sim.grid.cols << "\n";
    os << "model = " << (sim.model == core::Model::kLem ? "lem" : "aco")
       << "\n";
    os << "seed = " << sim.seed << "\n";
    os << "steps = " << s.default_steps << "\n";
    os << "agents_per_side = " << sim.agents_per_side << "\n";
    os << "band_rows = " << sim.band_rows << "\n";
    os << "max_band_fill = " << fmt_double(sim.max_band_fill) << "\n";
    os << "cross_margin = " << sim.cross_margin << "\n";
    os << "exit_on_cross = " << (sim.exit_on_cross ? "true" : "false")
       << "\n";
    os << "forward_priority = " << (sim.forward_priority ? "true" : "false")
       << "\n";
    os << "sigma = " << fmt_double(sim.lem.sigma) << "\n";
    os << "alpha = " << fmt_double(sim.aco.alpha) << "\n";
    os << "beta = " << fmt_double(sim.aco.beta) << "\n";
    os << "rho = " << fmt_double(sim.aco.rho) << "\n";
    os << "q = " << fmt_double(sim.aco.q) << "\n";
    os << "tau0 = " << fmt_double(sim.aco.tau0) << "\n";
    os << "tau_min = " << fmt_double(sim.aco.tau_min) << "\n";
    os << "scan_range = " << sim.scan.range << "\n";
    os << "congestion_weight = " << fmt_double(sim.scan.congestion_weight)
       << "\n";
    os << "slow_fraction = " << fmt_double(sim.speed.slow_fraction) << "\n";
    os << "slow_period = " << sim.speed.slow_period << "\n";
    // Perturbation lines only when present, so perturbation-free files
    // stay byte-identical to the pre-fault-injection serializer.
    for (const auto& n : sim.perturb.no_shows) {
        os << "noshow = " << group_name(static_cast<grid::Group>(n.group))
           << " " << fmt_double(n.probability) << " " << n.last_step << "\n";
    }
    for (const auto& c : sim.perturb.speeds) {
        os << "speed = " << group_name(static_cast<grid::Group>(c.group))
           << " " << fmt_double(c.fraction) << "\n";
    }
    for (const auto& d : sim.perturb.dwells) {
        os << "dwell = " << group_name(static_cast<grid::Group>(d.group))
           << " " << d.steps << "\n";
    }
    for (const auto& g : sim.perturb.surges) {
        os << "surge = " << g.step << " "
           << group_name(static_cast<grid::Group>(g.group)) << " " << g.count
           << " " << g.row0 << " " << g.col0 << " " << g.row1 << " " << g.col1
           << "\n";
    }
    if (sim.panic.enabled) {
        os << "panic = " << sim.panic.trigger_step << " " << sim.panic.row
           << " " << sim.panic.col << " " << fmt_double(sim.panic.radius)
           << "\n";
    }
    for (const auto& r : sim.layout.spawns) {
        os << "spawn = " << group_name(r.group) << " " << r.row0 << " "
           << r.col0 << " " << r.row1 << " " << r.col1 << " " << r.count
           << "\n";
    }
    // Waypoint chains serialize in visit order (they are ordered data,
    // never canonicalized); the radius only when it differs from the
    // default, so waypoint-free files are byte-identical to before.
    if (sim.layout.waypoint_radius != core::ScenarioLayout{}.waypoint_radius) {
        os << "waypoint_radius = " << sim.layout.waypoint_radius << "\n";
    }
    for (std::size_t g = 0; g < 2; ++g) {
        const auto& chain = sim.layout.waypoints[g];
        if (chain.empty()) continue;
        os << "waypoints = " << (g == 0 ? "top" : "bottom");
        for (const auto cell : chain) {
            os << " " << static_cast<int>(cell) / sim.grid.cols << " "
               << static_cast<int>(cell) % sim.grid.cols;
        }
        os << "\n";
    }
    if (sim.anticipate.horizon > 0) {
        os << "anticipate = " << sim.anticipate.horizon << "\n";
    }
    // Dynamic-geometry events round-trip in stored order (firing order is
    // resolved by expansion plus a stable sort at simulation setup, so
    // order here is author intent).
    for (const auto& e : sim.doors) {
        os << "door = " << e.step << " "
           << (e.action == core::DoorAction::kClose ? "close" : "open") << " "
           << e.row0 << " " << e.col0 << " " << e.row1 << " " << e.col1
           << "\n";
    }
    for (const auto& e : sim.cycles) {
        os << "cycle = " << e.start << " " << e.period << " " << e.duty
           << " " << e.repeats << " " << e.row0 << " " << e.col0 << " "
           << e.row1 << " " << e.col1 << "\n";
    }
    for (const auto& e : sim.movers) {
        os << "mover = " << e.start << " " << e.interval << " " << e.count
           << " " << e.drow << " " << e.dcol << " " << e.row0 << " "
           << e.col0 << " " << e.row1 << " " << e.col1 << "\n";
    }
    if (!sim.layout.wall_cells.empty() ||
        !sim.layout.goal_cells[0].empty() ||
        !sim.layout.goal_cells[1].empty()) {
        os << "map:\n";
        std::string row(static_cast<std::size_t>(sim.grid.cols), '.');
        std::size_t wi = 0, g0 = 0, g1 = 0;
        const auto& walls = sim.layout.wall_cells;
        const auto& top = sim.layout.goal_cells[0];
        const auto& bottom = sim.layout.goal_cells[1];
        // A plain writer does not validate, but a cell the map cannot
        // show is refused rather than dropped: a goal on a wall here, a
        // cell past the last row below.
        const auto goal = [&row, &sim](std::uint32_t cell, std::size_t at,
                                       char mark) {
            if (row[at] == '#') {
                throw std::invalid_argument(
                    "scenario_to_text: goal cell (" +
                    std::to_string(cell / sim.grid.cols) + ", " +
                    std::to_string(cell % sim.grid.cols) + ") is a wall");
            }
            row[at] = row[at] == '.' ? mark : '*';
        };
        for (int r = 0; r < sim.grid.rows; ++r) {
            row.assign(static_cast<std::size_t>(sim.grid.cols), '.');
            const auto row_base = static_cast<std::uint32_t>(
                static_cast<std::size_t>(r) * sim.grid.cols);
            const auto row_end =
                row_base + static_cast<std::uint32_t>(sim.grid.cols);
            // Cell lists are canonical (sorted row-major): walk each once.
            for (; wi < walls.size() && walls[wi] < row_end; ++wi) {
                row[walls[wi] - row_base] = '#';
            }
            for (; g0 < top.size() && top[g0] < row_end; ++g0) {
                goal(top[g0], top[g0] - row_base, 't');
            }
            for (; g1 < bottom.size() && bottom[g1] < row_end; ++g1) {
                goal(bottom[g1], bottom[g1] - row_base, 'b');
            }
            os << row << "\n";
        }
        if (wi < walls.size() || g0 < top.size() || g1 < bottom.size()) {
            throw std::invalid_argument(
                "scenario_to_text: map cell off the " +
                std::to_string(sim.grid.rows) + "x" +
                std::to_string(sim.grid.cols) + " grid");
        }
    }
    return os.str();
}

}  // namespace

std::string scenario_to_text(const scenario::Scenario& s) {
    // The map emitter walks each cell list in one monotonic pass, which is
    // only correct (and in-bounds) for sorted row-major lists: canonicalize
    // a copy so hand-built scenarios serialize safely too.
    scenario::Scenario canon = s;
    scenario::canonicalize(canon.sim.layout);
    return to_text_canonical(canon);
}

}  // namespace pedsim::io
