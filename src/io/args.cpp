#include "io/args.hpp"

#include <stdexcept>

#include "exec/exec_policy.hpp"
#include "grid/environment.hpp"
#include "io/strict_parse.hpp"

namespace pedsim::io {

namespace {

[[noreturn]] void bad_value(const std::string& key, const char* kind,
                            const std::string& v) {
    throw std::invalid_argument("--" + key + ": expected " + kind +
                                ", got '" + v + "'");
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv) {
    if (argc > 0) program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--", 0) == 0) {
            const auto eq = a.find('=');
            if (eq == std::string::npos) {
                options_[a.substr(2)] = "true";
            } else {
                options_[a.substr(2, eq - 2)] = a.substr(eq + 1);
            }
        } else {
            positional_.push_back(a);
        }
    }
}

bool ArgParser::has(const std::string& key) const {
    return options_.count(key) != 0;
}

std::string ArgParser::get(const std::string& key,
                           const std::string& def) const {
    const auto it = options_.find(key);
    return it == options_.end() ? def : it->second;
}

long long ArgParser::get_int(const std::string& key, long long def) const {
    const auto it = options_.find(key);
    if (it == options_.end()) return def;
    // Strict full-consumption parse: "--steps=100abc" must not silently
    // truncate to 100, and "--steps=abc" must name the flag, not throw a
    // bare std::invalid_argument from std::stoll.
    long long x = 0;
    if (!strict_stoll(it->second, x)) {
        bad_value(key, "an integer", it->second);
    }
    return x;
}

double ArgParser::get_double(const std::string& key, double def) const {
    const auto it = options_.find(key);
    if (it == options_.end()) return def;
    double x = 0.0;
    if (!strict_stod(it->second, x)) bad_value(key, "a number", it->second);
    return x;
}

int ArgParser::get_int32(const std::string& key, int def, int lo,
                         int hi) const {
    const long long x = get_int(key, def);
    if (x < lo || x > hi) {
        throw std::invalid_argument(
            "--" + key + ": value " + std::to_string(x) +
            " out of range [" + std::to_string(lo) + ", " +
            std::to_string(hi) + "]");
    }
    return static_cast<int>(x);
}

int ArgParser::get_threads() const {
    // Range-checked: --threads=4294967297 used to static_cast-wrap to 1
    // and run "successfully" with the wrong parallelism. Negative counts
    // are equally meaningless; 0 = hardware concurrency stands.
    const exec::ExecPolicy policy{
        get_int32("threads", 0, 0, std::numeric_limits<int>::max())};
    return policy.effective_threads();
}

int ArgParser::get_steps(int def) const {
    return get_int32("steps", def, 1);
}

int ArgParser::get_grid(int def) const {
    constexpr int kTile = grid::GridConfig::kTileEdge;
    const int edge = get_int32("grid", def, kTile);
    if (edge % kTile != 0) {
        throw std::invalid_argument("--grid: " + std::to_string(edge) +
                                    " is not a multiple of the " +
                                    std::to_string(kTile) + "-cell tile edge");
    }
    return edge;
}

bool ArgParser::get_bool(const std::string& key, bool def) const {
    const auto it = options_.find(key);
    if (it == options_.end()) return def;
    const std::string& v = it->second;
    // Strict token set: "--metrics=TRUE" or a typo like "--trace=o" used
    // to silently read as false — the one outcome the user certainly did
    // not ask for by spelling the flag out.
    if (v == "true" || v == "1" || v == "yes") return true;
    if (v == "false" || v == "0" || v == "no") return false;
    bad_value(key, "a boolean (true/false/1/0/yes/no)", v);
}

}  // namespace pedsim::io
