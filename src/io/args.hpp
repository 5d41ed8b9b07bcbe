// Tiny CLI argument parser shared by examples and bench harnesses.
// Supports --key=value and --flag forms; anything else is positional.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace pedsim::io {

class ArgParser {
  public:
    ArgParser(int argc, const char* const* argv);

    [[nodiscard]] bool has(const std::string& key) const;
    [[nodiscard]] std::string get(const std::string& key,
                                  const std::string& def = "") const;
    /// Numeric getters use a strict full-consumption parse: a value with
    /// trailing garbage ("100abc") or no digits at all throws
    /// std::invalid_argument naming the flag, never a silent truncation.
    [[nodiscard]] long long get_int(const std::string& key,
                                    long long def) const;
    /// get_int range-checked into int: a value outside [lo, hi] throws
    /// std::invalid_argument naming the flag and the accepted range.
    /// This is the getter every call site that stores into an int must
    /// use — `static_cast<int>(get_int(...))` silently wraps
    /// (--threads=4294967297 used to become 1).
    [[nodiscard]] int get_int32(const std::string& key, int def,
                                int lo = std::numeric_limits<int>::min(),
                                int hi = std::numeric_limits<int>::max()) const;
    [[nodiscard]] double get_double(const std::string& key, double def) const;
    /// Strict boolean: accepts exactly true/false/1/0/yes/no. Anything
    /// else ("TRUE", "o", "on") throws naming the flag — it used to be
    /// silently read as false.
    [[nodiscard]] bool get_bool(const std::string& key, bool def) const;
    /// The shared `--threads=N` convention: N from the command line, or
    /// std::thread::hardware_concurrency() when absent (0 also maps to
    /// hardware concurrency, matching exec::ExecPolicy). Negative or
    /// int-overflowing values throw naming the flag.
    [[nodiscard]] int get_threads() const;
    /// The shared `--steps=N` convention: a step count of at least 1.
    [[nodiscard]] int get_steps(int def) const;
    /// The shared `--grid=N` convention: a square grid edge that is a
    /// positive multiple of grid::GridConfig::kTileEdge. Anything else
    /// throws naming the flag, before an engine rejects the geometry.
    [[nodiscard]] int get_grid(int def) const;

    [[nodiscard]] const std::vector<std::string>& positional() const {
        return positional_;
    }
    [[nodiscard]] const std::string& program() const { return program_; }

  private:
    std::string program_;
    std::map<std::string, std::string> options_;
    std::vector<std::string> positional_;
};

}  // namespace pedsim::io
