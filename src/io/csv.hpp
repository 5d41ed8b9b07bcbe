// CSV output (the paper records data "into text files and MATLAB is used
// for plotting"; benches emit the same series as CSV next to the printed
// tables).
#pragma once

#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

namespace pedsim::io {

/// RFC 4180 field: text holding a comma, a quote, CR or LF is wrapped in
/// quotes with each inner quote doubled; any other text is returned as is.
std::string csv_field(const std::string& text);

class CsvWriter {
  public:
    /// Opens (truncates) `path`; throws std::runtime_error on failure.
    explicit CsvWriter(const std::string& path);

    void header(const std::vector<std::string>& names);

    template <typename... Ts>
    void row(const Ts&... values) {
        std::ostringstream line;
        bool first = true;
        ((append_field(line, values, first)), ...);
        out_ << line.str() << '\n';
    }

    [[nodiscard]] const std::string& path() const { return path_; }

  private:
    template <typename T>
    void append_field(std::ostringstream& line, const T& v, bool& first) {
        if (!first) line << ',';
        first = false;
        std::ostringstream field;
        field << v;
        line << csv_field(field.str());
    }

    std::string path_;
    std::ofstream out_;
};

}  // namespace pedsim::io
