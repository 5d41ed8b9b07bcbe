#include "io/csv.hpp"

#include <stdexcept>

namespace pedsim::io {

std::string csv_field(const std::string& text) {
    if (text.find_first_of(",\"\r\n") == std::string::npos) return text;
    std::string out = "\"";
    for (const char ch : text) {
        if (ch == '"') out += '"';
        out += ch;
    }
    out += '"';
    return out;
}

CsvWriter::CsvWriter(const std::string& path) : path_(path), out_(path) {
    if (!out_) {
        throw std::runtime_error("CsvWriter: cannot open " + path);
    }
}

void CsvWriter::header(const std::vector<std::string>& names) {
    bool first = true;
    for (const auto& n : names) {
        if (!first) out_ << ',';
        first = false;
        out_ << csv_field(n);
    }
    out_ << '\n';
}

}  // namespace pedsim::io
