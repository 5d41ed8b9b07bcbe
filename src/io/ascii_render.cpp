#include "io/ascii_render.hpp"

#include <algorithm>
#include <sstream>

namespace pedsim::io {

std::string render(const grid::Environment& env, std::optional<Mark> mark) {
    const int block_r = std::max(1, (env.rows() + kFrameRows - 1) / kFrameRows);
    const int block_c = std::max(1, (env.cols() + kFrameCols - 1) / kFrameCols);
    const int out_rows = (env.rows() + block_r - 1) / block_r;
    const int out_cols = (env.cols() + block_c - 1) / block_c;
    if (mark && !env.in_bounds(mark->row, mark->col)) mark.reset();

    std::ostringstream os;
    os << '+' << std::string(out_cols, '-') << "+\n";
    for (int br = 0; br < out_rows; ++br) {
        os << '|';
        for (int bc = 0; bc < out_cols; ++bc) {
            if (mark && mark->row / block_r == br &&
                mark->col / block_c == bc) {
                os << 'X';
                continue;
            }
            int top = 0, bottom = 0, walls = 0, cells = 0;
            for (int r = br * block_r;
                 r < std::min((br + 1) * block_r, env.rows()); ++r) {
                for (int c = bc * block_c;
                     c < std::min((bc + 1) * block_c, env.cols()); ++c) {
                    ++cells;
                    if (env.is_wall(r, c)) {
                        ++walls;
                        continue;
                    }
                    const auto g = env.occupancy(r, c);
                    top += (g == grid::Group::kTop);
                    bottom += (g == grid::Group::kBottom);
                }
            }
            char ch = ' ';
            if (top > 0 && bottom > 0) {
                ch = ':';
            } else if (top > 0) {
                ch = top * 2 >= cells ? 'V' : 'v';
            } else if (bottom > 0) {
                ch = bottom * 2 >= cells ? 'A' : '^';
            } else if (walls > 0) {
                ch = '#';
            }
            os << ch;
        }
        os << "|\n";
    }
    os << '+' << std::string(out_cols, '-') << "+\n";
    return os.str();
}

}  // namespace pedsim::io
