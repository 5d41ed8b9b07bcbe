// Tests for the I/O helpers: CSV writing, table formatting, ASCII
// rendering and the CLI argument parser.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "grid/environment.hpp"
#include "io/args.hpp"
#include "io/ascii_render.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"

namespace pedsim::io {
namespace {

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// --- CSV ---------------------------------------------------------------------

TEST(Csv, WritesHeaderAndRows) {
    const std::string path = ::testing::TempDir() + "pedsim_csv_test.csv";
    {
        CsvWriter csv(path);
        csv.header({"a", "b", "c"});
        csv.row(1, 2.5, "x");
        csv.row("y", 0, -3);
    }
    EXPECT_EQ(slurp(path), "a,b,c\n1,2.5,x\ny,0,-3\n");
    std::remove(path.c_str());
}

TEST(Csv, QuotesFieldsHoldingSeparatorsQuotesAndLineBreaks) {
    // RFC 4180: a device name like "GeForce GTX 560 Ti (Fermi, CC 2.0)" or
    // a scenario named `corridor,small "v2"` must stay one field.
    const std::string path = ::testing::TempDir() + "pedsim_csv_quote.csv";
    {
        CsvWriter csv(path);
        csv.header({"name", "a,b"});
        csv.row("GeForce GTX 560 Ti (Fermi, CC 2.0)", 1.5);
        csv.row("corridor,small \"v2\"", "two\nlines", "cr\r", 7);
    }
    EXPECT_EQ(slurp(path),
              "name,\"a,b\"\n"
              "\"GeForce GTX 560 Ti (Fermi, CC 2.0)\",1.5\n"
              "\"corridor,small \"\"v2\"\"\",\"two\nlines\","
              "\"cr\r\",7\n");
    std::remove(path.c_str());
}

TEST(Csv, ThrowsOnUnwritablePath) {
    EXPECT_THROW(CsvWriter("/nonexistent_dir_zz/x.csv"), std::runtime_error);
}

// --- TablePrinter ---------------------------------------------------------------

TEST(Table, AlignsColumns) {
    TablePrinter t({"name", "value"});
    t.add_row({"x", "1"});
    t.add_row({"longer", "22"});
    const auto s = t.str();
    EXPECT_NE(s.find("name    value"), std::string::npos);
    EXPECT_NE(s.find("longer  22"), std::string::npos);
    EXPECT_NE(s.find("-----"), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
    TablePrinter t({"a", "b", "c"});
    t.add_row({"1"});
    EXPECT_NO_THROW(t.str());
}

TEST(Table, NumberFormatting) {
    EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
    EXPECT_EQ(TablePrinter::integer(1234567), "1234567");
}

// --- ASCII render ------------------------------------------------------------------

TEST(Render, SmallGridOneCharPerCell) {
    grid::Environment env(grid::GridConfig{16, 16});
    env.place(0, 0, grid::Group::kTop, 1);
    env.place(15, 15, grid::Group::kBottom, 2);
    RenderOptions opts;
    opts.max_rows = 16;
    opts.max_cols = 16;
    const auto s = render(env, opts);
    // 16 content rows + 2 border rows.
    EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 18);
    EXPECT_NE(s.find('V'), std::string::npos);
    EXPECT_NE(s.find('A'), std::string::npos);
}

TEST(Render, DownsamplesLargeGrids) {
    grid::Environment env(grid::GridConfig{480, 480});
    RenderOptions opts;
    opts.max_rows = 48;
    opts.max_cols = 96;
    const auto s = render(env, opts);
    EXPECT_LE(std::count(s.begin(), s.end(), '\n'), 50);
}

TEST(Render, MixedBlockShowsColon) {
    grid::Environment env(grid::GridConfig{32, 32});
    env.place(0, 0, grid::Group::kTop, 1);
    env.place(0, 1, grid::Group::kBottom, 2);
    RenderOptions opts;
    opts.max_rows = 16;  // 2x2 blocks
    opts.max_cols = 16;
    const auto s = render(env, opts);
    EXPECT_NE(s.find(':'), std::string::npos);
}

TEST(Render, NoBorderOption) {
    grid::Environment env(grid::GridConfig{16, 16});
    RenderOptions opts;
    opts.border = false;
    opts.max_rows = 16;
    opts.max_cols = 16;
    const auto s = render(env, opts);
    EXPECT_EQ(s.find('+'), std::string::npos);
}

// --- ArgParser ------------------------------------------------------------------------

TEST(Args, ParsesKeyValueAndFlags) {
    const char* argv[] = {"prog", "--agents=100", "--verbose", "file.txt",
                          "--rho=0.25"};
    ArgParser args(5, argv);
    EXPECT_EQ(args.program(), "prog");
    EXPECT_TRUE(args.has("agents"));
    EXPECT_EQ(args.get_int("agents", 0), 100);
    EXPECT_TRUE(args.get_bool("verbose", false));
    EXPECT_DOUBLE_EQ(args.get_double("rho", 0.0), 0.25);
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "file.txt");
}

TEST(Args, DefaultsWhenMissing) {
    const char* argv[] = {"prog"};
    ArgParser args(1, argv);
    EXPECT_FALSE(args.has("x"));
    EXPECT_EQ(args.get("x", "fallback"), "fallback");
    EXPECT_EQ(args.get_int("x", 7), 7);
    EXPECT_DOUBLE_EQ(args.get_double("x", 1.5), 1.5);
    EXPECT_TRUE(args.get_bool("x", true));
}

TEST(Args, RejectsTrailingGarbageInNumericFlags) {
    // "--steps=100abc" used to silently parse as 100 via raw std::stoll.
    const char* argv[] = {"prog", "--steps=100abc", "--rho=0.5x",
                          "--threads=2q"};
    ArgParser args(4, argv);
    EXPECT_THROW(static_cast<void>(args.get_int("steps", 0)),
                 std::invalid_argument);
    EXPECT_THROW(static_cast<void>(args.get_double("rho", 0.0)),
                 std::invalid_argument);
    EXPECT_THROW(static_cast<void>(args.get_threads()), std::invalid_argument);
}

TEST(Args, RejectsNonNumericValuesNamingTheFlag) {
    const char* argv[] = {"prog", "--steps=abc", "--rho=high"};
    ArgParser args(3, argv);
    try {
        static_cast<void>(args.get_int("steps", 0));
        FAIL() << "--steps=abc accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("--steps"), std::string::npos)
            << e.what();
    }
    try {
        static_cast<void>(args.get_double("rho", 0.0));
        FAIL() << "--rho=high accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("--rho"), std::string::npos)
            << e.what();
    }
}

TEST(Args, StrictParseStillAcceptsFullNumbers) {
    const char* argv[] = {"prog", "--steps=-7", "--rho=2.5e-1"};
    ArgParser args(3, argv);
    EXPECT_EQ(args.get_int("steps", 0), -7);
    EXPECT_DOUBLE_EQ(args.get_double("rho", 0.0), 0.25);
}

TEST(Args, BoolParsing) {
    const char* argv[] = {"prog", "--a=true", "--b=false", "--c=1", "--d=no",
                          "--e=yes", "--f=0", "--bare"};
    ArgParser args(8, argv);
    EXPECT_TRUE(args.get_bool("a", false));
    EXPECT_FALSE(args.get_bool("b", true));
    EXPECT_TRUE(args.get_bool("c", false));
    EXPECT_FALSE(args.get_bool("d", true));
    EXPECT_TRUE(args.get_bool("e", false));
    EXPECT_FALSE(args.get_bool("f", true));
    EXPECT_TRUE(args.get_bool("bare", false));  // bare flag form
}

TEST(Args, BoolRejectsUnrecognizedTokensNamingTheFlag) {
    // "--metrics=TRUE" and a typo like "--trace=o" used to silently read
    // as false — the opposite of what the user spelled out.
    const char* argv[] = {"prog", "--metrics=TRUE", "--trace=o", "--x=on"};
    ArgParser args(4, argv);
    try {
        static_cast<void>(args.get_bool("metrics", false));
        FAIL() << "--metrics=TRUE accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("--metrics"), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("TRUE"), std::string::npos)
            << e.what();
    }
    EXPECT_THROW(static_cast<void>(args.get_bool("trace", true)),
                 std::invalid_argument);
    EXPECT_THROW(static_cast<void>(args.get_bool("x", false)),
                 std::invalid_argument);
}

TEST(Args, ThreadsRejectsOutOfRangeAndNegative) {
    {
        // 2^32 + 1 used to static_cast-wrap to 1 and run "successfully"
        // with the wrong parallelism.
        const char* argv[] = {"prog", "--threads=4294967297"};
        ArgParser args(2, argv);
        try {
            static_cast<void>(args.get_threads());
            FAIL() << "--threads=4294967297 accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("--threads"),
                      std::string::npos)
                << e.what();
        }
    }
    {
        const char* argv[] = {"prog", "--threads=-2"};
        ArgParser args(2, argv);
        EXPECT_THROW(static_cast<void>(args.get_threads()),
                     std::invalid_argument);
    }
    {
        const char* argv[] = {"prog", "--threads=4"};
        ArgParser args(2, argv);
        EXPECT_EQ(args.get_threads(), 4);
    }
}

TEST(Args, GetInt32RangeChecks) {
    const char* argv[] = {"prog", "--steps=8589934592", "--repeats=3",
                          "--bands=-1"};
    ArgParser args(4, argv);
    // 2^33 is a valid long long but not an int: naming the flag beats
    // wrapping to 0.
    EXPECT_THROW(static_cast<void>(args.get_int32("steps", 0)),
                 std::invalid_argument);
    EXPECT_EQ(args.get_int32("repeats", 1), 3);
    EXPECT_EQ(args.get_int32("bands", 0), -1);  // full int range by default
    EXPECT_THROW(static_cast<void>(args.get_int32("bands", 0, 0)),
                 std::invalid_argument);
    EXPECT_EQ(args.get_int32("missing", 42), 42);
}

}  // namespace
}  // namespace pedsim::io
