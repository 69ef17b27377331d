// Unit tests for CSV writing, table rendering, CLI parsing and env knobs
// (including the strict parse of the obs switches).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/audit.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

namespace {

using namespace wlan::util;

TEST(Csv, EscapePlainCellUnchanged) {
  EXPECT_EQ(CsvWriter::escape("hello"), "hello");
}

TEST(Csv, EscapeQuotesCommas) {
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesFile) {
  const std::string path = ::testing::TempDir() + "wlan_csv_test.csv";
  {
    CsvWriter w(path);
    w.header({"x", "y"});
    w.row({"1", "2"});
    w.row_numeric({3.5, 4.25});
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "x,y\n1,2\n3.5,4.25\n");
  std::remove(path.c_str());
}

TEST(Csv, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv"),
               std::runtime_error);
}

TEST(Csv, ThrowsNamingTheFileWhenAWriteFails) {
  // /dev/full opens and buffers output, then fails every write with ENOSPC.
  if (!std::ifstream("/dev/full")) GTEST_SKIP() << "no /dev/full here";
  CsvWriter w("/dev/full");
  try {
    w.header({"x", "y"});
    ADD_FAILURE() << "a header written to /dev/full did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
        << e.what();
  }
}

TEST(FormatDouble, TrimsAndRounds) {
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(3.14159, 3), "3.14");
  EXPECT_EQ(format_double(0.000123, 2), "0.00012");
}

TEST(FormatDouble, SpecialValues) {
  EXPECT_EQ(format_double(std::nan("")), "nan");
  EXPECT_EQ(format_double(INFINITY), "inf");
  EXPECT_EQ(format_double(-INFINITY), "-inf");
}

TEST(Table, AlignsColumns) {
  Table t({"a", "long_header"});
  t.add_row({"xx", "1"});
  const std::string out = t.to_string();
  // Header line, separator, one row.
  EXPECT_NE(out.find("a   long_header"), std::string::npos);
  EXPECT_NE(out.find("xx  1"), std::string::npos);
}

TEST(Table, NumericRowHelper) {
  Table t({"label", "v1", "v2"});
  t.add_row("row", {1.23456, 7.0}, 3);
  EXPECT_NE(t.to_string().find("1.23"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.num_cols(), 3u);
}

TEST(Table, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NO_THROW(t.to_string());
}

TEST(Cli, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--nodes=20", "--rate=54.0"};
  Cli cli(3, argv);
  EXPECT_EQ(cli.get_int("nodes", 0), 20);
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 54.0);
}

TEST(Cli, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--nodes", "30", "--name", "abc"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("nodes", 0), 30);
  EXPECT_EQ(cli.get_string("name", ""), "abc");
}

TEST(Cli, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get_int("nodes", 42), 42);
  EXPECT_FALSE(cli.has("nodes"));
}

TEST(Cli, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--verbose"};
  Cli cli(2, argv);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_TRUE(cli.get_bool("verbose", false));
}

TEST(Cli, BooleanValues) {
  const char* argv[] = {"prog", "--a=false", "--b=yes", "--c=0"};
  Cli cli(4, argv);
  EXPECT_FALSE(cli.get_bool("a", true));
  EXPECT_TRUE(cli.get_bool("b", false));
  EXPECT_FALSE(cli.get_bool("c", true));
}

TEST(Cli, PositionalArguments) {
  const char* argv[] = {"prog", "pos1", "--flag=1", "pos2"};
  Cli cli(4, argv);
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "pos1");
  EXPECT_EQ(cli.positional()[1], "pos2");
}

TEST(Cli, ThrowsOnMalformedNumbers) {
  const char* argv[] = {"prog", "--nodes=abc"};
  Cli cli(2, argv);
  EXPECT_THROW(cli.get_int("nodes", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("nodes", 0), std::invalid_argument);
}

TEST(Env, ReadsValues) {
  ::setenv("WLAN_TEST_ENV_D", "2.5", 1);
  ::setenv("WLAN_TEST_ENV_I", "7", 1);
  ::setenv("WLAN_TEST_ENV_B", "true", 1);
  EXPECT_DOUBLE_EQ(env_double("WLAN_TEST_ENV_D", 0.0), 2.5);
  EXPECT_EQ(env_int("WLAN_TEST_ENV_I", 0), 7);
  EXPECT_TRUE(env_bool("WLAN_TEST_ENV_B", false));
  ::unsetenv("WLAN_TEST_ENV_D");
  ::unsetenv("WLAN_TEST_ENV_I");
  ::unsetenv("WLAN_TEST_ENV_B");
}

TEST(Env, FallsBackWhenUnsetOrEmpty) {
  ::unsetenv("WLAN_TEST_ENV_X");
  EXPECT_DOUBLE_EQ(env_double("WLAN_TEST_ENV_X", 1.5), 1.5);
  EXPECT_EQ(env_int("WLAN_TEST_ENV_X", 9), 9);
  EXPECT_FALSE(env_bool("WLAN_TEST_ENV_X", false));
  ::setenv("WLAN_TEST_ENV_X", "", 1);
  EXPECT_DOUBLE_EQ(env_double("WLAN_TEST_ENV_X", 1.5), 1.5);
  EXPECT_EQ(env_int("WLAN_TEST_ENV_X", 9), 9);
  EXPECT_FALSE(env_bool("WLAN_TEST_ENV_X", false));
  EXPECT_TRUE(env_bool("WLAN_TEST_ENV_X", true));
  ::unsetenv("WLAN_TEST_ENV_X");
}

TEST(Env, ParsersAcceptCompleteLiteralsOnly) {
  EXPECT_EQ(parse_int("42").value(), 42);
  EXPECT_EQ(parse_int("-7").value(), -7);
  EXPECT_FALSE(parse_int("abc").has_value());
  EXPECT_FALSE(parse_int("7seeds").has_value());
  EXPECT_FALSE(parse_int("4.5").has_value());
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("999999999999999999999999").has_value());

  EXPECT_DOUBLE_EQ(parse_double("2.5").value(), 2.5);
  EXPECT_DOUBLE_EQ(parse_double("1e3").value(), 1000.0);
  EXPECT_FALSE(parse_double("1.5x").has_value());
  EXPECT_FALSE(parse_double("not_a_number").has_value());
  EXPECT_FALSE(parse_double("").has_value());

  EXPECT_TRUE(parse_bool("1").value());
  EXPECT_TRUE(parse_bool("true").value());
  EXPECT_TRUE(parse_bool("yes").value());
  EXPECT_TRUE(parse_bool("on").value());
  EXPECT_FALSE(parse_bool("0").value());
  EXPECT_FALSE(parse_bool("false").value());
  EXPECT_FALSE(parse_bool("no").value());
  EXPECT_FALSE(parse_bool("off").value());
  EXPECT_FALSE(parse_bool("maybe").has_value());
}

// Malformed set values are rejected loudly: exit(2) with a one-line
// error, never a silent fallback (a typo'd WLAN_THREADS=abc must not be
// indistinguishable from the default run it would silently become).
TEST(EnvDeathTest, MalformedIntExitsWithError) {
  ::setenv("WLAN_TEST_ENV_BAD", "not_a_number", 1);
  EXPECT_EXIT(env_int("WLAN_TEST_ENV_BAD", 9), ::testing::ExitedWithCode(2),
              "WLAN_TEST_ENV_BAD");
  ::unsetenv("WLAN_TEST_ENV_BAD");
}

TEST(EnvDeathTest, MalformedDoubleExitsWithError) {
  ::setenv("WLAN_TEST_ENV_BAD", "1.5x", 1);
  EXPECT_EXIT(env_double("WLAN_TEST_ENV_BAD", 1.0),
              ::testing::ExitedWithCode(2), "WLAN_TEST_ENV_BAD");
  ::unsetenv("WLAN_TEST_ENV_BAD");
}

TEST(EnvDeathTest, MalformedBoolExitsWithError) {
  ::setenv("WLAN_TEST_ENV_BAD", "maybe", 1);
  EXPECT_EXIT(env_bool("WLAN_TEST_ENV_BAD", false),
              ::testing::ExitedWithCode(2), "WLAN_TEST_ENV_BAD");
  ::unsetenv("WLAN_TEST_ENV_BAD");
}

// A knob first read on a worker lane (a sweep's first Simulator reads the
// obs knobs there) must still end the process: the exit may not wait for
// the global pool's destructor to join the lane that is exiting.
TEST(EnvDeathTest, MalformedKnobOnAPoolLaneExitsWithError) {
  // Re-exec rather than fork, so the child builds its pool from scratch.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ::setenv("WLAN_TEST_ENV_BAD", "maybe", 1);
  EXPECT_EXIT(
      {
        wlan::par::ThreadPool::configure_global(2);
        // Index 1 is lane 1's block: a worker thread, not the caller.
        wlan::par::ThreadPool::global().parallel_for(2, [](std::size_t i) {
          if (i == 1) env_bool("WLAN_TEST_ENV_BAD", false);
        });
      },
      ::testing::ExitedWithCode(2), "WLAN_TEST_ENV_BAD");
  ::unsetenv("WLAN_TEST_ENV_BAD");
}

TEST(EnvDeathTest, UnknownTraceCategoryExitsWithError) {
  ::setenv("WLAN_TRACE_CATEGORIES", "medum", 1);
  // Every Simulator reads the obs knobs at construction.
  EXPECT_EXIT({ wlan::sim::Simulator sim; }, ::testing::ExitedWithCode(2),
              "WLAN_TRACE_CATEGORIES");
  ::unsetenv("WLAN_TRACE_CATEGORIES");
}

TEST(EnvDeathTest, MalformedAuditModeExitsWithError) {
  ::setenv("WLAN_AUDIT", "thorw", 1);
  EXPECT_EXIT(wlan::obs::AuditSet::enabled(), ::testing::ExitedWithCode(2),
              "WLAN_AUDIT");
  ::unsetenv("WLAN_AUDIT");
}

// An empty boolean knob reads as unset, like an empty number: WLAN_PROFILE=
// leaves the profiler off.
TEST(EnvDeathTest, EmptyProfileSwitchReadsAsUnset) {
  // Re-exec rather than fork: the obs knobs are latched once per process.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ::setenv("WLAN_PROFILE", "", 1);
  EXPECT_EXIT(std::_Exit(wlan::obs::SimObs::profile_enabled_by_env() ? 1 : 0),
              ::testing::ExitedWithCode(0), "");
  ::unsetenv("WLAN_PROFILE");
}

}  // namespace
