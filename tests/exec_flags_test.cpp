// ExecFlags, the execution flags rss_scenario and rss_artifacts share:
// what parse() consumes and rejects, and where install() and apply() put
// the parsed values.

#include "scenario/exec_flags.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/execution.hpp"

namespace rss::scenario {
namespace {

/// Run flags.parse() on argv = {"prog", args...} at i = 1; `i` ends where
/// parse() leaves it.
ExecFlags::Parse parse(const std::vector<std::string>& args, ExecFlags& flags, int& i) {
  std::vector<std::string> storage{"prog"};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  i = 1;
  return flags.parse(static_cast<int>(argv.size()), argv.data(), i);
}

TEST(ExecFlagsTest, ConsumesACountAndAdvancesPastIt) {
  ExecFlags flags;
  int i = 0;
  EXPECT_EQ(parse({"--jobs", "3", "--run"}, flags, i), ExecFlags::Parse::kConsumed);
  EXPECT_EQ(i, 2);
  EXPECT_EQ(flags.jobs, 3u);
  EXPECT_EQ(parse({"--partitions", "4"}, flags, i), ExecFlags::Parse::kConsumed);
  EXPECT_EQ(i, 2);
  EXPECT_EQ(flags.partitions, 4u);
  EXPECT_EQ(parse({"--jobs", "0"}, flags, i), ExecFlags::Parse::kConsumed);
  EXPECT_EQ(flags.jobs, 0u);
}

TEST(ExecFlagsTest, LeavesOtherArgumentsAlone) {
  for (const char* arg : {"--run", "spec.json", "--out", "--jobsx"}) {
    SCOPED_TRACE(arg);
    ExecFlags flags;
    int i = 0;
    EXPECT_EQ(parse({arg, "2"}, flags, i), ExecFlags::Parse::kNotMine);
    EXPECT_EQ(i, 1);
    EXPECT_EQ(flags.jobs, 0u);
  }
}

TEST(ExecFlagsTest, RejectsAnythingButAnInRangeCount) {
  const std::vector<std::vector<std::string>> bad{
      {"--jobs"},
      {"--jobs", "-1"},
      {"--jobs", "-2"},
      {"--jobs", "+1"},
      {"--jobs", " 1"},
      {"--jobs", "1x"},
      {"--jobs", ""},
      {"--jobs", "99999999999999999999999"},
      {"--partitions", "-1"},
      {"--partitions", "0"},
      {"--partitions", "18446744073709551616"},
  };
  for (const auto& args : bad) {
    SCOPED_TRACE(args.size() > 1 ? args[0] + " '" + args[1] + "'" : args[0]);
    ExecFlags flags;
    int i = 0;
    EXPECT_EQ(parse(args, flags, i), ExecFlags::Parse::kError);
    EXPECT_EQ(flags.jobs, 0u);
    EXPECT_EQ(flags.partitions, 0u);
  }
}

TEST(ExecFlagsTest, InstallSetsTheProcessDefaults) {
  const ExecutionDefaults saved = execution_defaults();
  execution_defaults() = {};
  ExecFlags{}.install();
  EXPECT_EQ(execution_defaults().thread_budget, 0u);
  EXPECT_EQ(execution_defaults().partitions, 0u);

  ExecFlags{.jobs = 3, .partitions = 2}.install();
  EXPECT_EQ(execution_defaults().thread_budget, 3u);
  EXPECT_EQ(execution_defaults().partitions, 2u);
  // The installed budget is what a zero-thread policy resolves to.
  EXPECT_EQ(ExecutionPolicy{}.resolve_threads(100), 3u);
  execution_defaults() = saved;
}

TEST(ExecFlagsTest, ApplyOverridesTheSpecPartitionsOnlyWhenGiven) {
  ExecutionPolicy from_spec{.partitions = 4, .threads = 2};
  ExecFlags{}.apply(from_spec);
  EXPECT_EQ(from_spec.partitions, 4u);

  ExecFlags{.jobs = 8, .partitions = 2}.apply(from_spec);
  EXPECT_EQ(from_spec.partitions, 2u);
  EXPECT_EQ(from_spec.threads, 2u);  // --jobs is a run-wide budget, not per scenario
}

}  // namespace
}  // namespace rss::scenario
