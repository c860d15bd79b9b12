// Shared CLI parsing (tools/options.h): the numeric FlagSet helpers take a
// value only when all of it is one number of their type, and
// SchedulerFlags::resolve refuses worker and graph sizes below 1. psmr_node
// and the bench harnesses exit 2 when either says no.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "tools/options.h"

namespace psmr::tools {
namespace {

// Runs `flags.parse` over `args` as if they followed the program name.
bool parse(const FlagSet& flags, std::vector<std::string> args) {
  std::vector<char*> argv{const_cast<char*>("prog")};
  for (std::string& arg : args) argv.push_back(arg.data());
  return flags.parse(static_cast<int>(argv.size()), argv.data());
}

struct Numbers {
  int i = -7;
  std::uint64_t u = 7;
  std::size_t z = 7;
  double d = 7.0;
  FlagSet flags;

  Numbers() {
    flags.add_int("--i", &i);
    flags.add_uint64("--u", &u);
    flags.add_size("--z", &z);
    flags.add_double("--d", &d);
  }
};

TEST(FlagSet, NumericFlagsRejectValuesThatAreNotEntirelyANumber) {
  for (const char* arg :
       {"--i=abc", "--i=4x", "--i=", "--i= 4", "--i=99999999999",
        "--u=abc", "--u=-1", "--u=+1", "--u=1.5", "--u=", "--z=abc",
        "--z=-1", "--z=8k", "--d=ten", "--d=1.5s", "--d="}) {
    Numbers n;
    EXPECT_FALSE(parse(n.flags, {arg})) << arg;
    // A rejected value leaves the default in place.
    EXPECT_EQ(n.i, -7) << arg;
    EXPECT_EQ(n.u, 7u) << arg;
    EXPECT_EQ(n.z, 7u) << arg;
    EXPECT_EQ(n.d, 7.0) << arg;
  }
}

TEST(FlagSet, NumericFlagsAcceptWholeNumbers) {
  // The spellings psmr_node, the bench harnesses and bench/e2e/run.py pass
  // (`--seconds=10`, integer seeds, fractional percentages).
  Numbers n;
  ASSERT_TRUE(parse(n.flags, {"--i=-3", "--u=18446744073709551615", "--z=150",
                              "--d=0.5"}));
  EXPECT_EQ(n.i, -3);
  EXPECT_EQ(n.u, 18446744073709551615u);
  EXPECT_EQ(n.z, 150u);
  EXPECT_EQ(n.d, 0.5);
  ASSERT_TRUE(parse(n.flags, {"--d=10", "--u=42"}));
  EXPECT_EQ(n.d, 10.0);
  EXPECT_EQ(n.u, 42u);
}

// Parses `args` into SchedulerFlags and resolves them, as psmr_node does.
bool parse_and_resolve(std::vector<std::string> args) {
  SchedulerFlags sched;
  FlagSet flags;
  sched.register_with(&flags);
  CosKind kind{};
  SchedulerPolicy policy{};
  return parse(flags, std::move(args)) && sched.resolve(&kind, &policy);
}

TEST(SchedulerFlags, RejectsBadWorkerAndGraphSizes) {
  EXPECT_FALSE(parse_and_resolve({"--workers=abc"}));
  EXPECT_FALSE(parse_and_resolve({"--workers=0"}));
  EXPECT_FALSE(parse_and_resolve({"--workers=-2"}));
  EXPECT_FALSE(parse_and_resolve({"--graph-size=0"}));
  EXPECT_FALSE(parse_and_resolve({"--graph-size=abc"}));
}

TEST(SchedulerFlags, AcceptsTheDefaultsAndPositiveSizes) {
  EXPECT_TRUE(parse_and_resolve({}));
  EXPECT_TRUE(parse_and_resolve({"--workers=1", "--graph-size=1"}));
  EXPECT_TRUE(parse_and_resolve(
      {"--cos=fine", "--policy=early", "--workers=8", "--graph-size=150"}));
}

}  // namespace
}  // namespace psmr::tools
