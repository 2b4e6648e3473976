// exp::FlagSet: every value converts over its whole string or fails with
// exit code 2 and a message naming the flag; --help returns the generated
// usage with exit code 0; nothing is half-parsed into a silent 0.

#include "exp/flags.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace pet::exp {
namespace {

struct Options {
  std::int32_t k = 4;
  std::int64_t ms = 40;
  std::uint64_t seed = 1;
  double load = 0.6;
  std::string path;
  std::vector<double> loads{0.5};
  std::vector<Scheme> schemes;
  Scheme scheme = Scheme::kPet;
  bool incast = true;
  double pos = 0.25;
};

FlagSet make_flags(Options& o) {
  FlagSet flags("tool");
  flags.value("--k=N", &o.k, "pods")
      .value("--ms=N", &o.ms, "window")
      .value("--seed=N", &o.seed, "seed")
      .value("--load=F", &o.load, "load")
      .value("--path=PATH", &o.path, "output")
      .value("--loads=LIST", &o.loads, "loads")
      .choice("--schemes", &o.schemes, kSchemeNames, "schemes")
      .choice("--scheme", &o.scheme, kSchemeNames, "scheme")
      .toggle("--no-incast", &o.incast, false, "no incast")
      .value("pos", &o.pos, "a positional");
  return flags;
}

FlagSet::Outcome parse(const FlagSet& flags, std::vector<const char*> args) {
  args.insert(args.begin(), "tool");
  return flags.parse(static_cast<int>(args.size()), args.data());
}

/// Parses one bad argument; expects exit 2 and a message naming `flag`.
void expect_rejected(const char* arg, const std::string& flag) {
  Options o;
  const FlagSet flags = make_flags(o);
  const FlagSet::Outcome r = parse(flags, {arg});
  ASSERT_TRUE(r.exit_code.has_value()) << arg;
  EXPECT_EQ(*r.exit_code, 2) << arg;
  EXPECT_EQ(r.message.rfind(flag, 0), 0u) << arg << " -> " << r.message;
  EXPECT_NE(r.message.find("usage: tool"), std::string::npos);
}

TEST(FlagSet, ParsesEveryKind) {
  Options o;
  const FlagSet flags = make_flags(o);
  const FlagSet::Outcome r =
      parse(flags, {"--k=8", "--ms=-3", "--seed=18446744073709551615",
                    "--load=0.5", "--path=a=b", "--loads=0.1,0.2",
                    "--schemes=secn1,pet-ablation", "--scheme=acc",
                    "--no-incast", "0.75"});
  EXPECT_FALSE(r.exit_code.has_value()) << r.message;
  EXPECT_EQ(o.k, 8);
  EXPECT_EQ(o.ms, -3);
  EXPECT_EQ(o.seed, UINT64_MAX);
  EXPECT_EQ(o.load, 0.5);
  EXPECT_EQ(o.path, "a=b");
  EXPECT_EQ(o.loads, (std::vector<double>{0.1, 0.2}));
  EXPECT_EQ(o.schemes,
            (std::vector<Scheme>{Scheme::kSecn1, Scheme::kPetAblation}));
  EXPECT_EQ(o.scheme, Scheme::kAcc);
  EXPECT_FALSE(o.incast);
  EXPECT_EQ(o.pos, 0.75);
}

TEST(FlagSet, ListFirstUseReplacesDefaultRepeatsAppend) {
  Options o;
  const FlagSet flags = make_flags(o);
  ASSERT_FALSE(parse(flags, {"--loads=0.7", "--loads=0.8,0.9"}).exit_code);
  EXPECT_EQ(o.loads, (std::vector<double>{0.7, 0.8, 0.9}));
}

TEST(FlagSet, RejectsTrailingGarbage) {
  expect_rejected("--load=0.5x", "--load: \"0.5x\" is not a number");
  expect_rejected("--seed=abc", "--seed: \"abc\" is not a non-negative");
  expect_rejected("--k=8.5", "--k: \"8.5\" is not an integer");
  expect_rejected("1e", "pos: \"1e\" is not a number");
}

TEST(FlagSet, RejectsEmptyValue) {
  expect_rejected("--load=", "--load: empty value");
  expect_rejected("--k", "--k: needs a value");
  expect_rejected("--scheme=", "--scheme: unknown value \"\"");
}

TEST(FlagSet, RejectsOverflow) {
  expect_rejected("--k=2147483648", "--k: \"2147483648\" is out of range");
  expect_rejected("--seed=18446744073709551616", "--seed: ");
  expect_rejected("--load=1e999", "--load: \"1e999\" is out of range");
  expect_rejected("--load=inf", "--load: \"inf\" is not a finite number");
}

TEST(FlagSet, RejectsNegativeIntoUnsigned) {
  expect_rejected("--seed=-1", "--seed: \"-1\" is not a non-negative");
}

TEST(FlagSet, RejectsEmptyListElement) {
  expect_rejected("--loads=0.4,", "--loads: empty list element");
  expect_rejected("--loads=,0.4", "--loads: empty list element");
  expect_rejected("--schemes=pet,,acc", "--schemes: empty list element");
  expect_rejected("--schemes=pet,bogus", "--schemes: unknown value \"bogus\"");
}

TEST(FlagSet, RejectsUnknownFlagsAndMisuse) {
  expect_rejected("--bogus=1", "unknown option: --bogus=1");
  expect_rejected("--no-incast=1", "--no-incast: takes no value");
  expect_rejected("--scheme=ecn", "--scheme: unknown value \"ecn\"");
  Options o;
  const FlagSet flags = make_flags(o);
  const FlagSet::Outcome r = parse(flags, {"0.5", "0.6"});
  ASSERT_TRUE(r.exit_code.has_value());
  EXPECT_EQ(r.message.rfind("unexpected argument: 0.6", 0), 0u);
}

TEST(FlagSet, FailedParseLeavesEarlierFieldsAndStops) {
  Options o;
  const FlagSet flags = make_flags(o);
  const FlagSet::Outcome r = parse(flags, {"--k=6", "--load=abc", "--ms=1"});
  ASSERT_EQ(r.exit_code, 2);
  EXPECT_EQ(o.k, 6);
  EXPECT_EQ(o.load, 0.6);  // untouched, not 0
  EXPECT_EQ(o.ms, 40);     // never reached
}

TEST(FlagSet, DuplicateRegistrationThrows) {
  Options o;
  FlagSet flags = make_flags(o);
  EXPECT_THROW(flags.value("--k=N", &o.k, "again"), std::logic_error);
  EXPECT_THROW(flags.toggle("--help", &o.incast, true, "built in"),
               std::logic_error);
  EXPECT_THROW(flags.value("--bare", &o.k, "no metavariable"),
               std::logic_error);
  EXPECT_THROW(flags.value("pos", &o.load, "positional twice"),
               std::logic_error);
}

TEST(FlagSet, HelpPrintsGeneratedUsageWithDefaults) {
  Options o;
  const FlagSet flags = make_flags(o);
  for (const char* help : {"--help", "-h"}) {
    const FlagSet::Outcome r = parse(flags, {"--k=2", help});
    ASSERT_EQ(r.exit_code, 0) << help;
    EXPECT_EQ(r.message, flags.usage());
  }
  const std::string usage = flags.usage();
  EXPECT_EQ(usage.rfind("usage: tool [pos] [options]\n", 0), 0u) << usage;
  for (const char* line :
       {"  --k=N                 pods (default 4)\n",
        "  --seed=N              seed (default 1)\n",
        "  --load=F              load (default 0.6)\n",
        "  --path=PATH           output\n",
        "  --loads=LIST          loads (default 0.5)\n",
        "  --scheme=secn1|secn2|amt|qaecn|acc|pet|pet-ablation\n"
        "                        scheme (default pet)\n",
        "  --schemes=LIST        schemes: comma list of secn1|",
        "  --no-incast           no incast\n",
        "  pos                   a positional (default 0.25)\n"}) {
    EXPECT_NE(usage.find(line), std::string::npos) << line << "\n" << usage;
  }
}

TEST(ScenarioFlags, MakeTopologyCoversEveryKind) {
  ScenarioFlags sh;
  sh.leaves = 3;
  sh.fat_tree_k = 6;
  sh.border_links = 2;
  EXPECT_EQ(sh.make_topology(net::TopologySpec::Kind::kLeafSpine).num_hosts(),
            3 * 8);
  EXPECT_EQ(sh.make_topology(net::TopologySpec::Kind::kFatTree).fat_tree().k,
            6);
  const net::TopologySpec idc =
      sh.make_topology(net::TopologySpec::Kind::kInterDc);
  EXPECT_EQ(idc.inter_dc().border_links, 2);
  EXPECT_EQ(idc.num_hosts(), 2 * 3 * 8);
  for (const Choice<net::TopologySpec::Kind>& c : kTopologyNames) {
    EXPECT_EQ(std::string(sh.make_topology(c.value).kind_name()), c.name);
  }
}

TEST(ScenarioFlags, CheckRejectsZeroReplicasAndOverflowingTimes) {
  EXPECT_EQ(ScenarioFlags{}.check(), "");
  ScenarioFlags sh;
  sh.replicas = 0;
  EXPECT_EQ(sh.check().rfind("--replicas:", 0), 0u) << sh.check();
  // The largest accepted count still converts without wrapping.
  sh = ScenarioFlags{};
  sh.measure_ms = std::numeric_limits<std::int64_t>::max() / 4 / 1'000'000'000;
  EXPECT_EQ(sh.check(), "");
  EXPECT_GT(sim::milliseconds(sh.measure_ms), sim::Time::zero());
  sh.measure_ms += 1;
  EXPECT_EQ(sh.check().rfind("--measure-ms:", 0), 0u) << sh.check();
  sh = ScenarioFlags{};
  sh.pretrain_ms = -1;
  EXPECT_EQ(sh.check().rfind("--pretrain-ms:", 0), 0u) << sh.check();
  sh = ScenarioFlags{};
  sh.wan_delay_us = 9'300'000'000'000;  // 9.3e18 ps overflows int64
  EXPECT_EQ(sh.check().rfind("--wan-delay-us:", 0), 0u) << sh.check();
}

}  // namespace
}  // namespace pet::exp
