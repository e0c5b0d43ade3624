// Smoke tests for the exp:: experiment driver, testbeds, and structured
// output.
#include "exp/experiment.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

#include "exp/output.h"
#include "exp/testbed.h"
#include "workload/flow_size_dist.h"

namespace opera::exp {
namespace {

char kProg[] = "test";
char kCsv[] = "--csv";
char kJson[] = "--json";
char kFull[] = "--full";

Experiment quiet_experiment(const char* name) {
  // JSON mode buffers everything, keeping gtest output clean; the report
  // is flushed (and discarded) when the Experiment goes out of scope.
  static char* argv[] = {kProg, kJson};
  return Experiment(name, 2, argv);
}

TEST(CliOptions, ParsesFlags) {
  char* argv[] = {kProg, kFull, kCsv};
  const auto opts = CliOptions::parse(3, argv);
  EXPECT_TRUE(opts.full);
  EXPECT_EQ(opts.format, OutputFormat::kCsv);
  char* argv2[] = {kProg, kJson};
  EXPECT_EQ(CliOptions::parse(2, argv2).format, OutputFormat::kJson);
  EXPECT_FALSE(CliOptions::parse(2, argv2).full);
}

// Runs CliOptions::number over one `--key=value` argument.
template <typename T>
T number_of(const char* arg, const char* key, T fallback, T lo, T hi) {
  std::string text = arg;
  char* argv[] = {kProg, text.data()};
  return CliOptions::number(2, argv, key, fallback, lo, hi);
}

TEST(CliOptions, ValueLookupMatchesWholeKey) {
  char racks[] = "--racks=12";
  char racks_extra[] = "--racks-extra=7";
  char* argv[] = {kProg, racks_extra, racks};
  EXPECT_EQ(CliOptions::value(3, argv, "--racks"), "12");
  EXPECT_EQ(CliOptions::value(3, argv, "--rack"), std::nullopt);
  EXPECT_EQ(CliOptions::value(2, argv, "--racks"), std::nullopt);
  EXPECT_EQ(CliOptions::number(3, argv, "--seed", 5, 0, 9), 5);  // absent: fallback
}

TEST(CliOptions, NumbersParseStrictly) {
  EXPECT_EQ(number_of("--racks=16", "--racks", 108, 2, 1 << 16), 16);
  EXPECT_DOUBLE_EQ(number_of("--load=0.25", "--load", 0.1, 0.001, 1.0), 0.25);
  EXPECT_EQ(number_of<std::uint64_t>("--seed=7", "--seed", 1, 0, 100), 7u);
  // What atof/atoi used to turn into 0 (or worse) without a word.
  EXPECT_THROW(number_of("--load=0.x", "--load", 0.1, 0.001, 1.0), CliError);
  EXPECT_THROW(number_of("--load=-0.1", "--load", 0.1, 0.001, 1.0), CliError);
  EXPECT_THROW(number_of("--load=nan", "--load", 0.1, 0.001, 1.0), CliError);
  EXPECT_THROW(number_of("--load=", "--load", 0.1, 0.001, 1.0), CliError);
  EXPECT_THROW(number_of("--racks=abc", "--racks", 108, 2, 1 << 16), CliError);
  EXPECT_THROW(number_of("--racks=12x", "--racks", 108, 2, 1 << 16), CliError);
  EXPECT_THROW(number_of("--racks=1", "--racks", 108, 2, 1 << 16), CliError);
  EXPECT_THROW(number_of("--racks=99999999999", "--racks", 108, 2, 1 << 16), CliError);
  EXPECT_THROW(number_of<std::uint64_t>("--seed=-1", "--seed", 1, 0, 100), CliError);
}

TEST(CliOptions, MalformedThreadsIsAnError) {
  char two[] = "--threads=two";
  char* bad[] = {kProg, two};
  EXPECT_THROW(static_cast<void>(CliOptions::parse(2, bad)), CliError);
  char four[] = "--threads=4";
  char* good[] = {kProg, four};
  EXPECT_EQ(CliOptions::parse(2, good).threads, 4);
}

TEST(Value, Renderings) {
  EXPECT_EQ(Value(3.14159, 2).text(), "3.14");
  EXPECT_EQ(Value(static_cast<std::int64_t>(42)).text(), "42");
  EXPECT_EQ(Value("plain").csv(), "plain");
  EXPECT_EQ(Value("a,b").csv(), "\"a,b\"");
  EXPECT_EQ(Value("say \"hi\"").json(), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(Value(1.5, 1).json(), "1.5");
}

TEST(Testbed, QuickAndPaperScales) {
  const auto quick = Testbed::quick();
  EXPECT_EQ(quick.num_hosts(), 64);
  EXPECT_EQ(quick.opera().num_hosts(), 64);
  EXPECT_EQ(quick.clos().num_hosts(), 96);
  EXPECT_EQ(quick.expander().num_hosts(), 60);
  EXPECT_EQ(quick.rotornet(false).num_hosts(), 64);
  // Hybrid RotorNet spends one extra uplink on the packet core.
  EXPECT_EQ(quick.rotornet(true).rotornet.num_switches, quick.switches + 1);

  const auto paper = Testbed::paper();
  EXPECT_EQ(paper.num_hosts(), 648);
  EXPECT_EQ(paper.clos().num_hosts(), 648);
  EXPECT_EQ(paper.expander().num_hosts(), 650);
  EXPECT_EQ(Testbed::select(false).num_hosts(), 64);
  EXPECT_EQ(Testbed::select(true).num_hosts(), 648);
}

// One driver smoke test per fabric: submit a small poisson workload, run,
// and expect completions plus populated FCT rows.
class DriverSmoke : public ::testing::TestWithParam<core::FabricKind> {};

TEST_P(DriverSmoke, RunsAndEmitsFctRows) {
  auto ex = quiet_experiment("driver smoke");
  auto tb = Testbed::quick();
  tb.racks = 8;
  tb.hosts_per_rack = 2;
  tb.clos_pods = 2;
  tb.expander_tors = 10;
  tb.expander_uplinks = 4;

  const auto dist = workload::FlowSizeDistribution::websearch();
  sim::Rng rng(123);
  const auto flows = workload::poisson_workload(dist, tb.num_hosts(), 0.05, 10e9,
                                                sim::Time::ms(5), rng);
  ASSERT_FALSE(flows.empty());

  Experiment::RunOptions opts;
  opts.horizon = sim::Time::ms(40);
  const auto result =
      ex.run(core::fabric_kind_name(GetParam()), tb.fabric(GetParam()), flows, opts);
  EXPECT_EQ(result.submitted, flows.size());
  EXPECT_GT(result.net->tracker().completed(), 0u);

  ex.emit_fct_rows(result.label, 5.0, *result.net);
  const auto& table = ex.report().table("fct", {});
  EXPECT_EQ(table.rows().size(), fct_buckets().size());
}

INSTANTIATE_TEST_SUITE_P(AllFabrics, DriverSmoke,
                         ::testing::Values(core::FabricKind::kOpera,
                                           core::FabricKind::kFoldedClos,
                                           core::FabricKind::kExpander,
                                           core::FabricKind::kRotorNet));

TEST(Experiment, FctSweepCoversFabricsByLoad) {
  auto ex = quiet_experiment("sweep smoke");
  auto tb = Testbed::quick();
  tb.racks = 8;
  tb.hosts_per_rack = 2;

  Experiment::FctSweep sweep;
  sweep.fabrics = {{"Opera", tb.opera(), {}}};
  sweep.loads = {0.02, 0.05};
  sweep.horizon = sim::Time::ms(20);
  sweep.make_flows = [&tb](double load) {
    sim::Rng rng(7);
    return workload::poisson_workload(workload::FlowSizeDistribution::websearch(),
                                      tb.num_hosts(), load, 10e9, sim::Time::ms(5),
                                      rng);
  };
  ex.run_fct_sweep(sweep);
  const auto& table = ex.report().table("fct", {});
  // One bucket set per (load, fabric) pair.
  EXPECT_EQ(table.rows().size(), 2 * fct_buckets().size());
}

TEST(Experiment, RemapMatchesLegacyInlineIdiom) {
  auto ex = quiet_experiment("remap parity");
  const auto tb = Testbed::quick();

  sim::Rng rng(31337);
  const auto flows = workload::poisson_workload(
      workload::FlowSizeDistribution::websearch(), tb.num_hosts(), 0.05, 10e9,
      sim::Time::ms(10), rng);

  // Driver path: remap on submission (default).
  Experiment::RunOptions opts;
  opts.horizon = sim::Time::ms(30);
  const auto result = ex.run("Clos3:1", tb.clos(), flows, opts);

  // Legacy path: the `% hosts` / bump-on-collision idiom the bench
  // binaries used to hand-roll inline.
  const auto legacy = core::NetworkFactory::build(tb.clos());
  const int hosts = legacy->num_hosts();
  for (const auto& f : flows) {
    const auto src = f.src_host % hosts;
    auto dst = f.dst_host % hosts;
    if (dst == src) dst = (dst + 1) % hosts;
    legacy->submit_flow(src, dst, f.size_bytes, f.start);
  }
  legacy->run_until(sim::Time::ms(30));

  ASSERT_EQ(result.net->tracker().completed(), legacy->tracker().completed());
  const auto& ca = result.net->tracker().completions();
  const auto& cb = legacy->tracker().completions();
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].flow.src_host, cb[i].flow.src_host);
    EXPECT_EQ(ca[i].flow.dst_host, cb[i].flow.dst_host);
    EXPECT_EQ(ca[i].fct().to_us(), cb[i].fct().to_us());
  }
}

}  // namespace
}  // namespace opera::exp
