// fluid::FluidNetwork / fluid::RotorRateLb property tests.
//
// The fluid engine has no packets to conserve, so its invariants are the
// rate allocator's capacity accounting and the integrator's byte
// bookkeeping: per-slice deliver rates never exceed any rack's circuit
// budget or a host NIC, every flow delivers exactly its size, VLB bytes
// are taxed 2x in circuit-traversal accounting, and the whole thing is
// bit-identical across --threads values, replays, and checkpoint round
// trips. The *accuracy* of the model (fluid vs packet FCT error) is
// pinned separately in test_fluid_parity.cc.
#include "fluid/fluid_network.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/fabric.h"
#include "exp/run_guard.h"
#include "exp/scenario.h"
#include "fluid/hybrid_network.h"
#include "fluid/rotor_rate_lb.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "workload/synthetic.h"

namespace opera {
namespace {

core::FabricConfig small_fluid_config() {
  auto config = core::FabricConfig::make(core::FabricKind::kOpera).scale(16, 4);
  config.engine = core::EngineKind::kFluid;
  return config;
}

std::uint64_t digest_of(const core::Network& net) {
  sim::Fingerprint fp;
  net.fingerprint(fp);
  return fp.digest();
}

// ---------------------------------------------------------------------------
// RotorRateLb conservation properties
// ---------------------------------------------------------------------------

// Random demand sets, every slice, with and without failures: no rack's
// egress or ingress circuit budget is exceeded, no flow exceeds one host
// NIC, and VLB grants stay inside the relay pool.
TEST(RotorRateLb, ConservationUnderRandomDemand) {
  const auto config = small_fluid_config().opera_config();
  const topo::OperaTopology topo(config.topology);
  fluid::RotorRateLb lb(topo, fluid::RotorRateLb::Params{config.link.rate_bps, 0.9,
                                                 config.topology.hosts_per_rack,
                                                 true});
  const int n = static_cast<int>(config.topology.num_racks);
  sim::Rng rng(7);

  auto failures =
      topo::FailureSet::none(config.topology.num_racks, config.topology.num_switches);

  for (int trial = 0; trial < 20; ++trial) {
    // Random sparse demand, sorted by (src, dst) as the contract requires.
    std::map<std::pair<std::int32_t, std::int32_t>, std::int64_t> demand;
    const int pairs = 1 + static_cast<int>(rng.index(40));
    for (int p = 0; p < pairs; ++p) {
      const auto a = static_cast<std::int32_t>(rng.index(static_cast<std::size_t>(n)));
      const auto b = static_cast<std::int32_t>(rng.index(static_cast<std::size_t>(n)));
      demand[{a, b}] += rng.uniform_int(1, 12);
    }
    std::vector<fluid::GroupDemand> groups;
    groups.reserve(demand.size());
    for (const auto& [key, flows] : demand) {
      groups.push_back(fluid::GroupDemand{key.first, key.second, flows});
    }
    // Trial 10+: degrade the fabric and re-check the same invariants.
    if (trial == 10) {
      failures.switch_failed[1] = true;
      failures.uplink_failed[3][0] = true;
      failures.uplink_failed[5][2] = true;
      lb.set_failures(failures);
    }

    for (int slice = 0; slice < topo.num_slices(); ++slice) {
      fluid::RateUsage usage;
      const auto rates = lb.allocate(slice, groups, &usage);
      ASSERT_EQ(rates.size(), groups.size());

      constexpr double kSlack = 1.0 + 1e-9;
      for (int r = 0; r < n; ++r) {
        const auto sr = static_cast<std::size_t>(r);
        EXPECT_LE(usage.used_up[sr], usage.budget[sr] * kSlack + 1.0)
            << "rack " << r << " egress over budget, slice " << slice;
        EXPECT_LE(usage.used_down[sr], usage.budget[sr] * kSlack + 1.0)
            << "rack " << r << " ingress over budget, slice " << slice;
      }
      EXPECT_LE(usage.relay_used, usage.relay_pool * kSlack + 1.0);

      for (std::size_t i = 0; i < groups.size(); ++i) {
        EXPECT_GE(rates[i].per_flow, 0.0);
        EXPECT_LE(rates[i].per_flow, config.link.rate_bps * kSlack)
            << "flow rate above one host NIC";
        if (groups[i].src_rack == groups[i].dst_rack) {
          EXPECT_EQ(rates[i].direct_share, 0.0);
          EXPECT_EQ(rates[i].vlb_share, 0.0);
        } else {
          EXPECT_NEAR(rates[i].per_flow,
                      rates[i].direct_share + rates[i].vlb_share, 1e-3);
        }
      }
    }
  }
}

TEST(RotorRateLb, FailedUplinkCarriesNothing) {
  const auto config = small_fluid_config().opera_config();
  const topo::OperaTopology topo(config.topology);
  fluid::RotorRateLb lb(topo, fluid::RotorRateLb::Params{config.link.rate_bps, 0.9,
                                                 config.topology.hosts_per_rack,
                                                 true});
  auto none =
      topo::FailureSet::none(config.topology.num_racks, config.topology.num_switches);
  auto all_up_0 = none;
  for (int sw = 0; sw < config.topology.num_switches; ++sw) {
    all_up_0.uplink_failed[0][static_cast<std::size_t>(sw)] = true;
  }
  lb.set_failures(all_up_0);
  const std::vector<fluid::GroupDemand> groups{{0, 1, 4}};
  for (int slice = 0; slice < topo.num_slices(); ++slice) {
    fluid::RateUsage usage;
    const auto rates = lb.allocate(slice, groups, &usage);
    // Rack 0 has no live uplinks: zero budget, zero rate (direct or VLB).
    EXPECT_EQ(usage.budget[0], 0.0) << "slice " << slice;
    EXPECT_EQ(rates[0].per_flow, 0.0) << "slice " << slice;
  }
}

// ---------------------------------------------------------------------------
// FluidNetwork integrator properties
// ---------------------------------------------------------------------------

TEST(FluidNetwork, SingleBulkFlowCompletes) {
  const auto config = small_fluid_config().opera_config();
  fluid::FluidNetwork net(config);
  const std::int64_t size = 8'000'000;
  net.submit_flow(0, 20, size, sim::Time::us(10), net::TrafficClass::kBulk);
  const auto status = net.run_to_completion(sim::Time::ms(100));
  ASSERT_EQ(net.tracker().completed(), 1u);
  EXPECT_TRUE(status.stopped_early);
  const auto& rec = net.tracker().completions()[0];
  // One flow is NIC-bound at a single host link: FCT >= size * 8 / rate.
  const auto line_rate_fct =
      sim::Time::from_seconds(static_cast<double>(size) * 8.0 / config.link.rate_bps);
  EXPECT_GE(rec.fct(), line_rate_fct);
  EXPECT_LT(rec.fct(), sim::Time::ms(100));
  EXPECT_EQ(net.active_groups(), 0u);
}

// Every flow delivers exactly its size — checked through the tracker's
// delivery hook, the same surface the throughput time series uses.
TEST(FluidNetwork, ByteConservationPerFlow) {
  const auto config = small_fluid_config().opera_config();
  fluid::FluidNetwork net(config);
  std::map<std::uint64_t, std::int64_t> delivered;
  net.tracker().set_delivery_hook(
      [&delivered](const transport::Flow& flow, std::int64_t bytes, sim::Time) {
        delivered[flow.id] += bytes;
      });

  sim::Rng rng(3);
  const auto flows = workload::poisson_workload(
      workload::FlowSizeDistribution::websearch(), net.num_hosts(),
      /*load=*/0.2, config.link.rate_bps, sim::Time::ms(4), rng);
  ASSERT_GT(flows.size(), 20u);
  std::map<std::uint64_t, std::int64_t> expected;
  for (const auto& f : flows) {
    expected[net.submit_flow(f.src_host, f.dst_host, f.size_bytes, f.start)] =
        f.size_bytes;
  }
  net.run_to_completion(sim::Time::ms(400));
  ASSERT_EQ(net.tracker().completed(), flows.size());
  for (const auto& [id, size] : expected) {
    EXPECT_EQ(delivered[id], size) << "flow " << id;
  }
}

// Skewed demand forces VLB; the stats expose the 2x circuit-byte tax.
TEST(FluidNetwork, VlbTwoHopByteAccounting) {
  const auto config = small_fluid_config().opera_config();
  fluid::FluidNetwork net(config);
  // Hot rack pair: every rack-0 host sends 3 bulk flows to rack 1.
  // Direct 0<->1 circuits exist in only a few slices of the cycle, so
  // most bytes must ride two-hop VLB paths.
  std::int64_t total_bytes = 0;
  for (int h = 0; h < 4; ++h) {
    for (int i = 0; i < 3; ++i) {
      const std::int64_t size = 4'000'000;
      net.submit_flow(h, 4 + h, size, sim::Time::us(i), net::TrafficClass::kBulk);
      total_bytes += size;
    }
  }
  net.run_to_completion(sim::Time::ms(200));
  ASSERT_EQ(net.tracker().completed(), 12u);

  const auto& stats = net.fluid_stats();
  EXPECT_GT(stats.vlb_bytes, 0.0);
  EXPECT_GT(stats.direct_bytes, 0.0);
  EXPECT_EQ(stats.intra_bytes, 0.0);
  // Delivered bytes partition into direct + VLB...
  EXPECT_NEAR(stats.direct_bytes + stats.vlb_bytes,
              static_cast<double>(total_bytes), total_bytes * 1e-6);
  // ...while circuit traversals tax VLB twice (relay in + relay out).
  EXPECT_NEAR(stats.circuit_bytes(),
              static_cast<double>(total_bytes) + stats.vlb_bytes,
              total_bytes * 1e-6);
  EXPECT_GT(stats.circuit_bytes(), static_cast<double>(total_bytes));
}

TEST(FluidNetwork, IntraRackStaysOffCircuits) {
  const auto config = small_fluid_config().opera_config();
  fluid::FluidNetwork net(config);
  net.submit_flow(0, 1, 1'000'000, sim::Time::us(1), net::TrafficClass::kBulk);
  net.run_to_completion(sim::Time::ms(50));
  ASSERT_EQ(net.tracker().completed(), 1u);
  const auto& stats = net.fluid_stats();
  EXPECT_NEAR(stats.intra_bytes, 1e6, 1.0);
  EXPECT_EQ(stats.direct_bytes, 0.0);
  EXPECT_EQ(stats.vlb_bytes, 0.0);
}

// ---------------------------------------------------------------------------
// Determinism: threads knob, replay, checkpoint round trip
// ---------------------------------------------------------------------------

std::vector<workload::FlowSpec> determinism_workload(std::int32_t num_hosts) {
  sim::Rng rng(11);
  return workload::poisson_workload(workload::FlowSizeDistribution::websearch(),
                                    num_hosts, /*load=*/0.3, 10e9,
                                    sim::Time::ms(3), rng);
}

std::unique_ptr<core::Network> run_fluid(int threads, sim::Time until) {
  fluid::register_fluid_engines();
  auto config = small_fluid_config();
  config.threads = threads;
  auto net = core::NetworkFactory::build(config);
  for (const auto& f : determinism_workload(net->num_hosts())) {
    net->submit_flow(f.src_host, f.dst_host, f.size_bytes, f.start);
  }
  net->run_until(until);
  return net;
}

TEST(FluidNetwork, BitIdenticalAcrossThreadCounts) {
  // The integrator never shards (the threads knob is accepted and
  // ignored), so --threads={1,2,4} must be trivially bit-identical —
  // digest, completion stream, and event count.
  const auto ref = run_fluid(1, sim::Time::ms(40));
  const auto ref_digest = digest_of(*ref);
  EXPECT_GT(ref->tracker().completed(), 0u);
  for (const int threads : {2, 4}) {
    const auto net = run_fluid(threads, sim::Time::ms(40));
    EXPECT_EQ(digest_of(*net), ref_digest) << "threads=" << threads;
    EXPECT_EQ(net->events_executed(), ref->events_executed());
    ASSERT_EQ(net->tracker().completed(), ref->tracker().completed());
    for (std::size_t i = 0; i < ref->tracker().completions().size(); ++i) {
      const auto& a = ref->tracker().completions()[i];
      const auto& b = net->tracker().completions()[i];
      EXPECT_EQ(a.flow.id, b.flow.id);
      EXPECT_EQ(a.end, b.end);
    }
  }
}

TEST(FluidNetwork, CheckpointRoundTripWithFluidEngine) {
  fluid::register_fluid_engines();
  exp::RunRecipe recipe;
  recipe.run_label = "fluid-poisson";
  recipe.fabric_label = "opera";
  recipe.load_pct = 30.0;
  recipe.config = small_fluid_config();
  recipe.flows = determinism_workload(recipe.config.num_hosts());
  recipe.horizon = sim::Time::ms(40);

  // Run to a mid-run snapshot time, checkpoint, and parse it back.
  auto net = core::NetworkFactory::build(recipe.config);
  for (const auto& f : recipe.flows) {
    net->submit_remapped(f.src_host, f.dst_host, f.size_bytes, f.start);
  }
  net->run_until(sim::Time::ms(5));
  const auto data = exp::make_run_checkpoint(recipe, *net);
  const auto parsed =
      sim::parse_checkpoint(sim::write_checkpoint_text(data), "fluid.ckpt");
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  exp::RunRecipe restored;
  sim::Time resume_time;
  std::uint64_t resume_digest = 0;
  ASSERT_EQ(exp::recipe_from_checkpoint(parsed.data, &restored, &resume_time,
                                        &resume_digest),
            "");
  // The engine knob must survive the [config] section round trip — a
  // resume that silently fell back to the packet engine would replay a
  // completely different simulation.
  EXPECT_EQ(restored.config.engine, core::EngineKind::kFluid);
  EXPECT_EQ(resume_time, sim::Time::ms(5));

  // Replay from scratch on a fresh fabric: at the snapshot time the
  // multi-layer fingerprint (which folds the full fluid rate state —
  // drain counters, frozen rates, pending thresholds) must match.
  auto replayed = core::NetworkFactory::build(restored.config);
  for (const auto& f : restored.flows) {
    replayed->submit_remapped(f.src_host, f.dst_host, f.size_bytes, f.start);
  }
  replayed->run_until(resume_time);
  EXPECT_EQ(digest_of(*replayed), resume_digest);

  // And continuing past the snapshot matches an uninterrupted run.
  replayed->run_until(sim::Time::ms(40));
  net->run_until(sim::Time::ms(40));
  EXPECT_EQ(digest_of(*replayed), digest_of(*net));
}


// A checkpoint taken from a progress hook (as exp::RunGuard takes them)
// lands mid-slice, while flows that started since the last boundary still
// wait in the admission cursor. Replaying to the same hook reproduces that
// state exactly at any thread count, and the run continues bit-identically.
TEST(FluidNetwork, MidSliceCheckpointWithQueuedAdmissionsResumes) {
  fluid::register_fluid_engines();
  exp::RunRecipe recipe;
  recipe.run_label = "fluid-poisson";
  recipe.fabric_label = "opera";
  recipe.config = small_fluid_config();
  recipe.flows = determinism_workload(recipe.config.num_hosts());
  recipe.horizon = sim::Time::ms(40);
  const sim::Time interval = sim::Time::us(50);
  const sim::Time mid = sim::Time::us(1250);
  const sim::Time slice = recipe.config.slice.duration;
  const sim::Time boundary = slice * (mid / slice);
  ASSERT_LT(boundary, mid) << "snapshot must land mid-slice";
  std::size_t started_since_boundary = 0;
  std::size_t after_boundary = 0;
  for (const auto& f : recipe.flows) {
    if (f.start > boundary) ++after_boundary;
    if (f.start > boundary && f.start <= mid) ++started_since_boundary;
  }
  ASSERT_GT(started_since_boundary, 0u) << "no flow starts inside the snapshot slice";

  const auto build = [&recipe](int threads) {
    auto config = recipe.config;
    config.threads = threads;
    auto net = core::NetworkFactory::build(config);
    for (const auto& f : recipe.flows) {
      net->submit_remapped(f.src_host, f.dst_host, f.size_bytes, f.start);
    }
    return net;
  };

  auto ref = build(1);
  std::optional<sim::CheckpointData> data;
  ref->run_with_progress(recipe.horizon, interval, [&](core::Network& n) {
    if (n.sim().now() == mid) {
      // Every flow that starts after the last boundary is still queued,
      // the ones that have already started included.
      EXPECT_EQ(dynamic_cast<fluid::FluidNetwork&>(n).queued_admissions(),
                after_boundary);
      data = exp::make_run_checkpoint(recipe, n);
    }
    return false;
  });
  ASSERT_TRUE(data.has_value());
  const std::uint64_t final_digest = digest_of(*ref);
  ASSERT_GT(ref->tracker().completed(), 0u);

  const auto parsed =
      sim::parse_checkpoint(sim::write_checkpoint_text(*data), "fluid-mid.ckpt");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  exp::RunRecipe restored;
  sim::Time resume_time;
  std::uint64_t resume_digest = 0;
  ASSERT_EQ(exp::recipe_from_checkpoint(parsed.data, &restored, &resume_time,
                                        &resume_digest),
            "");
  EXPECT_EQ(resume_time, mid);

  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    auto net = build(threads);
    bool verified = false;
    net->run_with_progress(recipe.horizon, interval, [&](core::Network& n) {
      if (n.sim().now() == resume_time) {
        EXPECT_EQ(digest_of(n), resume_digest);
        verified = true;
      }
      return false;
    });
    EXPECT_TRUE(verified);
    EXPECT_EQ(digest_of(*net), final_digest);
    EXPECT_EQ(net->events_executed(), ref->events_executed());
    ASSERT_EQ(net->tracker().completed(), ref->tracker().completed());
    for (std::size_t i = 0; i < ref->tracker().completions().size(); ++i) {
      EXPECT_EQ(net->tracker().completions()[i].flow.id,
                ref->tracker().completions()[i].flow.id);
      EXPECT_EQ(net->tracker().completions()[i].end, ref->tracker().completions()[i].end);
    }
  }
}

// ---------------------------------------------------------------------------
// Golden pins: exact integrator output
// ---------------------------------------------------------------------------
//
// Each pin is the completion-stream digest plus the exact bits of the
// direct / VLB / intra-rack byte counters. They cover every way a flow
// can reach the integrator (out-of-order and equal-time submissions,
// starts on slice boundaries and in the past, run_until stopping
// mid-slice, idle gaps that disarm and re-arm the tick) and every way the
// circuit view can change (uplink and rotor-switch failures mid-run), so
// any change to admission order, rate allocation or byte accounting moves
// a pin. The executed-event count is printed, not pinned: it measures the
// engine's bookkeeping, not its output.

struct FluidPin {
  std::uint64_t tracker_digest;
  std::uint64_t direct_bits;
  std::uint64_t vlb_bits;
  std::uint64_t intra_bits;
};

void expect_fluid_pin(const char* name, const transport::FlowTracker& tracker,
                      const fluid::FluidNetwork& fluid_net,
                      std::uint64_t events, const FluidPin& pin) {
  sim::Fingerprint fp;
  tracker.fingerprint(fp);
  const auto& stats = fluid_net.fluid_stats();
  const FluidPin got{fp.digest(), std::bit_cast<std::uint64_t>(stats.direct_bytes),
                     std::bit_cast<std::uint64_t>(stats.vlb_bytes),
                     std::bit_cast<std::uint64_t>(stats.intra_bytes)};
  std::printf("[ pin %s ] {0x%016llxULL, 0x%016llxULL, 0x%016llxULL, 0x%016llxULL}"
              " completed=%zu events=%llu\n",
              name, static_cast<unsigned long long>(got.tracker_digest),
              static_cast<unsigned long long>(got.direct_bits),
              static_cast<unsigned long long>(got.vlb_bits),
              static_cast<unsigned long long>(got.intra_bits),
              tracker.completed(), static_cast<unsigned long long>(events));
  EXPECT_EQ(got.tracker_digest, pin.tracker_digest) << name << ": tracker digest";
  EXPECT_EQ(got.direct_bits, pin.direct_bits) << name << ": direct bytes";
  EXPECT_EQ(got.vlb_bits, pin.vlb_bits) << name << ": vlb bytes";
  EXPECT_EQ(got.intra_bits, pin.intra_bits) << name << ": intra bytes";
}

void expect_fluid_pin(const char* name, const fluid::FluidNetwork& net,
                      const FluidPin& pin) {
  expect_fluid_pin(name, net.tracker(), net, net.events_executed(), pin);
}

std::vector<workload::FlowSpec> ditl_day(const core::FabricConfig& config,
                                         double phase_ms, double load) {
  exp::ScenarioSpec spec;
  spec.kind = exp::ScenarioKind::kDitl;
  spec.phase_ms = phase_ms;
  spec.load = load;
  std::string error;
  auto flows = exp::scenario_flows(spec, config, &error);
  EXPECT_EQ(error, "");
  return flows;
}

TEST(FluidGolden, K8DitlMix) {
  auto config = small_fluid_config();
  config.bulk_threshold_bytes = 1'000'000;
  const auto flows = ditl_day(config, 2.0, 0.3);
  ASSERT_GT(flows.size(), 200u);
  fluid::FluidNetwork net(config.opera_config());
  for (const auto& f : flows) {
    net.submit_remapped(f.src_host, f.dst_host, f.size_bytes, f.start);
  }
  net.run_to_completion(sim::Time::ms(400));
  EXPECT_EQ(net.tracker().completed(), flows.size());
  expect_fluid_pin("k8-ditl", net,
                   {0x17ee65bf97dc56feULL, 0x41ab800ec655f533ULL, 0x41b475b16ad50590ULL, 0x4181315a20000004ULL});
}

// k=16 host permutation in three staggered rounds, with an uplink failure
// and its recovery armed as events before the flows are submitted, and a
// rotor-switch failure injected between two run_until calls.
TEST(FluidGolden, K16PermutationWithFailures) {
  auto config = core::FabricConfig::make(core::FabricKind::kOpera).scale(16, 8);
  config.engine = core::EngineKind::kFluid;
  fluid::FluidNetwork net(config.opera_config());
  net.sim().schedule_at(sim::Time::us(310), [&net] { net.inject_uplink_failure(3, 1); });
  net.sim().schedule_at(sim::Time::us(2150), [&net] { net.recover_uplink(3, 1); });
  sim::Rng rng(22);
  std::size_t submitted = 0;
  int round = 0;
  for (const std::int64_t size : {1'500'000, 3'000'000, 6'000'000}) {
    for (auto& f : workload::permutation_workload(net.num_hosts(), 8, size, rng)) {
      net.submit_flow(f.src_host, f.dst_host, f.size_bytes,
                      f.start + sim::Time::us(200 * round));
      ++submitted;
    }
    ++round;
  }
  net.run_until(sim::Time::us(1234));
  net.inject_switch_failure(2);
  net.run_to_completion(sim::Time::ms(1000));
  EXPECT_EQ(net.tracker().completed(), submitted);
  EXPECT_TRUE(net.failures().switch_failed[2]);
  EXPECT_FALSE(net.failures().uplink_failed[3][1]);
  expect_fluid_pin("k16-perm-failures", net,
                   {0xf44ccabc7f8ddb4aULL, 0x41ca105778faa4dfULL, 0x41bbfb210e0ab620ULL, 0x0000000000000000ULL});
}

// Out-of-order submissions, identical start times, starts exactly on
// slice boundaries, and starts in the past (submitted after the clock has
// passed them, so they start at submission time).
TEST(FluidGolden, SubmissionOrderEdgeCases) {
  const auto config = small_fluid_config().opera_config();
  fluid::FluidNetwork net(config);
  const sim::Time slice = config.slice.duration;
  const std::int32_t hosts = net.num_hosts();
  for (int i = 0; i < 24; ++i) {
    // Descending starts, several per instant, alternating boundary and
    // mid-slice instants.
    const sim::Time start = slice * (12 - i / 2) + (i % 2 == 0 ? sim::Time::zero()
                                                               : sim::Time::us(37));
    for (int k = 0; k < 3; ++k) {
      const std::int32_t src = (5 * i + k) % hosts;
      const std::int32_t dst = (src + 7 + 4 * k) % hosts;
      net.submit_flow(src, dst, 200'000 + 150'000 * ((i + k) % 5), start);
    }
  }
  net.run_until(slice * 3 + sim::Time::us(50));
  // In the past: starts at the current time, mid-slice.
  net.submit_flow(1, 30, 900'000, sim::Time::us(20));
  net.submit_flow(2, 40, 900'000, slice);
  // On the boundary the clock is about to cross, and again on one far
  // ahead, submitted out of order.
  net.submit_flow(9, 50, 700'000, slice * 20);
  net.submit_flow(3, 41, 700'000, slice * 4);
  net.submit_flow(4, 42, 700'000, slice * 4);
  net.run_to_completion(sim::Time::ms(200));
  EXPECT_EQ(net.tracker().completed(), net.tracker().registered());
  expect_fluid_pin("submission-order", net,
                   {0xce356bd171673e04ULL, 0x415e7e1a73b4407fULL, 0x417e924e6312efd0ULL, 0x0000000000000000ULL});
}

// run_until stops mid-slice (flows started before the stop must be in the
// final catch-up sweep, later ones must not), then the run continues.
TEST(FluidGolden, RunUntilStoppedMidSliceThenContinued) {
  const auto config = small_fluid_config().opera_config();
  fluid::FluidNetwork net(config);
  for (const auto& f : determinism_workload(net.num_hosts())) {
    net.submit_flow(f.src_host, f.dst_host, f.size_bytes, f.start);
  }
  // Flows joining a group that is already draining, each shortly before a
  // stop: the stop's catch-up sweep must see them join at their own
  // start times.
  for (int i = 0; i < 6; ++i) {
    net.submit_flow(0, 21, 3'000'000, sim::Time::us(5 + 2 * i));
  }
  for (const sim::Time t : {sim::Time::us(150), sim::Time::us(160), sim::Time::us(330),
                            sim::Time::us(900)}) {
    net.submit_flow(1, 22, 1'000'000, t);
    net.submit_flow(0, 21, 1'000'000, t - sim::Time::us(4));
  }
  // Stops at, just before and just after flow starts, and on a boundary.
  for (const sim::Time t : {sim::Time::us(41), sim::Time::us(152), sim::Time::us(160),
                            sim::Time::us(198), sim::Time::us(199), sim::Time::us(331),
                            sim::Time::us(1003), sim::Time::ns(1500500),
                            sim::Time::us(2077)}) {
    net.run_until(t);
  }
  net.run_until(sim::Time::ms(40));
  expect_fluid_pin("run-until-mid-slice", net,
                   {0x9176565b4e339c63ULL, 0x416b4e7f8f28d55dULL, 0x41921a79ba1ae54eULL, 0x41806ab8d7ffffffULL});
}

// Bursts separated by gaps much longer than a slice: the integrator
// drains, disarms its tick, and re-arms mid-slice at the next start.
// Failure events land on two re-arm instants: one scheduled before the
// flows are submitted (so it runs first and the re-arm's rates see it),
// two after (so they run after the re-arm and count from the next
// boundary).
TEST(FluidGolden, IdleGapRearms) {
  const auto config = small_fluid_config().opera_config();
  fluid::FluidNetwork net(config);
  const auto burst_at = [](int burst) {
    return sim::Time::us(1000 * burst * burst + 13 * burst);
  };
  net.sim().schedule_at(burst_at(3), [&net] { net.inject_switch_failure(0); });
  for (int burst = 0; burst < 5; ++burst) {
    const sim::Time at = burst_at(burst);
    for (int i = 0; i < 4; ++i) {
      net.submit_flow(4 * i + burst % 4, (4 * i + 9 + burst) % net.num_hosts(),
                      50'000 + 40'000 * i, at + sim::Time::ns(700 * i));
    }
  }
  net.sim().schedule_at(burst_at(2), [&net] { net.inject_switch_failure(2); });
  net.sim().schedule_at(burst_at(3), [&net] { net.recover_switch(2); });
  net.run_to_completion(sim::Time::ms(100));
  EXPECT_EQ(net.tracker().completed(), 20u);
  expect_fluid_pin("idle-gap", net,
                   {0x23260324076b4b76ULL, 0x4117f0dde62433b8ULL, 0x413b95888676f313ULL, 0x0000000000000000ULL});
}

// Closed loop: completions submit follow-up flows from inside the tick's
// dispatch (one starting at the completion time, already in the past, one
// a little later) and from run_until's final catch-up sweep.
TEST(FluidGolden, SubmittedFromCompletionHook) {
  const auto config = small_fluid_config().opera_config();
  fluid::FluidNetwork net(config);
  int follow_ups = 0;
  net.tracker().set_completion_hook([&](const transport::FlowRecord& rec) {
    if (follow_ups >= 60) return;
    ++follow_ups;
    const std::int32_t src = rec.flow.dst_host;
    const std::int32_t dst = (rec.flow.src_host + 5) % net.num_hosts();
    net.submit_flow(src, dst == src ? (dst + 1) % net.num_hosts() : dst,
                    rec.flow.size_bytes / 2 + 10'000,
                    follow_ups % 2 == 0 ? rec.end : rec.end + sim::Time::us(3 * follow_ups));
  });
  for (int i = 0; i < 12; ++i) {
    net.submit_flow(i, (i * 7 + 3) % net.num_hosts(), 150'000 + 90'000 * (i % 4),
                    sim::Time::us(11 * i));
  }
  for (const sim::Time t : {sim::Time::us(450), sim::Time::us(901), sim::Time::ms(3)}) {
    net.run_until(t);
  }
  net.run_to_completion(sim::Time::ms(200));
  EXPECT_EQ(follow_ups, 60);
  EXPECT_EQ(net.tracker().completed(), net.tracker().registered());
  expect_fluid_pin("completion-hook", net,
                   {0x2907c60e4eb6c3c3ULL, 0x41312786b081e06fULL, 0x41555ef293df87e5ULL, 0x412c508800000000ULL});
}

TEST(FluidGolden, HybridDitl) {
  auto config = small_fluid_config();
  config.engine = core::EngineKind::kHybrid;
  config.bulk_threshold_bytes = 1'000'000;
  const auto flows = ditl_day(config, 0.2, 0.05);
  fluid::HybridNetwork net(config);
  for (const auto& f : flows) {
    net.submit_flow(f.src_host, f.dst_host, f.size_bytes, f.start);
  }
  net.run_to_completion(sim::Time::ms(200));
  EXPECT_EQ(net.tracker().completed(), flows.size());
  EXPECT_GT(net.fluid_net().tracker().completed(), 0u);
  expect_fluid_pin("hybrid-ditl", net.tracker(), net.fluid_net(),
                   net.fluid_net().events_executed(),
                   {0x17f7e1375dfe9506ULL, 0x4130d2a3ffffffffULL, 0x4152aeb700000000ULL, 0x0000000000000000ULL});
}

}  // namespace
}  // namespace opera
