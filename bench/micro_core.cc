// Microbenchmarks (google-benchmark) of the simulation substrate: event
// queue throughput, per-slice routing construction, one-factorization,
// queue operations, and end-to-end simulated-packet rate.
#include <benchmark/benchmark.h>

#include "core/fabric.h"
#include "core/opera_network.h"
#include "net/queue.h"
#include "sim/event_queue.h"
#include "sim/parallel.h"
#include "sim/rng.h"
#include "topo/one_factorization.h"
#include "topo/opera_topology.h"

namespace {

using namespace opera;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    sim::Rng rng(1);
    for (std::size_t i = 0; i < n; ++i) {
      q.schedule(sim::Time::ps(static_cast<std::int64_t>(rng.next_u64() % 1'000'000)),
                 [] {});
    }
    while (!q.empty()) q.run_next();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1'000)->Arg(100'000);

void BM_OneFactorization(benchmark::State& state) {
  const auto n = static_cast<topo::Vertex>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sim::Rng rng(seed++);
    benchmark::DoNotOptimize(topo::random_factorization(n, rng));
  }
}
// Arg(432) is the k=24 rack count; seed 1 restarts a dozen times, each
// after 30 failed draws on a 2-regular tail with an odd cycle.
BENCHMARK(BM_OneFactorization)->Arg(16)->Arg(108)->Arg(432);

void BM_SliceRoutes(benchmark::State& state) {
  topo::OperaParams p;
  p.num_racks = static_cast<topo::Vertex>(state.range(0));
  // Keep slices comfortably connected: u=4 at toy scale, u=6 beyond.
  p.num_switches = p.num_racks >= 32 ? 6 : 4;
  p.seed = 1;
  const topo::OperaTopology topo(p);
  int slice = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.slice_routes(slice));
    slice = (slice + 1) % topo.num_slices();
  }
}
BENCHMARK(BM_SliceRoutes)->Arg(16)->Arg(48)->Arg(108);

// All N per-slice tables built through the parallel construction path the
// OperaNetwork constructor uses (sim::parallel_for over slices). Arg(108)
// is the paper scale; Arg(432) is the k=24 / 5184-host scale from the
// ROADMAP — tracked here so the scaling claim has a number attached.
void BM_SliceRoutesParallel(benchmark::State& state) {
  topo::OperaParams p;
  p.num_racks = static_cast<topo::Vertex>(state.range(0));
  p.num_switches = p.num_racks >= 432 ? 12 : 6;
  p.hosts_per_rack = p.num_switches;
  p.seed = 1;
  const topo::OperaTopology topo(p);
  for (auto _ : state) {
    std::vector<topo::EcmpTable> tables(static_cast<std::size_t>(topo.num_slices()));
    sim::parallel_for(tables.size(), [&](std::size_t s) {
      tables[s] = topo.slice_routes(static_cast<int>(s));
    });
    benchmark::DoNotOptimize(tables.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          topo.num_slices());
}
BENCHMARK(BM_SliceRoutesParallel)
    ->Unit(benchmark::kMillisecond)
    ->Arg(108)
    ->Arg(432)
    ->Iterations(1);

// Full k=24 Opera construction (432 racks, 5184 hosts): topology
// generate-and-test, all 432 slice tables, hosts/ToRs/agents. The seed-1
// factorization (BM_OneFactorization/432's first iteration) is most of it.
void BM_OperaK24Construction(benchmark::State& state) {
  for (auto _ : state) {
    core::FabricConfig cfg = core::FabricConfig::make(core::FabricKind::kOpera);
    cfg.scale(432, 12);
    auto net = core::NetworkFactory::build(cfg);
    benchmark::DoNotOptimize(net->num_hosts());
  }
}
BENCHMARK(BM_OperaK24Construction)->Unit(benchmark::kSecond)->Iterations(1);

void BM_PortQueue(benchmark::State& state) {
  net::PortQueue q;
  for (auto _ : state) {
    auto pkt = net::make_packet();
    pkt->type = net::PacketType::kData;
    pkt->tclass = net::TrafficClass::kLowLatency;
    pkt->size_bytes = 1500;
    benchmark::DoNotOptimize(q.enqueue(std::move(pkt)));
    benchmark::DoNotOptimize(q.dequeue());
  }
}
BENCHMARK(BM_PortQueue);

// Simulated-time throughput of the whole stack: a 16-rack Opera network
// at moderate low-latency load for 5 ms of simulated time, its event loop
// sharded over `threads` rack domains. Returns the events executed — the
// same for any thread count.
std::uint64_t run_opera_end_to_end(int threads) {
  core::OperaConfig cfg;
  cfg.topology.num_racks = 16;
  cfg.topology.num_switches = 4;
  cfg.topology.hosts_per_rack = 4;
  cfg.topology.seed = 11;
  cfg.threads = threads;
  core::OperaNetwork net(cfg);
  sim::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const auto src = static_cast<std::int32_t>(rng.index(64));
    auto dst = static_cast<std::int32_t>(rng.index(64));
    if (dst == src) dst = (dst + 1) % 64;
    net.submit_flow(src, dst, 20'000,
                    sim::Time::us(static_cast<std::int64_t>(rng.index(1'000))));
  }
  net.run_until(sim::Time::ms(5));
  benchmark::DoNotOptimize(net.tracker().completed());
  return net.events_executed();
}

void BM_OperaEndToEnd(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) events = run_opera_end_to_end(1);
  // Deterministic work per iteration, next to the wall time.
  state.counters["events"] = static_cast<double>(events);
  state.SetLabel("16 racks, 100 flows, 5 ms simulated");
}
BENCHMARK(BM_OperaEndToEnd)->Unit(benchmark::kMillisecond);

void BM_ShardedOperaEndToEnd(benchmark::State& state) {
  // The fig08-style scaling row: BM_OperaEndToEnd's run sharded over N
  // rack domains — output is bit-identical across arguments; wall-clock
  // shows the barrier/mailbox cost on this machine (and the speedup,
  // given cores).
  std::uint64_t events = 0;
  for (auto _ : state) events = run_opera_end_to_end(static_cast<int>(state.range(0)));
  state.counters["events"] = static_cast<double>(events);
  state.SetLabel("16 racks, 100 flows, 5 ms simulated, sharded");
}
BENCHMARK(BM_ShardedOperaEndToEnd)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
