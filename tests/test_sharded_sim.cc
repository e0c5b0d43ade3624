// ShardedSimulator unit tests: mailbox ordering, epoch-horizon safety,
// global-event alignment, idle fast-forward, and the worker pool.
#include "sim/sharded.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "sim/parallel.h"
#include "sim/worker_pool.h"

namespace opera::sim {
namespace {

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPool, NestedRunExecutesInline) {
  WorkerPool pool(4);
  std::atomic<int> total{0};
  pool.run(8, [&](std::size_t) {
    // A task that itself fans out must not deadlock on the pool.
    WorkerPool::shared().run(16, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(WorkerPool, PropagatesFirstException) {
  WorkerPool pool(3);
  EXPECT_THROW(
      pool.run(64, [&](std::size_t i) {
        if (i == 13) throw std::runtime_error("boom");
      }),
      std::runtime_error);
}

TEST(ParallelFor, StillCoversRangeOnSharedPool) {
  std::vector<int> out(513, 0);
  parallel_for(out.size(), [&](std::size_t i) { out[i] = static_cast<int>(i); });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], static_cast<int>(i));
}

TEST(ShardedSimulator, RejectsZeroLookaheadMultiShard) {
  // Zero lookahead would make every epoch window empty — the loop could
  // never advance. Must fail loudly (also in release), not livelock.
  EXPECT_THROW(ShardedSimulator(2, Time::zero()), std::invalid_argument);
  ShardedSimulator single(1, Time::zero());  // 1 shard needs no lookahead
  int fired = 0;
  single.seed(0, Time::us(1), [&] { ++fired; });
  single.run_until(Time::us(2));
  EXPECT_EQ(fired, 1);
}

TEST(ShardedSimulator, CrossShardPostDeliversAtExactTime) {
  ShardedSimulator engine(2, Time::us(1));
  std::vector<std::pair<int, Time>> log;
  engine.seed(0, Time::us(3), [&] {
    engine.shard(0).post(engine.shard(1), engine.shard(0).now() + Time::us(1),
                         [&] { log.emplace_back(1, engine.shard(1).now()); });
    log.emplace_back(0, engine.shard(0).now());
  });
  engine.run_until(Time::us(10));
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], (std::pair<int, Time>{0, Time::us(3)}));
  EXPECT_EQ(log[1], (std::pair<int, Time>{1, Time::us(4)}));
}

TEST(ShardedSimulator, HorizonMinusEpsilonIsDeliveredNextEpochNeverDropped) {
  // An event sent cross-shard for the earliest legal instant — exactly one
  // lookahead ahead, i.e. the next epoch's horizon — must execute, at its
  // exact timestamp, even when the sender fires at the very end of its
  // epoch (the horizon - epsilon case).
  const Time lookahead = Time::us(1);
  ShardedSimulator engine(2, lookahead);
  std::vector<Time> delivered;
  // Sender event just below an epoch boundary: epochs start at 0, so run
  // one shard event at 999ns (inside epoch [0, 1us)).
  const Time send_at = Time::ns(999);
  engine.seed(0, send_at, [&] {
    engine.shard(0).post(engine.shard(1), send_at + lookahead,
                         [&] { delivered.push_back(engine.shard(1).now()); });
  });
  engine.run_until(Time::us(5));
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], send_at + lookahead);
}

TEST(ShardedSimulator, EqualTimeCrossShardEventsOrderByKeyNotArrival) {
  // Two shards each send the other an equal-time event; a third local
  // event ties with them. Execution order at the shared timestamp must be
  // the (deterministic) key order, not mailbox-drain or schedule order —
  // run twice with different shard counts mapping the same domains and
  // compare.
  auto run_once = [](int shards) {
    ShardedSimulator engine(shards, Time::us(1));
    std::vector<int> order;
    const Time t0 = Time::us(2);
    const Time at = Time::us(4);
    const int dst_shard = shards > 1 ? 1 : 0;
    engine.seed(0, t0, [&engine, &order, at, dst_shard] {
      engine.shard(0).post(engine.shard(dst_shard), at,
                           [&order] { order.push_back(100); });
    });
    engine.seed(dst_shard, t0, [&engine, &order, at, dst_shard] {
      engine.shard(dst_shard).post(engine.shard(dst_shard), at,
                                   [&order] { order.push_back(200); });
    });
    engine.seed(dst_shard, at, [&order] { order.push_back(300); });
    engine.run_until(Time::us(10));
    return order;
  };
  const auto sharded = run_once(2);
  const auto single = run_once(1);
  ASSERT_EQ(sharded.size(), 3u);
  EXPECT_EQ(sharded, single);
}

TEST(ShardedSimulator, GlobalEventsRunBeforeShardEventsAtSameTime) {
  ShardedSimulator engine(2, Time::us(1));
  std::vector<int> order;
  const Time at = Time::us(3);
  engine.seed(1, at, [&] { order.push_back(2); });
  engine.global().schedule_at(at, [&] { order.push_back(1); });
  engine.run_until(Time::us(5));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ShardedSimulator, RunUntilIsInclusiveAtHorizon) {
  ShardedSimulator engine(2, Time::us(1));
  int fired = 0;
  engine.seed(0, Time::us(7), [&] { ++fired; });
  engine.seed(1, Time::us(7), [&] { ++fired; });
  engine.run_until(Time::us(7));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.now(), Time::us(7));
}

TEST(ShardedSimulator, IdleGapsFastForwardWithoutDriftingTimestamps) {
  // Sparse events many lookaheads apart must still fire at exact times
  // (the idle fast-forward may not skip or round them).
  ShardedSimulator engine(2, Time::ns(500));
  std::vector<Time> fired;
  engine.seed(0, Time::ms(2), [&] { fired.push_back(engine.shard(0).now()); });
  engine.seed(1, Time::ms(5), [&] { fired.push_back(engine.shard(1).now()); });
  const std::uint64_t events = engine.run_until(Time::ms(6));
  EXPECT_EQ(events, 2u);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], Time::ms(2));
  EXPECT_EQ(fired[1], Time::ms(5));
}

TEST(ShardedSimulator, StopFromGlobalEventHaltsEpochLoop) {
  ShardedSimulator engine(2, Time::us(1));
  int shard_events = 0;
  for (int i = 1; i <= 100; ++i) {
    engine.seed(i % 2, Time::us(i), [&] { ++shard_events; });
  }
  engine.global().schedule_at(Time::us(10), [&] { engine.global().stop(); });
  engine.run_until(Time::ms(1));
  // Events strictly before the stop instant ran; the tail did not.
  EXPECT_LT(shard_events, 100);
  EXPECT_GE(shard_events, 9);
  EXPECT_LE(engine.now(), Time::us(10));
}

TEST(ShardedSimulator, BarrierHookRunsBetweenEpochs) {
  ShardedSimulator engine(2, Time::us(1));
  int hooks = 0;
  engine.set_barrier_hook([&] { ++hooks; });
  engine.seed(0, Time::us(1), [] {});
  engine.seed(1, Time::us(2), [] {});
  engine.run_until(Time::us(3));
  EXPECT_GE(hooks, 2);
}

TEST(ShardedSimulator, SeededRootsKeepSubmissionOrderAtEqualTimes) {
  // Equal-time seeds on the same shard fire in submission order under any
  // shard count (the partition-independent root key space).
  for (int shards : {1, 2, 4}) {
    ShardedSimulator engine(shards, Time::us(1));
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
      engine.seed(0, Time::us(1), [&order, i] { order.push_back(i); });
    }
    engine.run_until(Time::us(2));
    std::vector<int> expect(8);
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(order, expect) << "shards=" << shards;
  }
}


// BusyUntil on a shard, probed from the coordinator: a global event runs
// before the shard's own events at its instant, so at exactly the end of
// a busy period the (never queued) end event has not fired yet.
TEST(ShardedPassed, GlobalEventAtBusyUntilStillSeesBusy) {
  for (const int shards : {1, 2}) {
    ShardedSimulator engine(shards, Time::us(1));
    const int s = shards - 1;
    Simulator& sim = engine.shard(s).sim();
    BusyUntil busy;
    std::vector<int> seen;  // 1 = busy
    engine.seed(s, Time::us(2), [&] { busy.start(sim, Time::us(3)); });
    const auto probe = [&] { seen.push_back(busy.busy(sim) ? 1 : 0); };
    engine.global().schedule_at(Time::us(4), probe);
    engine.global().schedule_at(Time::us(5), probe);  // == until()
    engine.global().schedule_at(Time::us(6), probe);
    // A shard event at the same instant with a smaller (root) key: still
    // before the derived end key.
    engine.seed(s, Time::us(5), probe);
    engine.run_until(Time::us(10));
    EXPECT_EQ(seen, (std::vector<int>{1, 1, 1, 0})) << "shards=" << shards;
  }
}

TEST(ShardedPassed, OutsideDispatchAfterInclusiveRunAndAfterGlobalStop) {
  for (const int shards : {1, 2}) {
    {
      // run_until(t) is inclusive: every shard event at t ran, so a busy
      // period ending at t is over — also for the next call's global
      // events at t.
      ShardedSimulator engine(shards, Time::us(1));
      Simulator& sim = engine.shard(0).sim();
      BusyUntil busy;
      engine.seed(0, Time::us(2), [&] { busy.start(sim, Time::us(3)); });
      engine.run_until(Time::us(5));
      EXPECT_FALSE(busy.busy(sim)) << "shards=" << shards;
      bool busy_in_global = true;
      engine.global().schedule_at(Time::us(5), [&] { busy_in_global = busy.busy(sim); });
      engine.run_until(Time::us(6));
      EXPECT_FALSE(busy_in_global) << "shards=" << shards;
    }
    {
      // A stop requested by a global event at t returns before any shard
      // event at t: the period ending at t is still running, and the
      // woken event fires once the run resumes.
      ShardedSimulator engine(shards, Time::us(1));
      Simulator& sim = engine.shard(0).sim();
      BusyUntil busy;
      Time woke_at = Time::infinity();
      engine.seed(0, Time::us(2), [&] {
        busy.start(sim, Time::us(3));
        busy.wake(sim, [&] {
          EXPECT_FALSE(busy.busy(sim));
          woke_at = sim.now();
        });
      });
      engine.global().schedule_at(Time::us(5), [&] { engine.global().stop(); });
      engine.run_until(Time::us(10));
      EXPECT_EQ(engine.now(), Time::us(5));
      EXPECT_TRUE(busy.busy(sim)) << "shards=" << shards;
      EXPECT_EQ(woke_at, Time::infinity());
      engine.run_until(Time::us(10));
      EXPECT_FALSE(busy.busy(sim));
      EXPECT_EQ(woke_at, Time::us(5));
    }
  }
}

}  // namespace
}  // namespace opera::sim
