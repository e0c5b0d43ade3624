#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace opera::sim {
namespace {

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  Time seen = Time::zero();
  sim.schedule_in(Time::us(10), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, Time::us(10));
  EXPECT_EQ(sim.now(), Time::us(10));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_in(Time::us(5), [&] {
    times.push_back(sim.now().to_us());
    sim.schedule_in(Time::us(5), [&] { times.push_back(sim.now().to_us()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{5.0, 10.0}));
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_in(Time::us(i), [&] { ++fired; });
  }
  const auto n = sim.run_until(Time::us(4));
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sim.now(), Time::us(4));
  sim.run();
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.run_until(Time::ms(5));
  EXPECT_EQ(sim.now(), Time::ms(5));
}

TEST(Simulator, StopBreaksRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(Time::us(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_in(Time::us(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ScheduleAtClampsToNow) {
  Simulator sim;
  sim.schedule_in(Time::us(10), [&] {
    // Scheduling in the past lands "now", not before.
    sim.schedule_at(Time::us(1), [&] { EXPECT_EQ(sim.now(), Time::us(10)); });
  });
  sim.run();
}

TEST(Simulator, CountsEvents) {
  Simulator sim;
  for (int i = 0; i < 25; ++i) sim.schedule_in(Time::us(i + 1), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 25u);
}

// Simulator::passed(at, key) answers "would an event at (at, key) have
// fired by now?" for an event that was never queued. The tie case runs
// the same schedule twice — once with a real event at (at, key), once
// without — and checks passed() in the second run against whether the
// real event had fired at the same point of the first.
TEST(SimulatorPassed, EqualTimeTieInBothKeyOrders) {
  const Time at = Time::us(5);
  for (const std::uint64_t other_key : {10ULL, 30ULL}) {
    // Reference: the real event at (at, 20) and the probing event at
    // (at, other_key).
    Simulator ref;
    bool fired = false;
    bool fired_seen = false;
    ref.schedule_keyed_at(at, 20, [&] { fired = true; });
    ref.schedule_keyed_at(at, other_key, [&] { fired_seen = fired; });
    ref.run();

    Simulator sim;
    bool passed_seen = false;
    sim.schedule_keyed_at(at, other_key, [&] { passed_seen = sim.passed(at, 20); });
    sim.run();
    EXPECT_EQ(passed_seen, fired_seen) << "other key " << other_key;
    EXPECT_EQ(passed_seen, other_key > 20) << "other key " << other_key;
  }
}

TEST(SimulatorPassed, SameInstantChildWithSmallerKeySeesItFired) {
  // At `at`, key 50 runs after the phantom (key 20) would have fired, then
  // schedules a same-instant child under key 5. The queue pops the child
  // next even though its key is smaller: the phantom has still fired.
  const Time at = Time::us(5);
  Simulator sim;
  bool in_parent = false;
  bool in_child = false;
  bool before = true;
  sim.schedule_keyed_at(at, 50, [&] {
    in_parent = sim.passed(at, 20);
    sim.schedule_keyed_at(at, 5, [&] { in_child = sim.passed(at, 20); });
  });
  sim.schedule_keyed_at(at, 10, [&] { before = sim.passed(at, 20); });
  sim.run();
  EXPECT_FALSE(before);
  EXPECT_TRUE(in_parent);
  EXPECT_TRUE(in_child);
}

TEST(SimulatorPassed, DispatchTimeChangeResetsTheMaximum) {
  Simulator sim;
  bool later = false;
  bool at_next = true;
  // A large key at 1 us says nothing about a phantom at 2 us.
  sim.schedule_keyed_at(Time::us(1), 1000, [&] { at_next = sim.passed(Time::us(2), 20); });
  sim.schedule_keyed_at(Time::us(2), 10, [&] {
    // Now at 2 us with only key 10 dispatched: (2 us, 20) has not fired,
    // but anything at 1 us has.
    later = sim.passed(Time::us(1), ~0ULL) && !sim.passed(Time::us(2), 20);
  });
  sim.run();
  EXPECT_FALSE(at_next);
  EXPECT_TRUE(later);
}

TEST(SimulatorPassed, OutsideDispatchAfterRunUntilAndStop) {
  const Time at = Time::us(5);
  {
    // An inclusive run_until that completed at `at` ran every event there.
    Simulator sim;
    sim.schedule_keyed_at(at, 1, [] {});
    sim.run_until(at);
    EXPECT_TRUE(sim.passed(at, 20));
    EXPECT_TRUE(sim.passed(at, ~0ULL));
    EXPECT_FALSE(sim.passed(at + Time::ps(1), 0));
  }
  {
    // A drained run() ran every event at its last instant.
    Simulator sim;
    sim.schedule_keyed_at(at, 1, [] {});
    sim.run();
    EXPECT_TRUE(sim.passed(at, 20));
  }
  {
    // No event at `at` at all: the clock still advanced there inclusively.
    Simulator sim;
    sim.run_until(at);
    EXPECT_TRUE(sim.passed(at, 20));
  }
  {
    // A stop at `at` from key 10 leaves key 20 unfired, as the real event
    // would be; resuming fires it.
    Simulator sim;
    sim.schedule_keyed_at(at, 10, [&] { sim.stop(); });
    sim.schedule_keyed_at(at, 30, [] {});
    sim.run_until(Time::us(9));
    EXPECT_EQ(sim.now(), at);
    EXPECT_FALSE(sim.passed(at, 20));
    sim.run_until(Time::us(9));
    EXPECT_TRUE(sim.passed(at, 20));
  }
  {
    // An exclusive window ending at `at` ran nothing there.
    Simulator sim;
    sim.schedule_keyed_at(at, 1, [] {});
    sim.run_window(at, /*inclusive=*/false);
    EXPECT_EQ(sim.now(), at);
    EXPECT_FALSE(sim.passed(at, 0));
    sim.run_window(at, /*inclusive=*/true);
    EXPECT_TRUE(sim.passed(at, 20));
  }
}

TEST(BusyUntil, WakesOnlyWhenAskedAndAtTheEagerKey) {
  // Eager reference: an event scheduled right where start() takes its key.
  // Lazy: start() + wake(). Same (time, key), same sibling keys.
  std::vector<std::uint64_t> eager_keys;
  std::vector<std::uint64_t> lazy_keys;
  Time eager_at;
  Time lazy_at;
  {
    Simulator sim;
    sim.schedule_in(Time::us(1), [&] {
      eager_keys.push_back(sim.derive_key());
      sim.schedule_in(Time::us(2), [&] {
        eager_at = sim.now();
        eager_keys.push_back(sim.derive_key());
      });
      eager_keys.push_back(sim.derive_key());
    });
    sim.run();
  }
  {
    Simulator sim;
    BusyUntil busy;
    EXPECT_FALSE(busy.busy(sim));
    sim.schedule_in(Time::us(1), [&] {
      lazy_keys.push_back(sim.derive_key());
      busy.start(sim, Time::us(2));
      lazy_keys.push_back(sim.derive_key());
      EXPECT_TRUE(busy.busy(sim));
      const auto wake = [&] {
        EXPECT_FALSE(busy.busy(sim));
        lazy_at = sim.now();
        lazy_keys.push_back(sim.derive_key());
      };
      busy.wake(sim, wake);
      busy.wake(sim, wake);  // already pending: no second event
    });
    EXPECT_EQ(sim.run(), 2u);
    EXPECT_FALSE(busy.busy(sim));
  }
  EXPECT_EQ(eager_at, Time::us(3));
  EXPECT_EQ(lazy_at, eager_at);
  EXPECT_EQ(lazy_keys, eager_keys);
}

}  // namespace
}  // namespace opera::sim
