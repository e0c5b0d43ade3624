// Simulator: the event loop plus the simulation clock.
//
// Every event carries a 64-bit equal-time order key (see sim/event_queue.h),
// derived causally: an event's key is a hash of the key of the event that
// *scheduled* it (its causal parent) and a per-parent child index; events
// scheduled outside any dispatch get keys from a root counter. Causal keys
// depend only on the event's ancestry — never on the order events entered a
// particular queue — which is what lets a sharded simulation (sim/sharded.h)
// split one event population across N queues and still resolve every
// equal-time tie exactly as the 1-shard run would. The executing event's
// key is tracked in a thread-local dispatch frame, so a callback that
// schedules onto a *different* simulator (a cross-shard post) still derives
// from its true parent.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/checkpoint.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace opera::sim {

// splitmix64 finalizer: a cheap, high-quality 64-bit mixer.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

class Simulator {
 public:
  // Key-space layout (collisions across spaces would make
  // a tie-break depend on insertion order; spaces keep the deliberate keys
  // disjoint, and hash keys collide with probability ~2^-63):
  //   [0, 2^62)            root events (per-simulator counter)
  //   [2^62, 2^63)         externally seeded roots (ShardedSimulator::seed)
  //   [2^63, 2^64)         derived (hashed) keys
  static constexpr std::uint64_t kSeedKeyBase = 1ULL << 62;
  static constexpr std::uint64_t kDerivedKeyBit = 1ULL << 63;

  [[nodiscard]] Time now() const { return now_; }

  // Schedules `fn` `delay` after the current time.
  EventHandle schedule_in(Time delay, EventQueue::Callback fn) {
    return queue_.schedule_keyed(now_ + delay, derive_key(), std::move(fn));
  }

  // Schedules `fn` at absolute time `at` (must not be in the past).
  EventHandle schedule_at(Time at, EventQueue::Callback fn) {
    return queue_.schedule_keyed(at < now_ ? now_ : at, derive_key(), std::move(fn));
  }

  // Schedules with an explicit order key (cross-shard delivery, seeding).
  EventHandle schedule_keyed_at(Time at, std::uint64_t key, EventQueue::Callback fn) {
    return queue_.schedule_keyed(at < now_ ? now_ : at, key, std::move(fn));
  }

  // The order key for a new event scheduled right now: derived from the executing event's dispatch frame when inside a
  // dispatch, from the root counter otherwise.
  [[nodiscard]] std::uint64_t derive_key();

  // Runs events until the queue drains or `until` is reached, whichever is
  // first, then advances the clock to `until` — unless stop() was called,
  // which leaves the clock at the stop point. Returns the number of events
  // executed.
  std::uint64_t run_until(Time until);

  // Runs until the queue drains (or stop() is called).
  std::uint64_t run();

  // Epoch-window run for the sharded loop: executes events with
  // time < end (or time <= end when `inclusive`), then advances the clock
  // to `end` (never backwards). Does not honor stop() — epochs are
  // interrupted at barriers, not mid-window.
  std::uint64_t run_window(Time end, bool inclusive = false);

  // Advances the clock without running anything (barrier commit).
  void advance_to(Time t) {
    if (t > now_) now_ = t;
  }

  // Stops the current run() after the in-flight event returns.
  void stop() { stopped_ = true; }
  [[nodiscard]] bool stop_requested() const { return stopped_; }
  void clear_stop() { stopped_ = false; }

  [[nodiscard]] EventQueue& queue() { return queue_; }
  [[nodiscard]] const EventQueue& queue() const { return queue_; }
  [[nodiscard]] std::uint64_t events_executed() const { return events_executed_; }

  // Checkpoint hook: clock and dispatch count. Pending events are NOT
  // digested — they are closures, and replay-based restore (sim/
  // checkpoint.h) regenerates them; the dispatch count pins that the same
  // number of events ran to reach this clock.
  void fingerprint(Fingerprint& fp) const {
    fp.mix_time(now_);
    fp.mix_u64(events_executed_);
  }

 private:
  // The executing event's key plus how many children it has scheduled so
  // far; thread-local so concurrent shard dispatches don't interleave and
  // cross-simulator schedules still see their true parent.
  struct DispatchFrame {
    std::uint64_t key = 0;
    std::uint64_t children = 0;
  };
  struct FrameGuard {
    explicit FrameGuard(DispatchFrame* frame);
    ~FrameGuard();
    DispatchFrame* prev;
  };
  static thread_local DispatchFrame* t_frame_;

  // Pops and dispatches the earliest event inside a frame.
  void dispatch_one(DispatchFrame& frame);

  EventQueue queue_;
  Time now_ = Time::zero();
  bool stopped_ = false;
  std::uint64_t events_executed_ = 0;
  std::uint64_t next_key_ = 0;  // root-event counter
};

}  // namespace opera::sim
