// ShardedSimulator — a conservative parallel discrete-event engine built
// from N shard-local Simulators plus one global (coordinator) Simulator.
//
// Model (classic conservative lookahead, cf. Chandy-Misra / the DiME-style
// distributed simulators): the network is partitioned into domains (racks,
// in Opera's case) such that domains interact only across links with
// non-zero propagation delay L. Time advances in epochs of length at most
// L (the lookahead): within an epoch [t, t+L), every shard runs its own
// event queue independently — no event it executes can cause an event on
// another shard before t+L, so no shard can ever receive an event earlier
// than the horizon it already committed. Cross-shard work travels through
// per-(src,dst) mailboxes, double-buffered and swapped at the epoch
// barrier, so producers and the consumer never touch the same buffer.
//
// Determinism. Being *parallel* is easy; being bit-identical to the
// 1-shard run is the contract. Every event carries a causal order key
// (see sim/simulator.h): roots get partition-independent counter
// keys (seed()), children hash their parent's key — so a key depends only
// on the event's causal ancestry, never on which queue it sits in or when
// it arrived there. Each shard's calendar queue orders by (time, key);
// mailbox drains simply insert entries into the queue, where the canonical
// order takes over (this subsumes merging drains in (time, src, seq)
// order). By induction over (time, key), every per-domain event sequence —
// and therefore all simulation output — is identical for any shard count,
// provided domains share no mutable state within an epoch (the network
// layer's obligation; see docs/ARCHITECTURE.md "Sharded execution").
//
// Global events (Opera's slice-boundary reconfiguration, progress ticks)
// live on the coordinator queue and are barrier-aligned: at any timestamp
// g the epoch loop commits all shard work with time < g, runs the global
// events at g single-threaded (they may touch any shard's state — the
// workers are parked at the barrier), and only then lets shards process
// their own time-g events. 1-shard mode collapses to running the single
// queue between global events — the classic loop, no barriers, no
// mailboxes, no atomics on the hot path.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.h"
#include "sim/small_callback.h"
#include "sim/time.h"
#include "sim/worker_pool.h"

namespace opera::sim {

class ShardedSimulator;

// The shard index the calling thread is currently executing a phase for;
// -1 outside any phase. Used by shard-aware consumers (FlowTracker lanes)
// to stage side effects per shard without threading an id everywhere.
[[nodiscard]] int current_shard();

// A shard's scheduling handle: what network components hold instead of a
// raw Simulator&. Same-shard work schedules directly; cross-shard work is
// routed through the owning engine's mailboxes. Contexts exist only inside
// a ShardedSimulator (a 1-shard engine is the single-queue case).
class ShardContext {
 public:
  [[nodiscard]] Simulator& sim() { return *sim_; }
  [[nodiscard]] const Simulator& sim() const { return *sim_; }
  [[nodiscard]] Time now() const { return sim_->now(); }
  [[nodiscard]] int shard() const { return shard_; }
  [[nodiscard]] ShardedSimulator* owner() const { return owner_; }

  EventHandle schedule_in(Time delay, SmallCallback fn) {
    return sim_->schedule_in(delay, std::move(fn));
  }
  EventHandle schedule_at(Time at, SmallCallback fn) {
    return sim_->schedule_at(at, std::move(fn));
  }

  // Schedules `fn` at absolute time `at` in `dst`'s domain. The order key
  // derives from the currently executing event (the causal parent). Cross-
  // shard posts must respect the lookahead: `at` may not precede the
  // receiving epoch's start (asserted in debug builds); they are delivered
  // at the next epoch's mailbox drain — an event posted for horizon + ε is
  // delivered next epoch, never dropped.
  void post(ShardContext& dst, Time at, SmallCallback fn);

 private:
  friend class ShardedSimulator;
  ShardContext(Simulator& sim, ShardedSimulator* owner, int shard)
      : sim_(&sim), owner_(owner), shard_(shard) {}

  Simulator* sim_;
  ShardedSimulator* owner_;
  int shard_;
};

class ShardedSimulator {
 public:
  // `lookahead` must be at most the minimum cross-shard event latency
  // (for a packet network: the smallest inter-domain link propagation
  // delay). Ignored when num_shards == 1.
  ShardedSimulator(int num_shards, Time lookahead);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  [[nodiscard]] int num_shards() const { return static_cast<int>(shards_.size()); }
  [[nodiscard]] ShardContext& shard(int s) { return contexts_[static_cast<std::size_t>(s)]; }
  [[nodiscard]] Time lookahead() const { return lookahead_; }

  // The coordinator: its clock is the committed global time, its queue
  // holds barrier-aligned global events (slice boundaries, progress
  // ticks). Global events at time g run single-threaded after all shard
  // work before g has committed and before any shard's time-g events.
  [[nodiscard]] Simulator& global() { return global_; }
  [[nodiscard]] const Simulator& global() const { return global_; }
  [[nodiscard]] Time now() const { return global_.now(); }

  // Schedules a root event on shard `s` with a partition-independent key
  // (a global submission counter): how flow starts are injected so their
  // equal-time order is the submission order under any shard count.
  void seed(int s, Time at, SmallCallback fn);

  // Runs after every epoch barrier, before the next global events — the
  // deterministic point to merge per-shard staging (FlowTracker lanes).
  void set_barrier_hook(std::function<void()> hook) { barrier_hook_ = std::move(hook); }

  // Runs the epoch loop until simulated time `t` (inclusive: events at
  // exactly `t` fire, matching Simulator::run_until). Stops early when
  // global().stop() is requested from a global event. Returns events
  // executed across all shards and the coordinator.
  std::uint64_t run_until(Time t);

  [[nodiscard]] std::uint64_t events_executed() const;

  // Checkpoint hook. Only partition-invariant aggregates: the committed
  // global clock and the total dispatch count (each logical event runs
  // exactly once regardless of the shard partition). Per-shard clocks and
  // mailbox contents are partition-*dependent* and must never be digested.
  void fingerprint(Fingerprint& fp) const {
    fp.mix_time(global_.now());
    fp.mix_u64(events_executed());
  }

 private:
  friend class ShardContext;

  struct MailEntry {
    Time at;
    std::uint64_t key;
    SmallCallback fn;
  };
  // Double-buffered SPSC mailbox: the producing shard appends to `out`
  // during a phase; the barrier swaps; the consuming shard drains `in`
  // at its next phase start. Producer and consumer never share a buffer.
  struct Mailbox {
    std::vector<MailEntry> out;
    std::vector<MailEntry> in;
  };
  [[nodiscard]] Mailbox& box(int src, int dst) {
    return mailboxes_[static_cast<std::size_t>(src) *
                          static_cast<std::size_t>(num_shards()) +
                      static_cast<std::size_t>(dst)];
  }

  void push_mail(int src, int dst, Time at, std::uint64_t key, SmallCallback fn);
  // Swaps every mailbox's buffers; returns entries now awaiting delivery.
  std::size_t swap_mailboxes();
  [[nodiscard]] std::size_t mail_pending() const;
  void drain_inboxes(int dst);
  // One parallel phase: every shard drains its inboxes and runs its window
  // up to `end`. Followed by the barrier hook.
  void run_phase(Time end, bool inclusive);

  Simulator global_;
  std::vector<std::unique_ptr<Simulator>> shards_;
  std::vector<ShardContext> contexts_;
  std::vector<Mailbox> mailboxes_;
  Time lookahead_;
  Time phase_end_ = Time::zero();  // current epoch horizon (lookahead assert)
  bool in_phase_ = false;
  std::uint64_t seed_count_ = 0;
  std::function<void()> barrier_hook_;
};

}  // namespace opera::sim
