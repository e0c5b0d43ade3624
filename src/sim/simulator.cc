#include "sim/simulator.h"

namespace opera::sim {

thread_local Simulator::DispatchFrame* Simulator::t_frame_ = nullptr;

Simulator::FrameGuard::FrameGuard(DispatchFrame* frame) : prev(t_frame_) {
  t_frame_ = frame;
}
Simulator::FrameGuard::~FrameGuard() { t_frame_ = prev; }

std::uint64_t Simulator::derive_key() {
  DispatchFrame* frame = t_frame_;
  if (frame == nullptr) return next_key_++;  // root event
  // Hash (parent key, child index): depends only on ancestry, so the same
  // logical event gets the same key under any shard partitioning.
  return mix64(frame->key * 0x9E3779B97F4A7C15ULL + ++frame->children) | kDerivedKeyBit;
}

void Simulator::dispatch_one(DispatchFrame& frame) {
  Time at;
  EventQueue::Callback fn = queue_.take_next(&at, &frame.key);
  frame.children = 0;
  // Advance the clock before dispatching so callbacks observe now().
  now_ = at;
  fn();
}

std::uint64_t Simulator::run_until(Time until) {
  stopped_ = false;
  std::uint64_t n = 0;
  DispatchFrame frame;
  const FrameGuard guard(&frame);
  while (!stopped_ && !queue_.empty() && queue_.next_time() <= until) {
    dispatch_one(frame);
    ++n;
  }
  if (!stopped_ && (queue_.empty() || queue_.next_time() > until)) {
    // Advance the clock to the horizon even if no event landed exactly there,
    // so back-to-back run_until() calls see monotonic time. An early stop
    // keeps the stop point (run_with_progress reads it as ended_at).
    if (until > now_ && until != Time::infinity()) now_ = until;
  }
  events_executed_ += n;
  return n;
}

std::uint64_t Simulator::run() {
  stopped_ = false;
  std::uint64_t n = 0;
  DispatchFrame frame;
  const FrameGuard guard(&frame);
  while (!stopped_ && !queue_.empty()) {
    dispatch_one(frame);
    ++n;
  }
  events_executed_ += n;
  return n;
}

std::uint64_t Simulator::run_window(Time end, bool inclusive) {
  std::uint64_t n = 0;
  DispatchFrame frame;
  const FrameGuard guard(&frame);
  while (!queue_.empty()) {
    const Time t = queue_.next_time();
    if (inclusive ? t > end : t >= end) break;
    dispatch_one(frame);
    ++n;
  }
  advance_to(end);
  events_executed_ += n;
  return n;
}

}  // namespace opera::sim
