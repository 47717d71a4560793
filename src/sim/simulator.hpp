// Discrete-event simulator: global clock + event loop.
//
// One Simulator per experiment. Components keep a reference and use
// schedule()/schedule_at() to enqueue future work. run() drains events until
// the queue empties or a cycle budget expires.
// Every simulation runs on this one single-threaded loop; only whole
// experiments run in parallel (sim/sweep.hpp).
#pragma once

#include <cstdint>
#include <stdexcept>

#include "sim/event_queue.hpp"
#include "sim/trace_recorder.hpp"
#include "sim/types.hpp"

namespace bcsim::sim {

/// Why the event loop returned.
enum class RunResult {
  kIdle,      ///< Event queue drained (the natural end of a simulation).
  kBudget,    ///< The cycle budget was exhausted (likely livelock or too-small budget).
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time in cycles.
  [[nodiscard]] Tick now() const noexcept { return now_; }

  /// Same-tick tie-break policy (see EventQueue::set_schedule_seed): 0 is
  /// strict FIFO, any other seed a deterministic permutation. Set before
  /// the first schedule() call.
  void set_schedule_seed(std::uint64_t seed) noexcept { queue_.set_schedule_seed(seed); }
  [[nodiscard]] std::uint64_t schedule_seed() const noexcept { return queue_.schedule_seed(); }

  // --- scheduling -------------------------------------------------------

  /// Schedules `fn` to run `delay` cycles from now.
  void schedule(Tick delay, EventFn fn) { queue_.push(now_ + delay, std::move(fn)); }

  /// Schedules `fn` at absolute time `at`; `at` must be >= now().
  void schedule_at(Tick at, EventFn fn) {
    if (at < now_) throw std::logic_error("Simulator: scheduling into the past");
    queue_.push(at, std::move(fn));
  }

  /// schedule_at() on an ordering channel: same-tick events on one channel
  /// keep scheduling order under every schedule seed (point-to-point FIFO).
  void schedule_at_channel(Tick at, std::uint64_t channel, EventFn fn) {
    if (at < now_) throw std::logic_error("Simulator: scheduling into the past");
    queue_.push_channel(at, channel, std::move(fn));
  }

  // --- running ----------------------------------------------------------

  /// Runs until the queue drains or `max_cycles` have elapsed since the
  /// start of this run() call (a safety net against protocol livelock —
  /// hitting it is reported, never silent).
  RunResult run(Tick max_cycles = kNever);

  /// Runs until simulated time reaches `until` (events at `until` included).
  void run_until(Tick until);

  [[nodiscard]] std::uint64_t events_processed() const noexcept { return events_processed_; }
  [[nodiscard]] std::size_t pending_events() const noexcept { return queue_.size(); }

  // --- tracing ----------------------------------------------------------

  /// Event-trace recorder. Owned here because every component already
  /// holds a Simulator&; disabled (and free) unless enabled explicitly.
  [[nodiscard]] TraceRecorder& trace() noexcept { return trace_; }
  [[nodiscard]] const TraceRecorder& trace() const noexcept { return trace_; }

  void enable_trace(std::size_t capacity = TraceRecorder::kDefaultCapacity) {
    trace_.enable(capacity);
  }

 private:
  static Tick saturating_add(Tick a, Tick b) noexcept {
    return (b > kNever - a) ? kNever : a + b;
  }
  /// Runs every event due at or before `until`, in order.
  void drain(Tick until);

  EventQueue queue_;
  TraceRecorder trace_;
  Tick now_ = 0;
  std::uint64_t events_processed_ = 0;
};

}  // namespace bcsim::sim
