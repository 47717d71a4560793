// Pins the event queue's firing order to one binary heap of every event.
//
// sim::EventQueue is a timing wheel: one-tick slots over a window of
// EventQueue::kSpan ticks, a far heap for events outside the window, and
// one pool of event nodes (sim/event_queue.hpp). It is only correct if it
// fires in exactly the total order (tick, key, seq) under every schedule
// seed: events pushed while their tick is being drained, pushes at the
// window's edge and far beyond it, queues that hold only far events (the
// window jumps), and runs long enough for the slots to wrap round
// thousands of times. ReferenceEventQueue below is the queue's first
// representation, one binary heap of (tick, key, seq, std::function),
// kept as the oracle; the tests drive both with identical operation
// scripts and demand identical firing orders.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/machine.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "workload/work_queue_model.hpp"

namespace bcsim::sim {
namespace {

/// The pre-rewrite EventQueue: one binary heap of (tick, key, seq,
/// std::function). Copied verbatim (modulo the class name) to serve as the
/// ordering oracle.
class ReferenceEventQueue {
 public:
  using Fn = std::function<void()>;

  void set_schedule_seed(std::uint64_t seed) noexcept { schedule_seed_ = seed; }

  std::uint64_t push(Tick at, Fn fn) {
    heap_.push_back(Item{at, tie_key(next_seq_), next_seq_, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return next_seq_++;
  }

  std::uint64_t push_channel(Tick at, std::uint64_t channel, Fn fn) {
    const std::uint64_t key =
        (schedule_seed_ == 0)
            ? next_seq_
            : SplitMix64(schedule_seed_ ^ (channel * 0x9e3779b97f4a7c15ULL)).next();
    heap_.push_back(Item{at, key, next_seq_, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return next_seq_++;
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  [[nodiscard]] std::pair<Tick, Fn> pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Item item = std::move(heap_.back());
    heap_.pop_back();
    return {item.at, std::move(item.fn)};
  }

  void clear() noexcept { heap_.clear(); }

 private:
  struct Item {
    Tick at;
    std::uint64_t key;
    std::uint64_t seq;
    Fn fn;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      if (a.key != b.key) return a.key > b.key;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] std::uint64_t tie_key(std::uint64_t seq) const noexcept {
    if (schedule_seed_ == 0) return seq;
    return SplitMix64(schedule_seed_ ^ (seq * 0x9e3779b97f4a7c15ULL)).next();
  }

  std::vector<Item> heap_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t schedule_seed_ = 0;
};

/// One scripted operation: push (possibly on a channel) or pop-and-fire.
struct Op {
  enum Kind { kPush, kPushChannel, kPop } kind;
  Tick at = 0;
  std::uint64_t channel = 0;
};

/// Deterministic op script: bursts of pushes with clustered ticks (many
/// same-tick collisions), interleaved with drains, some ops on channels.
std::vector<Op> make_script(std::uint64_t rng_seed, int n_ops) {
  Rng rng(rng_seed);
  std::vector<Op> ops;
  Tick now = 0;
  int pending = 0;
  for (int i = 0; i < n_ops; ++i) {
    const std::uint64_t dice = rng.next_below(10);
    if (dice < 6 || pending == 0) {
      // Cluster ticks so same-tick ties dominate the ordering.
      const Tick at = now + rng.next_below(4);
      if (rng.chance(0.3)) {
        ops.push_back({Op::kPushChannel, at, rng.next_below(5)});
      } else {
        ops.push_back({Op::kPush, at, 0});
      }
      ++pending;
    } else {
      ops.push_back({Op::kPop});
      --pending;
      if (rng.chance(0.25)) ++now;  // time advances between some drains
    }
  }
  for (; pending > 0; --pending) ops.push_back({Op::kPop});
  return ops;
}

/// Runs the script against any queue with the EventQueue interface and
/// returns the firing order as (tick, event-id) pairs. Every pushed callback
/// records its own id; pops fire the callback immediately (as the simulator
/// main loop does).
template <typename Queue>
std::vector<std::pair<Tick, int>> run_script(Queue& q, const std::vector<Op>& ops) {
  std::vector<std::pair<Tick, int>> fired;
  int next_id = 0;
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kPush: {
        const int id = next_id++;
        // Tick recorded as kNever here; the pop below patches in the tick
        // the queue actually reported.
        q.push(op.at, [&fired, id] { fired.emplace_back(kNever, id); });
        break;
      }
      case Op::kPushChannel: {
        const int id = next_id++;
        q.push_channel(op.at, op.channel, [&fired, id] { fired.emplace_back(kNever, id); });
        break;
      }
      case Op::kPop: {
        auto [at, fn] = q.pop();
        fn();
        fired.back().first = at;  // patch the recorded tick
        break;
      }
    }
  }
  return fired;
}

using SeedList = std::vector<std::uint64_t>;
const SeedList kSeeds = {0, 1, 42, 7'777, 0xdeadbeefULL};

TEST(EventRepr, PushAllThenDrainMatchesReferenceAcrossSeeds) {
  for (const std::uint64_t seed : kSeeds) {
    EventQueue q;
    ReferenceEventQueue ref;
    q.set_schedule_seed(seed);
    ref.set_schedule_seed(seed);
    // All pushes first, then a full drain: the pure heap-order case.
    std::vector<Op> ops;
    Rng rng(99);
    for (int i = 0; i < 500; ++i) {
      if (rng.chance(0.3)) {
        ops.push_back({Op::kPushChannel, rng.next_below(50), rng.next_below(4)});
      } else {
        ops.push_back({Op::kPush, rng.next_below(50), 0});
      }
    }
    for (int i = 0; i < 500; ++i) ops.push_back({Op::kPop});
    EXPECT_EQ(run_script(q, ops), run_script(ref, ops)) << "schedule seed " << seed;
  }
}

TEST(EventRepr, InterleavedPushPopMatchesReferenceAcrossSeeds) {
  for (const std::uint64_t seed : kSeeds) {
    for (const std::uint64_t script : {11ULL, 22ULL, 33ULL}) {
      EventQueue q;
      ReferenceEventQueue ref;
      q.set_schedule_seed(seed);
      ref.set_schedule_seed(seed);
      const auto ops = make_script(script, 800);
      EXPECT_EQ(run_script(q, ops), run_script(ref, ops))
          << "schedule seed " << seed << ", script " << script;
    }
  }
}

TEST(EventRepr, MidDrainSameTickPushesMatchReference) {
  // Callbacks that push more work at the *same* tick while that tick is
  // being drained — the queue must weave them into the unfired tail
  // exactly where the all-events heap fires them.
  for (const std::uint64_t seed : kSeeds) {
    auto drive = [seed](auto& q) {
      q.set_schedule_seed(seed);
      std::vector<int> fired;
      int next_id = 0;
      std::function<void(int)> spawn = [&](int id) {
        fired.push_back(id);
        if (id % 3 == 0 && next_id < 200) {
          const int a = next_id++;
          q.push(7, [&spawn, a] { spawn(a); });
        }
        if (id % 5 == 0 && next_id < 200) {
          const int b = next_id++;
          q.push_channel(7, 2, [&spawn, b] { spawn(b); });
        }
      };
      for (int i = 0; i < 40; ++i) {
        const int id = next_id++;
        q.push(7, [&spawn, id] { spawn(id); });
      }
      while (!q.empty()) q.pop().second();
      return fired;
    };
    EventQueue q;
    ReferenceEventQueue ref;
    EXPECT_EQ(drive(q), drive(ref)) << "schedule seed " << seed;
  }
}

/// Drives a queue with pushes placed relative to the tick that fired last,
/// so the script controls distances, not absolute ticks. Before each pop
/// the queue is topped up to `pending` events; each fired event pushes one
/// more, while its tick is draining, with probability 1/2 (until `pops`
/// events have fired). `distance(rng)` draws each push's distance; a third
/// of the pushes go on one of four channels. Returns the firing order as
/// (tick, event id) pairs.
template <typename Queue, typename Distance>
std::vector<std::pair<Tick, int>> run_relative(Queue& q, std::uint64_t script, int pops,
                                               int pending, Distance distance) {
  Rng rng(script);
  std::vector<std::pair<Tick, int>> fired;
  Tick now = 0;
  int next_id = 0;
  int live = 0;
  std::function<void()> push_one = [&] {
    const int id = next_id++;
    const Tick at = now + distance(rng);
    auto fire = [&, id] {
      fired.emplace_back(now, id);
      if (static_cast<int>(fired.size()) < pops && rng.chance(0.5)) push_one();
    };
    if (rng.chance(0.3)) {
      q.push_channel(at, rng.next_below(4), fire);
    } else {
      q.push(at, fire);
    }
    ++live;
  };
  while (live > 0 || static_cast<int>(fired.size()) < pops) {
    while (live < pending && static_cast<int>(fired.size()) < pops) push_one();
    auto [at, fn] = q.pop();
    --live;
    now = at;
    fn();
  }
  return fired;
}

/// Runs the same relative script on both queues under every schedule seed.
template <typename Distance>
void expect_relative_matches_reference(std::uint64_t script, int pops, int pending,
                                       Distance distance) {
  for (const std::uint64_t seed : kSeeds) {
    EventQueue q;
    ReferenceEventQueue ref;
    q.set_schedule_seed(seed);
    ref.set_schedule_seed(seed);
    const auto got = run_relative(q, script, pops, pending, distance);
    const auto want = run_relative(ref, script, pops, pending, distance);
    ASSERT_EQ(got.size(), want.size()) << "schedule seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "schedule seed " << seed << ", firing " << i;
    }
    EXPECT_TRUE(q.empty());
  }
}

constexpr Tick kSpan = EventQueue::kSpan;

TEST(EventRepr, PushesAtTheSpanEdgeMatchReference) {
  // Distances on both sides of the window's end (span - 1 lands in the
  // slot just behind base's own; span and span + 1 would land on base's
  // slot and the next, so they must wait in the far heap), far beyond the
  // span, and same-tick pushes during a drain.
  const Tick edges[] = {0,        1,        2,         kSpan - 1, kSpan,
                        kSpan + 1, 2 * kSpan - 1, 2 * kSpan, 2 * kSpan + 1, 37 * kSpan + 5};
  for (const std::uint64_t script : {3ULL, 4ULL}) {
    expect_relative_matches_reference(script, 3000, 24, [&edges](Rng& rng) {
      return rng.chance(0.3) ? rng.next_below(4) : edges[rng.next_below(std::size(edges))];
    });
  }
}

TEST(EventRepr, QueuesOfOnlyFarEventsJumpTheWindow) {
  // Every push lands at least a span ahead, so the wheel receives events
  // only by migration, and whenever it drains the window jumps to the
  // earliest far event; equal distances from one tick collide, so whole
  // bursts migrate onto one slot together.
  const Tick far[] = {kSpan, kSpan + 1, 2 * kSpan, 3 * kSpan + 2, 1000 * kSpan};
  for (const std::uint64_t script : {5ULL, 6ULL}) {
    expect_relative_matches_reference(script, 2000, 8, [&far](Rng& rng) {
      return far[rng.next_below(std::size(far))];
    });
  }
}

TEST(EventRepr, ThousandsOfLapsOfTheWheelMatchReference) {
  // A sparse wheel over millions of ticks: the slot search wraps round
  // from the last word of the bitmap to the first on every lap.
  const auto distance = [](Rng& rng) {
    return rng.chance(0.5) ? rng.next_below(8) : rng.next_below(2 * kSpan + 1);
  };
  expect_relative_matches_reference(7, 40000, 8, distance);
  EventQueue q;
  const Tick last = run_relative(q, 7, 40000, 8, distance).back().first;
  EXPECT_GT(last / kSpan, 2000u) << "the script must lap the wheel thousands of times";
}

TEST(EventRepr, EarlierTickPushMidDrainStillFiresFirst) {
  // The raw queue API allows pushing an event earlier than the tick being
  // drained (the simulator never does, but tests and tools may). The
  // earlier event must pop before the remainder of the current tick.
  EventQueue q;
  std::vector<std::pair<Tick, int>> fired;
  q.push(10, [&] { fired.emplace_back(10, 0); });
  q.push(10, [&q, &fired] {
    fired.emplace_back(10, 1);
    q.push(5, [&fired] { fired.emplace_back(5, 2); });
  });
  q.push(10, [&] { fired.emplace_back(10, 3); });
  // Fire id 0 and id 1; id 1 schedules id 2 at tick 5 < 10.
  while (!q.empty()) {
    auto [at, fn] = q.pop();
    (void)at;
    fn();
  }
  const std::vector<std::pair<Tick, int>> want = {{10, 0}, {10, 1}, {5, 2}, {10, 3}};
  EXPECT_EQ(fired, want);
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventRepr, ClearResetsSequenceNumbering) {
  // A cleared queue must behave exactly like a fresh one: the same pushes
  // must fire in the same order. Before the fix, clear() left next_seq_
  // at its high-water mark, so a nonzero schedule seed hashed different
  // (seed, seq) pairs after a clear and the "same" program fired in a
  // different order.
  const std::uint64_t seed = 42;
  auto record = [&](EventQueue& q) {
    std::vector<int> order;
    for (int i = 0; i < 64; ++i) q.push(3, [&order, i] { order.push_back(i); });
    while (!q.empty()) q.pop().second();
    return order;
  };
  EventQueue fresh;
  fresh.set_schedule_seed(seed);
  const auto want = record(fresh);

  EventQueue recycled;
  recycled.set_schedule_seed(seed);
  for (int i = 0; i < 37; ++i) recycled.push(1, [] {});
  for (int i = 0; i < 10; ++i) (void)recycled.pop();
  recycled.clear();
  EXPECT_TRUE(recycled.empty());
  EXPECT_EQ(record(recycled), want);
}

TEST(EventRepr, ClearKeepsScheduleSeed) {
  EventQueue q;
  q.set_schedule_seed(1234);
  q.push(1, [] {});
  q.clear();
  EXPECT_EQ(q.schedule_seed(), 1234u);
}

TEST(EventRepr, MachineDigestIsRerunStable) {
  // Whole-machine determinism: two identical runs must agree on every
  // statistic (the digest every line of tests/pins.txt records).
  auto run_once = [] {
    core::MachineConfig cfg;
    cfg.n_nodes = 8;
    cfg.data_protocol = core::DataProtocol::kReadUpdate;
    cfg.consistency = core::Consistency::kBuffered;
    cfg.lock_impl = core::LockImpl::kCbl;
    cfg.barrier_impl = core::BarrierImpl::kCbl;
    cfg.validate();
    core::Machine m(cfg);
    workload::WorkQueueConfig wq;
    wq.total_tasks = 48;
    wq.grain = 15;
    workload::WorkQueueWorkload w(m, wq);
    w.spawn_all(m);
    (void)m.run(1'000'000'000ULL);
    return m.stats_digest();
  };
  const std::uint64_t a = run_once();
  const std::uint64_t b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0u);
}

#if GTEST_HAS_DEATH_TEST
TEST(EventQueueAssertions, NextTickOnEmptyQueueAsserts) {
  EXPECT_DEATH(
      {
        EventQueue q;
        (void)q.next_tick();
      },
      "empty");
}

TEST(EventQueueAssertions, PopOnEmptyQueueAsserts) {
  EXPECT_DEATH(
      {
        EventQueue q;
        (void)q.pop();
      },
      "empty");
}
#endif

}  // namespace
}  // namespace bcsim::sim
