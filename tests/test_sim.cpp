// Unit tests for the discrete-event kernel: event queue ordering,
// simulator semantics, the PRNG, statistics, and coroutine tasks.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"

namespace bcsim::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    q.push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTickReportsEarliest) {
  EventQueue q;
  q.push(42, [] {});
  q.push(7, [] {});
  EXPECT_EQ(q.next_tick(), 7u);
  EXPECT_EQ(q.size(), 2u);
}

TEST(Simulator, AdvancesClockToEventTimes) {
  Simulator s;
  std::vector<Tick> seen;
  s.schedule(5, [&] { seen.push_back(s.now()); });
  s.schedule(2, [&] {
    seen.push_back(s.now());
    s.schedule(10, [&] { seen.push_back(s.now()); });
  });
  EXPECT_EQ(s.run(), RunResult::kIdle);
  EXPECT_EQ(seen, (std::vector<Tick>{2, 5, 12}));
}

TEST(Simulator, BudgetStopsRunawaySimulation) {
  Simulator s;
  std::function<void()> loop = [&] { s.schedule(10, loop); };
  s.schedule(0, loop);
  EXPECT_EQ(s.run(1000), RunResult::kBudget);
  EXPECT_LE(s.now(), 1000u);
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator s;
  s.schedule(10, [&] { EXPECT_THROW(s.schedule_at(5, [] {}), std::logic_error); });
  s.run();
}

TEST(Simulator, FiresOnTimeAtTheWheelEdgesAndBeyond) {
  // Delays around the event queue's window (EventQueue::kSpan ticks) and
  // far past it, scheduled from inside events at two depths: each event
  // checks that now() is the tick it was scheduled for.
  constexpr Tick kSpan = EventQueue::kSpan;
  const std::vector<Tick> delays = {0,         1,         kSpan - 1, kSpan,
                                    kSpan + 1, 2 * kSpan, 7 * kSpan + 3, 1'000'000};
  Simulator s;
  std::vector<Tick> fired;
  int late = 0;
  std::function<void(Tick, int)> arm = [&](Tick at, int depth) {
    s.schedule_at(at, [&, at, depth] {
      if (s.now() != at) ++late;
      fired.push_back(s.now());
      if (depth > 0) {
        for (const Tick d : delays) arm(s.now() + d, depth - 1);
      }
    });
  };
  arm(0, 2);
  EXPECT_EQ(s.run(), RunResult::kIdle);
  EXPECT_EQ(late, 0);
  EXPECT_EQ(fired.size(), 1 + delays.size() + delays.size() * delays.size());
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(s.now(), 2'000'000u);
}

TEST(Simulator, RunUntilAdvancesToBoundary) {
  Simulator s;
  int fired = 0;
  s.schedule(10, [&] { ++fired; });
  s.schedule(20, [&] { ++fired; });
  s.run_until(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 15u);
  s.run_until(25);
  EXPECT_EQ(fired, 2);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  bool all_equal = true, any_diff = false;
  for (int i = 0; i < 1000; ++i) {
    const auto va = a.next_u64();
    all_equal = all_equal && (va == b.next_u64());
    any_diff = any_diff || (va != c.next_u64());
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff);
}

TEST(Rng, NextBelowIsInRangeAndCoversValues) {
  Rng r(7);
  std::map<std::uint64_t, int> histo;
  for (int i = 0; i < 30000; ++i) ++histo[r.next_below(10)];
  ASSERT_EQ(histo.size(), 10u);
  for (const auto& [v, count] : histo) {
    EXPECT_LT(v, 10u);
    EXPECT_GT(count, 2400) << "value " << v << " badly under-represented";
    EXPECT_LT(count, 3600) << "value " << v << " badly over-represented";
  }
}

TEST(Rng, ChanceMatchesProbabilityRoughly) {
  Rng r(99);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += r.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

TEST(Rng, NextBelowEdgeCases) {
  Rng r(1);
  EXPECT_EQ(r.next_below(0), 0u);
  EXPECT_EQ(r.next_below(1), 0u);
  for (int i = 0; i < 100; ++i) EXPECT_LT(r.next_below(2), 2u);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(5);
  Rng b = a.split();
  bool differs = false;
  for (int i = 0; i < 100; ++i) differs = differs || (a.next_u64() != b.next_u64());
  EXPECT_TRUE(differs);
}

TEST(Histogram, TracksMoments) {
  Histogram h;
  for (std::uint64_t v : {1u, 2u, 3u, 4u, 100u}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 110u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 22.0);
}

TEST(Histogram, QuantileApproximation) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(8);  // bit_width 4 -> bucket [8,15]
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 8.0);
  EXPECT_LE(p50, 15.0);
}

TEST(Histogram, EmptyIsSane) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(StatsRegistry, CountersAreStableAndNamed) {
  StatsRegistry reg;
  Counter& a = reg.counter("x.a");
  reg.counter("x.b").add(3);
  a.add(2);
  EXPECT_EQ(reg.counter_value("x.a"), 2u);
  EXPECT_EQ(reg.counter_value("x.b"), 3u);
  EXPECT_EQ(reg.counter_value("missing"), 0u);
  EXPECT_EQ(reg.sum_by_prefix("x."), 5u);
  EXPECT_EQ(reg.sum_by_prefix("y."), 0u);
}

TEST(StatsRegistry, ReportMentionsEverything) {
  StatsRegistry reg;
  reg.counter("alpha").add(1);
  reg.histogram("lat").record(5);
  std::ostringstream os;
  reg.report(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("lat"), std::string::npos);
}

// --- coroutine tasks ---

Task trivial(int& out) {
  out = 42;
  co_return;
}

TEST(Task, LazyStart) {
  int out = 0;
  Task t = trivial(out);
  EXPECT_EQ(out, 0);  // initial_suspend: nothing ran yet
  t.start();
  EXPECT_EQ(out, 42);
  EXPECT_TRUE(t.done());
}

Task sleeper(Simulator& s, std::vector<Tick>& log) {
  log.push_back(s.now());
  co_await delay(s, 10);
  log.push_back(s.now());
  co_await delay(s, 5);
  log.push_back(s.now());
}

TEST(Task, DelayAwaitsSimTime) {
  Simulator s;
  std::vector<Tick> log;
  Task t = sleeper(s, log);
  s.schedule(0, [&t] { t.start(); });
  s.run();
  EXPECT_EQ(log, (std::vector<Tick>{0, 10, 15}));
  EXPECT_TRUE(t.done());
}

Task inner(Simulator& s, std::vector<int>& log) {
  log.push_back(1);
  co_await delay(s, 3);
  log.push_back(2);
}

Task outer(Simulator& s, std::vector<int>& log) {
  log.push_back(0);
  co_await inner(s, log);
  log.push_back(3);
}

TEST(Task, NestedAwaitResumesParent) {
  Simulator s;
  std::vector<int> log;
  Task t = outer(s, log);
  s.schedule(0, [&t] { t.start(); });
  s.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
}

Task thrower() {
  throw std::runtime_error("boom");
  co_return;  // unreachable; marks this as a coroutine
}

TEST(Task, ExceptionIsCapturedAndRethrown) {
  Task t = thrower();
  t.start();
  EXPECT_TRUE(t.done());
  EXPECT_THROW(t.rethrow_if_failed(), std::runtime_error);
}

}  // namespace
}  // namespace bcsim::sim
