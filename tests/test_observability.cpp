// The event-trace observability layer (docs/OBSERVABILITY.md), the
// one-operation-per-processor guard, and the histogram quantile clamp.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/invariants.hpp"
#include "sim/stats.hpp"
#include "sim/trace_recorder.hpp"
#include "test_util.hpp"

namespace bcsim {
namespace {

using core::Machine;
using core::Processor;
using sim::TraceKind;
using sim::TraceRecorder;

// A processor runs one program: a second program on the same node issuing
// while the first has an operation outstanding is a usage error, reported
// from Machine::run with the node and both operations named.
TEST(Processor, SecondOutstandingOperationIsRejected) {
  auto cfg = test::paper_config(4);
  cfg.write_buffer_entries = 1;
  Machine m(cfg);
  struct Writer {
    sim::Task operator()(Processor& p) const {
      for (int k = 0; k < 48; ++k) {
        co_await p.write_global(256 + 4 * static_cast<Addr>(k), static_cast<Word>(k));
      }
    }
  } writer;
  struct Flusher {
    sim::Task operator()(Processor& p) const {
      co_await p.write_global(1024, 7);
      co_await p.flush_buffer();
    }
  } flusher;
  m.spawn(writer(m.processor(0)));
  m.spawn(flusher(m.processor(0)));
  try {
    m.run(20'000'000);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("node 0"), std::string::npos) << what;
    EXPECT_NE(what.find("WRITE-GLOBAL issued while WRITE-GLOBAL is outstanding"),
              std::string::npos)
        << what;
  }
}

// ---------------------------------------------------------------------------
// Histogram quantile clamp.
// ---------------------------------------------------------------------------

TEST(HistogramQuantile, EstimateNeverLeavesTheObservedRange) {
  sim::Histogram h;
  h.record(5);  // bucket [4,7]; raw midpoint 5.5 would exceed the max
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 5.0);

  sim::Histogram h2;
  h2.record(4);
  h2.record(5);
  EXPECT_GE(h2.quantile(0.01), 4.0);
  EXPECT_LE(h2.quantile(0.99), 5.0);

  sim::Histogram h3;
  h3.record(1000);  // bucket [512,1023]; both bounds clamp to 1000
  EXPECT_DOUBLE_EQ(h3.quantile(0.5), 1000.0);
}

TEST(HistogramQuantile, ZeroAndEmptyEdgeCases) {
  sim::Histogram empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  sim::Histogram h;
  h.record(0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  h.record(1);
  EXPECT_LE(h.quantile(0.99), 1.0);
}

// ---------------------------------------------------------------------------
// Network counter handles: caching Counter* must not change what is counted.
// ---------------------------------------------------------------------------

TEST(NetworkCounters, PerTypeTotalsStillMatchTheMessageCount) {
  for (const bool paper : {true, false}) {
    auto cfg = paper ? test::paper_config(4) : test::small_config(4);
    cfg.lock_impl = core::LockImpl::kCbl;
    Machine m(cfg);
    struct Prog {
      bool ru;
      sim::Task operator()(Processor& p) const {
        co_await p.write_lock(16);
        const Word v = co_await p.read(17);
        co_await p.write(17, v + 1);
        co_await p.unlock(16);
        if (ru) {
          co_await p.read_update(0);
          co_await p.write_global(0, p.id());
          co_await p.flush_buffer();
        } else {
          co_await p.read(64);
          co_await p.write(64, p.id());
        }
        co_await p.fetch_add(128, 1);
      }
    } prog{paper};
    for (NodeId i = 0; i < cfg.n_nodes; ++i) m.spawn(prog(m.processor(i)));
    test::run_all(m);
    const std::uint64_t total = m.stats().counter_value("net.messages");
    EXPECT_GT(total, 0u);
    EXPECT_EQ(m.stats().sum_by_prefix("net.msg."), total);
    EXPECT_EQ(m.stats().counter_value("net.sync_messages") +
                  m.stats().counter_value("net.data_messages"),
              total);
  }
}

// ---------------------------------------------------------------------------
// TraceRecorder: ring bounds, disabled cost model, exports.
// ---------------------------------------------------------------------------

TEST(TraceRecorder, DisabledRecorderRetainsNothing) {
  TraceRecorder tr;
  EXPECT_FALSE(tr.enabled());
  tr.wb_event(TraceKind::kWbEnter, 1, 0, 1);
  tr.record(sim::TraceRecord{});
  EXPECT_EQ(tr.size(), 0u);
  EXPECT_EQ(tr.recorded(), 0u);
  std::ostringstream os;
  tr.dump_tail(os, 8);  // must not crash on an empty ring
  EXPECT_NE(os.str().find("0 of 0 recorded"), std::string::npos);
}

TEST(TraceRecorder, RingOverwritesOldestAndCountsDrops) {
  TraceRecorder tr;
  tr.enable(4);
  for (std::uint64_t v = 0; v < 10; ++v) {
    tr.wb_event(TraceKind::kWbEnter, static_cast<Tick>(v), 0, v);
  }
  EXPECT_EQ(tr.capacity(), 4u);
  EXPECT_EQ(tr.size(), 4u);
  EXPECT_EQ(tr.recorded(), 10u);
  EXPECT_EQ(tr.dropped(), 6u);
  std::uint64_t expect = 6;  // oldest retained record first
  tr.for_each([&](const sim::TraceRecord& r) { EXPECT_EQ(r.value, expect++); });
  EXPECT_EQ(expect, 10u);
  tr.enable(8);  // re-enabling clears
  EXPECT_EQ(tr.size(), 0u);
  EXPECT_EQ(tr.recorded(), 0u);
}

TEST(TraceRecorder, DumpTailShowsOnlyTheNewestRecords) {
  TraceRecorder tr;
  tr.enable(16);
  for (std::uint64_t v = 1; v <= 6; ++v) {
    tr.wb_event(TraceKind::kWbRetire, static_cast<Tick>(100 + v), 2, v);
  }
  std::ostringstream os;
  tr.dump_tail(os, 2);
  const std::string s = os.str();
  EXPECT_NE(s.find("2 of 6 recorded"), std::string::npos) << s;
  EXPECT_EQ(s.find("[103]"), std::string::npos) << s;
  EXPECT_NE(s.find("[105]"), std::string::npos) << s;
  EXPECT_NE(s.find("[106]"), std::string::npos) << s;
  EXPECT_NE(s.find("wb-retire"), std::string::npos) << s;
}

// ---------------------------------------------------------------------------
// End-to-end: a traced run touches all five instrumented subsystems, and
// the exports carry the records.
// ---------------------------------------------------------------------------

/// Locks, a barrier, subscriptions, buffered global writes, and an RMW:
/// one program that makes every subsystem leave records.
sim::Task traced_worker(Processor& p, std::uint32_t participants) {
  co_await p.write_lock(16);
  const Word v = co_await p.read(17);
  co_await p.write(17, v + 1);
  co_await p.unlock(16);
  co_await p.read_update(0);
  co_await p.write_global(4 * p.id(), p.id() + 1);
  co_await p.flush_buffer();
  co_await p.fetch_add(128, 1);
  co_await p.barrier_arrive(32, participants);
}

TEST(TraceE2E, TracedRunRecordsAllFiveSubsystems) {
  auto cfg = test::paper_config(4);
  cfg.trace = true;
  Machine m(cfg);
  ASSERT_TRUE(m.simulator().trace().enabled());
  for (NodeId i = 0; i < cfg.n_nodes; ++i) {
    m.spawn(traced_worker(m.processor(i), cfg.n_nodes));
  }
  test::run_all(m);

  const TraceRecorder& tr = m.simulator().trace();
  EXPECT_GT(tr.recorded(), 0u);
  std::set<TraceKind> kinds;
  tr.for_each([&](const sim::TraceRecord& r) { kinds.insert(r.kind); });
  // All five subsystems: network (send + deliver), cache, directory,
  // synchronization, write buffer (the full enter/retire/flush cycle).
  EXPECT_TRUE(kinds.count(TraceKind::kMsgSend));
  EXPECT_TRUE(kinds.count(TraceKind::kMsgDeliver));
  EXPECT_TRUE(kinds.count(TraceKind::kCacheState));
  EXPECT_TRUE(kinds.count(TraceKind::kDirState));
  EXPECT_TRUE(kinds.count(TraceKind::kSyncOp));
  EXPECT_TRUE(kinds.count(TraceKind::kWbEnter));
  EXPECT_TRUE(kinds.count(TraceKind::kWbRetire));
  EXPECT_TRUE(kinds.count(TraceKind::kWbFlushReq));
  EXPECT_TRUE(kinds.count(TraceKind::kWbFlushDone));
}

TEST(TraceE2E, ChromeJsonAndCsvExportsCarryTheRecords) {
  auto cfg = test::paper_config(4);
  cfg.trace = true;
  Machine m(cfg);
  for (NodeId i = 0; i < cfg.n_nodes; ++i) {
    m.spawn(traced_worker(m.processor(i), cfg.n_nodes));
  }
  test::run_all(m);

  std::ostringstream json;
  m.simulator().trace().write_chrome_json(json);
  const std::string j = json.str();
  EXPECT_EQ(j.rfind("{\"traceEvents\":[", 0), 0u) << j.substr(0, 80);
  EXPECT_EQ(j.back(), '}');
  EXPECT_NE(j.find("\"ph\":\"M\""), std::string::npos);  // track metadata
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);  // events
  EXPECT_NE(j.find("\"write-buffer\""), std::string::npos);
  EXPECT_NE(j.find("\"directory\""), std::string::npos);
  EXPECT_NE(j.find("\"network\""), std::string::npos);
  EXPECT_NE(j.find("\"recorded\":"), std::string::npos);

  std::ostringstream csv;
  m.simulator().trace().write_csv(csv);
  const std::string c = csv.str();
  EXPECT_EQ(c.rfind("tick,kind,name,node,peer,block,detail,detail2,value\n", 0), 0u);
  EXPECT_NE(c.find("msg-send"), std::string::npos);
  EXPECT_NE(c.find("dir-state"), std::string::npos);
}

TEST(TraceE2E, TracingDoesNotChangeTheSchedule) {
  auto run_once = [](bool trace) {
    auto cfg = test::paper_config(4);
    cfg.trace = trace;
    Machine m(cfg);
    for (NodeId i = 0; i < cfg.n_nodes; ++i) {
      m.spawn(traced_worker(m.processor(i), cfg.n_nodes));
    }
    const Tick t = test::run_all(m);
    return std::pair<Tick, std::uint64_t>{t, m.stats().counter_value("net.messages")};
  };
  const auto plain = run_once(false);
  const auto traced = run_once(true);
  EXPECT_EQ(plain.first, traced.first);
  EXPECT_EQ(plain.second, traced.second);
}

// ---------------------------------------------------------------------------
// Violation dump: an invariant diagnostic comes with the trace tail.
// ---------------------------------------------------------------------------

TEST(TraceE2E, InvariantViolationDumpsTheTraceTail) {
  auto cfg = test::small_config(4);
  cfg.lock_impl = core::LockImpl::kCbl;
  cfg.invariants = sim::InvariantLevel::kQuiesce;
  cfg.trace = true;
  Machine m(cfg);
  struct Prog {
    sim::Task operator()(Processor& p) const {
      co_await p.write_lock(16);
      const Word v = co_await p.read(17);
      co_await p.write(17, v + 1);
      co_await p.unlock(16);
    }
  } prog;
  for (NodeId i = 0; i < cfg.n_nodes; ++i) m.spawn(prog(m.processor(i)));
  test::run_all(m);

  // The aftermath of a lost unlock notification (same fault as
  // test_invariants.cpp): node 2 still chained as a write holder.
  const BlockId b = m.address_map().block_of(16);
  const NodeId home = m.address_map().home_of(b);
  auto& e = m.directory(home).mutable_entry(b);
  e.lock_chain.push_back({NodeId{2}, net::LockMode::kWrite});
  e.lock_holders = 1;
  e.usage_lock = true;

  testing::internal::CaptureStderr();
  EXPECT_THROW(m.check_invariants("fault-injection"), sim::InvariantViolation);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("--- trace"), std::string::npos) << err;
  EXPECT_NE(err.find("trace tail ("), std::string::npos) << err;
  EXPECT_NE(err.find("lock-req"), std::string::npos) << err;  // real records inside
}

TEST(TraceE2E, NoDumpWhenTracingIsOff) {
  auto cfg = test::small_config(2);
  Machine m(cfg);
  struct Prog {
    sim::Task operator()(Processor& p) const { co_await p.write(64, 1); }
  } prog;
  m.spawn(prog(m.processor(0)));
  test::run_all(m);
  auto& e = m.directory(m.address_map().home_of(m.address_map().block_of(64)))
                .mutable_entry(m.address_map().block_of(64));
  e.owner = 1;  // forged owner
  testing::internal::CaptureStderr();
  EXPECT_THROW(m.check_invariants("fault-injection"), sim::InvariantViolation);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.find("trace tail"), std::string::npos) << err;
}

}  // namespace
}  // namespace bcsim
