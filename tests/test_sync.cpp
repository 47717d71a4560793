// Synchronization library tests: every mutex implementation must provide
// mutual exclusion and eventual completion under contention; semaphores and
// the reader-writer lock compose correctly.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/sync/mutex.hpp"
#include "core/sync/semaphore.hpp"
#include "test_util.hpp"

namespace bcsim {
namespace {

using core::LockImpl;
using core::Machine;
using core::MachineConfig;
using core::Processor;
using test::paper_config;
using test::run_all;
using test::small_config;

MachineConfig config_for(LockImpl impl, std::uint32_t n) {
  if (impl == LockImpl::kCbl) {
    // Exercise CBL on the paper's machine.
    auto cfg = paper_config(n);
    return cfg;
  }
  auto cfg = small_config(n);
  cfg.lock_impl = impl;
  cfg.network = core::NetworkKind::kOmega;
  return cfg;
}

// Critical-section data access helpers matching the machine mode.
core::OpAwaiter workload_read(Processor& p, Addr a, bool rides) {
  if (p.config().data_protocol == core::DataProtocol::kReadUpdate && !rides) {
    return p.read_global(a);
  }
  return p.read(a);
}
core::OpAwaiter workload_write(Processor& p, Addr a, Word v, bool rides) {
  if (p.config().data_protocol == core::DataProtocol::kReadUpdate && !rides) {
    return p.write_global(a, v);
  }
  return p.write(a, v);
}

class MutexExclusion : public ::testing::TestWithParam<LockImpl> {};

TEST_P(MutexExclusion, CounterIncrementsAreNotLost) {
  const LockImpl impl = GetParam();
  auto cfg = config_for(impl, 8);
  Machine m(cfg);
  auto alloc = m.make_allocator(/*start_block=*/100);
  auto mtx = sync::make_mutex(impl, alloc, m.n_nodes());
  // Counter placement: rides the CBL lock; separate coherent word otherwise.
  const Addr counter =
      mtx->data_rides_lock() ? mtx->lock_addr() + 1 : alloc.alloc_blocks(1);
  constexpr int kIters = 15;
  int in_cs = 0;
  bool overlap = false;
  auto prog = [&, counter](Processor& p) -> sim::Task {
    for (int k = 0; k < kIters; ++k) {
      co_await mtx->acquire(p);
      overlap = overlap || (in_cs != 0);
      ++in_cs;
      const Word v = co_await workload_read(p, counter, mtx->data_rides_lock());
      co_await p.compute(2);
      co_await workload_write(p, counter, v + 1, mtx->data_rides_lock());
      --in_cs;
      co_await mtx->release(p);
    }
  };
  for (NodeId i = 0; i < m.n_nodes(); ++i) m.spawn(prog(m.processor(i)));
  run_all(m);
  EXPECT_FALSE(overlap);
  EXPECT_EQ(m.peek_coherent(counter), static_cast<Word>(m.n_nodes()) * kIters);
}

INSTANTIATE_TEST_SUITE_P(AllImpls, MutexExclusion,
                         ::testing::Values(LockImpl::kCbl, LockImpl::kTts,
                                           LockImpl::kTtsBackoff, LockImpl::kTicket,
                                           LockImpl::kMcs),
                         [](const auto& pinfo) {
                           return std::string(core::to_string(pinfo.param)) == "tts-backoff"
                                      ? std::string("ttsBackoff")
                                      : std::string(core::to_string(pinfo.param));
                         });

class MutexFairness : public ::testing::TestWithParam<LockImpl> {};

TEST_P(MutexFairness, QueueLocksGrantInArrivalOrder) {
  // Queue-based locks (CBL, ticket, MCS) must grant in request order.
  const LockImpl impl = GetParam();
  auto cfg = config_for(impl, 6);
  Machine m(cfg);
  auto alloc = m.make_allocator(100);
  auto mtx = sync::make_mutex(impl, alloc, m.n_nodes());
  std::vector<NodeId> order;
  auto prog = [&](Processor& p, Tick stagger) -> sim::Task {
    co_await p.compute(stagger);
    co_await mtx->acquire(p);
    order.push_back(p.id());
    co_await p.compute(300);
    co_await mtx->release(p);
  };
  for (NodeId i = 0; i < 6; ++i) m.spawn(prog(m.processor(i), 40 * static_cast<Tick>(i)));
  run_all(m);
  ASSERT_EQ(order.size(), 6u);
  for (NodeId i = 0; i < 6; ++i) EXPECT_EQ(order[i], i);
}

INSTANTIATE_TEST_SUITE_P(QueueLocks, MutexFairness,
                         ::testing::Values(LockImpl::kCbl, LockImpl::kTicket, LockImpl::kMcs),
                         [](const auto& pinfo) {
                           return std::string(core::to_string(pinfo.param));
                         });

TEST(Semaphore, BoundsConcurrency) {
  auto cfg = config_for(LockImpl::kTts, 8);
  Machine m(cfg);
  auto alloc = m.make_allocator(100);
  sync::CountingSemaphore sem(cfg.lock_impl, alloc, m.n_nodes(), 3);
  int inside = 0, peak = 0;
  bool init_done = false;
  auto initp = [&](Processor& p) -> sim::Task {
    co_await sem.init(p);
    init_done = true;
  };
  m.spawn(initp(m.processor(0)));
  m.run();
  ASSERT_TRUE(init_done);
  auto prog = [&](Processor& p) -> sim::Task {
    for (int k = 0; k < 4; ++k) {
      co_await sem.p_op(p);
      ++inside;
      peak = std::max(peak, inside);
      // Long enough that admissions overlap despite lock-protocol latency.
      co_await p.compute(3000);
      --inside;
      co_await sem.v_op(p);
    }
  };
  for (NodeId i = 0; i < 8; ++i) m.spawn(prog(m.processor(i)));
  run_all(m);
  EXPECT_LE(peak, 3) << "semaphore admitted more than its count";
  EXPECT_GE(peak, 2) << "suspicious: no concurrency at all";
}

TEST(RwLock, ReadersConcurrentWritersExclusive) {
  Machine m(paper_config(6));
  auto alloc = m.make_allocator(100);
  sync::CblMutex rw(alloc);
  int readers = 0, writers = 0, peak_readers = 0;
  bool violation = false;
  auto reader = [&](Processor& p) -> sim::Task {
    for (int k = 0; k < 5; ++k) {
      co_await rw.acquire_shared(p);
      ++readers;
      peak_readers = std::max(peak_readers, readers);
      violation = violation || writers != 0;
      co_await p.compute(120);
      --readers;
      co_await rw.release(p);
      co_await p.compute(30);
    }
  };
  auto writer = [&](Processor& p) -> sim::Task {
    for (int k = 0; k < 5; ++k) {
      co_await rw.acquire(p);
      ++writers;
      violation = violation || readers != 0 || writers != 1;
      co_await p.compute(60);
      --writers;
      co_await rw.release(p);
      co_await p.compute(40);
    }
  };
  for (NodeId i = 0; i < 4; ++i) m.spawn(reader(m.processor(i)));
  m.spawn(writer(m.processor(4)));
  m.spawn(writer(m.processor(5)));
  run_all(m);
  EXPECT_FALSE(violation);
  EXPECT_GE(peak_readers, 2);
}

TEST(RwLock, WriterDataVisibleToSubsequentReaders) {
  Machine m(paper_config(4));
  auto alloc = m.make_allocator(100);
  sync::CblMutex rw(alloc);
  const Addr data = rw.lock_addr() + 2;
  std::vector<Word> seen;
  auto writer = [&](Processor& p) -> sim::Task {
    co_await rw.acquire(p);
    co_await p.write(data, 7);
    co_await rw.release(p);
  };
  auto reader = [&](Processor& p) -> sim::Task {
    co_await p.compute(200);
    co_await rw.acquire_shared(p);
    seen.push_back(co_await p.read(data));
    co_await rw.release(p);
  };
  m.spawn(writer(m.processor(0)));
  for (NodeId i = 1; i < 4; ++i) m.spawn(reader(m.processor(i)));
  run_all(m);
  ASSERT_EQ(seen.size(), 3u);
  for (Word w : seen) EXPECT_EQ(w, 7u);
}

TEST(MutexFactory, RejectsNothing) {
  auto cfg = small_config(2);
  Machine m(cfg);
  auto alloc = m.make_allocator(100);
  for (LockImpl impl : {LockImpl::kCbl, LockImpl::kTts, LockImpl::kTtsBackoff,
                        LockImpl::kTicket, LockImpl::kMcs}) {
    EXPECT_NE(sync::make_mutex(impl, alloc, 2), nullptr);
  }
}

}  // namespace
}  // namespace bcsim
