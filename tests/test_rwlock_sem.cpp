// Direct unit tests for the thin sync wrappers: the shared mode of
// sync::Mutex (core/sync/mutex.hpp) and CountingSemaphore
// (core/sync/semaphore.hpp).
// The lock and directory protocols underneath have their own suites
// (test_cbl, test_sync); these tests pin the wrapper-level contracts —
// reader concurrency, writer preference in the grant order, counting
// semantics, and the unsigned counter's underflow guard.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/machine.hpp"
#include "core/sync/mutex.hpp"
#include "core/sync/semaphore.hpp"
#include "test_util.hpp"

namespace bcsim {
namespace {

using core::Machine;
using core::Processor;
using test::paper_config;
using test::run_all;
using test::small_config;

core::MachineConfig cbl_config(std::uint32_t n_nodes) {
  auto cfg = small_config(n_nodes);
  cfg.lock_impl = core::LockImpl::kCbl;
  cfg.barrier_impl = core::BarrierImpl::kCbl;
  return cfg;
}

// ---------------------------------------------------------------------------
// Mutex::acquire_shared: READ-LOCK on CBL, exclusive on a software lock
// ---------------------------------------------------------------------------

// Readers overlap: with N readers each holding the lock across a long
// compute, at least two must be inside simultaneously (a mutual-exclusion
// lock would serialize them).
TEST(CblSharedMode, ReadersShareTheLock) {
  const auto cfg = cbl_config(4);
  Machine m(cfg);
  auto alloc = m.make_allocator();
  sync::CblMutex rw(alloc);
  int inside = 0;
  int peak = 0;
  struct Reader {
    sync::CblMutex& rw;
    int& inside;
    int& peak;
    sim::Task operator()(Processor& p) const {
      co_await rw.acquire_shared(p);
      ++inside;
      peak = std::max(peak, inside);
      co_await p.compute(200);
      --inside;
      co_await rw.release(p);
    }
  } reader{rw, inside, peak};
  for (NodeId i = 0; i < cfg.n_nodes; ++i) m.spawn(reader(m.processor(i)));
  run_all(m);
  EXPECT_GE(peak, 2) << "read holders never overlapped";
  EXPECT_EQ(inside, 0);
}

// Writers exclude everyone: concurrent writers incrementing a word in the
// protected block must not lose updates, and no two may overlap.
TEST(CblSharedMode, WritersAreExclusive) {
  const auto cfg = cbl_config(4);
  Machine m(cfg);
  auto alloc = m.make_allocator();
  sync::CblMutex rw(alloc);
  const Addr counter = rw.lock_addr() + 1;
  constexpr int kIters = 5;
  int inside = 0;
  bool overlapped = false;
  struct Writer {
    sync::CblMutex& rw;
    Addr counter;
    int& inside;
    bool& overlapped;
    sim::Task operator()(Processor& p) const {
      for (int k = 0; k < kIters; ++k) {
        co_await rw.acquire(p);
        if (++inside > 1) overlapped = true;
        const Word v = co_await p.read(counter);
        co_await p.compute(3);
        co_await p.write(counter, v + 1);
        --inside;
        co_await rw.release(p);
      }
    }
  } writer{rw, counter, inside, overlapped};
  for (NodeId i = 0; i < cfg.n_nodes; ++i) m.spawn(writer(m.processor(i)));
  run_all(m);
  EXPECT_FALSE(overlapped);
  EXPECT_EQ(m.peek_memory(counter), static_cast<Word>(cfg.n_nodes) * kIters);
}

// Writer preference under contention: the CBL directory only lets a new
// reader join the current holder group while the whole waiting chain is
// read-mode — once a writer queues, later readers queue behind it rather
// than slipping into the active group (src/proto/directory_cbl.cpp's
// share condition). With readers holding the lock, a writer arriving
// before a late reader must run before that reader.
TEST(CblSharedMode, QueuedWriterBlocksLaterReaders) {
  const auto cfg = cbl_config(4);
  Machine m(cfg);
  auto alloc = m.make_allocator();
  sync::CblMutex rw(alloc);
  std::vector<int> order;  // 0 = early reader, 1 = writer, 2 = late reader
  struct EarlyReader {
    sync::CblMutex& rw;
    std::vector<int>& order;
    sim::Task operator()(Processor& p) const {
      co_await rw.acquire_shared(p);
      order.push_back(0);
      co_await p.compute(400);  // hold long enough for the others to queue
      co_await rw.release(p);
    }
  } early{rw, order};
  struct LockWriter {
    sync::CblMutex& rw;
    std::vector<int>& order;
    sim::Task operator()(Processor& p) const {
      co_await p.compute(100);  // arrive while the early readers hold
      co_await rw.acquire(p);
      order.push_back(1);
      co_await rw.release(p);
    }
  } writer{rw, order};
  struct LateReader {
    sync::CblMutex& rw;
    std::vector<int>& order;
    sim::Task operator()(Processor& p) const {
      co_await p.compute(250);  // arrive after the writer queued
      co_await rw.acquire_shared(p);
      order.push_back(2);
      co_await rw.release(p);
    }
  } late{rw, order};
  m.spawn(early(m.processor(0)));
  m.spawn(early(m.processor(1)));
  m.spawn(writer(m.processor(2)));
  m.spawn(late(m.processor(3)));
  run_all(m);
  ASSERT_EQ(order.size(), 4u);
  const auto writer_at = std::find(order.begin(), order.end(), 1);
  const auto late_at = std::find(order.begin(), order.end(), 2);
  EXPECT_LT(writer_at - order.begin(), late_at - order.begin())
      << "a reader that arrived after a queued writer ran before it";
}

// A software lock has no shared mode: acquire_shared takes it exclusively,
// so readers never overlap.
TEST(SoftwareLockSharedMode, ReadersAreSerialized) {
  const auto cfg = small_config(4);
  Machine m(cfg);
  auto alloc = m.make_allocator();
  const auto lock = sync::make_mutex(core::LockImpl::kTts, alloc, cfg.n_nodes);
  int inside = 0;
  int peak = 0;
  struct Reader {
    sync::Mutex& lock;
    int& inside;
    int& peak;
    sim::Task operator()(Processor& p) const {
      co_await lock.acquire_shared(p);
      ++inside;
      peak = std::max(peak, inside);
      co_await p.compute(200);
      --inside;
      co_await lock.release(p);
    }
  } reader{*lock, inside, peak};
  for (NodeId i = 0; i < cfg.n_nodes; ++i) m.spawn(reader(m.processor(i)));
  run_all(m);
  EXPECT_EQ(peak, 1) << "shared holders of a software lock overlapped";
  EXPECT_EQ(inside, 0);
}

// ---------------------------------------------------------------------------
// CountingSemaphore
// ---------------------------------------------------------------------------

// P blocks at zero and resumes on V; the count returns to its initial
// value once every P has been matched.
TEST(CountingSemaphore, PBlocksUntilV) {
  const auto cfg = paper_config(2);
  Machine m(cfg);
  auto alloc = m.make_allocator();
  sync::CountingSemaphore sem(cfg.lock_impl, alloc, cfg.n_nodes, 0);
  m.poke_memory(sem.count_addr(), 0);
  bool consumed = false;
  bool produced = false;
  struct Consumer {
    sync::CountingSemaphore& sem;
    bool& consumed;
    const bool& produced;
    sim::Task operator()(Processor& p) const {
      co_await sem.p_op(p);
      EXPECT_TRUE(produced) << "P returned before any V";
      consumed = true;
    }
  } consumer{sem, consumed, produced};
  struct Producer {
    sync::CountingSemaphore& sem;
    bool& produced;
    sim::Task operator()(Processor& p) const {
      co_await p.compute(500);
      produced = true;
      co_await sem.v_op(p);
    }
  } producer{sem, produced};
  m.spawn(consumer(m.processor(0)));
  m.spawn(producer(m.processor(1)));
  run_all(m);
  EXPECT_TRUE(consumed);
  EXPECT_EQ(m.peek_coherent(sem.count_addr()), 0u);
}

// The counting-V underflow guard: the count is an unsigned Word, and P
// only decrements behind the `c > 0` check inside the mutex — a throttle
// hammered by more waiters than permits must never wrap the counter.
// (An underflow would show up as a huge count and admit everyone.)
TEST(CountingSemaphore, ThrottleNeverUnderflows) {
  const auto cfg = paper_config(8);
  Machine m(cfg);
  auto alloc = m.make_allocator();
  constexpr Word kPermits = 2;
  sync::CountingSemaphore sem(cfg.lock_impl, alloc, cfg.n_nodes, kPermits);
  m.poke_memory(sem.count_addr(), kPermits);
  int inside = 0;
  int peak = 0;
  struct Worker {
    sync::CountingSemaphore& sem;
    int& inside;
    int& peak;
    sim::Task operator()(Processor& p) const {
      for (int k = 0; k < 2; ++k) {
        co_await sem.p_op(p);
        ++inside;
        peak = std::max(peak, inside);
        co_await p.compute(20 + 10 * (p.id() % 3));
        --inside;
        co_await sem.v_op(p);
      }
    }
  } worker{sem, inside, peak};
  for (NodeId i = 0; i < cfg.n_nodes; ++i) m.spawn(worker(m.processor(i)));
  run_all(m);
  EXPECT_LE(peak, static_cast<int>(kPermits)) << "more holders than permits";
  EXPECT_GE(peak, 1);
  EXPECT_EQ(m.peek_coherent(sem.count_addr()), kPermits)
      << "count did not return to the initial permit level";
}

// Counting semantics: V-ing k times before any P admits exactly k waiters.
TEST(CountingSemaphore, AccumulatesSignals) {
  const auto cfg = paper_config(4);
  Machine m(cfg);
  auto alloc = m.make_allocator();
  sync::CountingSemaphore sem(cfg.lock_impl, alloc, cfg.n_nodes, 0);
  m.poke_memory(sem.count_addr(), 0);
  int admitted = 0;
  struct Waiter {
    sync::CountingSemaphore& sem;
    int& admitted;
    sim::Task operator()(Processor& p) const {
      co_await sem.p_op(p);
      ++admitted;
    }
  } waiter{sem, admitted};
  struct Signaler {
    sync::CountingSemaphore& sem;
    sim::Task operator()(Processor& p) const {
      co_await sem.v_op(p);
      co_await sem.v_op(p);
      co_await sem.v_op(p);
    }
  } signaler{sem};
  for (NodeId i = 0; i < 3; ++i) m.spawn(waiter(m.processor(i)));
  m.spawn(signaler(m.processor(3)));
  run_all(m);
  EXPECT_EQ(admitted, 3);
  EXPECT_EQ(m.peek_coherent(sem.count_addr()), 0u);
}

}  // namespace
}  // namespace bcsim
