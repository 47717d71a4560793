// Cache-based lock (CBL) protocol tests: grants, queued handoff, reader
// sharing, data-rides-lock, the draining race, lock-cache capacity.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "test_util.hpp"

namespace bcsim {
namespace {

using core::Machine;
using core::Processor;
using test::paper_config;
using test::run_all;

TEST(Cbl, UncontendedAcquireRelease) {
  Machine m(paper_config(2));
  const Addr lock = 16;
  bool held = false;
  auto prog = [&](Processor& p) -> sim::Task {
    co_await p.write_lock(lock);
    held = true;
    co_await p.compute(10);
    co_await p.unlock(lock);
  };
  m.spawn(prog(m.processor(0)));
  run_all(m);
  EXPECT_TRUE(held);
  EXPECT_EQ(m.stats().counter_value("dir.lock_req"), 1u);
  EXPECT_EQ(m.stats().counter_value("cache.lock_granted"), 1u);
}

TEST(Cbl, MutualExclusionUnderContention) {
  // Classic counter test: data rides the lock block, so increments inside
  // the critical section are plain local reads/writes of the locked line.
  Machine m(paper_config(8));
  const Addr lock = 16;
  const Addr counter = lock + 1;
  constexpr int kIters = 25;
  int in_cs = 0;
  bool overlap = false;
  auto prog = [&](Processor& p) -> sim::Task {
    for (int k = 0; k < kIters; ++k) {
      co_await p.write_lock(lock);
      overlap = overlap || (in_cs != 0);
      ++in_cs;
      const Word v = co_await p.read(counter);
      co_await p.compute(3);
      co_await p.write(counter, v + 1);
      --in_cs;
      co_await p.unlock(lock);
    }
  };
  for (NodeId i = 0; i < 8; ++i) m.spawn(prog(m.processor(i)));
  run_all(m);
  EXPECT_FALSE(overlap) << "two holders inside the critical section";
  EXPECT_EQ(m.peek_memory(counter), 8u * kIters)
      << "lost update: lock data did not travel with the grant";
}

TEST(Cbl, DataRidesTheLockGrant) {
  // After acquiring, reads of the lock block must be local hits.
  Machine m(paper_config(2));
  const Addr lock = 32;
  m.poke_memory(lock + 2, 77);
  Word seen = 0;
  Tick read_cost = 0;
  auto prog = [&](Processor& p) -> sim::Task {
    co_await p.write_lock(lock);
    const Tick t0 = p.simulator().now();
    seen = co_await p.read(lock + 2);
    read_cost = p.simulator().now() - t0;
    co_await p.unlock(lock);
  };
  m.spawn(prog(m.processor(0)));
  run_all(m);
  EXPECT_EQ(seen, 77u);
  EXPECT_EQ(read_cost, 1u) << "protected data must arrive with the grant";
}

TEST(Cbl, FinalUnlockWritesDataBack) {
  Machine m(paper_config(2));
  const Addr lock = 48;
  auto prog = [&](Processor& p) -> sim::Task {
    co_await p.write_lock(lock);
    co_await p.write(lock + 1, 123);
    co_await p.unlock(lock);
  };
  m.spawn(prog(m.processor(0)));
  run_all(m);
  EXPECT_EQ(m.peek_memory(lock + 1), 123u);
  EXPECT_GE(m.stats().counter_value("dir.lock_writeback"), 1u);
}

TEST(Cbl, ReadersShareTheLock) {
  // All readers must be able to hold simultaneously: with a long critical
  // section, total completion ~ one CS, not n serialized CSs.
  Machine m(paper_config(8));
  const Addr lock = 64;
  constexpr Tick kCs = 2000;
  int concurrent = 0, peak = 0;
  auto prog = [&](Processor& p) -> sim::Task {
    co_await p.read_lock(lock);
    ++concurrent;
    peak = std::max(peak, concurrent);
    co_await p.compute(kCs);
    --concurrent;
    co_await p.unlock(lock);
  };
  for (NodeId i = 0; i < 8; ++i) m.spawn(prog(m.processor(i)));
  const Tick t = run_all(m);
  EXPECT_GE(peak, 6) << "readers failed to share";
  EXPECT_LT(t, 2 * kCs + 1000) << "readers serialized instead of sharing";
}

TEST(Cbl, WriterExcludesReaders) {
  Machine m(paper_config(4));
  const Addr lock = 80;
  const Addr data = lock + 1;
  bool writer_in = false;
  bool violation = false;
  auto writer = [&](Processor& p) -> sim::Task {
    co_await p.write_lock(lock);
    writer_in = true;
    co_await p.write(data, 1);
    co_await p.compute(500);
    writer_in = false;
    co_await p.unlock(lock);
  };
  auto reader = [&](Processor& p) -> sim::Task {
    co_await p.compute(10);  // let the writer get there first
    co_await p.read_lock(lock);
    violation = violation || writer_in;
    co_await p.read(data);
    co_await p.unlock(lock);
  };
  m.spawn(writer(m.processor(0)));
  m.spawn(reader(m.processor(1)));
  m.spawn(reader(m.processor(2)));
  m.spawn(reader(m.processor(3)));
  run_all(m);
  EXPECT_FALSE(violation);
}

TEST(Cbl, WriteLockReleaseCascadesToContiguousReaders) {
  // W holds; R1,R2,R3 queue behind. On W's unlock all three readers must
  // be granted (share cascade down the list).
  Machine m(paper_config(8));
  const Addr lock = 96;
  int readers_in = 0, peak = 0;
  auto writer = [&](Processor& p) -> sim::Task {
    co_await p.write_lock(lock);
    co_await p.compute(300);  // let readers enqueue
    co_await p.unlock(lock);
  };
  auto reader = [&](Processor& p) -> sim::Task {
    co_await p.compute(20);
    co_await p.read_lock(lock);
    ++readers_in;
    peak = std::max(peak, readers_in);
    co_await p.compute(400);
    --readers_in;
    co_await p.unlock(lock);
  };
  m.spawn(writer(m.processor(0)));
  for (NodeId i = 1; i <= 3; ++i) m.spawn(reader(m.processor(i)));
  run_all(m);
  EXPECT_EQ(peak, 3) << "release must cascade through all queued readers";
  EXPECT_GE(m.stats().counter_value("cache.share_cascade"), 1u);
}

TEST(Cbl, WritersGrantedInQueueOrder) {
  // Handoff follows the queue: grant order must equal request order.
  Machine m(paper_config(8));
  const Addr lock = 112;
  std::vector<NodeId> grant_order;
  auto prog = [&](Processor& p, Tick stagger) -> sim::Task {
    co_await p.compute(stagger);
    co_await p.write_lock(lock);
    grant_order.push_back(p.id());
    co_await p.compute(200);
    co_await p.unlock(lock);
  };
  for (NodeId i = 0; i < 8; ++i) {
    m.spawn(prog(m.processor(i), 30 * static_cast<Tick>(i)));
  }
  run_all(m);
  ASSERT_EQ(grant_order.size(), 8u);
  for (NodeId i = 0; i < 8; ++i) {
    EXPECT_EQ(grant_order[i], i) << "queue order violated at position " << i;
  }
}

TEST(Cbl, ImmediateRelockAfterUnlock) {
  // Unlock returns immediately; re-locking while the release protocol is
  // still in flight must wait for the line to drain, then succeed.
  Machine m(paper_config(2));
  const Addr lock = 128;
  int acquisitions = 0;
  auto prog = [&](Processor& p) -> sim::Task {
    for (int k = 0; k < 20; ++k) {
      co_await p.write_lock(lock);
      ++acquisitions;
      co_await p.unlock(lock);
    }
  };
  m.spawn(prog(m.processor(0)));
  run_all(m);
  EXPECT_EQ(acquisitions, 20);
}

TEST(Cbl, DrainingRace_UnlockMeetsInflightSuccessor) {
  // Holder unlocks exactly while a successor's enqueue forward is in
  // flight. With deterministic staggers across a range, some iteration
  // hits the window; the protocol must hand off (not deadlock or drop).
  for (Tick stagger = 0; stagger < 30; ++stagger) {
    Machine m(paper_config(2));
    const Addr lock = 16;
    bool second_got_it = false;
    auto holder = [&](Processor& p) -> sim::Task {
      co_await p.write_lock(lock);
      co_await p.compute(stagger);
      co_await p.unlock(lock);
    };
    auto chaser = [&](Processor& p) -> sim::Task {
      co_await p.compute(5);
      co_await p.write_lock(lock);
      second_got_it = true;
      co_await p.unlock(lock);
    };
    m.spawn(holder(m.processor(0)));
    m.spawn(chaser(m.processor(1)));
    run_all(m);
    EXPECT_TRUE(second_got_it) << "stagger " << stagger;
  }
}

TEST(Cbl, ReaderUnlockWhileOthersHold) {
  // Mid-queue reader release: remaining readers keep the lock; a queued
  // writer gets it only after the last reader leaves.
  Machine m(paper_config(4));
  const Addr lock = 16;
  int readers_in = 0;
  bool writer_saw_readers = false;
  bool writer_done = false;
  auto reader = [&](Processor& p, Tick hold) -> sim::Task {
    co_await p.read_lock(lock);
    ++readers_in;
    co_await p.compute(hold);
    --readers_in;
    co_await p.unlock(lock);
  };
  auto writer = [&](Processor& p) -> sim::Task {
    co_await p.compute(100);  // arrive while readers hold
    co_await p.write_lock(lock);
    writer_saw_readers = readers_in != 0;
    writer_done = true;
    co_await p.unlock(lock);
  };
  m.spawn(reader(m.processor(0), 400));
  m.spawn(reader(m.processor(1), 900));  // releases last
  m.spawn(writer(m.processor(2)));
  run_all(m);
  EXPECT_TRUE(writer_done);
  EXPECT_FALSE(writer_saw_readers);
}

TEST(Cbl, LockCacheCapacityStallsExtraLocks) {
  auto cfg = paper_config(2);
  cfg.lock_cache_entries = 2;
  Machine m(cfg);
  // Hold 2 locks, then a third acquisition must stall until one releases.
  const Addr l1 = 0, l2 = 16, l3 = 32;
  std::vector<int> order;
  auto prog = [&](Processor& p) -> sim::Task {
    co_await p.write_lock(l1);
    co_await p.write_lock(l2);
    order.push_back(1);
    // l3 cannot start until a slot frees; run the release after a delay.
    co_await p.unlock(l1);
    co_await p.write_lock(l3);
    order.push_back(2);
    co_await p.unlock(l2);
    co_await p.unlock(l3);
  };
  m.spawn(prog(m.processor(0)));
  const Tick done = run_all(m);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_GT(m.stats().counter_value("cache.lock_cache_stalls"), 0u);
  // No tests/pins.txt line sets the lock-cache size, so the run is pinned
  // here: completion tick, stats digest, data digest.
  EXPECT_EQ(done, 30u);
  EXPECT_EQ(m.stats_digest(), 0xe87c8d6171634c82u);
  EXPECT_EQ(m.data_digest(), 0x35daf7d520229a25u);
}

TEST(Cbl, ManyLocksManyProcessorsStress) {
  Machine m(paper_config(8));
  std::vector<Addr> locks = {0, 16, 32, 48};
  std::vector<Addr> counters;
  for (Addr l : locks) counters.push_back(l + 1);
  constexpr int kIters = 12;
  auto prog = [&](Processor& p) -> sim::Task {
    auto& rng = p.rng();
    for (int k = 0; k < kIters; ++k) {
      const std::size_t li = rng.next_below(locks.size());
      co_await p.write_lock(locks[li]);
      const Word v = co_await p.read(counters[li]);
      co_await p.compute(1 + rng.next_below(10));
      co_await p.write(counters[li], v + 1);
      co_await p.unlock(locks[li]);
    }
  };
  for (NodeId i = 0; i < 8; ++i) m.spawn(prog(m.processor(i)));
  run_all(m);
  Word total = 0;
  for (Addr c : counters) total += m.peek_memory(c);
  EXPECT_EQ(total, 8u * kIters);
}

TEST(Cbl, PaperFigure3QueueStructure) {
  // The paper's worked example: P1:read-lock, P2:read-lock, P3:write-lock
  // on location i. Expected final state (paper Figure 3): P1 and P2 share
  // the lock (prev/next linked), P3 waits at the tail, and the central
  // directory's queue pointer names P3.
  Machine m(paper_config(4));
  const Addr i_addr = 16;
  const BlockId blk = 4;  // 16 / block_words(4)
  bool p3_granted = false;
  auto p1 = [&](Processor& p) -> sim::Task {
    co_await p.read_lock(i_addr);
    co_await p.compute(5000);  // hold while the queue forms
    co_await p.unlock(i_addr);
  };
  auto p2 = [&](Processor& p) -> sim::Task {
    co_await p.compute(50);
    co_await p.read_lock(i_addr);
    co_await p.compute(5000);
    co_await p.unlock(i_addr);
  };
  auto p3 = [&](Processor& p) -> sim::Task {
    co_await p.compute(100);
    co_await p.write_lock(i_addr);
    p3_granted = true;
    co_await p.unlock(i_addr);
  };
  m.spawn(p1(m.processor(1)));
  m.spawn(p2(m.processor(2)));
  m.spawn(p3(m.processor(3)));
  m.run_until(2000);  // pause mid-scenario: queue formed, locks still held

  // Central directory: usage bit set for lock use; queue pointer = P3.
  const auto* e = m.directory(m.address_map().home_of(blk)).peek(blk);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->usage_lock);
  ASSERT_EQ(e->lock_chain.size(), 3u);
  EXPECT_EQ(e->lock_chain[0].node, 1u);
  EXPECT_EQ(e->lock_chain[1].node, 2u);
  EXPECT_EQ(e->lock_chain[2].node, 3u);
  EXPECT_EQ(e->lock_tail(), 3u);
  EXPECT_EQ(e->lock_holders, 2u) << "P1 and P2 share; P3 waits";

  // Distributed pointers in the cache lines (Figure 3's doubly-linked
  // list): P1 <-> P2 <-> P3.
  const auto* l1 = m.cache_controller(1).lock_cache().find(blk);
  const auto* l2 = m.cache_controller(2).lock_cache().find(blk);
  const auto* l3 = m.cache_controller(3).lock_cache().find(blk);
  ASSERT_NE(l1, nullptr);
  ASSERT_NE(l2, nullptr);
  ASSERT_NE(l3, nullptr);
  EXPECT_EQ(l1->lock, cache::LockState::kHeldRead);
  EXPECT_EQ(l2->lock, cache::LockState::kHeldRead);
  EXPECT_EQ(l3->lock, cache::LockState::kWaitWrite);
  EXPECT_EQ(l1->next, 2u);
  EXPECT_EQ(l2->prev, 1u);
  EXPECT_EQ(l2->next, 3u);
  EXPECT_EQ(l3->prev, 2u);
  EXPECT_EQ(l3->next, kNoNode);

  // Let the scenario finish: the readers release, P3 gets the lock.
  run_all(m);
  EXPECT_TRUE(p3_granted);
}

TEST(Cbl, ReadLockDataIsFreshAfterWriterChain) {
  // Writer updates protected data under write-lock; a later reader's
  // grant must deliver the updated data even though memory may be stale
  // (cache-to-cache handoff carries the block).
  Machine m(paper_config(3));
  const Addr lock = 16;
  Word reader_saw = 0;
  auto writer = [&](Processor& p) -> sim::Task {
    co_await p.write_lock(lock);
    co_await p.write(lock + 3, 321);
    co_await p.compute(200);
    co_await p.unlock(lock);
  };
  auto reader = [&](Processor& p) -> sim::Task {
    co_await p.compute(50);  // enqueue behind the writer
    co_await p.read_lock(lock);
    reader_saw = co_await p.read(lock + 3);
    co_await p.unlock(lock);
  };
  m.spawn(writer(m.processor(0)));
  m.spawn(reader(m.processor(1)));
  run_all(m);
  EXPECT_EQ(reader_saw, 321u);
  EXPECT_EQ(m.peek_memory(lock + 3), 321u) << "final unlock must write back";
}

TEST(Cbl, ShareForwardMeetsAReleasingReader) {
  // Node 1 read-locks block 0 (home node 0), holds it 10 cycles and
  // unlocks; node 2 read-locks c cycles in. At these c the home counts
  // node 2 as a co-holder and forwards it to node 1 while node 1's line is
  // still releasing, so node 1 shares the lock from that line. The home
  // then has node 1 drop its line and node 2 write the data back.
  for (Tick c = 14; c <= 23; ++c) {
    auto cfg = paper_config(3);
    cfg.invariants = sim::InvariantLevel::kFull;
    Machine m(cfg);
    const Addr lock = 0;
    auto holder = [&](Processor& p) -> sim::Task {
      co_await p.read_lock(lock);
      co_await p.compute(10);
      co_await p.unlock(lock);
    };
    auto sharer = [&](Processor& p) -> sim::Task {
      co_await p.compute(c);
      co_await p.read_lock(lock);
      co_await p.unlock(lock);
    };
    m.spawn(holder(m.processor(1)));
    m.spawn(sharer(m.processor(2)));
    run_all(m);
    EXPECT_EQ(m.stats().counter_value("net.msg.LockShareGrant"), 1u) << "c=" << c;
    EXPECT_EQ(m.stats().counter_value("net.msg.UnlockEmpty"), 2u) << "c=" << c;
    EXPECT_NO_THROW(m.check_invariants("share-forward")) << "c=" << c;
  }
}

}  // namespace
}  // namespace bcsim
