// WBI (write-back invalidate MSI) protocol tests, driven end-to-end through
// Machine/Processor coroutine programs.
#include <gtest/gtest.h>

#include <vector>

#include "test_util.hpp"

namespace bcsim {
namespace {

using core::Machine;
using core::Processor;
using test::run_all;
using test::small_config;

sim::Task write_one(Processor& p, Addr a, Word v) { co_await p.write(a, v); }
sim::Task read_into(Processor& p, Addr a, Word& out) { out = co_await p.read(a); }

TEST(Wbi, WriteThenReadAcrossNodes) {
  Machine m(small_config(4));
  Word seen = 0;
  m.spawn(write_one(m.processor(0), 10, 1234));
  m.run();
  m.spawn(read_into(m.processor(1), 10, seen));
  run_all(m);
  EXPECT_EQ(seen, 1234u);
}

TEST(Wbi, ReadMissThenHitLatency) {
  Machine m(small_config(2));
  std::vector<Tick> stamps;
  auto prog = [&](Processor& p) -> sim::Task {
    const Tick t0 = p.simulator().now();
    co_await p.read(100);
    stamps.push_back(p.simulator().now() - t0);
    const Tick t1 = p.simulator().now();
    co_await p.read(101);  // same block: hit
    stamps.push_back(p.simulator().now() - t1);
  };
  m.spawn(prog(m.processor(0)));
  run_all(m);
  ASSERT_EQ(stamps.size(), 2u);
  EXPECT_GT(stamps[0], stamps[1]) << "miss must cost more than hit";
  EXPECT_EQ(stamps[1], 1u) << "hit costs one cycle";
}

TEST(Wbi, WriterInvalidatesReaders) {
  // Readers cache the block; a write by another node must invalidate them
  // so subsequent reads see the new value.
  Machine m(small_config(4));
  const Addr a = 20;
  m.poke_memory(a, 7);
  Word r1 = 0, r2 = 0;
  m.spawn(read_into(m.processor(1), a, r1));
  m.spawn(read_into(m.processor(2), a, r2));
  m.run();
  EXPECT_EQ(r1, 7u);
  EXPECT_EQ(r2, 7u);
  m.spawn(write_one(m.processor(0), a, 8));
  m.run();
  EXPECT_GE(m.stats().counter_value("dir.invs"), 2u);
  m.spawn(read_into(m.processor(1), a, r1));
  run_all(m);
  EXPECT_EQ(r1, 8u);
}

TEST(Wbi, DirtyDataRecalledOnRemoteRead) {
  // Node 0 writes (M state, memory stale); node 1's read must trigger a
  // recall and return the fresh value.
  Machine m(small_config(4));
  const Addr a = 31;
  Word seen = 0;
  m.spawn(write_one(m.processor(0), a, 555));
  m.run();
  EXPECT_EQ(m.peek_memory(a), 0u) << "write-back cache: memory stale before recall";
  m.spawn(read_into(m.processor(1), a, seen));
  run_all(m);
  EXPECT_EQ(seen, 555u);
  EXPECT_EQ(m.peek_memory(a), 555u) << "recall wrote the block back";
  EXPECT_GE(m.stats().counter_value("dir.recalls"), 1u);
}

TEST(Wbi, DirtyDataRecalledOnRemoteWrite) {
  Machine m(small_config(4));
  const Addr a = 44;
  m.spawn(write_one(m.processor(0), a, 1));
  m.run();
  m.spawn(write_one(m.processor(1), a, 2));
  m.run();
  Word seen = 0;
  m.spawn(read_into(m.processor(2), a, seen));
  run_all(m);
  EXPECT_EQ(seen, 2u);
}

TEST(Wbi, WriteUpgradeFromShared) {
  Machine m(small_config(4));
  const Addr a = 52;
  m.poke_memory(a, 9);
  Word r = 0;
  auto read_then_write = [&](Processor& p) -> sim::Task {
    r = co_await p.read(a);   // S
    co_await p.write(a, 10);  // upgrade S -> M
    r = co_await p.read(a);   // hit in M
  };
  m.spawn(read_then_write(m.processor(0)));
  run_all(m);
  EXPECT_EQ(r, 10u);
}

TEST(Wbi, ConcurrentWritersSerialize) {
  // n writers increment disjoint bits of the same word... not atomic, so
  // instead: each writer stores its id+1 to the same address; afterwards
  // the memory value must be one of the writers' values (no torn/blended
  // state) and every cache agrees with memory.
  auto cfg = small_config(8);
  cfg.network = core::NetworkKind::kOmega;
  Machine m(cfg);
  const Addr a = 60;
  for (NodeId i = 0; i < 8; ++i) {
    m.spawn(write_one(m.processor(i), a, i + 1));
  }
  run_all(m);
  Word final = 0;
  m.spawn(read_into(m.processor(0), a, final));
  run_all(m);
  EXPECT_GE(final, 1u);
  EXPECT_LE(final, 8u);
}

TEST(Wbi, RmwTestAndSetIsAtomic) {
  // All processors race a test&set; exactly one may win.
  Machine m(small_config(8));
  const Addr a = 72;
  std::vector<Word> olds(8, 99);
  auto prog = [&](Processor& p, int i) -> sim::Task {
    olds[static_cast<std::size_t>(i)] = co_await p.test_and_set(a);
  };
  for (NodeId i = 0; i < 8; ++i) m.spawn(prog(m.processor(i), static_cast<int>(i)));
  run_all(m);
  int winners = 0;
  for (Word o : olds) winners += (o == 0) ? 1 : 0;
  EXPECT_EQ(winners, 1);
  EXPECT_EQ(m.peek_memory(a), 1u);
}

TEST(Wbi, RmwFetchAddCountsExactly) {
  Machine m(small_config(8));
  const Addr a = 80;
  auto prog = [&](Processor& p) -> sim::Task {
    for (int k = 0; k < 10; ++k) co_await p.fetch_add(a, 1);
  };
  for (NodeId i = 0; i < 8; ++i) m.spawn(prog(m.processor(i)));
  run_all(m);
  EXPECT_EQ(m.peek_memory(a), 80u);
}

TEST(Wbi, RmwInvalidatesCachedCopies) {
  // A sharer's stale copy must be invalidated by an RMW so its next read
  // observes the RMW's effect.
  Machine m(small_config(4));
  const Addr a = 92;
  Word before = 99, after = 99;
  m.spawn(read_into(m.processor(1), a, before));
  m.run();
  EXPECT_EQ(before, 0u);
  m.spawn(write_one(m.processor(2), a + 1, 0));  // unrelated traffic, same set? no-op
  m.run();
  auto ts = [&](Processor& p) -> sim::Task { co_await p.test_and_set(a); };
  m.spawn(ts(m.processor(0)));
  m.run();
  m.spawn(read_into(m.processor(1), a, after));
  run_all(m);
  EXPECT_EQ(after, 1u);
}

TEST(Wbi, CompareSwapSemantics) {
  Machine m(small_config(2));
  const Addr a = 104;
  m.poke_memory(a, 5);
  std::vector<Word> results;
  auto prog = [&](Processor& p) -> sim::Task {
    results.push_back(co_await p.compare_swap(a, 4, 77));  // fails
    results.push_back(co_await p.compare_swap(a, 5, 77));  // succeeds
    results.push_back(co_await p.compare_swap(a, 5, 88));  // fails now
  };
  m.spawn(prog(m.processor(0)));
  run_all(m);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0], 5u);
  EXPECT_EQ(results[1], 5u);
  EXPECT_EQ(results[2], 77u);
  EXPECT_EQ(m.peek_memory(a), 77u);
}

TEST(Wbi, EvictionWritesBackDirtyWords) {
  // Tiny cache: writing many blocks forces eviction of dirty lines; their
  // data must land in memory.
  auto cfg = small_config(2);
  cfg.cache_blocks = 4;
  cfg.cache_assoc = 1;
  Machine m(cfg);
  auto prog = [&](Processor& p) -> sim::Task {
    for (Addr blk = 0; blk < 16; ++blk) {
      co_await p.write(blk * 4, blk + 100);
    }
  };
  m.spawn(prog(m.processor(0)));
  run_all(m);
  EXPECT_GT(m.stats().counter_value("cache.writebacks"), 0u);
  // Evicted blocks (all but the last few resident) must be in memory.
  Word seen = 0;
  m.spawn(read_into(m.processor(1), 0, seen));
  run_all(m);
  EXPECT_EQ(seen, 100u);
}

TEST(Wbi, RecallCrossesTheOwnersWriteBack) {
  // Node 1 writes block 3 (home node 0), then four more blocks of its
  // cache set, which evicts block 3 with a PutM. Node 2's read, 46 cycles
  // in, makes the home recall the block while that PutM is in flight: the
  // home takes the PutM as the recall ack, and node 1 finds nothing to
  // recall.
  const auto cfg = small_config(3);
  Machine m(cfg);
  const BlockId sets = cfg.cache_blocks / cfg.cache_assoc;
  const Addr a = 3 * cfg.block_words;
  auto owner = [&](Processor& p) -> sim::Task {
    co_await p.write(a, 42);
    for (BlockId b = 3 + sets; b <= 3 + 4 * sets; b += sets) {
      co_await p.write(b * cfg.block_words, 1);
    }
  };
  Word seen = 0;
  auto reader = [&](Processor& p) -> sim::Task {
    co_await p.compute(46);
    seen = co_await p.read(a);
  };
  m.spawn(owner(m.processor(1)));
  m.spawn(reader(m.processor(2)));
  run_all(m);
  EXPECT_EQ(seen, 42u);
  EXPECT_EQ(m.stats().counter_value("cache.recall_crossed"), 1u);
}

TEST(Wbi, SpinWaitWakesOnInvalidation) {
  Machine m(small_config(2));
  const Addr flag = 120;
  Word observed = 0;
  auto waiter = [&](Processor& p) -> sim::Task {
    for (;;) {
      const Word v = co_await p.read(flag);
      if (v != 0) {
        observed = v;
        co_return;
      }
      co_await p.wait_word_change(flag, v);
    }
  };
  auto setter = [&](Processor& p) -> sim::Task {
    co_await p.compute(500);
    co_await p.write(flag, 42);
  };
  m.spawn(waiter(m.processor(0)));
  m.spawn(setter(m.processor(1)));
  run_all(m);
  EXPECT_EQ(observed, 42u);
}

TEST(Wbi, PerWordDirtyBitsMergeFalseSharedWriteback) {
  // Two nodes write different words of the same block, then both lines are
  // forcibly evicted: per-word dirty bits must merge both updates in
  // memory. (With whole-line writebacks one update would be lost.)
  auto cfg = small_config(4);
  cfg.cache_blocks = 4;
  cfg.cache_assoc = 1;
  Machine m(cfg);
  const Addr base = 0;  // block 0
  // Writers take turns becoming the owner, so the block's words are
  // written by different nodes over time; eviction pressure then forces
  // partial writebacks.
  auto w0 = [&](Processor& p) -> sim::Task {
    co_await p.write(base + 0, 111);
    for (Addr blk = 1; blk < 8; ++blk) co_await p.write(blk * 4, 1);  // evict
  };
  m.spawn(w0(m.processor(0)));
  m.run();
  auto w1 = [&](Processor& p) -> sim::Task {
    co_await p.write(base + 1, 222);
    for (Addr blk = 8; blk < 16; ++blk) co_await p.write(blk * 4, 1);  // evict
  };
  m.spawn(w1(m.processor(1)));
  run_all(m);
  EXPECT_EQ(m.peek_memory(base + 0), 111u);
  EXPECT_EQ(m.peek_memory(base + 1), 222u);
}

TEST(WbiLimitedDir, BroadcastInvalidationKeepsCoherence) {
  // Dir_2-B: more than two sharers forces broadcast invalidation. The
  // protocol must stay correct — a write after wide sharing still
  // invalidates every copy.
  auto cfg = small_config(8);
  cfg.dir_pointer_limit = 2;
  Machine m(cfg);
  const Addr a = 40;
  m.poke_memory(a, 5);
  std::vector<Word> seen(8, 0);
  for (NodeId i = 1; i < 8; ++i) m.spawn(read_into(m.processor(i), a, seen[i]));
  m.run();
  for (NodeId i = 1; i < 8; ++i) EXPECT_EQ(seen[i], 5u);
  m.spawn(write_one(m.processor(0), a, 6));
  run_all(m);
  EXPECT_GE(m.stats().counter_value("dir.broadcast_invalidations"), 1u);
  // Every node must see the new value on its next read.
  for (NodeId i = 1; i < 8; ++i) m.spawn(read_into(m.processor(i), a, seen[i]));
  run_all(m);
  for (NodeId i = 1; i < 8; ++i) EXPECT_EQ(seen[i], 6u) << "node " << i;
}

TEST(WbiLimitedDir, BroadcastCostsMoreMessages) {
  auto run_limit = [](std::uint32_t limit) {
    auto cfg = small_config(8);
    cfg.dir_pointer_limit = limit;
    Machine m(cfg);
    const Addr a = 40;
    std::vector<Word> seen(8, 0);
    auto reader = [&](Processor& p, Word& out) -> sim::Task { out = co_await p.read(a); };
    for (NodeId i = 1; i < 8; ++i) m.spawn(reader(m.processor(i), seen[i]));
    m.run();
    auto writer = [&](Processor& p) -> sim::Task { co_await p.write(a, 1); };
    m.spawn(writer(m.processor(0)));
    m.run(20'000'000);
    return m.stats().counter_value("dir.invs");
  };
  EXPECT_EQ(run_limit(0), 7u) << "full map: exactly the sharers";
  EXPECT_EQ(run_limit(2), 7u) << "8-node broadcast: everyone but the writer";
  // With fewer sharers than the limit, no broadcast is needed.
  auto cfg = small_config(8);
  cfg.dir_pointer_limit = 4;
  Machine m(cfg);
  const Addr a = 48;
  Word s1 = 0;
  m.spawn(read_into(m.processor(1), a, s1));
  m.run();
  m.spawn(write_one(m.processor(0), a, 2));
  run_all(m);
  EXPECT_EQ(m.stats().counter_value("dir.broadcast_invalidations"), 0u);
  EXPECT_EQ(m.stats().counter_value("dir.invs"), 1u);
}

TEST(WbiLimitedDir, RmwUnderBroadcastStaysAtomic) {
  auto cfg = small_config(8);
  cfg.dir_pointer_limit = 1;
  Machine m(cfg);
  const Addr a = 56;
  // Everyone caches, then everyone fetch-adds: no increment may be lost.
  auto prog = [&](Processor& p) -> sim::Task {
    co_await p.read(a);
    for (int k = 0; k < 5; ++k) co_await p.fetch_add(a, 1);
  };
  for (NodeId i = 0; i < 8; ++i) m.spawn(prog(m.processor(i)));
  run_all(m);
  EXPECT_EQ(m.peek_memory(a), 40u);
}

// Property sweep: data integrity under disjoint-word concurrent writes for
// several node counts and networks.
struct WbiSweepParam {
  std::uint32_t n;
  core::NetworkKind net;
};

class WbiIntegrity : public ::testing::TestWithParam<WbiSweepParam> {};

TEST_P(WbiIntegrity, DisjointWordWritesAllSurvive) {
  auto cfg = small_config(GetParam().n);
  cfg.network = GetParam().net;
  Machine m(cfg);
  const std::uint32_t n = m.n_nodes();
  // Each processor owns words i, i+n, i+2n, ... across a shared region —
  // maximal false sharing within blocks.
  const std::uint32_t words = 8 * n;
  auto prog = [&](Processor& p) -> sim::Task {
    for (std::uint32_t w = p.id(); w < words; w += n) {
      co_await p.write(w, 1000 + w);
    }
  };
  for (NodeId i = 0; i < n; ++i) m.spawn(prog(m.processor(i)));
  run_all(m);
  // Flush every cached line by reading from one node... instead verify via
  // a second machine pass: read each word coherently.
  std::vector<Word> seen(words, 0);
  auto reader = [&](Processor& p) -> sim::Task {
    for (std::uint32_t w = 0; w < words; ++w) seen[w] = co_await p.read(w);
  };
  m.spawn(reader(m.processor(0)));
  run_all(m);
  for (std::uint32_t w = 0; w < words; ++w) {
    EXPECT_EQ(seen[w], 1000u + w) << "word " << w << " lost";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, WbiIntegrity,
    ::testing::Values(WbiSweepParam{2, core::NetworkKind::kIdeal},
                      WbiSweepParam{4, core::NetworkKind::kOmega},
                      WbiSweepParam{8, core::NetworkKind::kOmega},
                      WbiSweepParam{16, core::NetworkKind::kOmega},
                      WbiSweepParam{5, core::NetworkKind::kCrossbar},
                      WbiSweepParam{32, core::NetworkKind::kOmega}));

}  // namespace
}  // namespace bcsim
