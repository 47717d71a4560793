// Limited-directory representation tests: coarse-vector overflow
// (DirOverflow::kCoarse) and the Dir_k-B broadcast fallback, driven
// end-to-end through Machine/Processor coroutine programs.
//
// The coarse vector is the paper-era answer to full-map storage cost at
// 1024 nodes: an entry keeps exact pointers while within its budget and
// folds them into region bits on overflow. These tests pin the fold, the
// conservative invalidation, the reset-to-exact after an invalidation
// round, and the requester-exclusion rule both representations share.
#include <gtest/gtest.h>

#include <vector>

#include "ref/cell.hpp"
#include "test_util.hpp"

namespace bcsim {
namespace {

using core::Machine;
using core::Processor;
using test::run_all;
using test::small_config;

sim::Task write_one(Processor& p, Addr a, Word v) { co_await p.write(a, v); }
sim::Task read_into(Processor& p, Addr a, Word& out) { out = co_await p.read(a); }

core::MachineConfig coarse_config(std::uint32_t n, std::uint32_t limit,
                                  std::uint32_t region) {
  auto cfg = small_config(n);
  cfg.dir_pointer_limit = limit;
  cfg.dir_overflow = core::DirOverflow::kCoarse;
  cfg.dir_region_nodes = region;
  // Full invariant checking keeps the new dir-coarse rules hot on every
  // directory transition, not just at quiescence.
  cfg.invariants = sim::InvariantLevel::kFull;
  return cfg;
}

TEST(CoarseDir, OverflowFoldsPointersIntoRegionBits) {
  // Pointer budget 2, regions of 4: five readers overflow the entry once,
  // leaving region bits {0, 1} (nodes 1-3 and 4-5) and no exact pointers.
  Machine m(coarse_config(8, 2, 4));
  const Addr a = 100;
  m.poke_memory(a, 5);
  std::vector<Word> seen(8, 0);
  for (NodeId i = 1; i <= 5; ++i) m.spawn(read_into(m.processor(i), a, seen[i]));
  run_all(m);
  for (NodeId i = 1; i <= 5; ++i) EXPECT_EQ(seen[i], 5u);

  const BlockId b = m.address_map().block_of(a);
  const NodeId home = m.address_map().home_of(b);
  const mem::DirectoryEntry* e = m.directory(home).peek(b);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, mem::DirState::kShared);
  EXPECT_TRUE(e->coarse);
  EXPECT_TRUE(e->sharers.empty()) << "pointers must be folded into the mask";
  EXPECT_TRUE(e->region_bit(0));  // readers 1-3
  EXPECT_TRUE(e->region_bit(1));  // readers 4-5
  EXPECT_EQ(m.stats().counter_value("dir.coarse_overflows"), 1u);
}

TEST(CoarseDir, WriteInvalidatesFlaggedRegionsAndResetsToExact) {
  Machine m(coarse_config(8, 2, 4));
  const Addr a = 100;
  m.poke_memory(a, 5);
  std::vector<Word> seen(8, 0);
  for (NodeId i = 1; i <= 5; ++i) m.spawn(read_into(m.processor(i), a, seen[i]));
  run_all(m);

  const std::uint64_t invs_before = m.stats().counter_value("dir.invs");
  m.spawn(write_one(m.processor(0), a, 6));
  run_all(m);

  // Regions 0 and 1 are flagged, so the conservative round targets all 8
  // nodes minus the requester: 7 invalidations for 5 genuine sharers.
  EXPECT_EQ(m.stats().counter_value("dir.invs") - invs_before, 7u);
  EXPECT_EQ(m.stats().counter_value("dir.coarse_invalidations"), 1u);

  const BlockId b = m.address_map().block_of(a);
  const NodeId home = m.address_map().home_of(b);
  const mem::DirectoryEntry* e = m.directory(home).peek(b);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, mem::DirState::kModified);
  EXPECT_EQ(e->owner, 0u);
  EXPECT_FALSE(e->coarse) << "invalidation round must reset the entry to exact";
  for (std::uint32_t r = 0; r < 2; ++r) EXPECT_FALSE(e->region_bit(r));

  // And the invalidations were real: a reader sees the new value.
  Word r6 = 0;
  m.spawn(read_into(m.processor(6), a, r6));
  run_all(m);
  EXPECT_EQ(r6, 6u);
}

TEST(CoarseDir, PutSIsConservativeWhileCoarse) {
  // A region bit cannot be cleared on replacement: another node of the
  // region may still hold a copy. An exact entry, by contrast, drops the
  // sharer pointer.
  Machine m(coarse_config(8, 2, 4));
  const Addr a = 100;
  m.poke_memory(a, 5);
  std::vector<Word> seen(8, 0);
  for (NodeId i = 1; i <= 5; ++i) m.spawn(read_into(m.processor(i), a, seen[i]));
  run_all(m);

  const BlockId b = m.address_map().block_of(a);
  const NodeId home = m.address_map().home_of(b);
  cache::CacheLine* l = m.cache_controller(2).mutable_data_cache().find(b);
  ASSERT_NE(l, nullptr);
  l->msi = cache::MsiState::kInvalid;  // the silent clean drop itself
  net::Message puts;
  puts.src = 2;
  puts.dst = home;
  puts.unit = net::Unit::kMemory;
  puts.type = net::MsgType::kPutS;
  puts.block = b;
  puts.addr = a;
  m.directory(home).on_message(puts);
  m.run(1'000'000);  // drain the PutAck

  const mem::DirectoryEntry* e = m.directory(home).peek(b);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->coarse);
  EXPECT_EQ(e->state, mem::DirState::kShared);
  EXPECT_TRUE(e->region_bit(0)) << "node 2's region must stay covered";
  EXPECT_TRUE(e->region_bit(1));
  EXPECT_NO_THROW(m.check_invariants("coarse-puts"));
}

TEST(CoarseDir, ExactModeUnderCoarsePolicyDropsSharerOnPutS) {
  // Below the budget the entry behaves exactly like a full map.
  Machine m(coarse_config(8, 4, 4));
  const Addr a = 100;
  m.poke_memory(a, 5);
  Word s1 = 0, s2 = 0;
  m.spawn(read_into(m.processor(1), a, s1));
  m.spawn(read_into(m.processor(2), a, s2));
  run_all(m);

  const BlockId b = m.address_map().block_of(a);
  const NodeId home = m.address_map().home_of(b);
  // Model the clean replacement itself (caches drop clean lines silently),
  // then send the explicit hint the protocol reserves for it.
  cache::CacheLine* l = m.cache_controller(2).mutable_data_cache().find(b);
  ASSERT_NE(l, nullptr);
  l->msi = cache::MsiState::kInvalid;
  net::Message puts;
  puts.src = 2;
  puts.dst = home;
  puts.unit = net::Unit::kMemory;
  puts.type = net::MsgType::kPutS;
  puts.block = b;
  puts.addr = a;
  m.directory(home).on_message(puts);
  m.run(1'000'000);

  const mem::DirectoryEntry* e = m.directory(home).peek(b);
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->coarse);
  EXPECT_EQ(e->sharers, std::vector<NodeId>{1});
}

TEST(CoarseDir, RepeatedOverflowRoundsStayConsistent) {
  // Overflow -> invalidate -> overflow again: the entry must cycle between
  // coarse and exact without residue, under full invariant checking.
  Machine m(coarse_config(8, 1, 2));
  const Addr a = 200;
  m.poke_memory(a, 1);
  for (int round = 0; round < 3; ++round) {
    std::vector<Word> seen(8, 0);
    for (NodeId i = 0; i < 8; ++i) {
      if (i != 3) m.spawn(read_into(m.processor(i), a, seen[i]));
    }
    run_all(m);
    m.spawn(write_one(m.processor(3), a, static_cast<Word>(round + 10)));
    run_all(m);
  }
  EXPECT_EQ(m.stats().counter_value("dir.coarse_overflows"), 3u);
  EXPECT_EQ(m.stats().counter_value("dir.coarse_invalidations"), 3u);
  Word last = 0;
  m.spawn(read_into(m.processor(0), a, last));
  run_all(m);
  EXPECT_EQ(last, 12u);
}

// --- Dir_k-B broadcast fallback (regression pins) ---

TEST(CoarseDir, BroadcastExcludesRequesterAndCountsOnce) {
  // Two sharers over a budget of one: the write must broadcast to every
  // node except the requester — including the home node, whose cache may
  // legitimately share — and count one broadcast + n-1 invalidations.
  auto cfg = small_config(4);
  cfg.dir_pointer_limit = 1;  // default overflow: kBroadcast (Dir_k-B)
  cfg.invariants = sim::InvariantLevel::kFull;
  Machine m(cfg);
  const Addr a = 100;
  m.poke_memory(a, 7);
  Word r1 = 0, r2 = 0;
  m.spawn(read_into(m.processor(1), a, r1));
  m.spawn(read_into(m.processor(2), a, r2));
  run_all(m);

  const std::uint64_t invs_before = m.stats().counter_value("dir.invs");
  m.spawn(write_one(m.processor(3), a, 8));
  run_all(m);
  EXPECT_EQ(m.stats().counter_value("dir.broadcast_invalidations"), 1u);
  EXPECT_EQ(m.stats().counter_value("dir.invs") - invs_before, 3u)
      << "broadcast = n-1 invalidations: requester excluded, no double count";

  Word check = 0;
  m.spawn(read_into(m.processor(0), a, check));
  run_all(m);
  EXPECT_EQ(check, 8u);
}

TEST(CoarseDir, BroadcastWithSharingRequesterKeepsItsUpgradePath) {
  // The requester is itself one of the sharers: it must not receive (or
  // be counted for) its own invalidation, and its upgrade completes.
  auto cfg = small_config(4);
  cfg.dir_pointer_limit = 1;
  cfg.invariants = sim::InvariantLevel::kFull;
  Machine m(cfg);
  const Addr a = 100;
  m.poke_memory(a, 7);
  Word r1 = 0, r2 = 0;
  m.spawn(read_into(m.processor(1), a, r1));
  m.spawn(read_into(m.processor(2), a, r2));
  run_all(m);

  const std::uint64_t invs_before = m.stats().counter_value("dir.invs");
  m.spawn(write_one(m.processor(1), a, 9));
  run_all(m);
  EXPECT_EQ(m.stats().counter_value("dir.invs") - invs_before, 3u);

  const BlockId b = m.address_map().block_of(a);
  const NodeId home = m.address_map().home_of(b);
  const mem::DirectoryEntry* e = m.directory(home).peek(b);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, mem::DirState::kModified);
  EXPECT_EQ(e->owner, 1u);
  Word check = 0;
  m.spawn(read_into(m.processor(2), a, check));
  run_all(m);
  EXPECT_EQ(check, 9u);
}

// --- differential oracle over the coarse representation ---

TEST(CoarseDir, DiffGridMatchesScReferenceUnderCoarseOverflow) {
  // A small (program x schedule) grid on the WBI flavor with an
  // aggressively overflowing coarse directory: every observation must
  // still match the sequentially-consistent reference.
  for (std::uint64_t ps = 0; ps < 2; ++ps) {
    for (std::uint64_t ss = 0; ss < 2; ++ss) {
      const ref::Cell cell{.machine = {.nodes = 8,
                                       .flavor = "wbi",
                                       .dir_limit = 1,
                                       .dir_overflow = "coarse",
                                       .dir_region = 2,
                                       .schedule_seed = ss},
                           .program_seed = ps,
                           .phases = 2};
      const ref::CellOutcome out = ref::run_cell(cell);
      EXPECT_EQ(out.verdict, ref::Verdict::kTransparent)
          << "ps=" << ps << " ss=" << ss << ": " << out.detail;
    }
  }
}

}  // namespace
}  // namespace bcsim
