// Cache structure tests: set-associative cache, write buffer, lock cache.
#include <gtest/gtest.h>

#include <array>

#include "cache/cache.hpp"
#include "cache/lock_cache.hpp"
#include "cache/write_buffer.hpp"

namespace bcsim::cache {
namespace {

TEST(Cache, FindMissesOnEmpty) {
  Cache c(16, 4, 4);
  EXPECT_EQ(c.find(3), nullptr);
  EXPECT_EQ(c.n_sets(), 4u);
  EXPECT_EQ(c.assoc(), 4u);
}

TEST(Cache, InstallAndFind) {
  Cache c(16, 4, 4);
  CacheLine* v = c.pick_victim(5);
  ASSERT_NE(v, nullptr);
  v->block = 5;
  v->valid = true;
  EXPECT_EQ(c.find(5), v);
  EXPECT_EQ(c.find(9), nullptr);  // 9 maps to a different set (9 % 4 = 1)
}

TEST(Cache, VictimPrefersInvalidFrames) {
  Cache c(8, 2, 4);
  CacheLine* a = c.pick_victim(0);
  a->block = 0;
  a->valid = true;
  a->last_use = 100;
  CacheLine* b = c.pick_victim(4);  // same set (0), second way
  EXPECT_NE(b, a);
  EXPECT_FALSE(b->valid);
}

TEST(Cache, VictimIsLruAmongValid) {
  Cache c(8, 2, 4);
  CacheLine* a = c.pick_victim(0);
  a->block = 0;
  a->valid = true;
  a->last_use = 50;
  CacheLine* b = c.pick_victim(4);
  b->block = 4;
  b->valid = true;
  b->last_use = 10;
  EXPECT_EQ(c.pick_victim(8), b) << "older line should be evicted";
  b->last_use = 90;
  EXPECT_EQ(c.pick_victim(8), a);
}

TEST(Cache, PinnedAndLockedFramesAreNotVictims) {
  Cache c(4, 2, 4);
  CacheLine* a = c.pick_victim(0);
  a->block = 0;
  a->valid = true;
  a->pinned = true;
  CacheLine* b = c.pick_victim(2);
  b->block = 2;
  b->valid = true;
  b->lock = LockState::kHeldWrite;
  EXPECT_EQ(c.pick_victim(4), nullptr) << "all frames unreplaceable";
  b->lock = LockState::kNone;
  EXPECT_EQ(c.pick_victim(4), b);
}

TEST(Cache, BadGeometryThrows) {
  EXPECT_THROW(Cache(10, 4, 4), std::invalid_argument);
  EXPECT_THROW(Cache(0, 1, 4), std::invalid_argument);
  EXPECT_THROW(Cache(4, 0, 4), std::invalid_argument);
}

TEST(Cache, BlockWordsOutOfRangeThrows) {
  EXPECT_THROW(Cache(4, 2, 0), std::invalid_argument);
  EXPECT_THROW(Cache(4, 2, 33), std::invalid_argument);
  EXPECT_THROW(LockCache(2, 0), std::invalid_argument);
  EXPECT_THROW(LockCache(2, 33), std::invalid_argument);
}

/// A payload of `count` words whose word i is base + i.
net::BlockData payload(std::uint8_t count, Word base) {
  net::BlockData d;
  d.count = count;
  for (std::uint8_t i = 0; i < count; ++i) d.words[i] = base + i;
  return d;
}

TEST(CacheLine, ClearResetsEverything) {
  std::array<Word, 4> frame{};
  CacheLine l;
  l.data.bind(frame.data(), 4);
  l.block = 9;
  l.valid = true;
  l.msi = MsiState::kModified;
  l.update_bit = true;
  l.dirty_mask = 0xF;
  l.prev = 1;
  l.next = 2;
  l.pinned = true;
  l.data = payload(4, 100);
  l.clear();
  EXPECT_FALSE(l.valid);
  EXPECT_EQ(l.msi, MsiState::kInvalid);
  EXPECT_FALSE(l.update_bit);
  EXPECT_EQ(l.dirty_mask, 0u);
  EXPECT_EQ(l.prev, kNoNode);
  EXPECT_EQ(l.next, kNoNode);
  EXPECT_FALSE(l.pinned);
  EXPECT_EQ(l.data.count(), 0u);
  for (Word w : frame) EXPECT_EQ(w, 0u) << "clear() must zero the frame's words";
}

TEST(CacheLine, PayloadAssignmentZeroFillsTheTail) {
  std::array<Word, 4> frame{7, 7, 7, 7};
  CacheLine l;
  l.data.bind(frame.data(), 4);
  l.data = payload(2, 50);
  EXPECT_EQ(frame, (std::array<Word, 4>{50, 51, 0, 0}));
  const net::BlockData back = l.data;
  ASSERT_EQ(back.count, 2u);
  EXPECT_EQ(back[0], 50u);
  EXPECT_EQ(back[1], 51u);
}

TEST(FrameStorage, FramesOfOneCacheDoNotAlias) {
  for (std::uint32_t words : {1u, 4u, 32u}) {
    SCOPED_TRACE(testing::Message() << "block_words=" << words);
    Cache c(8, 2, words);
    // Claim every frame: blocks 0..7 fill both ways of all four sets.
    for (BlockId b = 0; b < 8; ++b) {
      CacheLine* line = c.pick_victim(b);
      ASSERT_NE(line, nullptr);
      ASSERT_FALSE(line->valid);
      line->block = b;
      line->valid = true;
      line->data = payload(static_cast<std::uint8_t>(words), 1000 * (b + 1));
    }
    // Clearing one frame (it zeroes the frame's words) leaves every other
    // frame intact.
    c.find(3)->clear();
    EXPECT_EQ(c.find(3), nullptr);
    for (BlockId b = 0; b < 8; ++b) {
      if (b == 3) continue;
      const CacheLine* line = c.find(b);
      ASSERT_NE(line, nullptr);
      for (std::uint32_t w = 0; w < words; ++w) EXPECT_EQ(line->data[w], 1000 * (b + 1) + w);
    }
  }
}

TEST(FrameStorage, SlotsOfOneLockCacheDoNotAlias) {
  for (std::uint32_t words : {1u, 4u, 32u}) {
    SCOPED_TRACE(testing::Message() << "block_words=" << words);
    LockCache lc(4, words);
    for (BlockId b = 0; b < 4; ++b) {
      lc.allocate(b).data = payload(static_cast<std::uint8_t>(words), 1000 * (b + 1));
    }
    lc.release(2);  // its slot is zeroed; no other slot may change
    for (BlockId b = 0; b < 4; ++b) {
      if (b == 2) continue;
      const CacheLine* line = lc.find(b);
      ASSERT_NE(line, nullptr);
      ASSERT_EQ(line->data.count(), words);
      for (std::uint32_t w = 0; w < words; ++w) EXPECT_EQ(line->data[w], 1000 * (b + 1) + w);
    }
  }
}

// --- write buffer ---

TEST(WriteBuffer, PendingCountTracksEnterRetire) {
  WriteBuffer wb;
  EXPECT_TRUE(wb.empty());
  wb.enter();
  wb.enter();
  EXPECT_EQ(wb.pending(), 2u);
  wb.retire();
  EXPECT_EQ(wb.pending(), 1u);
  wb.retire();
  EXPECT_TRUE(wb.empty());
}

TEST(WriteBuffer, TxnIdsAreUnique) {
  WriteBuffer wb;
  EXPECT_NE(wb.enter(), wb.enter());
}

TEST(WriteBuffer, FlushWaitersFireOnDrain) {
  WriteBuffer wb;
  int fired = 0;
  wb.on_drained([&] { ++fired; });
  EXPECT_EQ(fired, 1) << "empty buffer completes immediately";
  wb.enter();
  wb.on_drained([&] { ++fired; });
  wb.on_drained([&] { ++fired; });
  EXPECT_EQ(fired, 1);
  wb.retire();
  EXPECT_EQ(fired, 3);
}

TEST(WriteBuffer, BoundedCapacityBlocksAndWakes) {
  WriteBuffer wb(2);
  int issued = 0;
  wb.on_slot([&] {
    ++issued;
    wb.enter();
  });
  wb.on_slot([&] {
    ++issued;
    wb.enter();
  });
  EXPECT_EQ(issued, 2);
  EXPECT_TRUE(wb.full());
  wb.on_slot([&] {
    ++issued;
    wb.enter();
  });
  EXPECT_EQ(issued, 2) << "third write must wait for a slot";
  wb.retire();
  EXPECT_EQ(issued, 3);
  EXPECT_TRUE(wb.full());
}

TEST(WriteBuffer, UnboundedNeverFull) {
  WriteBuffer wb(0);
  for (int i = 0; i < 1000; ++i) wb.enter();
  EXPECT_FALSE(wb.full());
  EXPECT_TRUE(wb.unbounded());
}

// --- lock cache ---

TEST(LockCache, AllocateFindRelease) {
  LockCache lc(2, 4);
  CacheLine& a = lc.allocate(10);
  EXPECT_EQ(a.block, 10u);
  EXPECT_TRUE(a.valid);
  EXPECT_EQ(lc.find(10), &a);
  EXPECT_EQ(lc.find(11), nullptr);
  lc.release(10);
  EXPECT_EQ(lc.find(10), nullptr);
  EXPECT_EQ(lc.size(), 0u);
}

TEST(LockCache, CapacityBlocksUntilRelease) {
  LockCache lc(1, 4);
  int ran = 0;
  EXPECT_FALSE(lc.on_slot([&] {
    ++ran;
    lc.allocate(1);
  }));
  EXPECT_TRUE(lc.full());
  EXPECT_TRUE(lc.on_slot([&] {
    ++ran;
    lc.allocate(2);
  }));
  EXPECT_EQ(ran, 1);
  lc.release(1);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(lc.stalls_served(), 1u);
  EXPECT_EQ(lc.find(2)->block, 2u);
}

TEST(LockCache, ReleaseOfUnknownBlockIsIdempotent) {
  LockCache lc(2, 4);
  lc.release(99);  // no-op
  EXPECT_EQ(lc.size(), 0u);
}

TEST(LockCache, ReleasedSlotComesBackZeroed) {
  LockCache lc(1, 4);
  CacheLine& a = lc.allocate(5);
  a.data = payload(4, 90);
  a.dirty_mask = 0xF;
  lc.release(5);
  EXPECT_FALSE(a.valid);
  for (std::uint32_t w = 0; w < 4; ++w) EXPECT_EQ(a.data[w], 0u);
  CacheLine& b = lc.allocate(6);
  EXPECT_EQ(&b, &a) << "a one-slot cache reuses its slot";
  EXPECT_EQ(b.data.count(), 0u);
  EXPECT_EQ(b.dirty_mask, 0u);
  for (std::uint32_t w = 0; w < 4; ++w) EXPECT_EQ(b.data[w], 0u);
}

TEST(LockCache, StableAddressesAcrossChurn) {
  LockCache lc(4, 4);
  CacheLine& a = lc.allocate(1);
  lc.allocate(2);
  lc.release(2);
  lc.allocate(3);
  EXPECT_EQ(lc.find(1), &a) << "entries must not move on unrelated churn";
}

}  // namespace
}  // namespace bcsim::cache
