// Cache structure tests: set-associative cache and lock cache (the write
// buffer's are in tests/test_write_buffer.cpp).
// CacheDifferential holds the data cache to the flat frame layout it
// replaced (FlatCache below), under seeded scripts over associativities
// 1 to 8 and every block size from 1 to 32 words.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cache.hpp"
#include "cache/lock_cache.hpp"
#include "sim/random.hpp"

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

// --- Cache against the flat layout it replaced ---

/// Cache's earlier frame layout: every frame's CacheLine in one set-major
/// vector and every frame's words in one blocks x block_words array, all
/// built and zeroed at construction. Kept only as the reference the
/// differential test holds Cache to; find, pick_victim and for_each_valid
/// are the earlier code.
class FlatCache {
 public:
  FlatCache(std::uint32_t blocks, std::uint32_t assoc, std::uint32_t block_words)
      : n_sets_(blocks / assoc), assoc_(assoc) {
    words_.assign(static_cast<std::size_t>(blocks) * block_words, 0);
    frames_ = std::vector<CacheLine>(blocks);
    for (std::size_t i = 0; i < frames_.size(); ++i) {
      frames_[i].data.bind(&words_[i * block_words], block_words);
    }
  }

  CacheLine* find(BlockId b) {
    const std::uint32_t s = set_of(b);
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      CacheLine& line = frames_[static_cast<std::size_t>(s) * assoc_ + w];
      if (line.valid && line.block == b) return &line;
    }
    return nullptr;
  }

  CacheLine* pick_victim(BlockId b) {
    const std::uint32_t s = set_of(b);
    CacheLine* best = nullptr;
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      CacheLine& line = frames_[static_cast<std::size_t>(s) * assoc_ + w];
      if (!line.valid) return &line;
      if (line.pinned || line.lock_active()) continue;
      if (best == nullptr || line.last_use < best->last_use) best = &line;
    }
    return best;
  }

  template <typename Fn>
  void for_each_valid(Fn&& fn) const {
    for (const auto& line : frames_) {
      if (line.valid) fn(line);
    }
  }

  /// "set S way W" of one of this cache's frames.
  [[nodiscard]] std::string where(const CacheLine* line) const {
    const auto i = static_cast<std::size_t>(line - frames_.data());
    return "set " + std::to_string(i / assoc_) + " way " + std::to_string(i % assoc_);
  }

 private:
  [[nodiscard]] std::uint32_t set_of(BlockId b) const {
    return static_cast<std::uint32_t>(b % n_sets_);
  }

  std::uint32_t n_sets_;
  std::uint32_t assoc_;
  std::vector<Word> words_;
  std::vector<CacheLine> frames_;
};

/// Pairs each Cache frame with the reference frame it was first returned
/// alongside. A later return that breaks the pairing means the two caches
/// chose frames in different sets or ways.
class FramePairing {
 public:
  explicit FramePairing(const FlatCache& ref) : ref_(ref) {}

  testing::AssertionResult same(const CacheLine* got, const CacheLine* want) {
    if ((got == nullptr) != (want == nullptr)) {
      return testing::AssertionFailure()
             << (got == nullptr ? "Cache returned no frame, the reference " + ref_.where(want)
                                : "the reference returned no frame, Cache one");
    }
    if (got == nullptr) return testing::AssertionSuccess();
    const auto [it, got_fresh] = to_ref_.emplace(got, want);
    const auto [jt, want_fresh] = from_ref_.emplace(want, got);
    if (it->second == want && jt->second == got) return testing::AssertionSuccess();
    return testing::AssertionFailure()
           << "the reference returned " << ref_.where(want) << ", Cache "
           << (got_fresh ? "a frame it had not returned before"
                         : "the frame paired with " + ref_.where(it->second));
  }

  /// Cache's valid lines, walked in order, are the reference's.
  testing::AssertionResult same_walk(const Cache& c) const {
    std::vector<const CacheLine*> got;
    std::vector<const CacheLine*> want;
    c.for_each_valid([&](const CacheLine& l) {
      const auto it = to_ref_.find(&l);
      got.push_back(it == to_ref_.end() ? nullptr : it->second);
    });
    ref_.for_each_valid([&](const CacheLine& l) { want.push_back(&l); });
    if (got != want) {
      return testing::AssertionFailure() << "for_each_valid walked " << got.size()
                                         << " lines in another order than the reference's "
                                         << want.size();
    }
    return testing::AssertionSuccess();
  }

 private:
  const FlatCache& ref_;
  std::unordered_map<const CacheLine*, const CacheLine*> to_ref_;
  std::unordered_map<const CacheLine*, const CacheLine*> from_ref_;
};

/// Drives a Cache and a FlatCache of one geometry with one seeded script of
/// finds, fills (pick_victim, then the caller's install), clears, touches,
/// pins and lock activations, checking every returned frame and every
/// walk; then fills every way of every set, writes a distinct value into
/// every word, and reads them all back.
void differential(std::uint32_t sets, std::uint32_t assoc, std::uint32_t words,
                  std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "sets=" << sets << " assoc=" << assoc
                                  << " block_words=" << words << " seed=" << seed);
  Cache c(sets * assoc, assoc, words);
  FlatCache ref(sets * assoc, assoc, words);
  FramePairing pairing(ref);
  sim::Rng rng(seed);
  std::vector<bool> filled(sets, false);
  Tick now = 0;
  const BlockId span = 3ULL * sets * assoc;  // three blocks per frame: evictions

  for (int step = 0; step < 3000; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    const BlockId b = rng.next_below(span);
    CacheLine* got = c.find(b);
    CacheLine* want = ref.find(b);
    ASSERT_TRUE(pairing.same(got, want)) << "find(" << b << ")";
    now += rng.next_below(3);  // equal ticks make LRU ties
    const std::uint64_t dice = rng.next_below(10);
    if (got == nullptr) {
      if (dice < 6) {  // a miss fills
        got = c.pick_victim(b);
        want = ref.pick_victim(b);
        ASSERT_TRUE(pairing.same(got, want)) << "pick_victim(" << b << ")";
        filled[b % sets] = true;
        if (got == nullptr) continue;  // every way pinned or locked
        const auto payload_words = static_cast<std::uint8_t>(rng.next_in(0, words));
        for (CacheLine* l : {got, want}) {
          l->clear();
          l->block = b;
          l->valid = true;
          l->last_use = now;
          l->data = payload(payload_words, 1000 * b);
        }
      }
    } else if (dice < 3) {
      c.touch(*got, now);
      want->last_use = now;
    } else if (dice < 5) {
      got->pinned = want->pinned = !want->pinned;
    } else if (dice < 7) {
      got->lock = want->lock = want->lock_active() ? LockState::kNone : LockState::kHeldWrite;
    } else if (dice < 8) {
      got->clear();
      want->clear();
    }
    if (step % 16 == 0) {
      ASSERT_TRUE(pairing.same_walk(c));
    }
  }
  ASSERT_TRUE(pairing.same_walk(c));
  EXPECT_EQ(c.filled_sets(),
            static_cast<std::uint32_t>(std::count(filled.begin(), filled.end(), true)));

  // Empty both caches, then fill every way of every set, unfilled sets
  // included, so that the last chunk is carved. Write a distinct value
  // into every word of every frame, then read all of them back: a record
  // that overlaps its neighbour loses words or line fields.
  for (BlockId b = 0; b < span; ++b) {
    if (CacheLine* l = c.find(b)) l->clear();
    if (CacheLine* l = ref.find(b)) l->clear();
  }
  const BlockId frames = BlockId{sets} * assoc;
  std::vector<CacheLine*> lines;
  for (BlockId b = 0; b < frames; ++b) {
    CacheLine* got = c.pick_victim(b);
    CacheLine* want = ref.pick_victim(b);
    ASSERT_TRUE(pairing.same(got, want)) << "pick_victim(" << b << ") when refilling";
    for (CacheLine* l : {got, want}) {
      l->block = b;
      l->valid = true;
    }
    lines.push_back(got);
  }
  EXPECT_EQ(c.filled_sets(), sets);
  ASSERT_TRUE(pairing.same_walk(c));
  Word next = 1;
  for (CacheLine* l : lines) {
    for (std::uint32_t w = 0; w < words; ++w) l->data[w] = next++;
  }
  next = 1;
  for (BlockId b = 0; b < frames; ++b) {
    ASSERT_EQ(c.find(b), lines[b]) << "block " << b;
    ASSERT_TRUE(lines[b]->valid);
    for (std::uint32_t w = 0; w < words; ++w) {
      EXPECT_EQ(lines[b]->data[w], next++) << "block " << b << " word " << w;
    }
  }
}

TEST(CacheDifferential, MatchesTheFlatLayout) {
  for (std::uint32_t assoc : {1u, 2u, 4u, 8u}) {
    for (std::uint32_t words : {1u, 2u, 4u, 8u, 16u, 32u}) {
      for (std::uint32_t sets : {1u, 13u, 64u}) {
        for (std::uint64_t seed : {1u, 2u}) differential(sets, assoc, words, seed);
      }
    }
  }
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

TEST(LockCache, FullUntilARelease) {
  LockCache lc(1, 4);
  lc.allocate(1);
  EXPECT_TRUE(lc.full());
  lc.release(1);
  EXPECT_FALSE(lc.full());
  EXPECT_EQ(lc.allocate(2).block, 2u);
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
