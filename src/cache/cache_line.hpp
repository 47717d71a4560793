// Cache line: data + the directory-entry fields of paper Figure 2a.
//
// Each line carries, beyond tag/state/data: per-word dirty bits d1..dk (so
// replacement writes back only dirty words — the false-sharing fix), an
// update bit (read-update subscription active), a lock field, and prev/next
// node pointers used to thread this line into either the read-update
// subscriber list or the lock waiting queue (the two uses are mutually
// exclusive per block; the central directory's usage bit says which).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "net/message.hpp"
#include "sim/types.hpp"

namespace bcsim::cache {

/// A frame's block payload: a view of the frame's `block_words` words in
/// its cache's frame storage, plus the payload's valid-word count. In the
/// data cache the words follow their CacheLine directly, in one record
/// carved when the line's set is first filled (cache.hpp); LockCache owns
/// one slots x block_words word array. A view cannot be copied — two
/// frames never share words.
class FrameData {
 public:
  FrameData() = default;
  FrameData(const FrameData&) = delete;
  FrameData& operator=(const FrameData&) = delete;

  /// Points the view at `size` words of frame storage. Called once, by
  /// the cache that owns the storage.
  void bind(Word* words, std::uint32_t size) noexcept {
    words_ = words;
    size_ = size;
  }

  Word& operator[](std::size_t i) noexcept {
    assert(i < size_);
    return words_[i];
  }
  const Word& operator[](std::size_t i) const noexcept {
    assert(i < size_);
    return words_[i];
  }
  /// Valid words (0 = the frame holds no payload).
  [[nodiscard]] std::uint8_t count() const noexcept { return count_; }

  /// Stores a payload: copies its words and zero-fills the rest of the
  /// frame.
  FrameData& operator=(const net::BlockData& d) noexcept {
    assert(d.count <= size_);
    std::copy_n(d.words.begin(), d.count, words_);
    std::fill(words_ + d.count, words_ + size_, Word{0});
    count_ = d.count;
    return *this;
  }

  /// The frame's payload as a message block (its first count() words).
  operator net::BlockData() const noexcept {  // NOLINT(google-explicit-constructor)
    net::BlockData d;
    d.count = count_;
    std::copy_n(words_, count_, d.words.begin());
    return d;
  }

  /// Zeroes the frame's words; the frame then holds no payload.
  void clear() noexcept {
    std::fill_n(words_, size_, Word{0});
    count_ = 0;
  }

 private:
  Word* words_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint8_t count_ = 0;
};

/// Classic MSI stable states for the WBI baseline protocol. Lines used by
/// the read-update protocol or as lock lines are kShared-like for reads and
/// carry their own flags.
enum class MsiState : std::uint8_t { kInvalid, kShared, kModified };

/// Lock field of the cache directory entry (paper Figure 2a). States track
/// the line's position in the CBL protocol.
enum class LockState : std::uint8_t {
  kNone,       ///< not a lock line
  kWaitRead,   ///< enqueued, waiting for a read-lock grant
  kWaitWrite,  ///< enqueued, waiting for a write-lock grant
  kHeldRead,   ///< holding a shared lock
  kHeldWrite,  ///< holding an exclusive lock
  kDraining,   ///< released but possibly still the queue tail (successor
               ///< announce may be in flight; resolved via the directory)
  kReleasing,  ///< read-lock released; directory orchestrates disposition
  kQuerying,   ///< write-lock released with no known successor; tail query
               ///< outstanding — an arriving successor announce is handled
               ///< as a drain (hand off immediately)
};

struct CacheLine {
  BlockId block = 0;
  bool valid = false;

  MsiState msi = MsiState::kInvalid;
  bool update_bit = false;            ///< read-update subscription active
  LockState lock = LockState::kNone;
  std::uint32_t dirty_mask = 0;       ///< d1..dk of Figure 2a
  bool memory_stale = false;          ///< lock-carried data differs from memory
  bool pinned = false;                ///< transaction in flight; not replaceable

  NodeId prev = kNoNode;              ///< queue pointer (Figure 2a)
  NodeId next = kNoNode;              ///< queue pointer (Figure 2a)
  net::LockMode next_mode = net::LockMode::kRead;  ///< successor's requested mode

  FrameData data;                     ///< view of this frame's words
  Tick last_use = 0;                  ///< LRU timestamp
  std::uint64_t ru_version = 0;       ///< version of the last applied update

  [[nodiscard]] bool dirty() const noexcept { return dirty_mask != 0; }
  [[nodiscard]] bool holds_lock() const noexcept {
    return lock == LockState::kHeldRead || lock == LockState::kHeldWrite;
  }
  [[nodiscard]] bool lock_active() const noexcept { return lock != LockState::kNone; }

  /// Resets every field and zeroes the frame's words; the line stays
  /// bound to its frame.
  void clear() noexcept {
    block = 0;
    valid = false;
    msi = MsiState::kInvalid;
    update_bit = false;
    lock = LockState::kNone;
    dirty_mask = 0;
    memory_stale = false;
    pinned = false;
    prev = next = kNoNode;
    next_mode = net::LockMode::kRead;
    data.clear();
    last_use = 0;
    ru_version = 0;
  }
};

}  // namespace bcsim::cache
