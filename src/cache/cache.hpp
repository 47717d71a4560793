// Set-associative data cache with LRU replacement.
//
// The cache stores *frames*; protocol state lives in the CacheLine. A frame
// is one record: its CacheLine followed directly by its block_words words,
// which the line's `data` views. A set has no storage until it is first
// filled: its entry in the per-set index stays null, and find() on it
// misses after that one load. The first pick_victim() in a set carves the
// set's `assoc` records from the cache's newest chunk. Chunks double in
// size (1, 2, 4, ... sets, the last cut to the sets still unfilled), so a
// cache that fills S sets allocates ceil(log2(S + 1)) times, and its heap
// follows the blocks a run touches rather than its capacity. A carved
// record never moves, so a line's address is stable for the cache's life.
//
// Victim selection skips pinned frames (transaction in flight) and
// lock-active frames (lock lines live in the separate LockCache anyway, but
// defense in depth costs nothing). The caller owns what happens to the
// victim (write-back of dirty words, reset-update notification).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "cache/cache_line.hpp"
#include "sim/types.hpp"

namespace bcsim::cache {

class Cache {
 public:
  /// `blocks` total frames of `block_words` words each, `assoc`-way
  /// associative. `blocks` must be a multiple of `assoc`; `block_words`
  /// must lie in [1, net::kMaxBlockWords]. No frame is allocated yet.
  Cache(std::uint32_t blocks, std::uint32_t assoc, std::uint32_t block_words);
  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  /// Looks up the line caching `b`; nullptr on miss.
  [[nodiscard]] CacheLine* find(BlockId b) noexcept;
  [[nodiscard]] const CacheLine* find(BlockId b) const noexcept;

  /// Picks a victim frame in b's set, giving the set its storage on the
  /// set's first call. Invalid frames first, then LRU among unpinned,
  /// lock-inactive frames. Returns nullptr when every frame in the set is
  /// unreplaceable (caller must stall and retry).
  [[nodiscard]] CacheLine* pick_victim(BlockId b);

  /// Marks a use for LRU.
  void touch(CacheLine& line, Tick now) noexcept { line.last_use = now; }

  [[nodiscard]] std::uint32_t n_sets() const noexcept { return n_sets_; }
  [[nodiscard]] std::uint32_t assoc() const noexcept { return assoc_; }
  /// Sets that have storage: those pick_victim() has been called on.
  [[nodiscard]] std::uint32_t filled_sets() const noexcept { return filled_sets_; }

  /// Iterates all valid lines, set by set and way by way (for invariant
  /// checks in tests).
  template <typename Fn>
  void for_each_valid(Fn&& fn) const {
    for (std::byte* set : sets_) {
      if (set == nullptr) continue;
      for (std::uint32_t w = 0; w < assoc_; ++w) {
        const CacheLine& line = way(set, w);
        if (line.valid) fn(line);
      }
    }
  }

 private:
  [[nodiscard]] std::uint32_t set_of(BlockId b) const noexcept {
    return static_cast<std::uint32_t>(b % n_sets_);
  }
  [[nodiscard]] CacheLine& way(std::byte* set, std::uint32_t w) const noexcept {
    return *std::launder(static_cast<CacheLine*>(static_cast<void*>(set + w * stride_)));
  }
  /// Carves a set's records from the newest chunk (allocating the next
  /// chunk when it is used up) and constructs its empty lines.
  [[nodiscard]] std::byte* carve_set();

  std::uint32_t n_sets_;
  std::uint32_t assoc_;
  std::uint32_t block_words_;
  std::size_t stride_;            ///< bytes per record: a CacheLine, then its words
  std::vector<std::byte*> sets_;  ///< per set: its first record, or null until filled
  std::vector<std::unique_ptr<std::byte[]>> chunks_;  ///< reserved: never regrows
  std::byte* free_ = nullptr;     ///< the newest chunk's first uncarved set
  std::uint32_t free_sets_ = 0;   ///< sets left in the newest chunk
  std::uint32_t filled_sets_ = 0;
};

}  // namespace bcsim::cache
