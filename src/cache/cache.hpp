// Set-associative data cache with LRU replacement.
//
// The cache stores *frames*; protocol state lives in the CacheLine. Frame
// words live in one blocks x block_words array owned by the cache, and
// each line's `data` is a view of its frame's slice, so a frame costs
// block_words words whatever the largest configurable block is. Victim
// selection skips pinned frames (transaction in flight) and lock-active
// frames (lock lines live in the separate LockCache anyway, but defense in
// depth costs nothing). The caller owns what happens to the victim
// (write-back of dirty words, reset-update notification).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/cache_line.hpp"
#include "sim/types.hpp"

namespace bcsim::cache {

class Cache {
 public:
  /// `blocks` total frames of `block_words` words each, `assoc`-way
  /// associative. `blocks` must be a multiple of `assoc`; `block_words`
  /// must lie in [1, net::kMaxBlockWords].
  Cache(std::uint32_t blocks, std::uint32_t assoc, std::uint32_t block_words);
  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  /// Looks up the line caching `b`; nullptr on miss.
  [[nodiscard]] CacheLine* find(BlockId b) noexcept;
  [[nodiscard]] const CacheLine* find(BlockId b) const noexcept;

  /// Picks a victim frame in b's set. Invalid frames first, then LRU among
  /// unpinned, lock-inactive frames. Returns nullptr when every frame in
  /// the set is unreplaceable (caller must stall and retry).
  [[nodiscard]] CacheLine* pick_victim(BlockId b) noexcept;

  /// Marks a use for LRU.
  void touch(CacheLine& line, Tick now) noexcept { line.last_use = now; }

  [[nodiscard]] std::uint32_t n_sets() const noexcept { return n_sets_; }
  [[nodiscard]] std::uint32_t assoc() const noexcept { return assoc_; }

  /// Iterates all valid lines (for invariant checks in tests).
  template <typename Fn>
  void for_each_valid(Fn&& fn) const {
    for (const auto& line : frames_) {
      if (line.valid) fn(line);
    }
  }

 private:
  [[nodiscard]] std::uint32_t set_of(BlockId b) const noexcept {
    return static_cast<std::uint32_t>(b % n_sets_);
  }

  std::uint32_t n_sets_;
  std::uint32_t assoc_;
  std::vector<Word> words_;        // frame i: words [i * block_words, (i + 1) * block_words)
  std::vector<CacheLine> frames_;  // set-major layout
};

}  // namespace bcsim::cache
