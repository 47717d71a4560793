// Lock cache: small fully-associative cache for lock lines (paper 4.3).
//
// Lines that participate in a lock queue must not be replaced (replacement
// would break the distributed linked list), so they live here instead of
// the main cache. The paper treats its limited size as a resource managed
// conservatively by the compiler; we expose the capacity as configuration
// and free entries when a line leaves the queue. The cache parks nothing:
// an acquisition that finds it full() waits in the processor's
// outstanding-operation record, and the cache controller wakes it where it
// releases a line (counting the stall in `cache.lock_cache_stalls`, which
// the ablation bench reports).
//
// Storage is fixed at construction: `capacity` slots whose words live in
// one capacity x block_words array. A slot never moves, so a line's
// address is stable for as long as it is allocated.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "cache/cache_line.hpp"
#include "sim/types.hpp"

namespace bcsim::cache {

class LockCache {
 public:
  /// `capacity` slots of `block_words` words each; `block_words` must lie
  /// in [1, net::kMaxBlockWords].
  LockCache(std::uint32_t capacity, std::uint32_t block_words) : capacity_(capacity) {
    if (block_words == 0 || block_words > net::kMaxBlockWords) {
      throw std::invalid_argument("LockCache: block_words must be in [1, 32]");
    }
    words_.assign(static_cast<std::size_t>(capacity) * block_words, 0);
    slots_ = std::vector<CacheLine>(capacity);
    free_.reserve(capacity);
    for (std::size_t i = slots_.size(); i-- > 0;) {
      slots_[i].data.bind(&words_[i * block_words], block_words);
      free_.push_back(&slots_[i]);  // lowest slot on top
    }
  }
  LockCache(const LockCache&) = delete;
  LockCache& operator=(const LockCache&) = delete;

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  [[nodiscard]] bool full() const noexcept { return index_.size() >= capacity_; }

  [[nodiscard]] CacheLine* find(BlockId b) noexcept {
    auto it = index_.find(b);
    return it == index_.end() ? nullptr : it->second;
  }
  [[nodiscard]] const CacheLine* find(BlockId b) const noexcept {
    auto it = index_.find(b);
    return it == index_.end() ? nullptr : it->second;
  }

  /// Allocates an entry for block `b`. Precondition: !full() && !find(b).
  CacheLine& allocate(BlockId b) {
    CacheLine* line = free_.back();
    free_.pop_back();
    line->clear();
    line->block = b;
    line->valid = true;
    index_.emplace(b, line);
    return *line;
  }

  /// Releases the entry for `b`; its slot comes back zeroed.
  void release(BlockId b) {
    auto it = index_.find(b);
    if (it == index_.end()) return;
    it->second->clear();
    free_.push_back(it->second);
    index_.erase(it);
  }

  /// Visits every allocated line, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& line : slots_) {
      if (line.valid) fn(line);
    }
  }

 private:
  std::uint32_t capacity_;
  std::vector<Word> words_;        // slot i: words [i * block_words, (i + 1) * block_words)
  std::vector<CacheLine> slots_;   // fixed; never reallocated
  std::vector<CacheLine*> free_;   // unallocated slots
  std::unordered_map<BlockId, CacheLine*> index_;
};

}  // namespace bcsim::cache
