#include "cache/cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <type_traits>

namespace bcsim::cache {

// Words follow their line in one record, and chunks are freed without
// running destructors.
static_assert(alignof(CacheLine) >= alignof(Word));
static_assert(alignof(CacheLine) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
static_assert(std::is_trivially_destructible_v<CacheLine>);

Cache::Cache(std::uint32_t blocks, std::uint32_t assoc, std::uint32_t block_words)
    : assoc_(assoc), block_words_(block_words) {
  if (assoc == 0 || blocks == 0 || blocks % assoc != 0) {
    throw std::invalid_argument("Cache: blocks must be a positive multiple of assoc");
  }
  if (block_words == 0 || block_words > net::kMaxBlockWords) {
    throw std::invalid_argument("Cache: block_words must be in [1, 32]");
  }
  n_sets_ = blocks / assoc;
  const std::size_t record = sizeof(CacheLine) + std::size_t{block_words} * sizeof(Word);
  stride_ = (record + alignof(CacheLine) - 1) / alignof(CacheLine) * alignof(CacheLine);
  sets_.assign(n_sets_, nullptr);
  // Chunks of 1, 2, 4, ... sets cover all n_sets_ in bit_width(n_sets_).
  chunks_.reserve(static_cast<std::size_t>(std::bit_width(n_sets_)));
}

std::byte* Cache::carve_set() {
  const std::size_t set_bytes = stride_ * assoc_;
  if (free_sets_ == 0) {
    const std::uint32_t sets = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(std::uint64_t{1} << chunks_.size(), n_sets_ - filled_sets_));
    chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(set_bytes * sets));
    free_ = chunks_.back().get();
    free_sets_ = sets;
  }
  std::byte* set = free_;
  free_ += set_bytes;
  --free_sets_;
  ++filled_sets_;
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    auto* line = ::new (set + w * stride_) CacheLine;
    auto* words = reinterpret_cast<Word*>(line + 1);
    std::fill_n(words, block_words_, Word{0});
    line->data.bind(words, block_words_);
  }
  return set;
}

CacheLine* Cache::find(BlockId b) noexcept {
  std::byte* set = sets_[set_of(b)];
  if (set == nullptr) return nullptr;
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    CacheLine& line = way(set, w);
    if (line.valid && line.block == b) return &line;
  }
  return nullptr;
}

const CacheLine* Cache::find(BlockId b) const noexcept {
  return const_cast<Cache*>(this)->find(b);
}

CacheLine* Cache::pick_victim(BlockId b) {
  std::byte*& set = sets_[set_of(b)];
  if (set == nullptr) set = carve_set();
  CacheLine* best = nullptr;
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    CacheLine& line = way(set, w);
    if (!line.valid) return &line;
    if (line.pinned || line.lock_active()) continue;
    if (best == nullptr || line.last_use < best->last_use) best = &line;
  }
  return best;
}

}  // namespace bcsim::cache
