#include "cache/cache.hpp"

#include <stdexcept>

namespace bcsim::cache {

Cache::Cache(std::uint32_t blocks, std::uint32_t assoc, std::uint32_t block_words)
    : assoc_(assoc) {
  if (assoc == 0 || blocks == 0 || blocks % assoc != 0) {
    throw std::invalid_argument("Cache: blocks must be a positive multiple of assoc");
  }
  if (block_words == 0 || block_words > net::kMaxBlockWords) {
    throw std::invalid_argument("Cache: block_words must be in [1, 32]");
  }
  n_sets_ = blocks / assoc;
  words_.assign(static_cast<std::size_t>(blocks) * block_words, 0);
  frames_ = std::vector<CacheLine>(blocks);
  for (std::size_t i = 0; i < frames_.size(); ++i) {
    frames_[i].data.bind(&words_[i * block_words], block_words);
  }
}

CacheLine* Cache::find(BlockId b) noexcept {
  const std::uint32_t s = set_of(b);
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    CacheLine& line = frames_[static_cast<std::size_t>(s) * assoc_ + w];
    if (line.valid && line.block == b) return &line;
  }
  return nullptr;
}

const CacheLine* Cache::find(BlockId b) const noexcept {
  return const_cast<Cache*>(this)->find(b);
}

CacheLine* Cache::pick_victim(BlockId b) noexcept {
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

}  // namespace bcsim::cache
