// Central directory entry (paper Figure 2b: usage bit + queue pointer),
// plus the authoritative protocol state the simulator keeps per block.
//
// The paper's hardware stores only {usage bit, queue pointer} centrally and
// distributes the rest of the queue through cache-line pointers. The
// simulator additionally mirrors the full queue here: the directory is the
// serialization point for membership changes anyway, so this mirror is
// exact, and it is what lets tests state global invariants ("exactly one
// write holder", "subscription list acyclic") cheaply. The distributed
// pointers in the caches are still maintained and used for the actual
// grant/handoff/update message flows.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/message.hpp"
#include "sim/types.hpp"

namespace bcsim::mem {

/// WBI directory states.
enum class DirState : std::uint8_t {
  kUncached,
  kShared,
  kModified,
  kBusyRecall,  ///< recall to the owner outstanding
  kBusyRmw,     ///< invalidations for an RMW outstanding (acks come here)
};

/// A member of the CBL lock queue as the directory sees it.
struct LockChainNode {
  NodeId node = kNoNode;
  net::LockMode mode = net::LockMode::kRead;
};

struct DirectoryEntry {
  // ---- WBI (baseline protocol) ----
  DirState state = DirState::kUncached;
  /// True once this entry exhausted its pointer budget under the
  /// coarse-vector overflow policy (MachineConfig::dir_overflow = kCoarse):
  /// the exact `sharers` pointers have been folded into `region_mask` and
  /// `sharers` stays empty until an invalidation round resets the entry.
  /// (Declared beside `state` and `owner`, which it packs with.)
  bool coarse = false;
  NodeId owner = kNoNode;           ///< exclusive owner (kModified)
  /// Full-map sharer set (kShared), in the order Invs go out.
  std::vector<NodeId> sharers;
  /// Membership of `sharers`, so that a GetS, a PutS and the invariant
  /// checker test it in O(1): node n's bit is bit n % 64 of word n / 64.
  /// A machine of up to 64 nodes keeps its one word in `sharer_word`; a
  /// larger one allocates a word per 64 nodes in `sharer_words` when the
  /// entry gains its first sharer (null before).
  std::uint64_t sharer_word = 0;
  std::unique_ptr<std::uint64_t[]> sharer_words;

  /// Whether `n`, a node of the machine, is listed.
  [[nodiscard]] bool is_sharer(NodeId n) const noexcept {
    const std::uint64_t w = sharer_words ? sharer_words[n / 64] : n < 64 ? sharer_word : 0;
    return (w >> (n % 64)) & 1u;
  }
  /// The word that holds `n`'s bit, once the entry has its words.
  [[nodiscard]] std::uint64_t& sharer_word_of(NodeId n) noexcept {
    return sharer_words ? sharer_words[n / 64] : sharer_word;
  }
  /// Lists `n` last unless it is already a sharer of this n_nodes machine.
  void insert_sharer(NodeId n, std::uint32_t n_nodes) {
    if (n_nodes > 64 && !sharer_words) {
      sharer_words = std::make_unique<std::uint64_t[]>((n_nodes + 63) / 64);
    }
    std::uint64_t& w = sharer_word_of(n);
    const std::uint64_t bit = std::uint64_t{1} << (n % 64);
    if ((w & bit) != 0) return;
    w |= bit;
    sharers.push_back(n);
  }
  /// Unlists `n`, keeping the others' order.
  void erase_sharer(NodeId n) {
    if (!is_sharer(n)) return;
    sharer_word_of(n) &= ~(std::uint64_t{1} << (n % 64));
    std::erase(sharers, n);
  }
  void clear_sharer_list() noexcept {
    for (const NodeId n : sharers) sharer_word_of(n) &= ~(std::uint64_t{1} << (n % 64));
    sharers.clear();
  }

  // ---- limited-directory overflow (coarse vector: `coarse` above) ----
  /// Region bitmap, 64 regions per word; bit r set means "some node in
  /// region r may hold a copy". Conservative: PutS cannot clear a bit, so
  /// invalidations cover whole regions.
  std::vector<std::uint64_t> region_mask;

  [[nodiscard]] bool region_bit(std::uint32_t region) const noexcept {
    const std::size_t w = region / 64;
    return w < region_mask.size() && (region_mask[w] >> (region % 64)) & 1u;
  }
  void set_region_bit(std::uint32_t region) {
    const std::size_t w = region / 64;
    if (w >= region_mask.size()) region_mask.resize(w + 1, 0);
    region_mask[w] |= std::uint64_t{1} << (region % 64);
  }

  // Transaction in flight while kBusyRecall / kBusyRmw.
  net::Message pending{};           ///< original request being serviced
  std::uint32_t acks_outstanding = 0;

  // ---- paper Figure 2b ----
  /// usage bit: false = queue pointer threads the read-update subscriber
  /// list; true = it threads a lock queue. (Declared beside
  /// `acks_outstanding`, which it packs with.)
  bool usage_lock = false;

  /// Requests that arrived while the entry was busy; drained FIFO when the
  /// entry becomes stable again (the paper assumes infinite buffers, so
  /// queuing — not NACKing — is the faithful model).
  std::vector<net::Message> blocked;

  // ---- read-update subscription list (authoritative mirror) ----
  /// Subscribers, head first. The head is what the hardware queue pointer
  /// stores; new subscribers push at the front (cheapest hardware insert).
  std::vector<NodeId> ru_list;
  /// Monotonic write version for this block. Carried in every RuUpdate so
  /// subscribers never apply an older block snapshot over a newer one
  /// (two writes by different writers propagate along different hop
  /// sequences, so per-link FIFO alone cannot order them).
  std::uint64_t ru_version = 0;

  // ---- CBL lock queue (authoritative mirror) ----
  /// Grant-order chain: the first `lock_holders` entries currently hold the
  /// lock; the rest wait. The hardware queue pointer is chain.back().
  std::vector<LockChainNode> lock_chain;
  std::uint32_t lock_holders = 0;
  /// Block is being written back to memory after the final unlock; lock
  /// requests arriving in this window are queued in `blocked`.
  bool lock_writeback_pending = false;
  /// Set while a holder exists whose cached copy may differ from memory.
  bool lock_data_stale = false;

  // ---- barrier support ----
  std::uint32_t barrier_count = 0;
  std::vector<NodeId> barrier_waiters;

  [[nodiscard]] bool busy() const noexcept {
    return state == DirState::kBusyRecall || state == DirState::kBusyRmw ||
           lock_writeback_pending;
  }
  [[nodiscard]] bool lock_queue_empty() const noexcept { return lock_chain.empty(); }
  [[nodiscard]] NodeId lock_tail() const noexcept {
    return lock_chain.empty() ? kNoNode : lock_chain.back().node;
  }
};

}  // namespace bcsim::mem
