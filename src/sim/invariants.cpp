#include "sim/invariants.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/machine.hpp"

namespace bcsim::sim {

namespace {

using cache::CacheLine;
using cache::LockState;
using cache::MsiState;
using mem::DirectoryEntry;
using mem::DirState;
using net::LockMode;

[[noreturn]] void fail(const char* name, BlockId block, NodeId home, NodeId node, Tick tick,
                       const std::string& detail) {
  const auto put_node = [](std::ostringstream& s, NodeId x) {
    if (x == kNoNode) {
      s << "-";
    } else {
      s << x;
    }
  };
  std::ostringstream os;
  os << "invariant violation [" << name << "] at tick " << tick << ", block " << block
     << " (home ";
  put_node(os, home);
  os << "), node ";
  put_node(os, node);
  os << ": " << detail;
  throw InvariantViolation(os.str(), block, node, tick);
}

/// True when every id is a real node and none repeats.
template <typename Ids>
bool nodes_ok(const Ids& ids, std::uint32_t n_nodes, auto&& node_of) {
  std::unordered_set<NodeId> seen;
  for (const auto& x : ids) {
    const NodeId n = node_of(x);
    if (n >= n_nodes || !seen.insert(n).second) return false;
  }
  return true;
}

/// Invariants that hold after *every* directory transition, even with
/// messages in flight: the directory is the serialization point for every
/// structure it mirrors, so its mirrors must be well-formed continuously.
void check_entry_local(const core::MachineConfig& cfg, const DirectoryEntry& e, BlockId b,
                       NodeId home, Tick tick) {
  const std::uint32_t n = cfg.n_nodes;
  const auto id = [](NodeId x) { return x; };

  // -- WBI directory state sanity --
  // The sharer list names real nodes, and its membership bitmap holds
  // exactly those: every listed node's bit and no other, so a node listed
  // twice shows as one bit too few.
  std::size_t members = std::popcount(e.sharer_word);
  for (std::size_t w = 0; e.sharer_words && w < (n + 63) / 64; ++w) {
    members += std::popcount(e.sharer_words[w]);
  }
  if (!std::all_of(e.sharers.begin(), e.sharers.end(),
                   [&](NodeId s) { return s < n && e.is_sharer(s); }) ||
      members != e.sharers.size()) {
    fail("wbi-sharers", b, home, home, tick,
         "sharer set has an invalid or duplicate node, or disagrees with its membership bitmap");
  }
  if (e.owner != kNoNode && e.owner >= n) {
    fail("wbi-owner", b, home, e.owner, tick, "owner is not a valid node");
  }
  if (e.state == DirState::kModified) {
    if (e.owner == kNoNode) fail("wbi-owner", b, home, kNoNode, tick, "kModified with no owner");
    if (!e.sharers.empty()) {
      fail("wbi-swmr", b, home, e.owner, tick, "kModified entry still lists sharers");
    }
  }
  if (e.state == DirState::kUncached && e.owner != kNoNode) {
    fail("wbi-owner", b, home, e.owner, tick, "kUncached entry still names an owner");
  }
  if (e.acks_outstanding != 0 && e.state != DirState::kBusyRmw) {
    fail("wbi-acks", b, home, home, tick, "invalidation acks outstanding on a non-RMW entry");
  }

  // -- limited directory: coarse-vector representation --
  const std::uint32_t n_regions = (n + cfg.dir_region_nodes - 1) / cfg.dir_region_nodes;
  if (e.coarse) {
    if (cfg.dir_overflow != core::DirOverflow::kCoarse || cfg.dir_pointer_limit == 0) {
      fail("dir-coarse", b, home, home, tick,
           "entry went coarse under a configuration that never overflows to coarse");
    }
    if (!e.sharers.empty()) {
      fail("dir-coarse", b, home, home, tick,
           "coarse entry still carries exact sharer pointers");
    }
    bool any_bit = false;
    for (std::uint32_t r = 0; r < n_regions; ++r) any_bit = any_bit || e.region_bit(r);
    if (e.state == DirState::kShared && !any_bit) {
      fail("dir-coarse", b, home, home, tick, "coarse kShared entry has an empty region mask");
    }
  } else {
    // An exact entry must be truly exact: no stale region residue, and the
    // pointer budget respected whenever overflow-to-coarse is configured.
    for (std::size_t w = 0; w < e.region_mask.size(); ++w) {
      if (e.region_mask[w] != 0) {
        fail("dir-coarse", b, home, home, tick, "exact entry has leftover region-mask bits");
      }
    }
    if (cfg.dir_overflow == core::DirOverflow::kCoarse && cfg.dir_pointer_limit != 0 &&
        e.sharers.size() > cfg.dir_pointer_limit) {
      fail("dir-coarse", b, home, home, tick,
           "exact entry exceeds the pointer budget without converting to coarse");
    }
  }
  // Mask bits may only name real regions.
  for (std::size_t w = 0; w < e.region_mask.size(); ++w) {
    for (std::uint32_t bit = 0; bit < 64; ++bit) {
      const std::uint32_t r = static_cast<std::uint32_t>(w) * 64 + bit;
      if (((e.region_mask[w] >> bit) & 1u) != 0 && r >= n_regions) {
        fail("dir-coarse", b, home, home, tick, "region mask flags a nonexistent region");
      }
    }
  }
  // A non-busy entry may still park messages while it has an active lock
  // chain: an unlock query/notify that overtook its predecessor's handoff
  // bookkeeping waits in `blocked` until the bookkeeping drains
  // (directory_cbl.cpp). With the chain empty too, a queued request can
  // never be replayed — that is the bug this check exists for.
  if (!e.blocked.empty() && !e.busy() && e.lock_chain.empty()) {
    fail("dir-blocked", b, home, home, tick,
         "requests queued behind a non-busy, unlocked entry");
  }

  // -- usage bit: a block threads the RU list xor a lock queue (Figure 2b) --
  if (!e.ru_list.empty() && !e.lock_chain.empty()) {
    fail("usage-bit", b, home, home, tick, "block is on both an RU list and a lock queue");
  }
  if (!e.lock_chain.empty() && !e.usage_lock) {
    fail("usage-bit", b, home, home, tick, "lock queue exists but usage bit says RU");
  }
  if (!e.ru_list.empty() && e.usage_lock) {
    fail("usage-bit", b, home, home, tick, "RU list exists but usage bit says lock");
  }

  // -- RU subscription list --
  if (!nodes_ok(e.ru_list, n, id)) {
    fail("ru-list", b, home, home, tick, "subscription list has an invalid or duplicate node");
  }

  // -- CBL lock queue: exactly one holder group at the front --
  // Note: a node may transiently appear twice — after a cache-to-cache
  // handoff the releaser can re-request before its kUnlockNotify
  // bookkeeping lands (chain_remove drops the first occurrence for exactly
  // this reason) — so duplicate-freedom is checked only at quiescence.
  for (const auto& c : e.lock_chain) {
    if (c.node >= n) {
      fail("cbl-chain", b, home, c.node, tick, "lock chain names an invalid node");
    }
  }
  if (e.lock_chain.empty()) {
    if (e.lock_holders != 0) {
      fail("cbl-holders", b, home, home, tick, "holder count nonzero on an empty chain");
    }
  } else {
    if (e.lock_holders == 0 || e.lock_holders > e.lock_chain.size()) {
      std::ostringstream os;
      os << "holder count " << e.lock_holders << " out of range for chain of "
         << e.lock_chain.size();
      fail("cbl-holders", b, home, e.lock_chain.front().node, tick, os.str());
    }
    // One holder group: either a single write holder or a prefix of readers.
    if (e.lock_chain.front().mode == LockMode::kWrite && e.lock_holders != 1) {
      fail("cbl-holders", b, home, e.lock_chain.front().node, tick,
           "write lock shared by multiple holders");
    }
    for (std::uint32_t i = 0; i < e.lock_holders; ++i) {
      if (e.lock_holders > 1 && e.lock_chain[i].mode != LockMode::kRead) {
        fail("cbl-holders", b, home, e.lock_chain[i].node, tick,
             "write requester inside a read-holder group");
      }
    }
  }
  if (e.lock_data_stale && e.lock_chain.empty() && !e.lock_writeback_pending) {
    fail("cbl-writeback", b, home, home, tick,
         "lock data marked stale with no holder and no writeback in flight");
  }

  // -- barrier counter --
  if (e.barrier_count != e.barrier_waiters.size() &&
      e.barrier_count != e.barrier_waiters.size() + 1) {
    // The last arriver is never parked, so count == waiters; both reset at
    // release (transiently count leads by the in-service arrival only
    // inside the handler, which this hook never observes).
    std::ostringstream os;
    os << "barrier count " << e.barrier_count << " vs " << e.barrier_waiters.size()
       << " waiters";
    fail("barrier", b, home, home, tick, os.str());
  }
  if (!nodes_ok(e.barrier_waiters, n, id)) {
    fail("barrier", b, home, home, tick, "barrier waiter list has an invalid or duplicate node");
  }
}

const char* lock_state_name(LockState s) {
  switch (s) {
    case LockState::kNone: return "none";
    case LockState::kWaitRead: return "wait-read";
    case LockState::kWaitWrite: return "wait-write";
    case LockState::kHeldRead: return "held-read";
    case LockState::kHeldWrite: return "held-write";
    case LockState::kDraining: return "draining";
    case LockState::kReleasing: return "releasing";
    case LockState::kQuerying: return "querying";
  }
  return "?";
}

}  // namespace

void InvariantChecker::check_entry(NodeId home, BlockId block) const {
  const mem::DirectoryEntry* e = m_.directory(home).peek(block);
  if (e == nullptr) return;
  check_entry_local(m_.config(), *e, block, home, m_.simulator().now());
}

void InvariantChecker::check_quiescent(const char* where) const {
  const core::MachineConfig& cfg = m_.config();
  const std::uint32_t n = cfg.n_nodes;
  const Tick tick = m_.simulator().now();
  const std::uint32_t words = cfg.block_words;
  const std::uint32_t word_mask = net::full_block_mask(words);

  // Per-node, per-block views of the distributed state.
  std::vector<std::unordered_map<BlockId, const CacheLine*>> data_lines(n);
  std::vector<std::unordered_map<BlockId, const CacheLine*>> lock_lines(n);
  for (NodeId i = 0; i < n; ++i) {
    const core::CacheController& cc = m_.cache_controller(i);
    // A processor still parked on its write buffer or lock cache at
    // quiescence missed the wakeup its controller owed it. These rules
    // come before the controller's own quiescence test, which also
    // requires an empty buffer and would report the same state less
    // precisely.
    using Wait = core::OutstandingOp::Wait;
    const Wait wait = cc.outstanding().wait;
    if (!cc.write_buffer().empty() || wait == Wait::kWriteSlot || wait == Wait::kFlush) {
      fail("write-buffer", 0, kNoNode, i, tick,
           std::string(where) + ": write buffer not drained (CP-Synch gate violated)");
    }
    if (wait == Wait::kLockSlot) {
      fail("lock-cache", 0, kNoNode, i, tick,
           std::string(where) + ": lock-cache capacity wait never woken");
    }
    if (!cc.quiescent()) {
      fail("quiescence", 0, kNoNode, i, tick,
           std::string(where) + ": cache controller still has activity outstanding");
    }
    cc.data_cache().for_each_valid(
        [&](const CacheLine& l) { data_lines[i].emplace(l.block, &l); });
    cc.lock_cache().for_each([&](const CacheLine& l) { lock_lines[i].emplace(l.block, &l); });

    // Per-word dirty bits never extend past the block.
    for (const auto& [b, l] : data_lines[i]) {
      if ((l->dirty_mask & ~word_mask) != 0) {
        fail("dirty-mask", b, m_.address_map().home_of(b), i, tick,
             "dirty bits set past the end of the block");
      }
    }
  }

  for (NodeId home = 0; home < n; ++home) {
    const proto::DirectoryController& dir = m_.directory(home);
    if (!dir.quiescent()) {
      fail("quiescence", 0, home, home, tick,
           std::string(where) + ": directory has a busy entry or queued requests");
    }
    const mem::MemoryModule& memory = dir.memory();

    dir.for_each_entry([&](BlockId b, const DirectoryEntry& e) {
      check_entry_local(cfg, e, b, home, tick);
      if (e.busy() || !e.blocked.empty() || e.acks_outstanding != 0) {
        fail("quiescence", b, home, home, tick, "entry still in a transient state");
      }

      // ---- WBI: single-writer / multiple-reader, cross-checked ----
      const NodeId wbi_owner = (e.state == DirState::kModified) ? e.owner : kNoNode;
      for (NodeId i = 0; i < n; ++i) {
        auto it = data_lines[i].find(b);
        const CacheLine* l = it == data_lines[i].end() ? nullptr : it->second;
        if (l == nullptr || l->msi == MsiState::kInvalid) continue;
        if (l->msi == MsiState::kModified) {
          if (i != wbi_owner) {
            fail("wbi-swmr", b, home, i, tick,
                 "modified copy in a cache the directory does not consider owner");
          }
          // Clean words of the owner's copy must agree with memory.
          for (std::uint32_t w = 0; w < words; ++w) {
            if (!(l->dirty_mask & (1u << w)) && l->data[w] != memory.read_word(b, w)) {
              fail("wbi-merge", b, home, i, tick,
                   "owner's clean word " + std::to_string(w) + " disagrees with memory");
            }
          }
        } else {  // kShared
          if (e.state != DirState::kShared) {
            fail("wbi-swmr", b, home, i, tick,
                 "shared copy cached while the directory says the block is not shared");
          }
          const bool listed =
              e.coarse ? e.region_bit(i / cfg.dir_region_nodes)
                       : e.is_sharer(i);
          if (!listed) {
            // Clean shared drops are silent, so the sharer set (or, for a
            // coarse entry, the region cover) is a superset of the caches —
            // never the other way around.
            fail("wbi-sharers", b, home, i, tick, "cached sharer missing from the sharer set");
          }
          if (l->dirty_mask != 0) {
            fail("wbi-swmr", b, home, i, tick, "shared copy has dirty words");
          }
          for (std::uint32_t w = 0; w < words; ++w) {
            if (l->data[w] != memory.read_word(b, w)) {
              fail("wbi-merge", b, home, i, tick,
                   "shared word " + std::to_string(w) + " disagrees with memory");
            }
          }
        }
      }
      if (e.state == DirState::kModified) {
        auto it = data_lines[e.owner].find(b);
        if (it == data_lines[e.owner].end() || it->second->msi != MsiState::kModified) {
          fail("wbi-swmr", b, home, e.owner, tick,
               "directory names an owner whose cache has no modified copy");
        }
      }

      // ---- RU subscription list: doubly-linked, terminated, coherent ----
      for (std::size_t i = 0; i < e.ru_list.size(); ++i) {
        const NodeId sub = e.ru_list[i];
        auto it = data_lines[sub].find(b);
        const CacheLine* l = it == data_lines[sub].end() ? nullptr : it->second;
        if (l == nullptr || !l->update_bit) {
          fail("ru-list", b, home, sub, tick,
               "subscriber on the directory list has no subscribed line");
        }
        const NodeId want_prev = (i == 0) ? kNoNode : e.ru_list[i - 1];
        const NodeId want_next = (i + 1 < e.ru_list.size()) ? e.ru_list[i + 1] : kNoNode;
        if (l->prev != want_prev || l->next != want_next) {
          fail("ru-link", b, home, sub, tick,
               "cache queue pointers disagree with the subscription list");
        }
        if (l->ru_version != e.ru_version) {
          fail("ru-version", b, home, sub, tick,
               "subscriber stuck at version " + std::to_string(l->ru_version) + " of " +
                   std::to_string(e.ru_version));
        }
        // Every word the subscriber has not locally dirtied carries the
        // fully-propagated (= memory) value.
        for (std::uint32_t w = 0; w < words; ++w) {
          if (!(l->dirty_mask & (1u << w)) && l->data[w] != memory.read_word(b, w)) {
            fail("ru-merge", b, home, sub, tick,
                 "subscribed clean word " + std::to_string(w) + " missed an update");
          }
        }
      }

      // ---- CBL: chain members hold mode-consistent lock lines ----
      // With no release bookkeeping in flight the chain is duplicate-free.
      if (!nodes_ok(e.lock_chain, n, [](const mem::LockChainNode& c) { return c.node; })) {
        fail("cbl-chain", b, home, home, tick,
             "lock chain still has a duplicate node at quiescence");
      }
      for (std::size_t i = 0; i < e.lock_chain.size(); ++i) {
        const auto [member, mode] = e.lock_chain[i];
        auto it = lock_lines[member].find(b);
        const CacheLine* l = it == lock_lines[member].end() ? nullptr : it->second;
        if (l == nullptr) {
          fail("cbl-chain", b, home, member, tick,
               "chain member has no lock-cache line");
        }
        const bool holder = i < e.lock_holders;
        const LockState want =
            holder ? (mode == LockMode::kRead ? LockState::kHeldRead : LockState::kHeldWrite)
                   : (mode == LockMode::kRead ? LockState::kWaitRead : LockState::kWaitWrite);
        if (l->lock != want) {
          fail("cbl-chain", b, home, member, tick,
               std::string("lock line in state ") + lock_state_name(l->lock) +
                   " but the directory expects " + lock_state_name(want));
        }
      }
      if (!e.lock_chain.empty()) {
        // The queue pointer (tail) must terminate the distributed list.
        const NodeId tail = e.lock_tail();
        if (const CacheLine* l = lock_lines[tail].at(b); l->next != kNoNode) {
          fail("cbl-tail", b, home, tail, tick, "tail's successor pointer is not nil");
        }
      }
    });
  }

  // Reverse direction: no orphaned subscribers or lock lines — every piece
  // of distributed queue state is accounted for at its home directory.
  for (NodeId i = 0; i < n; ++i) {
    for (const auto& [b, l] : data_lines[i]) {
      if (!l->update_bit) continue;
      const NodeId home = m_.address_map().home_of(b);
      const DirectoryEntry* e = m_.directory(home).peek(b);
      if (e == nullptr ||
          std::find(e->ru_list.begin(), e->ru_list.end(), i) == e->ru_list.end()) {
        fail("ru-orphan", b, home, i, tick,
             "update bit set but the home directory has no such subscriber");
      }
    }
    for (const auto& [b, l] : lock_lines[i]) {
      if (l->lock == LockState::kNone) continue;
      const NodeId home = m_.address_map().home_of(b);
      const DirectoryEntry* e = m_.directory(home).peek(b);
      const bool listed =
          e != nullptr && std::find_if(e->lock_chain.begin(), e->lock_chain.end(),
                                       [i](const mem::LockChainNode& c) {
                                         return c.node == i;
                                       }) != e->lock_chain.end();
      if (!listed) {
        fail("cbl-orphan", b, home, i, tick,
             std::string("lock line in state ") + lock_state_name(l->lock) +
                 " but the home directory's chain does not list this node");
      }
    }
  }
}

}  // namespace bcsim::sim
