// Memory-side protocol engine: one per node, serving the blocks homed at
// that node's memory module slice.
//
// The directory controller implements the memory side of all three
// protocols the paper composes:
//   * WBI — the write-back invalidate MSI baseline (full-map directory,
//     3-hop recall, per-block serialization while a recall or an RMW
//     invalidation round is outstanding),
//   * reader-initiated coherence — WRITE-GLOBAL application, READ-UPDATE
//     subscription lists, chained RuUpdate propagation, RESET-UPDATE,
//   * CBL — the cache-based lock queue (enqueue forwarded through the
//     current tail, unlock notifications, tail-swing queries, final
//     writeback), and the memory-side barrier counter.
//
// Serialization discipline: the controller processes one message at a
// time; requests that hit a busy block are queued in the entry's `blocked`
// vector and replayed FIFO when the block becomes stable (the paper assumes
// infinite buffering, so queuing — never NACK — is the faithful model).
// Timing: every message charges t_D for the directory check plus t_m when
// block data is read or written, serialized through the single-ported
// memory module.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "mem/address.hpp"
#include "mem/directory_entry.hpp"
#include "mem/memory_module.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace bcsim::proto {

class DirectoryController {
 public:
  DirectoryController(NodeId node, sim::Simulator& simulator, net::Network& network,
                      const mem::AddressMap& amap, const core::MachineConfig& config,
                      sim::StatsRegistry& stats);

  /// Network sink for Unit::kMemory messages addressed to this node.
  void on_message(const net::Message& m);

  [[nodiscard]] mem::MemoryModule& memory() noexcept { return memory_; }
  [[nodiscard]] const mem::MemoryModule& memory() const noexcept { return memory_; }

  /// Directory entry for a block (creates the default entry on first use).
  /// Exposed for test-side invariant checks; production code never needs it.
  [[nodiscard]] const mem::DirectoryEntry* peek(BlockId b) const;

  /// True if no block is in a transient state and no request is queued
  /// (used by tests to assert quiescence after a scenario completes).
  [[nodiscard]] bool quiescent() const;

  /// Called after every processed message with the affected block; the
  /// InvariantChecker hangs entry-local checks here (MachineConfig
  /// invariants = kFull). Unset (the default) costs nothing.
  using TransitionHook = std::function<void(BlockId)>;
  void set_transition_hook(TransitionHook hook) { hook_ = std::move(hook); }

  /// Visits every (block, entry) pair this directory has touched.
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    for (const auto& [b, e] : entries_) fn(b, e);
  }

  /// Mutable entry access for *fault injection only*: tests corrupt an
  /// entry on purpose to prove the invariant checker catches real protocol
  /// bugs (e.g. a lost unlock notification). Never called by the machine.
  [[nodiscard]] mem::DirectoryEntry& mutable_entry(BlockId b) { return entry(b); }

 private:
  mem::DirectoryEntry& entry(BlockId b) { return entries_[b]; }

  // --- dispatch helpers ---
  void handle(const net::Message& m);
  /// Queues m if the entry is busy; returns true when queued.
  bool defer_if_busy(mem::DirectoryEntry& e, const net::Message& m);
  /// Replays blocked requests after the entry leaves a busy state.
  void drain_blocked(BlockId b);

  /// Charges module time (t_D [+ t_m]) and sends `out` when it elapses.
  void reply_after(Tick service, net::Message&& out);
  /// A message about block `b` to node `dst`'s cache.
  [[nodiscard]] net::Message to_cache(net::MsgType type, NodeId dst, BlockId b) const;
  /// Convenience: builds a reply skeleton to `m.src`'s cache unit.
  [[nodiscard]] net::Message reply_to(const net::Message& m, net::MsgType type) const;

  // --- WBI baseline (directory_wbi.cpp) ---
  void on_gets(const net::Message& m);
  void on_getx(const net::Message& m);
  void on_rmw(const net::Message& m);
  void on_putm(const net::Message& m);
  void on_puts(const net::Message& m);
  void on_recall_ack(const net::Message& m);
  void on_inv_ack(const net::Message& m);
  void start_recall(mem::DirectoryEntry& e, const net::Message& cause, bool for_exclusive);
  /// Sends the invalidation round for `m` and forgets the sharers; returns
  /// the number of acks. Acks to the cache go to the requester, which keeps
  /// its own copy (GetX); acks to memory come home, and every copy goes, the
  /// requester's included (an RMW's result lives at memory).
  std::uint32_t invalidate(mem::DirectoryEntry& e, const net::Message& m, net::Unit acks_to);
  /// Grants `m.src` a shared copy (kDataS).
  void grant_shared(mem::DirectoryEntry& e, const net::Message& m);
  /// Grants `m.src` the exclusive copy (kDataX) once it collects `acks`.
  void grant_exclusive(mem::DirectoryEntry& e, const net::Message& m, std::uint32_t acks);
  /// Performs the RMW `m` at memory and replies with the old word.
  void reply_rmw(const net::Message& m);
  /// Nodes to invalidate for an exclusive request: the exact sharer set
  /// under a full-map directory; all other nodes under Dir_k-B once the
  /// pointer limit is exceeded; every node of every flagged region for a
  /// coarse-vector entry.
  [[nodiscard]] std::vector<NodeId> invalidation_targets(const mem::DirectoryEntry& e,
                                                         NodeId requester);
  /// Records `n` as a sharer, honoring the directory representation:
  /// exact pointer while within budget, region bit once the entry is (or
  /// becomes) coarse under the kCoarse overflow policy.
  void add_sharer(mem::DirectoryEntry& e, NodeId n);
  /// Forgets the sharer set entirely (after an invalidation round),
  /// including any coarse-vector residue — the entry is exact again.
  static void clear_sharers(mem::DirectoryEntry& e);
  /// Region a node belongs to under the coarse vector.
  [[nodiscard]] std::uint32_t region_of(NodeId n) const noexcept {
    return n / config_.dir_region_nodes;
  }
  void finish_pending(mem::DirectoryEntry& e);

  // --- reader-initiated coherence (directory_ru.cpp) ---
  void on_read_global(const net::Message& m);
  void on_write_global(const net::Message& m);
  void on_read_update(const net::Message& m);
  void on_reset_update(const net::Message& m);

  // --- CBL locks + barrier (directory_cbl.cpp) ---
  void on_lock_req(const net::Message& m);
  void on_unlock_notify(const net::Message& m);
  void on_unlock_query(const net::Message& m);
  void on_lock_writeback(const net::Message& m);
  void on_bar_arrive(const net::Message& m);
  /// Answers an unlock with kUnlockEmpty: the releaser drops its line, or
  /// writes it back (and the entry waits for the write-back).
  void reply_unlock_empty(mem::DirectoryEntry& e, const net::Message& m, bool drop);
  /// Removes `node` from the lock chain; promotes the next holder group
  /// when the holder prefix empties. Returns true if `node` was a holder.
  bool chain_remove(mem::DirectoryEntry& e, NodeId node);
  void promote_waiters(mem::DirectoryEntry& e);

  NodeId node_;
  sim::Simulator& sim_;
  net::Network& net_;
  const mem::AddressMap& amap_;
  const core::MachineConfig& config_;
  sim::StatsRegistry& stats_;
  /// Handles of every counter the directory bumps, each named after its
  /// stat ("dir.gets" is `gets`) and resolved on first use
  /// (StatsRegistry::counter(handle, name)), so no request looks a name up.
  struct StatHandles {
    sim::Counter* deferred = nullptr;
    sim::Counter* gets = nullptr;
    sim::Counter* getx = nullptr;
    sim::Counter* invs = nullptr;
    sim::Counter* rmw = nullptr;
    sim::Counter* recalls = nullptr;
    sim::Counter* coarse_invalidations = nullptr;
    sim::Counter* broadcast_invalidations = nullptr;
    sim::Counter* coarse_overflows = nullptr;
    sim::Counter* read_global = nullptr;
    sim::Counter* write_global = nullptr;
    sim::Counter* read_update = nullptr;
    sim::Counter* reset_update = nullptr;
    sim::Counter* ru_propagations = nullptr;
    sim::Counter* barrier_arrivals = nullptr;
    sim::Counter* lock_req = nullptr;
    sim::Counter* lock_fwd_share = nullptr;
    sim::Counter* lock_fwd_wait = nullptr;
    sim::Counter* lock_writeback = nullptr;
    sim::Counter* unlock_notify = nullptr;
    sim::Counter* unlock_notify_deferred = nullptr;
    sim::Counter* unlock_query = nullptr;
    sim::Counter* unlock_query_deferred = nullptr;
  } hot_;
  mem::MemoryModule memory_;
  std::unordered_map<BlockId, mem::DirectoryEntry> entries_;
  /// Emptied queues that keep their capacity: drain_blocked swaps one into
  /// the entry and its replay hands the drained queue back, so a busy
  /// block's queue is not regrown from nothing on every drain.
  std::vector<std::vector<net::Message>> spare_queues_;
  TransitionHook hook_;
};

}  // namespace bcsim::proto
