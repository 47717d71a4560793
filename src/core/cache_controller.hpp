// Node-side protocol engine: implements the processor-cache interface of
// paper Table 1 on top of the cache, write buffer, and lock cache.
//
// The Processor issues each operation through an op_* call and awaits it
// through OpAwaiter. Semantics of READ/WRITE depend on the configured data
// protocol:
//   * WBI: READ/WRITE are the coherent MSI operations (GetS/GetX,
//     invalidation acks collected at the requester, recalls deferred while
//     a transaction is in flight).
//   * read-update (the paper's machine): READ/WRITE are uniprocessor-style
//     local operations (miss fetches the block from home memory with no
//     coherence state); READ-GLOBAL / WRITE-GLOBAL / READ-UPDATE /
//     RESET-UPDATE provide the explicit global operations, and the write
//     buffer + FLUSH-BUFFER implement buffered consistency.
// CBL lock lines live in the small fully-associative lock cache and carry
// the distributed queue pointers.
//
// Concurrency discipline: a processor has at most one operation
// outstanding. Every Table 1 primitive waits for its result; a BC
// WRITE-GLOBAL waits only for a write-buffer slot, and UNLOCK returns at
// once (paper 4.2, 4.3). The controller keeps that operation in one
// record, OutstandingOp: what it waits on, the block, address, value and
// lock mode it needs, its result, and the coroutine suspended on it. Each
// op_* call fills the record; exactly one completion site empties it and
// resumes the coroutine. Issuing while the record is busy (two programs on
// one processor) throws std::logic_error. Buffered global writes and
// lock-release protocols keep running after their operation completed;
// neither holds the record.
#pragma once

#include <coroutine>
#include <cstdint>
#include <string_view>

#include "cache/cache.hpp"
#include "cache/lock_cache.hpp"
#include "cache/write_buffer.hpp"
#include "core/config.hpp"
#include "core/primitives.hpp"
#include "mem/address.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace bcsim::core {

/// The processor's one outstanding operation: the bookkeeping a hardware
/// MSHR holds (DESIGN.md section 4, "A processor operation's life").
struct OutstandingOp {
  /// What the operation waits on; kNone when the processor has none.
  enum class Wait : std::uint8_t {
    kNone,
    kEvent,      ///< its completion event is scheduled
    kMiss,       ///< a demand miss or uncached request (CacheController's MSHR)
    kWriteAck,   ///< SC WRITE-GLOBAL: the write's acknowledgment
    kLockGrant,  ///< the lock grant, shared grant or handoff
    kBarrier,    ///< the barrier release
    kLockLine,   ///< the block's previous lock line leaving the lock cache
    kChange,     ///< the cached line or word changing
    kWriteSlot,  ///< a write-buffer slot
    kLockSlot,   ///< a lock-cache slot
    kFlush,      ///< the global writes entered before it retiring
  };

  Wait wait = Wait::kNone;
  PrimitiveOp op = PrimitiveOp::kRead;  ///< what was issued (diagnostics)
  net::LockMode mode = net::LockMode::kWrite;
  BlockId block = 0;
  Addr addr = 0;
  Word value = 0;      ///< the word a store writes; a flush's watermark
  Word result = 0;     ///< what co_await returns
  Tick issued_at = 0;  ///< start tick of its latency histogram
  std::coroutine_handle<> waiter{};
};

/// The primitive an RMW is issued, hooked and reported as.
[[nodiscard]] constexpr PrimitiveOp rmw_primitive(net::RmwOp op) noexcept {
  switch (op) {
    case net::RmwOp::kTestAndSet: return PrimitiveOp::kTestAndSet;
    case net::RmwOp::kFetchAdd: return PrimitiveOp::kFetchAdd;
    case net::RmwOp::kSwap: return PrimitiveOp::kSwap;
    case net::RmwOp::kCompareSwap: break;
  }
  return PrimitiveOp::kCompareSwap;
}

/// What co_await on a Processor primitive suspends on: the record itself.
struct OpAwaiter {
  OutstandingOp* op;
  bool await_ready() const noexcept { return op->wait == OutstandingOp::Wait::kNone; }
  void await_suspend(std::coroutine_handle<> h) const noexcept { op->waiter = h; }
  Word await_resume() const noexcept { return op->result; }
};

class CacheController {
 public:
  CacheController(NodeId node, sim::Simulator& simulator, net::Network& network,
                  const mem::AddressMap& amap, const MachineConfig& config,
                  sim::StatsRegistry& stats);

  /// Network sink for Unit::kCache messages addressed to this node.
  void on_message(const net::Message& m);

  // ---- Table 1 primitives (plus RMW for the software-lock baselines) ----
  // Each fills the record (throwing if it is busy) and returns; awaiter()
  // then suspends the processor until the record completes.
  void op_read(Addr a);
  void op_write(Addr a, Word v);
  void op_read_global(Addr a);
  void op_write_global(Addr a, Word v);
  void op_read_update(Addr a);
  void op_reset_update(Addr a);
  void op_flush_buffer();
  void op_lock(Addr a, net::LockMode mode);
  void op_unlock(Addr a);
  void op_rmw(Addr a, net::RmwOp op, Word operand, Word operand2 = 0);
  /// CBL barrier arrival: fetch-increment of the barrier word at its home
  /// memory; completes when the barrier releases.
  void op_barrier(Addr a, std::uint32_t participants);

  /// Spin-wait assist: completes when the block's cached contents change or
  /// vanish (invalidation, read-update delivery, lock handoff). Spinning on
  /// a cache hit costs no simulated events, which is timing-accurate:
  /// cache-hit spins generate no network traffic.
  void wait_line_change(Addr a);

  /// Race-free spin building block: completes at once if the cached word
  /// at `a` already differs from `last_seen` (or the line is gone),
  /// otherwise when it next changes. Registration and the check happen in
  /// the same event, closing the lost-wakeup window between a spin read
  /// and the wait.
  void wait_word_change(Addr a, Word last_seen);

  [[nodiscard]] OpAwaiter awaiter() noexcept { return OpAwaiter{&op_}; }

  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] const cache::Cache& data_cache() const noexcept { return cache_; }
  [[nodiscard]] const cache::LockCache& lock_cache() const noexcept { return lock_cache_; }
  [[nodiscard]] const cache::WriteBuffer& write_buffer() const noexcept { return wbuf_; }

  /// Mutable views of the node-local state, for fault-injection tests
  /// that corrupt the distributed side of a protocol structure to prove
  /// the invariant checker objects (the directory's mutable_entry is the
  /// matching surface on the home side). Not used by the protocols.
  [[nodiscard]] cache::Cache& mutable_data_cache() noexcept { return cache_; }
  [[nodiscard]] cache::LockCache& mutable_lock_cache() noexcept { return lock_cache_; }
  [[nodiscard]] cache::WriteBuffer& mutable_write_buffer() noexcept { return wbuf_; }

  /// True when no transaction, buffered write, or lock-protocol activity
  /// is outstanding (used by tests to assert quiescence). A processor
  /// parked on a local condition (a line change, a free lock line or
  /// lock-cache slot) does not count.
  [[nodiscard]] bool quiescent() const noexcept;

  /// Completed operations (not compute delays); Processor::ops_retired.
  [[nodiscard]] std::uint64_t ops_retired() const noexcept { return retired_; }

  // ---- liveness introspection (core/watchdog.hpp) ----
  // Read-only views of what this node is currently blocked on; the
  // watchdog's wait-for graph is assembled from these plus the directory
  // entries.
  [[nodiscard]] const OutstandingOp& outstanding() const noexcept { return op_; }
  /// Request type of the demand miss (meaningful while outstanding() waits
  /// on kMiss).
  [[nodiscard]] net::MsgType pending_miss_kind() const noexcept { return mshr_.kind; }
  [[nodiscard]] std::uint32_t lock_release_inflight() const noexcept {
    return lock_release_inflight_;
  }

 private:
  using Wait = OutstandingOp::Wait;
  static constexpr Tick kHitLatency = 1;

  /// Miss status holding register: the protocol state of the record's
  /// demand miss, live while the record waits on kMiss.
  struct Mshr {
    net::MsgType kind = net::MsgType::kGetS;  ///< request type sent
    std::uint32_t acks_needed = 0;
    std::uint32_t acks_got = 0;
    bool data_ok = false;
    net::BlockData data;
    bool recall_pending = false; ///< recall deferred until completion
    bool recall_invalidates = false;
  };

  // -- the outstanding-operation record --
  /// Claims the record for `op` on address `a`; throws std::logic_error
  /// naming the node and both operations if it is already busy.
  void begin(PrimitiveOp op, Addr a);
  /// Starts the record's demand miss: a fresh MSHR for request `kind`, and
  /// the request to send.
  [[nodiscard]] net::Message begin_miss(net::MsgType kind);
  /// Completes the record `latency` cycles from now.
  void complete(Word value, Tick latency);
  /// Completes the record now and records its issue-to-completion latency
  /// in the histogram `name` through its handle `latency` (misses/locks;
  /// hits are always one cycle).
  void complete_timed(Word value, sim::Histogram*& latency, std::string_view name);
  /// Empties the record and resumes the processor, in the calling event.
  void finish(Word value);

  // -- common helpers --
  void send(net::Message&& m);
  /// A message about block `b` to its home memory.
  [[nodiscard]] net::Message make(net::MsgType t, BlockId b) const;
  /// A message about block `b` to node `dst`'s `unit`.
  [[nodiscard]] net::Message make_to(net::MsgType t, BlockId b, NodeId dst,
                                     net::Unit unit = net::Unit::kCache) const;
  cache::CacheLine& install_line(BlockId b, const net::BlockData& data);
  void evict(cache::CacheLine& victim);
  void fire_line_change(BlockId b);
  void enter_global_write();
  /// Completes the record's FLUSH-BUFFER.
  void complete_flush();
  /// WRITE-GLOBAL acknowledgment: retires the write-buffer entry and wakes
  /// an SC write, a write waiting for a slot, or a flush it completes.
  void on_write_ack(const net::Message& m);

  /// Starts the record's READ-GLOBAL miss: the word at its address or, for
  /// a local miss's fill, its whole block.
  void send_read_global(bool whole_block);

  // -- WBI handlers (cache_controller.cpp) --
  void finish_wbi_txn();
  void on_data(const net::Message& m);
  void on_inv(const net::Message& m);
  void on_recall(const net::Message& m);
  void perform_recall(cache::CacheLine* line, bool invalidate);

  // -- read-update handlers (cache_controller_ru.cpp) --
  void on_ru_data(const net::Message& m);
  void on_ru_update(const net::Message& m);
  void forward_chain(const net::Message& m);

  // -- CBL handlers (cache_controller_cbl.cpp) --
  void on_lock_grant(const net::Message& m);
  void on_lock_fwd(const net::Message& m);
  void on_lock_share_grant(const net::Message& m);
  void on_lock_wait(const net::Message& m);
  void on_lock_handoff(const net::Message& m);
  void on_unlock_empty(const net::Message& m);
  void on_unlock_wait_succ(const net::Message& m);
  void on_handoff_cmd(const net::Message& m);
  void became_holder(cache::CacheLine& line, bool chain_modified);
  void cascade_share(cache::CacheLine& line);
  /// Passes the lock and its data to `successor` and lets the line go;
  /// `tell_home` sends the home the handoff-done notify (a handoff the
  /// home itself commanded needs none).
  void hand_off(cache::CacheLine& line, NodeId successor, bool tell_home);
  /// Shares the read lock and its data with `to`.
  void grant_share(const cache::CacheLine& line, NodeId to);
  void release_lock_line(BlockId b);
  void issue_lock();
  void start_lock_request();

  // -- barrier handlers --
  void on_bar_ack(const net::Message& m);
  void on_bar_release(const net::Message& m);

  NodeId node_;
  sim::Simulator& sim_;
  net::Network& net_;
  const mem::AddressMap& amap_;
  const MachineConfig& config_;
  sim::StatsRegistry& stats_;
  /// Handles of every counter and latency histogram the controller
  /// records, each named after its stat ("cache.hits" is `hits`,
  /// "lat.read_miss" is `lat_read_miss`) and resolved on first use
  /// (StatsRegistry::counter(handle, name)), so no operation, miss or
  /// message looks a name up.
  struct StatHandles {
    sim::Counter* hits = nullptr;
    sim::Counter* misses = nullptr;
    sim::Counter* upgrades = nullptr;
    sim::Counter* rmw = nullptr;
    sim::Counter* invalidated = nullptr;
    sim::Counter* evictions = nullptr;
    sim::Counter* writebacks = nullptr;
    sim::Counter* put_acks = nullptr;
    sim::Counter* recalled = nullptr;
    sim::Counter* recall_crossed = nullptr;
    sim::Counter* read_global = nullptr;
    sim::Counter* write_global = nullptr;
    sim::Counter* flush_buffer = nullptr;
    sim::Counter* read_update = nullptr;
    sim::Counter* reset_update = nullptr;
    sim::Counter* ru_evict_unsubscribe = nullptr;
    sim::Counter* ru_updates_received = nullptr;
    sim::Counter* chain_forwards = nullptr;
    sim::Counter* read_lock = nullptr;
    sim::Counter* write_lock = nullptr;
    sim::Counter* lock_line_busy_waits = nullptr;
    sim::Counter* lock_cache_stalls = nullptr;
    sim::Counter* lock_granted = nullptr;
    sim::Counter* share_cascade = nullptr;
    sim::Counter* unlock = nullptr;
    sim::Counter* barrier_arrive = nullptr;
    sim::Histogram* lat_read_miss = nullptr;
    sim::Histogram* lat_write_miss = nullptr;
    sim::Histogram* lat_rmw = nullptr;
    sim::Histogram* lat_read_global = nullptr;
    sim::Histogram* lat_read_update = nullptr;
    sim::Histogram* lat_lock_acquire = nullptr;
  } hot_;

  cache::Cache cache_;
  cache::LockCache lock_cache_;
  cache::WriteBuffer wbuf_;
  OutstandingOp op_;
  Mshr mshr_;
  std::uint64_t retired_ = 0;
  /// Outstanding asynchronous lock-release protocols (for quiescent()).
  std::uint32_t lock_release_inflight_ = 0;
};

}  // namespace bcsim::core
