// Node-side protocol engine: implements the processor-cache interface of
// paper Table 1 on top of the cache, write buffer, and lock cache.
//
// The controller exposes callback-style operations (the Processor wraps
// them into coroutine awaitables). Semantics of READ/WRITE depend on the
// configured data protocol:
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
// Concurrency discipline: each processor issues at most one outstanding
// demand operation (enforced by its sequential coroutine), so a single
// MSHR suffices; global writes ride the write buffer concurrently, and
// lock-release protocols complete asynchronously after unlock() returns
// (the paper: "the unlocking processor is allowed to continue its
// computation immediately").
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/cache.hpp"
#include "cache/lock_cache.hpp"
#include "cache/write_buffer.hpp"
#include "core/config.hpp"
#include "mem/address.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace bcsim::core {

class CacheController {
 public:
  struct Response {
    Word value = 0;
  };
  using Cb = std::function<void(Response)>;

  CacheController(NodeId node, sim::Simulator& simulator, net::Network& network,
                  const mem::AddressMap& amap, const MachineConfig& config,
                  sim::StatsRegistry& stats);

  /// Network sink for Unit::kCache messages addressed to this node.
  void on_message(const net::Message& m);

  // ---- Table 1 primitives (plus RMW for the software-lock baselines) ----
  void op_read(Addr a, Cb cb);
  void op_write(Addr a, Word v, Cb cb);
  void op_read_global(Addr a, Cb cb);
  void op_write_global(Addr a, Word v, Cb cb);
  void op_read_update(Addr a, Cb cb);
  void op_reset_update(Addr a, Cb cb);
  void op_flush_buffer(Cb cb);
  void op_lock(Addr a, net::LockMode mode, Cb cb);
  void op_unlock(Addr a, Cb cb);
  void op_rmw(Addr a, net::RmwOp op, Word operand, Cb cb, Word operand2 = 0);
  /// CBL barrier arrival: fetch-increment of the barrier word at its home
  /// memory; completes when the barrier releases.
  void op_barrier(Addr a, std::uint32_t participants, Cb cb);

  /// Spin-wait assist: fires when the block's cached contents change or
  /// vanish (invalidation, read-update delivery, lock handoff). Spinning on
  /// a cache hit costs no simulated events, which is timing-accurate:
  /// cache-hit spins generate no network traffic.
  void wait_line_change(Addr a, std::function<void()> cb);

  /// Race-free spin building block: fires immediately if the cached word
  /// at `a` already differs from `last_seen` (or the line is gone),
  /// otherwise when it next changes. Registration and the check happen in
  /// the same event, closing the lost-wakeup window between a spin read
  /// and the wait.
  void wait_word_change(Addr a, Word last_seen, std::function<void()> cb);

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
  /// is outstanding (used by tests to assert quiescence).
  [[nodiscard]] bool quiescent() const noexcept;

  // ---- liveness introspection (core/watchdog.hpp) ----
  // Read-only views of what this node is currently blocked on; the
  // watchdog's wait-for graph is assembled from these plus the directory
  // entries. All are cheap.
  [[nodiscard]] bool has_pending_miss() const noexcept { return mshr_.active; }
  [[nodiscard]] BlockId pending_miss_block() const noexcept { return mshr_.block; }
  [[nodiscard]] net::MsgType pending_miss_kind() const noexcept { return mshr_.kind; }
  [[nodiscard]] std::vector<BlockId> pending_lock_blocks() const {
    std::vector<BlockId> out;
    out.reserve(lock_cbs_.size());
    for (const auto& [b, lp] : lock_cbs_) out.push_back(b);
    return out;
  }
  [[nodiscard]] std::vector<BlockId> pending_barrier_blocks() const {
    std::vector<BlockId> out;
    out.reserve(barrier_cbs_.size());
    for (const auto& [b, cb] : barrier_cbs_) out.push_back(b);
    return out;
  }
  [[nodiscard]] std::size_t pending_write_acks() const noexcept { return write_acks_.size(); }
  [[nodiscard]] std::uint32_t lock_release_inflight() const noexcept {
    return lock_release_inflight_;
  }

 private:
  static constexpr Tick kHitLatency = 1;

  /// Miss status holding register: the single outstanding demand
  /// transaction.
  struct Mshr {
    bool active = false;
    net::MsgType kind = net::MsgType::kGetS;  ///< request type sent
    BlockId block = 0;
    Addr addr = 0;
    Word wval = 0;               ///< value for a pending store
    Word result = 0;             ///< reply value for non-caching replies
    bool local_write = false;    ///< read-update mode: fill then store locally
    std::uint32_t acks_needed = 0;
    std::uint32_t acks_got = 0;
    bool data_ok = false;
    net::BlockData data;
    bool recall_pending = false; ///< recall deferred until completion
    std::uint8_t recall_aux = 0;
    Tick issued_at = 0;          ///< for the latency histograms
    Cb cb;
  };

  // -- common helpers --
  void complete(Cb& cb, Word value, Tick latency);
  /// Completes a request and records its issue-to-completion latency in
  /// the named histogram (misses/locks; hits are always one cycle).
  void complete_timed(Cb& cb, Word value, Tick issued_at, std::string_view histogram);
  void send(net::Message&& m);
  [[nodiscard]] net::Message make(net::MsgType t, BlockId b) const;
  cache::CacheLine& install_line(BlockId b, const net::BlockData& data);
  void evict(cache::CacheLine& victim);
  void fire_line_change(BlockId b);
  void fire_lock_free(BlockId b);

  // -- WBI handlers (cache_controller.cpp) --
  void finish_wbi_txn();
  void on_data(const net::Message& m);
  void on_inv(const net::Message& m);
  void on_recall(const net::Message& m);
  void perform_recall(cache::CacheLine* line, std::uint8_t aux);

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
  void release_lock_line(BlockId b);
  void start_lock_request(BlockId b, net::LockMode mode, Cb cb);

  // -- barrier handlers --
  void on_bar_ack(const net::Message& m);
  void on_bar_release(const net::Message& m);

  NodeId node_;
  sim::Simulator& sim_;
  net::Network& net_;
  const mem::AddressMap& amap_;
  const MachineConfig& config_;
  sim::StatsRegistry& stats_;

  cache::Cache cache_;
  cache::LockCache lock_cache_;
  cache::WriteBuffer wbuf_;
  Mshr mshr_;

  /// SC mode: completion continuations for global writes, keyed by txn.
  std::unordered_map<std::uint64_t, Cb> write_acks_;
  /// Lock-acquire continuations keyed by block (with issue tick for the
  /// acquisition-latency histogram).
  struct LockPending {
    Cb cb;
    Tick issued_at = 0;
  };
  std::unordered_map<BlockId, LockPending> lock_cbs_;
  /// Processors waiting for a lock line to fully leave the lock cache
  /// (immediate re-lock of a lock whose release is still in flight).
  std::unordered_map<BlockId, std::vector<std::function<void()>>> lock_free_waiters_;
  /// Spin waiters per block.
  std::unordered_map<BlockId, std::vector<std::function<void()>>> change_waiters_;
  /// Barrier-release continuations keyed by barrier block.
  std::unordered_map<BlockId, Cb> barrier_cbs_;
  /// Outstanding asynchronous lock-release protocols (for quiescent()).
  std::uint32_t lock_release_inflight_ = 0;
};

}  // namespace bcsim::core
