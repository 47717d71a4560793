// Network message format shared by all coherence/synchronization protocols.
//
// A single message struct (rather than a class hierarchy) keeps the network
// layer allocation-free on the hot path. The `type` field selects which of
// the optional fields are meaningful; the protocol layers document field
// usage per type. The network only looks at src/dst/unit and the size class
// derived from `type`/payload.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string_view>

#include "sim/types.hpp"

namespace bcsim::net {

/// Upper bound on cache line length in words (config may use less).
inline constexpr std::size_t kMaxBlockWords = 32;

/// Dirty mask with every word of a `block_words`-word block set. Valid over
/// the whole configurable range [1, kMaxBlockWords]: the naive
/// `(1u << block_words) - 1u` is undefined at 32 words (and yields 0 on
/// x86, which makes a full-block write-back store nothing).
[[nodiscard]] constexpr std::uint32_t full_block_mask(std::uint32_t block_words) noexcept {
  return block_words >= 32 ? ~std::uint32_t{0} : (std::uint32_t{1} << block_words) - 1u;
}

/// Block payload carried inline in a message; no heap traffic per message.
///
/// The buffer is sized for the largest configurable block, but a payload
/// costs only its `count` words: construction leaves the words unset, and a
/// copy or assignment moves exactly `count` words. Nothing reads a word at
/// or past `count`.
struct BlockData {
  std::array<Word, kMaxBlockWords> words;  ///< [0, count) valid, the rest unset
  std::uint8_t count = 0;  ///< number of valid words (0 = no payload)

  BlockData() noexcept {}  // NOLINT(modernize-use-equals-default): leaves words unset
  BlockData(const BlockData& o) noexcept : count(o.count) {
    std::copy_n(o.words.begin(), count, words.begin());
  }
  BlockData& operator=(const BlockData& o) noexcept {
    if (this != &o) {
      count = o.count;
      std::copy_n(o.words.begin(), count, words.begin());
    }
    return *this;
  }

  [[nodiscard]] bool empty() const noexcept { return count == 0; }
  Word& operator[](std::size_t i) noexcept { return words[i]; }
  const Word& operator[](std::size_t i) const noexcept { return words[i]; }
};

/// Remaining hops of a chain-propagated message (kRuUpdate, kBarRelease).
///
/// The directory snapshots its subscriber (or barrier waiter) list once,
/// when propagation starts — exactly the paper's semantics ("when the main
/// memory is updated, the updated block is transferred using this
/// linked-list structure"). Every hop shares that immutable snapshot and
/// advances only its own hop index, so one propagation costs one
/// allocation and a hop costs none.
class Chain {
 public:
  Chain() = default;
  /// Snapshots the hops [first, last); an empty range allocates nothing.
  template <typename It>
  Chain(It first, It last) : size_(static_cast<std::uint32_t>(std::distance(first, last))) {
    if (size_ == 0) return;
    auto nodes = std::make_shared<NodeId[]>(size_);
    std::copy(first, last, nodes.get());
    nodes_ = std::move(nodes);
  }

  [[nodiscard]] bool empty() const noexcept { return next_ == size_; }
  /// The next hop. Precondition: !empty().
  [[nodiscard]] NodeId front() const noexcept { return nodes_[next_]; }
  /// Drops the next hop; the snapshot itself is never modified.
  void pop_front() noexcept { ++next_; }

 private:
  std::shared_ptr<const NodeId[]> nodes_;
  std::uint32_t size_ = 0;
  std::uint32_t next_ = 0;
};

/// Which unit at the destination node consumes the message. Memory modules
/// (and their directory slice) are co-located with processor nodes, per the
/// paper's distributed-memory configuration.
enum class Unit : std::uint8_t { kCache, kMemory };

/// Every message the machine can carry, grouped by protocol. A type's name,
/// traffic class and size class are its row of kMsgTypes; what its `aux`
/// (and RuUnlink's `value`) carry is one of the field encodings after
/// Message.
enum class MsgType : std::uint8_t {
  // --- WBI (write-back invalidate, directory MSI baseline) ---
  kGetS,         ///< read miss: request shared copy (cache -> dir)
  kGetX,         ///< write miss/upgrade: request exclusive copy (cache -> dir)
  kDataS,        ///< data reply, shared (dir -> cache)
  kDataX,        ///< data reply, exclusive; value = #inv acks to expect (dir -> cache)
  kInv,          ///< invalidate copy; ack to `who`'s ack_unit() (dir -> cache)
  kInvAck,       ///< invalidation done (cache -> requester cache or dir)
  kRecall,       ///< fetch modified line back; recall_invalidates() (dir -> owner cache)
  kRecallAck,    ///< modified data returned; recall_invalidates() (owner cache -> dir)
  kPutM,         ///< write back dirty line on replacement (cache -> dir)
  kPutS,         ///< notify replacement of shared line (cache -> dir)
  kPutAck,       ///< replacement acknowledged (dir -> cache)
  kRmw,          ///< atomic read-modify-write at memory; rmw_op() (cache -> dir)
  kRmwAck,       ///< RMW result; value = old word (dir -> cache)

  // --- reader-initiated coherence (read-update) ---
  kReadGlobal,     ///< uncached read of a word, or a block fill; whole_block() (cache -> dir)
  kReadGlobalAck,  ///< word value or block reply (dir -> cache)
  kWriteGlobal,    ///< global write of a word (cache -> dir); txn matches ack
  kWriteGlobalAck, ///< write applied at memory (dir or last chain hop -> cache)
  kReadUpdate,     ///< fetch block + subscribe to future updates (cache -> dir)
  kReadUpdateData, ///< block reply; who = old list head to link as next (dir -> cache)
  kRuLinkPrev,     ///< tell old head its new prev (dir -> cache)
  kRuUpdate,       ///< updated block down the subscriber chain; last hop acks `who`'s `txn`
  kResetUpdate,    ///< unsubscribe (cache -> dir)
  kRuUnlink,       ///< splice out neighbor `who`; unlink_neighbor() (dir -> cache)

  // --- CBL (cache-based locking) ---
  kLockReq,        ///< read- or write-lock request; lock_mode() (cache -> dir)
  kLockGrant,      ///< lock granted with data (dir -> cache, uncontended path)
  kLockFwd,        ///< node `who` is your successor; lock_mode(), shares_lock() (dir -> tail)
  kLockShareGrant, ///< share the read lock, with data; memory_stale() (tail -> requester)
  kLockWait,       ///< enqueued behind me, wait (tail -> requester)
  kLockHandoff,    ///< lock + data are yours; memory_stale() (releasing holder -> successor)
  kUnlockNotify,   ///< holder released; handoff_done() (cache -> dir)
  kUnlockQuery,    ///< released with no known successor: am I the tail? (cache -> dir)
  kUnlockEmpty,    ///< queue empty or readers remain; unlock_drops() (dir -> cache)
  kUnlockWaitSucc, ///< successor announce in flight, hold on (dir -> cache)
  kHandoffCmd,     ///< last reader holder: hand off to node `who` (dir -> cache)
  kLockWriteback,  ///< line returned after final unlock; memory_stale() (cache -> dir)

  // --- barrier support (memory-side counter, used by the CBL barrier) ---
  kBarArrive,      ///< fetch-increment of barrier counter; value = participants (cache -> dir)
  kBarArriveAck,   ///< value = arrival index; last_arrival() (dir -> cache)
  kBarRelease,     ///< barrier released, propagated down subscriber chain
};

/// Number of MsgType values (kBarRelease is last); sized per-type tables
/// (the network's counter handles, trace name maps) index by MsgType.
inline constexpr std::size_t kMsgTypeCount = static_cast<std::size_t>(MsgType::kBarRelease) + 1;

/// Message size class; determines flit count / service time at each switch
/// port. Mirrors the paper's cost constants: C_R (control), C_W (one word),
/// C_B (block transfer), C_I (invalidation == control).
enum class SizeClass : std::uint8_t { kControl, kWord, kBlock };

/// A message type's row of the wire format.
struct MsgTypeInfo {
  MsgType type;
  std::string_view name;
  /// Generated by synchronization (locks, barriers, RMW) rather than
  /// ordinary data coherence. The paper's opening observation —
  /// "synchronization accesses cause much greater network contention than
  /// accesses to normal shared data" — is measured with this split.
  bool sync;
  SizeClass size;  ///< without a block payload (any payload makes it kBlock)
};

inline constexpr MsgTypeInfo kMsgTypes[] = {
    {MsgType::kGetS, "GetS", false, SizeClass::kControl},
    {MsgType::kGetX, "GetX", false, SizeClass::kControl},
    {MsgType::kDataS, "DataS", false, SizeClass::kControl},
    {MsgType::kDataX, "DataX", false, SizeClass::kControl},
    {MsgType::kInv, "Inv", false, SizeClass::kControl},
    {MsgType::kInvAck, "InvAck", false, SizeClass::kControl},
    {MsgType::kRecall, "Recall", false, SizeClass::kControl},
    {MsgType::kRecallAck, "RecallAck", false, SizeClass::kControl},
    {MsgType::kPutM, "PutM", false, SizeClass::kControl},
    {MsgType::kPutS, "PutS", false, SizeClass::kControl},
    {MsgType::kPutAck, "PutAck", false, SizeClass::kControl},
    {MsgType::kRmw, "Rmw", true, SizeClass::kWord},
    {MsgType::kRmwAck, "RmwAck", true, SizeClass::kWord},
    {MsgType::kReadGlobal, "ReadGlobal", false, SizeClass::kControl},
    {MsgType::kReadGlobalAck, "ReadGlobalAck", false, SizeClass::kWord},
    {MsgType::kWriteGlobal, "WriteGlobal", false, SizeClass::kWord},
    {MsgType::kWriteGlobalAck, "WriteGlobalAck", false, SizeClass::kControl},
    {MsgType::kReadUpdate, "ReadUpdate", false, SizeClass::kControl},
    {MsgType::kReadUpdateData, "ReadUpdateData", false, SizeClass::kControl},
    {MsgType::kRuLinkPrev, "RuLinkPrev", false, SizeClass::kControl},
    {MsgType::kRuUpdate, "RuUpdate", false, SizeClass::kControl},
    {MsgType::kResetUpdate, "ResetUpdate", false, SizeClass::kControl},
    {MsgType::kRuUnlink, "RuUnlink", false, SizeClass::kControl},
    {MsgType::kLockReq, "LockReq", true, SizeClass::kControl},
    {MsgType::kLockGrant, "LockGrant", true, SizeClass::kControl},
    {MsgType::kLockFwd, "LockFwd", true, SizeClass::kControl},
    {MsgType::kLockShareGrant, "LockShareGrant", true, SizeClass::kControl},
    {MsgType::kLockWait, "LockWait", true, SizeClass::kControl},
    {MsgType::kLockHandoff, "LockHandoff", true, SizeClass::kControl},
    {MsgType::kUnlockNotify, "UnlockNotify", true, SizeClass::kControl},
    {MsgType::kUnlockQuery, "UnlockQuery", true, SizeClass::kControl},
    {MsgType::kUnlockEmpty, "UnlockEmpty", true, SizeClass::kControl},
    {MsgType::kUnlockWaitSucc, "UnlockWaitSucc", true, SizeClass::kControl},
    {MsgType::kHandoffCmd, "HandoffCmd", true, SizeClass::kControl},
    {MsgType::kLockWriteback, "LockWriteback", true, SizeClass::kControl},
    {MsgType::kBarArrive, "BarArrive", true, SizeClass::kControl},
    {MsgType::kBarArriveAck, "BarArriveAck", true, SizeClass::kWord},
    {MsgType::kBarRelease, "BarRelease", true, SizeClass::kControl},
};
static_assert(std::size(kMsgTypes) == kMsgTypeCount, "one kMsgTypes row per MsgType");
static_assert(
    [] {
      for (std::size_t i = 0; i < kMsgTypeCount; ++i) {
        if (static_cast<std::size_t>(kMsgTypes[i].type) != i) return false;
      }
      return true;
    }(),
    "kMsgTypes rows follow MsgType order");

[[nodiscard]] constexpr std::string_view to_string(MsgType t) noexcept {
  const auto i = static_cast<std::size_t>(t);
  return i < kMsgTypeCount ? kMsgTypes[i].name : "?";
}

[[nodiscard]] constexpr bool is_sync_message(MsgType t) noexcept {
  return kMsgTypes[static_cast<std::size_t>(t)].sync;
}

/// Lock mode of lock messages (lock_mode()).
enum class LockMode : std::uint8_t { kRead = 0, kWrite = 1 };

/// Atomic op of kRmw (rmw_op()). For kCompareSwap, `value` is the expected
/// word and `value2` the desired one; the old word is returned.
enum class RmwOp : std::uint8_t { kTestAndSet = 0, kFetchAdd = 1, kSwap = 2, kCompareSwap = 3 };

struct Message {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  Unit unit = Unit::kMemory;   ///< which unit at dst consumes this
  MsgType type = MsgType::kGetS;
  BlockId block = 0;           ///< block this message concerns
  Addr addr = 0;               ///< word address for word-granularity ops
  Word value = 0;              ///< word payload / counts / RMW operand
  Word value2 = 0;             ///< second RMW operand (kCompareSwap desired)
  NodeId who = kNoNode;        ///< subject node (successor, requester, ...)
  std::uint8_t aux = 0;        ///< a field encoding below; never read or written by number
  std::uint32_t dirty_mask = 0;///< per-word dirty bits for partial writebacks
  std::uint64_t txn = 0;       ///< transaction id for ack matching
  BlockData data;              ///< block payload where applicable

  /// Remaining hops for chain-propagated messages (kRuUpdate, kBarRelease):
  /// the receiving cache forwards a copy to chain.front() with that hop
  /// popped (see Chain).
  Chain chain;
};

/// Size class of a message, from its type and payload.
[[nodiscard]] constexpr SizeClass size_class(const Message& m) noexcept {
  return m.data.count > 0 ? SizeClass::kBlock : kMsgTypes[static_cast<std::size_t>(m.type)].size;
}

// ---- Field encodings -------------------------------------------------------
// Each encoding is defined once, here: the sender writes it and the
// receiver reads it through the same name.

/// kReadGlobal: the reply carries the whole block (the read-update
/// machine's local-miss fill) rather than the addressed word.
constexpr void set_whole_block(Message& m, bool whole) noexcept { m.aux = whole; }
[[nodiscard]] constexpr bool whole_block(const Message& m) noexcept { return m.aux != 0; }

/// kInv: where its kInvAck goes — node `who`'s cache (a GetX requester
/// counting acks) or its memory unit (the home completing an RMW).
constexpr void set_ack_route(Message& m, NodeId to, Unit unit) noexcept {
  m.who = to;
  m.aux = static_cast<std::uint8_t>(unit);
}
[[nodiscard]] constexpr Unit ack_unit(const Message& m) noexcept {
  return static_cast<Unit>(m.aux);
}

/// kRecall and its kRecallAck: the owner invalidates its modified line (an
/// exclusive request or RMW waits) rather than downgrading it to shared.
constexpr void set_recall_invalidates(Message& m, bool invalidate) noexcept { m.aux = invalidate; }
[[nodiscard]] constexpr bool recall_invalidates(const Message& m) noexcept {
  return m.aux != 0;
}

/// kRmw: the atomic operation.
constexpr void set_rmw_op(Message& m, RmwOp op) noexcept { m.aux = static_cast<std::uint8_t>(op); }
[[nodiscard]] constexpr RmwOp rmw_op(const Message& m) noexcept {
  return static_cast<RmwOp>(m.aux);
}

/// kLockReq: the requested mode. kLockFwd: the newcomer's mode, and whether
/// it shares the read lock with the holders (the home counted it as one).
constexpr void set_lock_mode(Message& m, LockMode mode, bool share = false) noexcept {
  m.aux = static_cast<std::uint8_t>(static_cast<unsigned>(mode) | (share ? 2u : 0u));
}
[[nodiscard]] constexpr LockMode lock_mode(const Message& m) noexcept {
  return static_cast<LockMode>(m.aux & 1u);
}
[[nodiscard]] constexpr bool shares_lock(const Message& m) noexcept { return (m.aux & 2u) != 0; }

/// kLockHandoff, kLockShareGrant, kLockWriteback: the lock line's data is
/// newer than memory's copy (a writer modified it under the lock).
constexpr void set_memory_stale(Message& m, bool stale) noexcept { m.aux = stale; }
[[nodiscard]] constexpr bool memory_stale(const Message& m) noexcept { return m.aux != 0; }

/// kUnlockNotify: the releaser already handed the lock and its data to its
/// successor (bookkeeping only), rather than asking the home to decide.
constexpr void set_handoff_done(Message& m, bool done) noexcept { m.aux = done; }
[[nodiscard]] constexpr bool handoff_done(const Message& m) noexcept { return m.aux != 0; }

/// kUnlockEmpty: other readers still hold the lock, so the releaser drops
/// its line rather than writing it back.
constexpr void set_unlock_drops(Message& m, bool drop) noexcept { m.aux = drop; }
[[nodiscard]] constexpr bool unlock_drops(const Message& m) noexcept { return m.aux != 0; }

/// kBarArriveAck: this was the last arrival, so the ack also releases it.
constexpr void set_last_arrival(Message& m, bool last) noexcept { m.aux = last; }
[[nodiscard]] constexpr bool last_arrival(const Message& m) noexcept { return m.aux != 0; }

/// kRuUnlink: the neighbor that replaces the leaving subscriber `who` in
/// the receiver's prev/next mirror, carried in `value` as node + 1 (0: none).
constexpr void set_unlink_neighbor(Message& m, NodeId n) noexcept {
  m.value = n == kNoNode ? 0 : static_cast<Word>(n) + 1;
}
[[nodiscard]] constexpr NodeId unlink_neighbor(const Message& m) noexcept {
  return m.value == 0 ? kNoNode : static_cast<NodeId>(m.value - 1);
}

}  // namespace bcsim::net
