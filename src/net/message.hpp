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

/// Every message the machine can carry. Grouped by protocol.
enum class MsgType : std::uint8_t {
  // --- WBI (write-back invalidate, directory MSI baseline) ---
  kGetS,         ///< read miss: request shared copy (cache -> dir)
  kGetX,         ///< write miss/upgrade: request exclusive copy (cache -> dir)
  kDataS,        ///< data reply, shared (dir -> cache)
  kDataX,        ///< data reply, exclusive; value = #inv acks to expect (dir -> cache)
  kInv,          ///< invalidate copy (dir -> cache)
  kInvAck,       ///< invalidation done (cache -> requester cache)
  kRecall,       ///< fetch modified line back (dir -> owner cache)
  kRecallAck,    ///< modified data returned (owner cache -> dir)
  kPutM,         ///< write back dirty line on replacement (cache -> dir)
  kPutS,         ///< notify replacement of shared line (cache -> dir)
  kPutAck,       ///< replacement acknowledged (dir -> cache)
  kRmw,          ///< atomic read-modify-write at memory (cache -> dir)
  kRmwAck,       ///< RMW result; value = old word (dir -> cache)

  // --- reader-initiated coherence (read-update) ---
  kReadGlobal,     ///< uncached read of a word from memory (cache -> dir)
  kReadGlobalAck,  ///< word value reply (dir -> cache)
  kWriteGlobal,    ///< global write of a word (cache -> dir); txn matches ack
  kWriteGlobalAck, ///< write applied at memory (dir -> cache)
  kReadUpdate,     ///< fetch block + subscribe to future updates (cache -> dir)
  kReadUpdateData, ///< block reply; who = old list head to link as next (dir -> cache)
  kRuLinkPrev,     ///< tell old head its new prev (dir -> cache)
  kRuUpdate,       ///< updated block propagating down the subscriber chain
  kResetUpdate,    ///< unsubscribe (cache -> dir)
  kRuUnlink,       ///< dir command: splice your neighbor pointers (dir -> cache)
  kRuUnlinkAck,    ///< unlink bookkeeping done (cache -> dir)

  // --- CBL (cache-based locking) ---
  kLockReq,        ///< read- or write-lock request; aux = mode (cache -> dir)
  kLockGrant,      ///< lock granted with data (dir -> cache, uncontended path)
  kLockFwd,        ///< dir -> current tail: node `who` is your new successor
  kLockShareGrant, ///< tail -> requester: share the read lock (with data)
  kLockWait,       ///< tail -> requester: enqueued behind me, wait
  kLockHandoff,    ///< releasing holder -> successor: lock + data are yours
  kUnlockNotify,   ///< holder released; dir bookkeeping (cache -> dir)
  kUnlockQuery,    ///< released with no known successor: am I the tail? (cache -> dir)
  kUnlockEmpty,    ///< dir reply: queue empty, write line back (dir -> cache)
  kUnlockWaitSucc, ///< dir reply: successor announce in flight, hold on (dir -> cache)
  kHandoffCmd,     ///< dir -> last reader holder: hand off to node `who`
  kLockWriteback,  ///< line data returned to memory after final unlock (cache -> dir)
  kLockNeighbor,   ///< dir command: update prev/next mirror after reader unlink

  // --- barrier support (memory-side counter, used by the CBL barrier) ---
  kBarArrive,      ///< fetch-increment of barrier counter (cache -> dir)
  kBarArriveAck,   ///< value = arrival index (dir -> cache)
  kBarRelease,     ///< barrier released, propagated down subscriber chain
};

/// Number of MsgType values (kBarRelease is last); sized per-type tables
/// (the network's counter handles, trace name maps) index by MsgType.
inline constexpr std::size_t kMsgTypeCount = static_cast<std::size_t>(MsgType::kBarRelease) + 1;

[[nodiscard]] constexpr std::string_view to_string(MsgType t) noexcept {
  switch (t) {
    case MsgType::kGetS: return "GetS";
    case MsgType::kGetX: return "GetX";
    case MsgType::kDataS: return "DataS";
    case MsgType::kDataX: return "DataX";
    case MsgType::kInv: return "Inv";
    case MsgType::kInvAck: return "InvAck";
    case MsgType::kRecall: return "Recall";
    case MsgType::kRecallAck: return "RecallAck";
    case MsgType::kPutM: return "PutM";
    case MsgType::kPutS: return "PutS";
    case MsgType::kPutAck: return "PutAck";
    case MsgType::kRmw: return "Rmw";
    case MsgType::kRmwAck: return "RmwAck";
    case MsgType::kReadGlobal: return "ReadGlobal";
    case MsgType::kReadGlobalAck: return "ReadGlobalAck";
    case MsgType::kWriteGlobal: return "WriteGlobal";
    case MsgType::kWriteGlobalAck: return "WriteGlobalAck";
    case MsgType::kReadUpdate: return "ReadUpdate";
    case MsgType::kReadUpdateData: return "ReadUpdateData";
    case MsgType::kRuLinkPrev: return "RuLinkPrev";
    case MsgType::kRuUpdate: return "RuUpdate";
    case MsgType::kResetUpdate: return "ResetUpdate";
    case MsgType::kRuUnlink: return "RuUnlink";
    case MsgType::kRuUnlinkAck: return "RuUnlinkAck";
    case MsgType::kLockReq: return "LockReq";
    case MsgType::kLockGrant: return "LockGrant";
    case MsgType::kLockFwd: return "LockFwd";
    case MsgType::kLockShareGrant: return "LockShareGrant";
    case MsgType::kLockWait: return "LockWait";
    case MsgType::kLockHandoff: return "LockHandoff";
    case MsgType::kUnlockNotify: return "UnlockNotify";
    case MsgType::kUnlockQuery: return "UnlockQuery";
    case MsgType::kUnlockEmpty: return "UnlockEmpty";
    case MsgType::kUnlockWaitSucc: return "UnlockWaitSucc";
    case MsgType::kHandoffCmd: return "HandoffCmd";
    case MsgType::kLockWriteback: return "LockWriteback";
    case MsgType::kLockNeighbor: return "LockNeighbor";
    case MsgType::kBarArrive: return "BarArrive";
    case MsgType::kBarArriveAck: return "BarArriveAck";
    case MsgType::kBarRelease: return "BarRelease";
  }
  return "?";
}

/// Message size class; determines flit count / service time at each switch
/// port. Mirrors the paper's cost constants: C_R (control), C_W (one word),
/// C_B (block transfer), C_I (invalidation == control).
enum class SizeClass : std::uint8_t { kControl, kWord, kBlock };

/// Lock mode carried in `aux` for lock messages.
enum class LockMode : std::uint8_t { kRead = 0, kWrite = 1 };

/// Atomic op carried in `aux` for kRmw. For kCompareSwap, `value` is the
/// expected word and `value2` the desired one; the old word is returned.
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
  std::uint8_t aux = 0;        ///< LockMode / RmwOp / flags
  std::uint32_t dirty_mask = 0;///< per-word dirty bits for partial writebacks
  std::uint64_t txn = 0;       ///< transaction id for ack matching
  BlockData data;              ///< block payload where applicable

  /// Remaining hops for chain-propagated messages (kRuUpdate, kBarRelease):
  /// the receiving cache forwards a copy to chain.front() with that hop
  /// popped (see Chain).
  Chain chain;
};

/// True for messages generated by synchronization (locks, barriers, RMW)
/// as opposed to ordinary data coherence. The paper's opening observation
/// — "synchronization accesses cause much greater network contention than
/// accesses to normal shared data" — is measured with this split.
[[nodiscard]] constexpr bool is_sync_message(MsgType t) noexcept {
  switch (t) {
    case MsgType::kRmw:
    case MsgType::kRmwAck:
    case MsgType::kLockReq:
    case MsgType::kLockGrant:
    case MsgType::kLockFwd:
    case MsgType::kLockShareGrant:
    case MsgType::kLockWait:
    case MsgType::kLockHandoff:
    case MsgType::kUnlockNotify:
    case MsgType::kUnlockQuery:
    case MsgType::kUnlockEmpty:
    case MsgType::kUnlockWaitSucc:
    case MsgType::kHandoffCmd:
    case MsgType::kLockWriteback:
    case MsgType::kLockNeighbor:
    case MsgType::kBarArrive:
    case MsgType::kBarArriveAck:
    case MsgType::kBarRelease:
      return true;
    default:
      return false;
  }
}

/// Size class of a message, from its type and payload.
[[nodiscard]] constexpr SizeClass size_class(const Message& m) noexcept {
  if (m.data.count > 0) return SizeClass::kBlock;
  switch (m.type) {
    case MsgType::kWriteGlobal:
    case MsgType::kReadGlobalAck:
    case MsgType::kRmw:
    case MsgType::kRmwAck:
    case MsgType::kBarArriveAck:
      return SizeClass::kWord;
    default:
      return SizeClass::kControl;
  }
}

}  // namespace bcsim::net
