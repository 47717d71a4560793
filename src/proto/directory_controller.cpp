// Dispatch, serialization, and the WBI (write-back invalidate) baseline.
#include "proto/directory_controller.hpp"

#include <cassert>
#include <stdexcept>

namespace bcsim::proto {

using net::MsgType;
using net::Unit;

DirectoryController::DirectoryController(NodeId node, sim::Simulator& simulator,
                                         net::Network& network, const mem::AddressMap& amap,
                                         const core::MachineConfig& config,
                                         sim::StatsRegistry& stats)
    : node_(node), sim_(simulator), net_(network), amap_(amap), config_(config), stats_(stats),
      memory_(config.block_words, config.t_directory, config.t_memory) {}

const mem::DirectoryEntry* DirectoryController::peek(BlockId b) const {
  auto it = entries_.find(b);
  return it == entries_.end() ? nullptr : &it->second;
}

bool DirectoryController::quiescent() const {
  for (const auto& [b, e] : entries_) {
    if (e.busy() || !e.blocked.empty()) return false;
  }
  return true;
}

namespace {
/// Compact fingerprint of a directory entry's non-MSI bookkeeping, so the
/// trace records RU-list / lock-chain / version changes that leave the
/// DirState itself untouched (e.g. WriteGlobal, a lock enqueue).
std::uint64_t entry_fingerprint(const mem::DirectoryEntry* e) {
  if (e == nullptr) return 0;
  return (e->ru_version << 32) |
         (static_cast<std::uint64_t>(e->lock_chain.size() & 0xffff) << 16) |
         static_cast<std::uint64_t>(e->ru_list.size() & 0xffff);
}
}  // namespace

void DirectoryController::on_message(const net::Message& m) {
  assert(amap_.home_of(m.block) == node_ && "message routed to wrong home");
  sim::TraceRecorder& tr = sim_.trace();
  if (tr.enabled()) {
    // Snapshot scalars, not pointers: handle() may create entries and
    // rehash the map.
    const mem::DirectoryEntry* before = peek(m.block);
    const auto old_state = static_cast<std::uint8_t>(before ? before->state
                                                            : mem::DirState::kUncached);
    const std::uint64_t old_fp = entry_fingerprint(before);
    handle(m);
    const mem::DirectoryEntry* after = peek(m.block);
    const auto new_state = static_cast<std::uint8_t>(after ? after->state
                                                            : mem::DirState::kUncached);
    const std::uint64_t new_fp = entry_fingerprint(after);
    if (old_state != new_state || old_fp != new_fp) {
      tr.dir_state(sim_.now(), node_, m.block, old_state, new_state, new_fp);
    }
  } else {
    handle(m);
  }
  if (hook_) hook_(m.block);
}

void DirectoryController::handle(const net::Message& m) {
  switch (m.type) {
    // WBI
    case MsgType::kGetS: on_gets(m); break;
    case MsgType::kGetX: on_getx(m); break;
    case MsgType::kRmw: on_rmw(m); break;
    case MsgType::kPutM: on_putm(m); break;
    case MsgType::kPutS: on_puts(m); break;
    case MsgType::kRecallAck: on_recall_ack(m); break;
    case MsgType::kInvAck: on_inv_ack(m); break;
    // reader-initiated coherence
    case MsgType::kReadGlobal: on_read_global(m); break;
    case MsgType::kWriteGlobal: on_write_global(m); break;
    case MsgType::kReadUpdate: on_read_update(m); break;
    case MsgType::kResetUpdate: on_reset_update(m); break;
    // CBL + barrier
    case MsgType::kLockReq: on_lock_req(m); break;
    case MsgType::kUnlockNotify: on_unlock_notify(m); break;
    case MsgType::kUnlockQuery: on_unlock_query(m); break;
    case MsgType::kLockWriteback: on_lock_writeback(m); break;
    case MsgType::kBarArrive: on_bar_arrive(m); break;
    default:
      throw std::logic_error("DirectoryController: unexpected message type " +
                             std::string(net::to_string(m.type)));
  }
}

bool DirectoryController::defer_if_busy(mem::DirectoryEntry& e, const net::Message& m) {
  if (!e.busy()) return false;
  e.blocked.push_back(m);
  stats_.counter(hot_.deferred, "dir.deferred").add();
  return true;
}

void DirectoryController::drain_blocked(BlockId b) {
  auto& e = entry(b);
  if (e.blocked.empty()) return;
  // Replay FIFO; a replayed request may make the entry busy again, in
  // which case handle() re-queues the remainder in order.
  std::vector<net::Message> pending;
  if (!spare_queues_.empty()) {
    pending = std::move(spare_queues_.back());
    spare_queues_.pop_back();
  }
  pending.swap(e.blocked);
  // Handle asynchronously so the current handler finishes its state
  // transition before any replay observes it.
  sim_.schedule(0, [this, pending = std::move(pending)]() mutable {
    for (auto& m : pending) handle(m);
    pending.clear();
    spare_queues_.push_back(std::move(pending));
  });
}

void DirectoryController::reply_after(Tick service, net::Message&& out) {
  const Tick done = memory_.occupy(sim_.now(), service);
  net_.send_at(done, std::move(out));
}

net::Message DirectoryController::to_cache(net::MsgType type, NodeId dst, BlockId b) const {
  net::Message out;
  out.src = node_;
  out.dst = dst;
  out.unit = Unit::kCache;
  out.type = type;
  out.block = b;
  return out;
}

net::Message DirectoryController::reply_to(const net::Message& m, net::MsgType type) const {
  auto out = to_cache(type, m.src, m.block);
  out.addr = m.addr;
  out.txn = m.txn;
  return out;
}

// ---------------------------------------------------------------------------
// WBI baseline
// ---------------------------------------------------------------------------

void DirectoryController::on_gets(const net::Message& m) {
  auto& e = entry(m.block);
  if (defer_if_busy(e, m)) return;
  stats_.counter(hot_.gets, "dir.gets").add();
  switch (e.state) {
    case mem::DirState::kUncached:
    case mem::DirState::kShared:
      grant_shared(e, m);
      break;
    case mem::DirState::kModified:
      start_recall(e, m, /*for_exclusive=*/false);
      break;
    default:
      assert(false && "busy states are deferred above");
  }
}

void DirectoryController::on_getx(const net::Message& m) {
  auto& e = entry(m.block);
  if (defer_if_busy(e, m)) return;
  stats_.counter(hot_.getx, "dir.getx").add();
  switch (e.state) {
    case mem::DirState::kUncached:
    case mem::DirState::kShared:
      grant_exclusive(e, m, invalidate(e, m, Unit::kCache));
      break;
    case mem::DirState::kModified:
      start_recall(e, m, /*for_exclusive=*/true);
      break;
    default:
      assert(false && "busy states are deferred above");
  }
}

void DirectoryController::on_rmw(const net::Message& m) {
  auto& e = entry(m.block);
  if (defer_if_busy(e, m)) return;
  stats_.counter(hot_.rmw, "dir.rmw").add();
  switch (e.state) {
    case mem::DirState::kUncached:
      reply_rmw(m);
      break;
    case mem::DirState::kShared:
      // Invalidate every cached copy (the RMW result lives at memory);
      // acks return to the directory, which completes the RMW after the
      // last one. The entry is busy meanwhile.
      e.pending = m;
      e.state = mem::DirState::kBusyRmw;
      memory_.occupy(sim_.now(), config_.t_directory);  // directory lookup
      e.acks_outstanding = invalidate(e, m, Unit::kMemory);
      // No cached copies after all: complete immediately.
      if (e.acks_outstanding == 0) finish_pending(e);
      break;
    case mem::DirState::kModified:
      start_recall(e, m, /*for_exclusive=*/true);
      break;
    default:
      assert(false && "busy states are deferred above");
  }
}

void DirectoryController::on_putm(const net::Message& m) {
  auto& e = entry(m.block);
  // A write-back that crossed our recall is the recall ack; the cache still
  // gets its PutAck, so it can reuse the frame.
  const bool crossed_recall = e.state == mem::DirState::kBusyRecall && e.owner == m.src;
  const bool from_owner = e.state == mem::DirState::kModified && e.owner == m.src;
  // Read-update machine: plain (uniprocessor-style) writes dirty lines
  // with no directory ownership; replacement writes the dirty words
  // back. The per-word mask makes concurrent writebacks from different
  // nodes merge instead of clobbering (paper section 3, issue 6).
  const bool unowned = e.state == mem::DirState::kUncached && e.owner == kNoNode;
  if (!crossed_recall && !from_owner && !unowned) {
    throw std::logic_error("DirectoryController: PutM from non-owner");
  }
  memory_.write_block_masked(m.block, m.data, m.dirty_mask);
  reply_after(config_.t_directory + config_.t_memory, reply_to(m, MsgType::kPutAck));
  if (from_owner) e.state = mem::DirState::kUncached;
  e.owner = kNoNode;
  if (crossed_recall) finish_pending(e);
}

void DirectoryController::on_puts(const net::Message& m) {
  auto& e = entry(m.block);
  // A region bit cannot be cleared on replacement — another node of the
  // region may still hold a copy. A coarse entry stays conservatively
  // shared until the next invalidation round resets it.
  if (!e.coarse) {
    e.erase_sharer(m.src);
    if (e.sharers.empty() && e.state == mem::DirState::kShared) {
      e.state = mem::DirState::kUncached;
    }
  }
  reply_after(config_.t_directory, reply_to(m, MsgType::kPutAck));
}

void DirectoryController::on_recall_ack(const net::Message& m) {
  auto& e = entry(m.block);
  assert(e.state == mem::DirState::kBusyRecall);
  assert(e.owner == m.src);
  memory_.write_block_masked(m.block, m.data, m.dirty_mask);
  // An owner that downgraded to shared kept its copy; finish_pending()
  // re-registers it as a sharer for GetS causes.
  if (net::recall_invalidates(m)) e.owner = kNoNode;
  finish_pending(e);
}

void DirectoryController::on_inv_ack(const net::Message& m) {
  auto& e = entry(m.block);
  assert(e.state == mem::DirState::kBusyRmw);
  assert(e.acks_outstanding > 0);
  if (--e.acks_outstanding == 0) finish_pending(e);
}

void DirectoryController::start_recall(mem::DirectoryEntry& e, const net::Message& cause,
                                       bool for_exclusive) {
  stats_.counter(hot_.recalls, "dir.recalls").add();
  e.pending = cause;
  e.state = mem::DirState::kBusyRecall;
  auto rec = to_cache(MsgType::kRecall, e.owner, cause.block);
  net::set_recall_invalidates(rec, for_exclusive);
  reply_after(config_.t_directory, std::move(rec));
}

std::uint32_t DirectoryController::invalidate(mem::DirectoryEntry& e, const net::Message& m,
                                              net::Unit acks_to) {
  const bool to_requester = acks_to == Unit::kCache;
  const auto targets = invalidation_targets(e, to_requester ? m.src : kNoNode);
  for (NodeId s : targets) {
    auto inv = to_cache(MsgType::kInv, s, m.block);
    net::set_ack_route(inv, to_requester ? m.src : node_, acks_to);
    reply_after(0, std::move(inv));
    stats_.counter(hot_.invs, "dir.invs").add();
  }
  clear_sharers(e);
  return static_cast<std::uint32_t>(targets.size());
}

void DirectoryController::grant_shared(mem::DirectoryEntry& e, const net::Message& m) {
  e.state = mem::DirState::kShared;
  add_sharer(e, m.src);
  auto out = reply_to(m, MsgType::kDataS);
  out.data = memory_.read_block(m.block);
  reply_after(config_.t_directory + config_.t_memory, std::move(out));
}

void DirectoryController::grant_exclusive(mem::DirectoryEntry& e, const net::Message& m,
                                          std::uint32_t acks) {
  e.state = mem::DirState::kModified;
  e.owner = m.src;
  auto out = reply_to(m, MsgType::kDataX);
  out.data = memory_.read_block(m.block);
  out.value = acks;  // requester collects this many kInvAck
  reply_after(config_.t_directory + config_.t_memory, std::move(out));
}

void DirectoryController::finish_pending(mem::DirectoryEntry& e) {
  const net::Message m = e.pending;
  e.pending = net::Message{};
  switch (m.type) {
    case MsgType::kGetS:
      // The recalled owner (if it didn't write back and vanish) downgraded
      // to shared and keeps its copy.
      clear_sharers(e);
      if (e.owner != kNoNode && e.owner != m.src) add_sharer(e, e.owner);
      e.owner = kNoNode;
      grant_shared(e, m);
      break;
    case MsgType::kGetX:
      clear_sharers(e);
      grant_exclusive(e, m, 0);
      break;
    case MsgType::kRmw:
      e.state = mem::DirState::kUncached;
      e.owner = kNoNode;
      reply_rmw(m);
      break;
    default:
      throw std::logic_error("DirectoryController: bad pending transaction");
  }
  drain_blocked(m.block);
}

std::vector<NodeId> DirectoryController::invalidation_targets(const mem::DirectoryEntry& e,
                                                              NodeId requester) {
  std::vector<NodeId> out;
  if (e.coarse) {
    // Coarse vector: invalidate every node of every flagged region (each
    // acks, cached copy or not). Conservative but never machine-wide
    // unless every region bit is set.
    stats_.counter(hot_.coarse_invalidations, "dir.coarse_invalidations").add();
    for (NodeId n = 0; n < config_.n_nodes; ++n) {
      if (n != requester && e.region_bit(region_of(n))) out.push_back(n);
    }
    return out;
  }
  const std::uint32_t limit = config_.dir_pointer_limit;
  if (limit != 0 && e.sharers.size() > limit) {
    // Dir_k-B: the directory ran out of pointers for this block; the only
    // safe invalidation is a broadcast to every other node (each acks,
    // cached copy or not).
    stats_.counter(hot_.broadcast_invalidations, "dir.broadcast_invalidations").add();
    out.reserve(config_.n_nodes - 1);
    for (NodeId n = 0; n < config_.n_nodes; ++n) {
      if (n != requester) out.push_back(n);
    }
    return out;
  }
  out.reserve(e.sharers.size());
  for (NodeId s : e.sharers) {
    if (s != requester) out.push_back(s);
  }
  return out;
}

void DirectoryController::add_sharer(mem::DirectoryEntry& e, NodeId n) {
  if (e.coarse) {
    e.set_region_bit(region_of(n));
    return;
  }
  e.insert_sharer(n, config_.n_nodes);
  const std::uint32_t limit = config_.dir_pointer_limit;
  if (limit != 0 && e.sharers.size() > limit &&
      config_.dir_overflow == core::DirOverflow::kCoarse) {
    // Pointer budget exhausted: fold the exact pointers into region bits.
    // From here the entry stays coarse until an invalidation round clears
    // every copy and clear_sharers() makes it exact again.
    stats_.counter(hot_.coarse_overflows, "dir.coarse_overflows").add();
    e.coarse = true;
    for (NodeId s : e.sharers) e.set_region_bit(region_of(s));
    e.clear_sharer_list();
  }
}

void DirectoryController::clear_sharers(mem::DirectoryEntry& e) {
  e.clear_sharer_list();
  e.coarse = false;
  e.region_mask.clear();
}

void DirectoryController::reply_rmw(const net::Message& m) {
  const BlockId b = m.block;
  const std::uint32_t word = amap_.word_of(m.addr);
  const Word old = memory_.read_word(b, word);
  switch (net::rmw_op(m)) {
    case net::RmwOp::kTestAndSet:
      memory_.write_word(b, word, 1);
      break;
    case net::RmwOp::kFetchAdd:
      memory_.write_word(b, word, old + m.value);
      break;
    case net::RmwOp::kSwap:
      memory_.write_word(b, word, m.value);
      break;
    case net::RmwOp::kCompareSwap:
      if (old == m.value) memory_.write_word(b, word, m.value2);
      break;
  }
  auto out = reply_to(m, MsgType::kRmwAck);
  out.value = old;
  reply_after(config_.t_directory + config_.t_memory, std::move(out));
}

}  // namespace bcsim::proto
