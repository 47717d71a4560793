// Dispatch, Table-1 read/write ops, the WBI transaction engine, write
// buffer management, and eviction.
#include "core/cache_controller.hpp"

#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>


namespace bcsim::core {

using cache::CacheLine;
using cache::LockState;
using cache::MsiState;
using net::MsgType;
using net::Unit;

namespace {

/// The flush-gate fault a plan arms in every write buffer: its last
/// write-buffer rule, if any.
cache::WriteBuffer::Fault write_buffer_fault(const sim::FaultPlan& plan) {
  auto fault = cache::WriteBuffer::Fault::kNone;
  for (const auto& r : plan.rules) {
    if (r.kind == sim::FaultKind::kWbEagerFlush) fault = cache::WriteBuffer::Fault::kEagerFlush;
    if (r.kind == sim::FaultKind::kWbEmptyGate) fault = cache::WriteBuffer::Fault::kEmptyGate;
  }
  return fault;
}

}  // namespace

CacheController::CacheController(NodeId node, sim::Simulator& simulator, net::Network& network,
                                 const mem::AddressMap& amap, const MachineConfig& config,
                                 sim::StatsRegistry& stats)
    : node_(node), sim_(simulator), net_(network), amap_(amap), config_(config), stats_(stats),
      cache_(config.cache_blocks, config.cache_assoc, config.block_words),
      lock_cache_(config.lock_cache_entries, config.block_words),
      wbuf_(config.write_buffer_entries, write_buffer_fault(config.fault_plan)) {}

bool CacheController::quiescent() const noexcept {
  const bool in_protocol = op_.wait == Wait::kMiss || op_.wait == Wait::kWriteAck ||
                           op_.wait == Wait::kLockGrant || op_.wait == Wait::kBarrier;
  return !in_protocol && wbuf_.empty() && lock_release_inflight_ == 0;
}

void CacheController::on_message(const net::Message& m) {
  switch (m.type) {
    case MsgType::kDataS:
    case MsgType::kDataX:
    case MsgType::kRmwAck:
    case MsgType::kReadGlobalAck:
      on_data(m);
      break;
    case MsgType::kInvAck:
      assert(op_.wait == Wait::kMiss && op_.block == m.block);
      ++mshr_.acks_got;
      finish_wbi_txn();
      break;
    case MsgType::kInv: on_inv(m); break;
    case MsgType::kRecall: on_recall(m); break;
    case MsgType::kPutAck:
      stats_.counter(hot_.put_acks, "cache.put_acks").add();
      break;
    case MsgType::kWriteGlobalAck: on_write_ack(m); break;
    case MsgType::kReadUpdateData: on_ru_data(m); break;
    case MsgType::kRuLinkPrev: {
      if (CacheLine* line = cache_.find(m.block); line && line->update_bit) {
        line->prev = m.who;
      }
      break;
    }
    case MsgType::kRuUpdate: on_ru_update(m); break;
    case MsgType::kRuUnlink: {
      // Mirror maintenance after a neighbor left the subscription list.
      if (CacheLine* line = cache_.find(m.block); line && line->update_bit) {
        if (line->prev == m.who) line->prev = net::unlink_neighbor(m);
        if (line->next == m.who) line->next = net::unlink_neighbor(m);
      }
      break;
    }
    case MsgType::kLockGrant: on_lock_grant(m); break;
    case MsgType::kLockFwd: on_lock_fwd(m); break;
    case MsgType::kLockShareGrant: on_lock_share_grant(m); break;
    case MsgType::kLockWait: on_lock_wait(m); break;
    case MsgType::kLockHandoff: on_lock_handoff(m); break;
    case MsgType::kUnlockEmpty: on_unlock_empty(m); break;
    case MsgType::kUnlockWaitSucc: on_unlock_wait_succ(m); break;
    case MsgType::kHandoffCmd: on_handoff_cmd(m); break;
    case MsgType::kBarArriveAck: on_bar_ack(m); break;
    case MsgType::kBarRelease: on_bar_release(m); break;
    default:
      throw std::logic_error("CacheController: unexpected message type " +
                             std::string(net::to_string(m.type)));
  }
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

void CacheController::begin(PrimitiveOp op, Addr a) {
  if (op_.wait != Wait::kNone) {
    throw std::logic_error("node " + std::to_string(node_) + ": " +
                           std::string(to_string(op)) + " issued while " +
                           std::string(to_string(op_.op)) +
                           " is outstanding (one program per processor)");
  }
  op_.op = op;
  op_.block = amap_.block_of(a);
  op_.addr = a;
  op_.issued_at = sim_.now();
}

net::Message CacheController::begin_miss(net::MsgType kind) {
  mshr_ = Mshr{};
  mshr_.kind = kind;
  op_.wait = Wait::kMiss;
  return make(kind, op_.block);
}

void CacheController::complete(Word value, Tick latency) {
  op_.wait = Wait::kEvent;
  sim_.schedule(latency, [this, value] { finish(value); });
}

void CacheController::complete_timed(Word value, sim::Histogram*& latency,
                                     std::string_view name) {
  stats_.histogram(latency, name).record(sim_.now() - op_.issued_at);
  complete(value, 0);
}

void CacheController::finish(Word value) {
  op_.wait = Wait::kNone;
  op_.result = value;
  ++retired_;
  if (auto h = std::exchange(op_.waiter, nullptr)) h.resume();
}

void CacheController::send(net::Message&& m) { net_.send(std::move(m)); }

net::Message CacheController::make(net::MsgType t, BlockId b) const {
  return make_to(t, b, amap_.home_of(b), Unit::kMemory);
}

net::Message CacheController::make_to(net::MsgType t, BlockId b, NodeId dst,
                                      net::Unit unit) const {
  net::Message m;
  m.src = node_;
  m.dst = dst;
  m.unit = unit;
  m.type = t;
  m.block = b;
  return m;
}

cache::CacheLine& CacheController::install_line(BlockId b, const net::BlockData& data) {
  if (CacheLine* existing = cache_.find(b)) {
    existing->data = data;
    cache_.touch(*existing, sim_.now());
    return *existing;
  }
  CacheLine* victim = cache_.pick_victim(b);
  if (victim == nullptr) {
    // Every frame in the set is unreplaceable — cannot happen with lock
    // lines segregated into the lock cache; treat as a configuration bug.
    throw std::logic_error("CacheController: no victim available");
  }
  if (victim->valid) evict(*victim);
  victim->clear();
  victim->block = b;
  victim->valid = true;
  victim->data = data;
  victim->last_use = sim_.now();
  return *victim;
}

void CacheController::evict(cache::CacheLine& victim) {
  stats_.counter(hot_.evictions, "cache.evictions").add();
  if (victim.msi == MsiState::kModified || victim.dirty_mask != 0) {
    // Only dirty words are written back (per-word dirty bits, Figure 2a).
    auto put = make(MsgType::kPutM, victim.block);
    put.data = victim.data;
    put.dirty_mask = victim.dirty_mask != 0 ? victim.dirty_mask
                                            : net::full_block_mask(config_.block_words);
    send(std::move(put));
    stats_.counter(hot_.writebacks, "cache.writebacks").add();
  }
  if (victim.update_bit) {
    // Replacement cancels the read-update subscription (paper 4.1).
    send(make(MsgType::kResetUpdate, victim.block));
    stats_.counter(hot_.ru_evict_unsubscribe, "cache.ru_evict_unsubscribe").add();
    sim_.trace().cache_state(sim_.now(), sim::CacheTraceOp::kUpdateBit, node_, victim.block,
                             1, 0);
  }
  if (victim.msi != MsiState::kInvalid) {
    sim_.trace().cache_state(sim_.now(), sim::CacheTraceOp::kMsi, node_, victim.block,
                             static_cast<std::uint8_t>(victim.msi),
                             static_cast<std::uint8_t>(MsiState::kInvalid));
  }
  victim.clear();
}

void CacheController::fire_line_change(BlockId b) {
  if (op_.wait == Wait::kChange && op_.block == b) finish(0);
}

void CacheController::wait_line_change(Addr a) {
  begin(PrimitiveOp::kWaitLine, a);
  op_.wait = Wait::kChange;
}

void CacheController::wait_word_change(Addr a, Word last_seen) {
  begin(PrimitiveOp::kWaitWord, a);
  const CacheLine* line = cache_.find(op_.block);
  if (line == nullptr || line->data[amap_.word_of(a)] != last_seen) {
    // Already changed (or invalidated) since the caller's last read: wake
    // immediately — waiting would risk missing the final wakeup.
    complete(0, 0);
    return;
  }
  op_.wait = Wait::kChange;
}

// ---------------------------------------------------------------------------
// READ / WRITE (semantics depend on the data protocol)
// ---------------------------------------------------------------------------

void CacheController::op_read(Addr a) {
  begin(PrimitiveOp::kRead, a);
  const BlockId b = op_.block;
  const std::uint32_t w = amap_.word_of(a);
  // Lock-carried data: reads inside a critical section hit the lock line.
  if (CacheLine* ll = lock_cache_.find(b); ll && ll->holds_lock()) {
    stats_.counter(hot_.hits, "cache.hits").add();
    complete(ll->data[w], kHitLatency);
    return;
  }
  if (CacheLine* line = cache_.find(b)) {
    stats_.counter(hot_.hits, "cache.hits").add();
    cache_.touch(*line, sim_.now());
    complete(line->data[w], kHitLatency);
    return;
  }
  stats_.counter(hot_.misses, "cache.misses").add();
  if (config_.data_protocol == DataProtocol::kWbi) {
    send(begin_miss(MsgType::kGetS));
  } else {
    // Uniprocessor-style fill: fetch the block with no coherence state.
    send_read_global(/*whole_block=*/true);
  }
}

void CacheController::op_write(Addr a, Word v) {
  begin(PrimitiveOp::kWrite, a);
  op_.value = v;
  const BlockId b = op_.block;
  const std::uint32_t w = amap_.word_of(a);
  if (CacheLine* ll = lock_cache_.find(b); ll && ll->holds_lock()) {
    // Write under the lock: modify the lock-carried line; the final unlock
    // writes it back.
    assert(ll->lock == LockState::kHeldWrite && "writes require the exclusive lock");
    ll->data[w] = v;
    ll->dirty_mask |= 1u << w;
    ll->memory_stale = true;
    stats_.counter(hot_.hits, "cache.hits").add();
    complete(v, kHitLatency);
    return;
  }
  CacheLine* line = cache_.find(b);
  if (config_.data_protocol == DataProtocol::kReadUpdate) {
    // Local (uniprocessor) write; write-allocate on miss.
    if (line) {
      line->data[w] = v;
      line->dirty_mask |= 1u << w;
      cache_.touch(*line, sim_.now());
      stats_.counter(hot_.hits, "cache.hits").add();
      complete(v, kHitLatency);
      return;
    }
    stats_.counter(hot_.misses, "cache.misses").add();
    send_read_global(/*whole_block=*/true);  // write-allocate fill
    return;
  }
  // WBI coherent write.
  if (line && line->msi == MsiState::kModified) {
    line->data[w] = v;
    line->dirty_mask |= 1u << w;
    cache_.touch(*line, sim_.now());
    stats_.counter(hot_.hits, "cache.hits").add();
    complete(v, kHitLatency);
    return;
  }
  if (line) {
    stats_.counter(hot_.upgrades, "cache.upgrades").add();
  } else {
    stats_.counter(hot_.misses, "cache.misses").add();
  }
  send(begin_miss(MsgType::kGetX));
}

void CacheController::op_read_global(Addr a) {
  begin(PrimitiveOp::kReadGlobal, a);
  send_read_global(/*whole_block=*/false);  // one word, bypassing the cache (Table 1)
  stats_.counter(hot_.read_global, "cache.read_global").add();
}

void CacheController::send_read_global(bool whole_block) {
  auto m = begin_miss(MsgType::kReadGlobal);
  m.addr = op_.addr;
  net::set_whole_block(m, whole_block);
  send(std::move(m));
}

void CacheController::op_write_global(Addr a, Word v) {
  begin(PrimitiveOp::kWriteGlobal, a);
  op_.value = v;
  const std::uint32_t w = amap_.word_of(a);
  stats_.counter(hot_.write_global, "cache.write_global").add();
  // Keep the local copy coherent with what memory will hold; the word is
  // not marked dirty (memory is receiving it).
  if (CacheLine* line = cache_.find(op_.block)) {
    line->data[w] = v;
    line->dirty_mask &= ~(1u << w);
  }
  // A bounded write buffer applies backpressure when full: the write
  // enters when an acknowledgment frees a slot (on_write_ack).
  if (wbuf_.full()) {
    op_.wait = Wait::kWriteSlot;
    return;
  }
  enter_global_write();
}

void CacheController::enter_global_write() {
  const std::uint64_t txn = wbuf_.enter();
  sim_.trace().wb_event(sim::TraceKind::kWbEnter, sim_.now(), node_, txn);
  auto m = make(MsgType::kWriteGlobal, op_.block);
  m.addr = op_.addr;
  m.value = op_.value;
  m.txn = txn;
  send(std::move(m));
  if (config_.consistency == Consistency::kSequential) {
    // SC: the processor stalls until the write is globally performed.
    op_.wait = Wait::kWriteAck;
  } else {
    // BC: the write buffer absorbs it; the processor continues.
    complete(op_.value, kHitLatency);
  }
}

void CacheController::op_flush_buffer() {
  begin(PrimitiveOp::kFlushBuffer, 0);
  stats_.counter(hot_.flush_buffer, "cache.flush_buffer").add();
  sim_.trace().wb_event(sim::TraceKind::kWbFlushReq, sim_.now(), node_, wbuf_.pending());
  // The flush covers the writes entered before it; it waits, with their
  // watermark in the record, until on_write_ack sees them retired.
  op_.value = wbuf_.flush_mark();
  if (wbuf_.flushed(op_.value)) {
    complete_flush();
  } else {
    op_.wait = Wait::kFlush;
  }
}

void CacheController::complete_flush() {
  sim_.trace().wb_event(sim::TraceKind::kWbFlushDone, sim_.now(), node_, wbuf_.pending());
  complete(0, kHitLatency);
}

void CacheController::on_write_ack(const net::Message& m) {
  sim_.trace().wb_event(sim::TraceKind::kWbRetire, sim_.now(), node_, m.txn);
  wbuf_.retire();
  // Wake the processor if the retire ends the wait its record had when the
  // acknowledgment arrived.
  if (op_.wait == Wait::kWriteAck) {
    finish(0);  // SC: the processor's one unretired write is this one
  } else if (op_.wait == Wait::kWriteSlot) {
    enter_global_write();  // the retire freed the slot the write waits for
  } else if (op_.wait == Wait::kFlush && wbuf_.flushed(op_.value)) {
    complete_flush();
  }
}

void CacheController::op_rmw(Addr a, net::RmwOp op, Word operand, Word operand2) {
  begin(rmw_primitive(op), a);
  auto m = begin_miss(MsgType::kRmw);
  m.addr = a;
  m.value = operand;
  m.value2 = operand2;
  net::set_rmw_op(m, op);
  send(std::move(m));
  stats_.counter(hot_.rmw, "cache.rmw").add();
  sim_.trace().sync_op(sim_.now(), sim::SyncTraceOp::kRmw, node_, op_.block, operand);
}

// ---------------------------------------------------------------------------
// WBI transaction completion
// ---------------------------------------------------------------------------

void CacheController::on_data(const net::Message& m) {
  assert(op_.wait == Wait::kMiss && op_.block == m.block);
  mshr_.data_ok = true;
  mshr_.data = m.data;
  if (m.type == MsgType::kDataX) {
    mshr_.acks_needed = static_cast<std::uint32_t>(m.value);
  } else if (m.type == MsgType::kRmwAck || m.type == MsgType::kReadGlobalAck) {
    op_.result = m.value;
  }
  finish_wbi_txn();
}

void CacheController::finish_wbi_txn() {
  if (op_.wait != Wait::kMiss || !mshr_.data_ok || mshr_.acks_got < mshr_.acks_needed) return;
  const BlockId b = op_.block;
  const std::uint32_t w = amap_.word_of(op_.addr);
  // Pre-install MSI state for the transition trace (upgrade vs fill).
  const CacheLine* prior = cache_.find(b);
  const auto old_msi = static_cast<std::uint8_t>(prior ? prior->msi : MsiState::kInvalid);
  switch (mshr_.kind) {
    case MsgType::kGetS: {
      CacheLine& line = install_line(b, mshr_.data);
      line.msi = MsiState::kShared;
      sim_.trace().cache_state(sim_.now(), sim::CacheTraceOp::kMsi, node_, b, old_msi,
                               static_cast<std::uint8_t>(MsiState::kShared));
      complete_timed(line.data[w], hot_.lat_read_miss, "lat.read_miss");
      break;
    }
    case MsgType::kGetX: {
      CacheLine& line = install_line(b, mshr_.data);
      line.msi = MsiState::kModified;
      sim_.trace().cache_state(sim_.now(), sim::CacheTraceOp::kMsi, node_, b, old_msi,
                               static_cast<std::uint8_t>(MsiState::kModified));
      line.data[w] = op_.value;
      line.dirty_mask |= 1u << w;
      complete_timed(op_.value, hot_.lat_write_miss, "lat.write_miss");
      break;
    }
    case MsgType::kRmw:
      complete_timed(op_.result, hot_.lat_rmw, "lat.rmw");
      break;
    case MsgType::kReadGlobal: {
      if (mshr_.data.count > 0) {
        // Block fill for a local (uniprocessor-style) read or write miss.
        CacheLine& line = install_line(b, mshr_.data);
        if (op_.op == PrimitiveOp::kWrite) {
          line.data[w] = op_.value;
          line.dirty_mask |= 1u << w;
          complete_timed(op_.value, hot_.lat_write_miss, "lat.write_miss");
        } else {
          complete_timed(line.data[w], hot_.lat_read_miss, "lat.read_miss");
        }
      } else {
        // READ-GLOBAL proper: a single word, bypassing the cache.
        complete_timed(op_.result, hot_.lat_read_global, "lat.read_global");
      }
      break;
    }
    default:
      throw std::logic_error("CacheController: bad MSHR kind");
  }
  // A recall that arrived mid-transaction is serviced now, after the
  // pending store has been performed.
  if (mshr_.recall_pending) perform_recall(cache_.find(b), mshr_.recall_invalidates);
}

void CacheController::on_inv(const net::Message& m) {
  CacheLine* line = cache_.find(m.block);
  if (line) {
    sim_.trace().cache_state(sim_.now(), sim::CacheTraceOp::kMsi, node_, m.block,
                             static_cast<std::uint8_t>(line->msi),
                             static_cast<std::uint8_t>(MsiState::kInvalid));
    line->clear();
    stats_.counter(hot_.invalidated, "cache.invalidated").add();
  }
  // Always acknowledge: the directory's full map may lag a silent
  // replacement, and the requester is counting acks either way.
  send(make_to(MsgType::kInvAck, m.block, m.who, net::ack_unit(m)));
  fire_line_change(m.block);
}

void CacheController::on_recall(const net::Message& m) {
  CacheLine* line = cache_.find(m.block);
  if (op_.wait == Wait::kMiss && op_.block == m.block && mshr_.kind == MsgType::kGetX) {
    // Ownership acquisition in flight for this very block (the directory
    // granted us exclusivity and then processed another request): defer
    // until the pending store completes. Only GetX defers — an
    // outstanding RMW on a block we own would otherwise deadlock against
    // its own recall (the RMW completes at memory only after the recall).
    mshr_.recall_pending = true;
    mshr_.recall_invalidates = net::recall_invalidates(m);
    return;
  }
  if (line == nullptr || line->msi != MsiState::kModified) {
    // Our PutM crossed the recall in flight; the directory will treat the
    // PutM as the recall ack.
    stats_.counter(hot_.recall_crossed, "cache.recall_crossed").add();
    return;
  }
  perform_recall(line, net::recall_invalidates(m));
}

void CacheController::perform_recall(cache::CacheLine* line, bool invalidate) {
  assert(line != nullptr && line->msi == MsiState::kModified);
  auto ack = make(MsgType::kRecallAck, line->block);
  ack.data = line->data;
  ack.dirty_mask =
      line->dirty_mask != 0 ? line->dirty_mask : net::full_block_mask(config_.block_words);
  net::set_recall_invalidates(ack, invalidate);
  send(std::move(ack));
  if (!invalidate) {
    // Downgrade to shared; memory now has the data.
    line->msi = MsiState::kShared;
    line->dirty_mask = 0;
    sim_.trace().cache_state(sim_.now(), sim::CacheTraceOp::kMsi, node_, line->block,
                             static_cast<std::uint8_t>(MsiState::kModified),
                             static_cast<std::uint8_t>(MsiState::kShared));
  } else {
    const BlockId b = line->block;
    line->clear();
    sim_.trace().cache_state(sim_.now(), sim::CacheTraceOp::kMsi, node_, b,
                             static_cast<std::uint8_t>(MsiState::kModified),
                             static_cast<std::uint8_t>(MsiState::kInvalid));
    fire_line_change(b);
  }
  stats_.counter(hot_.recalled, "cache.recalled").add();
}

}  // namespace bcsim::core
