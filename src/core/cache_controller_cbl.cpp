// Cache-based locking (CBL), cache side: the distributed lock queue of
// paper section 4.3. Lock lines live in the small fully-associative lock
// cache; prev/next pointers thread the queue; grants carry the protected
// data ("merging the data transfer with the synchronization request").
//
// Release discipline (matching the paper's accounting in Table 3):
//   * write-lock holder with a known successor: hand the lock + data
//     directly to the successor (one network hop on the critical path) and
//     notify the directory off the critical path;
//   * write-lock holder with no known successor: query the directory — a
//     successor announce may be in flight (the draining state);
//   * read-lock holders always release through the directory, which knows
//     whether other readers still hold the lock and orchestrates the
//     handoff from the last holder.
#include <cassert>
#include <stdexcept>

#include "core/cache_controller.hpp"

namespace bcsim::core {

using cache::CacheLine;
using cache::LockState;
using net::LockMode;
using net::MsgType;

void CacheController::op_lock(Addr a, net::LockMode mode) {
  begin(mode == LockMode::kRead ? PrimitiveOp::kReadLock : PrimitiveOp::kWriteLock, a);
  op_.mode = mode;
  issue_lock();
}

void CacheController::issue_lock() {
  if (op_.mode == LockMode::kRead) {
    stats_.counter(hot_.read_lock, "cache.read_lock").add();
  } else {
    stats_.counter(hot_.write_lock, "cache.write_lock").add();
  }
  if (lock_cache_.find(op_.block) != nullptr) {
    // The previous acquisition/release of this lock is still winding down
    // (e.g. an immediate re-lock while the unlock protocol is in flight):
    // release_lock_line issues the lock again.
    op_.wait = Wait::kLockLine;
    stats_.counter(hot_.lock_line_busy_waits, "cache.lock_line_busy_waits").add();
    return;
  }
  if (lock_cache_.full()) {
    // Every entry holds a lock line: release_lock_line starts the request
    // once one leaves.
    op_.wait = Wait::kLockSlot;
    stats_.counter(hot_.lock_cache_stalls, "cache.lock_cache_stalls").add();
    return;
  }
  start_lock_request();
}

void CacheController::start_lock_request() {
  const BlockId b = op_.block;
  CacheLine& line = lock_cache_.allocate(b);
  line.lock = (op_.mode == LockMode::kRead) ? LockState::kWaitRead : LockState::kWaitWrite;
  sim_.trace().sync_op(sim_.now(), sim::SyncTraceOp::kLockReq, node_, b,
                       static_cast<std::uint64_t>(op_.mode));
  sim_.trace().cache_state(sim_.now(), sim::CacheTraceOp::kLock, node_, b,
                           static_cast<std::uint8_t>(LockState::kNone),
                           static_cast<std::uint8_t>(line.lock));
  // The acquisition latency runs from here, after any line or slot wait.
  op_.wait = Wait::kLockGrant;
  op_.issued_at = sim_.now();
  auto m = make(MsgType::kLockReq, b);
  net::set_lock_mode(m, op_.mode);
  send(std::move(m));
}

void CacheController::op_unlock(Addr a) {
  begin(PrimitiveOp::kUnlock, a);
  const BlockId b = op_.block;
  CacheLine* line = lock_cache_.find(b);
  if (line == nullptr || !line->holds_lock()) {
    throw std::logic_error("CacheController: unlock of a lock not held");
  }
  stats_.counter(hot_.unlock, "cache.unlock").add();
  sim_.trace().sync_op(sim_.now(), sim::SyncTraceOp::kUnlock, node_, b);
  // "The unlocking processor is allowed to continue its computation
  // immediately, and does not have to wait for the unlock operation to be
  // performed globally."
  complete(0, kHitLatency);
  ++lock_release_inflight_;

  if (line->lock == LockState::kHeldWrite) {
    if (line->next != kNoNode) {
      // Fast path: direct handoff to the known successor.
      hand_off(*line, line->next, /*tell_home=*/true);
    } else {
      // Successor unknown: ask the directory whether we are still the tail.
      line->lock = LockState::kQuerying;
      send(make(MsgType::kUnlockQuery, b));
    }
  } else {
    // Read locks release through the directory, which knows whether other
    // readers still hold the lock.
    line->lock = LockState::kReleasing;
    auto n = make(MsgType::kUnlockNotify, b);
    net::set_handoff_done(n, false);
    send(std::move(n));
  }
}

void CacheController::on_lock_grant(const net::Message& m) {
  CacheLine* line = lock_cache_.find(m.block);
  assert(line != nullptr &&
         (line->lock == LockState::kWaitRead || line->lock == LockState::kWaitWrite));
  line->data = m.data;
  line->memory_stale = false;
  became_holder(*line, /*chain_modified=*/false);
}

void CacheController::on_lock_fwd(const net::Message& m) {
  CacheLine* line = lock_cache_.find(m.block);
  assert(line != nullptr && "LockFwd for a block with no lock line");
  const bool share = net::shares_lock(m);
  line->next = m.who;
  line->next_mode = net::lock_mode(m);

  switch (line->lock) {
    case LockState::kHeldRead:
    case LockState::kHeldWrite:
    case LockState::kReleasing:
      // A holder, or a reader releasing with the data still in hand: the
      // directory counted a sharing newcomer as a co-holder at forward time.
      if (share) {
        grant_share(*line, m.who);
        break;
      }
      [[fallthrough]];
    case LockState::kWaitRead:
    case LockState::kWaitWrite:
      // Tell the newcomer where it queued; the grant (share cascade or
      // handoff) reaches it once we ourselves hold / release.
      send(make_to(MsgType::kLockWait, m.block, m.who));
      break;
    case LockState::kQuerying:  // the announce raced our tail query: drain now
    case LockState::kDraining:
      // We released while this announce was in flight: pass the lock on
      // directly and leave the queue.
      assert(!share && "share-forward cannot target a draining write holder");
      hand_off(*line, m.who, /*tell_home=*/true);
      break;
    case LockState::kNone:
      throw std::logic_error("CacheController: LockFwd hit an inactive line");
  }
}

void CacheController::on_lock_share_grant(const net::Message& m) {
  CacheLine* line = lock_cache_.find(m.block);
  assert(line != nullptr && line->lock == LockState::kWaitRead);
  line->data = m.data;
  line->prev = m.src;
  became_holder(*line, net::memory_stale(m));
}

void CacheController::on_lock_wait(const net::Message& m) {
  if (CacheLine* line = lock_cache_.find(m.block)) line->prev = m.src;
}

void CacheController::on_lock_handoff(const net::Message& m) {
  CacheLine* line = lock_cache_.find(m.block);
  assert(line != nullptr &&
         (line->lock == LockState::kWaitRead || line->lock == LockState::kWaitWrite));
  line->data = m.data;
  became_holder(*line, net::memory_stale(m));
}

void CacheController::became_holder(cache::CacheLine& line, bool chain_modified) {
  line.memory_stale = chain_modified;
  const auto old_lock = static_cast<std::uint8_t>(line.lock);
  line.lock =
      (line.lock == LockState::kWaitWrite) ? LockState::kHeldWrite : LockState::kHeldRead;
  stats_.counter(hot_.lock_granted, "cache.lock_granted").add();
  sim_.trace().sync_op(sim_.now(), sim::SyncTraceOp::kLockGrant, node_, line.block);
  sim_.trace().cache_state(sim_.now(), sim::CacheTraceOp::kLock, node_, line.block, old_lock,
                           static_cast<std::uint8_t>(line.lock));
  cascade_share(line);
  assert(op_.wait == Wait::kLockGrant && op_.block == line.block);
  // The word the processor asked to lock rides along with the grant.
  complete_timed(line.data[0], hot_.lat_lock_acquire, "lat.lock_acquire");
}

void CacheController::cascade_share(cache::CacheLine& line) {
  // "The lock release notification goes down the linked list until it
  // meets a write-lock requester": a read holder whose successor also
  // requested a read lock passes the shared grant along.
  if (line.lock != LockState::kHeldRead) return;
  if (line.next == kNoNode || line.next_mode != LockMode::kRead) return;
  grant_share(line, line.next);
  stats_.counter(hot_.share_cascade, "cache.share_cascade").add();
}

void CacheController::grant_share(const cache::CacheLine& line, NodeId to) {
  auto g = make_to(MsgType::kLockShareGrant, line.block, to);
  g.data = line.data;
  net::set_memory_stale(g, line.memory_stale);
  send(std::move(g));
}

void CacheController::hand_off(cache::CacheLine& line, NodeId successor, bool tell_home) {
  const BlockId b = line.block;
  auto h = make_to(MsgType::kLockHandoff, b, successor);
  h.data = line.data;
  net::set_memory_stale(h, line.memory_stale);
  send(std::move(h));
  if (tell_home) {
    auto n = make(MsgType::kUnlockNotify, b);
    net::set_handoff_done(n, true);
    send(std::move(n));
  }
  release_lock_line(b);
}

void CacheController::on_unlock_empty(const net::Message& m) {
  CacheLine* line = lock_cache_.find(m.block);
  assert(line != nullptr &&
         (line->lock == LockState::kReleasing || line->lock == LockState::kQuerying));
  // A dropped line leaves the data to the readers that still hold it.
  if (!net::unlock_drops(m)) {
    auto wb = make(MsgType::kLockWriteback, m.block);
    if (line->memory_stale) {
      wb.data = line->data;
      wb.dirty_mask = net::full_block_mask(config_.block_words);
    }
    net::set_memory_stale(wb, line->memory_stale);
    send(std::move(wb));
  }
  release_lock_line(m.block);
}

void CacheController::on_unlock_wait_succ(const net::Message& m) {
  // The successor announce may have arrived (and been drained) before this
  // reply; in that case the line is already gone — nothing to do.
  CacheLine* line = lock_cache_.find(m.block);
  if (line == nullptr || line->lock != LockState::kQuerying) return;
  line->lock = LockState::kDraining;
}

void CacheController::on_handoff_cmd(const net::Message& m) {
  CacheLine* line = lock_cache_.find(m.block);
  assert(line != nullptr && line->lock == LockState::kReleasing);
  hand_off(*line, m.who, /*tell_home=*/false);
}

void CacheController::release_lock_line(BlockId b) {
  lock_cache_.release(b);
  assert(lock_release_inflight_ > 0);
  --lock_release_inflight_;
  // Wake an acquisition waiting for what just left: a free entry, or this
  // very block's line. A slot wait resumes past issue_lock, whose lock
  // count it has already made.
  if (op_.wait == Wait::kLockSlot && !lock_cache_.full()) {
    start_lock_request();
  } else if (op_.wait == Wait::kLockLine && op_.block == b) {
    issue_lock();
  }
}

}  // namespace bcsim::core
