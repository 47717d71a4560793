// Cache-based locking, memory side (paper section 4.3): the central
// directory entry holds the queue pointer (tail) and — in this simulator —
// an authoritative mirror of the whole grant-order chain, which it is in a
// position to keep exact because every membership change serializes here.
// Enqueues are forwarded through the current tail exactly as the paper
// describes; handoffs flow cache-to-cache.
#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "proto/directory_controller.hpp"
#include "sim/invariants.hpp"

namespace bcsim::proto {

using net::LockMode;
using net::MsgType;

namespace {
bool chain_contains(const mem::DirectoryEntry& e, NodeId node) {
  return std::any_of(e.lock_chain.begin(), e.lock_chain.end(),
                     [node](const mem::LockChainNode& n) { return n.node == node; });
}
}  // namespace

void DirectoryController::on_lock_req(const net::Message& m) {
  auto& e = entry(m.block);
  if (defer_if_busy(e, m)) return;
  if (!e.ru_list.empty()) {
    throw std::logic_error("DirectoryController: lock request on a read-update block");
  }
  const LockMode mode = net::lock_mode(m);
  stats_.counter(hot_.lock_req, "dir.lock_req").add();

  if (e.lock_chain.empty()) {
    // Unlocked and no outstanding requester: grant immediately, shipping
    // the protected data with the grant.
    e.usage_lock = true;
    e.lock_chain.push_back({m.src, mode});
    e.lock_holders = 1;
    e.lock_data_stale = true;
    auto out = reply_to(m, MsgType::kLockGrant);
    out.data = memory_.read_block(m.block);
    reply_after(config_.t_directory + config_.t_memory, std::move(out));
    return;
  }

  // Contended: forward the request to the current tail and swing the
  // queue pointer to the newcomer.
  const NodeId old_tail = e.lock_tail();
  const bool share = mode == LockMode::kRead &&
                     e.lock_holders == e.lock_chain.size() &&
                     e.lock_chain.front().mode == LockMode::kRead;
  e.lock_chain.push_back({m.src, mode});
  if (share) e.lock_holders += 1;
  auto fwd = to_cache(MsgType::kLockFwd, old_tail, m.block);
  fwd.who = m.src;
  net::set_lock_mode(fwd, mode, share);
  reply_after(config_.t_directory, std::move(fwd));
  if (share) {
    stats_.counter(hot_.lock_fwd_share, "dir.lock_fwd_share").add();
  } else {
    stats_.counter(hot_.lock_fwd_wait, "dir.lock_fwd_wait").add();
  }
}

bool DirectoryController::chain_remove(mem::DirectoryEntry& e, NodeId node) {
  auto it = std::find_if(e.lock_chain.begin(), e.lock_chain.end(),
                         [node](const mem::LockChainNode& n) { return n.node == node; });
  if (it == e.lock_chain.end()) {
    throw std::logic_error("DirectoryController: unlock from a node not in the chain");
  }
  const auto idx = static_cast<std::uint32_t>(it - e.lock_chain.begin());
  const bool was_holder = idx < e.lock_holders;
  e.lock_chain.erase(it);
  if (was_holder) e.lock_holders -= 1;
  return was_holder;
}

void DirectoryController::promote_waiters(mem::DirectoryEntry& e) {
  if (e.lock_holders != 0 || e.lock_chain.empty()) return;
  if (e.lock_chain.front().mode == LockMode::kWrite) {
    e.lock_holders = 1;
  } else {
    std::uint32_t k = 0;
    while (k < e.lock_chain.size() && e.lock_chain[k].mode == LockMode::kRead) ++k;
    e.lock_holders = k;
  }
}

void DirectoryController::on_unlock_notify(const net::Message& m) {
  auto& e = entry(m.block);
  // A release can overtake its predecessor's handoff bookkeeping when the
  // fabric delays the latter (a retransmitted HandoffDone on an unreliable
  // network stretches the window far wider than path-length skew ever
  // does): the mirror then still records the releaser as a *waiter*. Park
  // the notify and replay it when the bookkeeping drains — the same
  // discipline as the deferred unlock query below. The bookkeeping that
  // promotes this node is itself a HandoffDone notify, whose processing
  // calls drain_blocked, so a parked notify always gets replayed.
  const auto it =
      std::find_if(e.lock_chain.begin(), e.lock_chain.end(),
                   [&m](const mem::LockChainNode& n) { return n.node == m.src; });
  if (it != e.lock_chain.end() &&
      static_cast<std::uint32_t>(it - e.lock_chain.begin()) >= e.lock_holders) {
    e.blocked.push_back(m);
    stats_.counter(hot_.unlock_notify_deferred, "dir.unlock_notify_deferred").add();
    return;
  }
  stats_.counter(hot_.unlock_notify, "dir.unlock_notify").add();
  const bool was_holder = chain_remove(e, m.src);
  assert(was_holder);
  static_cast<void>(was_holder);

  if (net::handoff_done(m)) {
    // The releasing cache already handed the lock (and data) to m.who;
    // this is bookkeeping. Promote the next holder group to match the
    // grant/cascade messages in flight, then replay any unlock query the
    // new front sent before this bookkeeping arrived.
    promote_waiters(e);
    memory_.occupy(sim_.now(), config_.t_directory);
    drain_blocked(m.block);
    return;
  }

  // Orchestrated (read-lock) release: the directory decides the
  // disposition and instructs the releasing cache.
  if (e.lock_holders > 0) {
    // Other readers still hold the lock: the releaser just drops out.
    reply_unlock_empty(e, m, /*drop=*/true);
    return;
  }
  if (!e.lock_chain.empty()) {
    // The releaser was the last holder and waiters exist: have it hand
    // the lock to the head of the waiting queue (the cascade among
    // contiguous read waiters flows cache-to-cache from there).
    promote_waiters(e);
    auto cmd = reply_to(m, MsgType::kHandoffCmd);
    cmd.who = e.lock_chain.front().node;
    reply_after(config_.t_directory, std::move(cmd));
    return;
  }
  // Queue empty: the line returns to memory.
  reply_unlock_empty(e, m, /*drop=*/false);
}

void DirectoryController::on_unlock_query(const net::Message& m) {
  auto& e = entry(m.block);
  stats_.counter(hot_.unlock_query, "dir.unlock_query").add();
  if (e.lock_chain.size() == 1 && e.lock_chain.front().node == m.src) {
    // Truly the tail: unlink and call the data home.
    e.lock_chain.clear();
    e.lock_holders = 0;
    reply_unlock_empty(e, m, /*drop=*/false);
    return;
  }
  // The releaser is in the chain but not at the front: its predecessors'
  // handoff bookkeeping (a handoff-done kUnlockNotify) is still in flight.
  // That race is real on networks with distance-dependent paths (a short
  // critical section next to the home beats a far-away HandoffDone), so
  // park the query until the bookkeeping drains and replay it then.
  if (!e.lock_chain.empty() && e.lock_chain.front().node != m.src &&
      chain_contains(e, m.src)) {
    e.blocked.push_back(m);
    stats_.counter(hot_.unlock_query_deferred, "dir.unlock_query_deferred").add();
    return;
  }
  // A querying releaser that is not in the chain at all is a protocol bug —
  // throw (not assert) so the differential oracle can report it as a
  // divergence with the trace tail instead of aborting the process.
  if (e.lock_chain.empty() || e.lock_chain.front().node != m.src) {
    throw sim::InvariantViolation(
        "invariant violation [cbl-unlock-query] at tick " +
            std::to_string(sim_.now()) + ", block " + std::to_string(m.block) +
            ", node " + std::to_string(m.src) +
            ": unlock query from a node that is not in the chain (chain " +
            (e.lock_chain.empty()
                 ? std::string("empty")
                 : "front " + std::to_string(e.lock_chain.front().node) + ", size " +
                       std::to_string(e.lock_chain.size())) +
            ")",
        m.block, m.src, sim_.now());
  }
  // A successor announce (kLockFwd) is in flight to the releaser; it must
  // drain: link the successor when the announce arrives, then hand off.
  reply_after(config_.t_directory, reply_to(m, MsgType::kUnlockWaitSucc));
}

void DirectoryController::reply_unlock_empty(mem::DirectoryEntry& e, const net::Message& m,
                                             bool drop) {
  if (!drop) e.lock_writeback_pending = true;
  auto out = reply_to(m, MsgType::kUnlockEmpty);
  net::set_unlock_drops(out, drop);
  reply_after(config_.t_directory, std::move(out));
}

void DirectoryController::on_lock_writeback(const net::Message& m) {
  auto& e = entry(m.block);
  stats_.counter(hot_.lock_writeback, "dir.lock_writeback").add();
  assert(e.lock_writeback_pending);
  const bool stale = net::memory_stale(m);
  if (stale) memory_.write_block_masked(m.block, m.data, m.dirty_mask);
  e.lock_writeback_pending = false;
  e.lock_data_stale = false;
  e.usage_lock = false;
  memory_.occupy(sim_.now(), config_.t_directory + (stale ? config_.t_memory : 0));
  drain_blocked(m.block);
}

}  // namespace bcsim::proto
