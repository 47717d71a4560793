// Reader-initiated coherence, cache side: READ-UPDATE subscriptions,
// RESET-UPDATE, and chained RuUpdate propagation (paper section 4.1).
#include <cassert>

#include "core/cache_controller.hpp"

namespace bcsim::core {

using cache::CacheLine;
using net::Message;
using net::MsgType;

void CacheController::op_read_update(Addr a) {
  begin(PrimitiveOp::kReadUpdate, a);
  const BlockId b = op_.block;
  // "A read-update request is serviced locally by the cache if the update
  // bit of the cache line is already set."
  if (CacheLine* line = cache_.find(b); line && line->update_bit) {
    stats_.counter(hot_.hits, "cache.hits").add();
    cache_.touch(*line, sim_.now());
    complete(line->data[amap_.word_of(a)], kHitLatency);
    return;
  }
  stats_.counter(hot_.read_update, "cache.read_update").add();
  auto m = begin_miss(MsgType::kReadUpdate);
  m.addr = a;
  send(std::move(m));
}

void CacheController::op_reset_update(Addr a) {
  begin(PrimitiveOp::kResetUpdate, a);
  const BlockId b = op_.block;
  stats_.counter(hot_.reset_update, "cache.reset_update").add();
  if (CacheLine* line = cache_.find(b); line && line->update_bit) {
    line->update_bit = false;
    line->prev = line->next = kNoNode;
    send(make(MsgType::kResetUpdate, b));
    sim_.trace().cache_state(sim_.now(), sim::CacheTraceOp::kUpdateBit, node_, b, 1, 0);
  }
  // Completes locally whether or not a subscription existed (idempotent).
  complete(0, kHitLatency);
}

void CacheController::on_ru_data(const net::Message& m) {
  assert(op_.wait == Wait::kMiss && op_.block == m.block &&
         mshr_.kind == MsgType::kReadUpdate);
  CacheLine& line = install_line(m.block, m.data);
  line.update_bit = true;
  line.ru_version = m.value;
  sim_.trace().cache_state(sim_.now(), sim::CacheTraceOp::kUpdateBit, node_, m.block, 0, 1,
                           m.value);
  // New subscribers join at the head of the list: prev = nil, next = the
  // previous head (the directory sends kRuLinkPrev to that node).
  line.prev = kNoNode;
  line.next = m.who;
  complete_timed(line.data[amap_.word_of(op_.addr)], hot_.lat_read_update, "lat.read_update");
}

void CacheController::on_ru_update(const net::Message& m) {
  stats_.counter(hot_.ru_updates_received, "cache.ru_updates_received").add();
  if (CacheLine* line = cache_.find(m.block);
      line && line->update_bit && m.value > line->ru_version) {
    // Merge: take updated values for words this node has not locally
    // dirtied (per-word dirty bits prevent lost updates / false sharing).
    // The version check rejects an older snapshot arriving after a newer
    // one (chains for different writes take different hop sequences).
    line->ru_version = m.value;
    for (std::uint32_t w = 0; w < config_.block_words; ++w) {
      if (!(line->dirty_mask & (1u << w))) line->data[w] = m.data.words[w];
    }
    sim_.trace().cache_state(sim_.now(), sim::CacheTraceOp::kUpdateApplied, node_, m.block,
                             1, 1, m.value);
    fire_line_change(m.block);
  }
  // Forward down the remaining chain regardless of local state (this node
  // may have unsubscribed while the update was in flight; the data still
  // has to reach the rest of the list).
  if (m.chain.empty()) {
    // Last hop of the WRITE-GLOBAL's propagation: the write is now globally
    // performed; acknowledge the writer `who` so its buffer entry retires.
    auto ack = make_to(MsgType::kWriteGlobalAck, m.block, m.who);
    ack.txn = m.txn;
    net_.send_at(sim_.now() + config_.t_directory, std::move(ack));
    return;
  }
  forward_chain(m);
}

void CacheController::forward_chain(const net::Message& m) {
  if (m.chain.empty()) return;
  Message fwd = m;  // shares m's chain snapshot: no allocation per hop
  fwd.src = node_;
  fwd.dst = fwd.chain.front();
  fwd.chain.pop_front();
  // One cache-directory lookup before the hop leaves this node.
  net_.send_at(sim_.now() + config_.t_directory, std::move(fwd));
  stats_.counter(hot_.chain_forwards, "cache.chain_forwards").add();
}

// ---------------------------------------------------------------------------
// barrier (memory-side counter + chained release)
// ---------------------------------------------------------------------------

void CacheController::op_barrier(Addr a, std::uint32_t participants) {
  begin(PrimitiveOp::kBarrier, a);
  const BlockId b = op_.block;
  stats_.counter(hot_.barrier_arrive, "cache.barrier_arrive").add();
  sim_.trace().sync_op(sim_.now(), sim::SyncTraceOp::kBarrierArrive, node_, b, participants);
  op_.wait = Wait::kBarrier;
  auto m = make(MsgType::kBarArrive, b);
  m.addr = a;
  m.value = participants;
  send(std::move(m));
}

void CacheController::on_bar_ack(const net::Message& m) {
  if (net::last_arrival(m)) {
    // We were the last arriver: the barrier opened as we hit it.
    sim_.trace().sync_op(sim_.now(), sim::SyncTraceOp::kBarrierRelease, node_, m.block, m.value);
    assert(op_.wait == Wait::kBarrier && op_.block == m.block);
    finish(m.value);
  }
  // Otherwise: arrival recorded; keep waiting for kBarRelease.
}

void CacheController::on_bar_release(const net::Message& m) {
  forward_chain(m);
  // A release that overtook a re-arrival race finds no waiter.
  if (op_.wait != Wait::kBarrier || op_.block != m.block) return;
  sim_.trace().sync_op(sim_.now(), sim::SyncTraceOp::kBarrierRelease, node_, m.block, m.value);
  finish(m.value);
}

}  // namespace bcsim::core
