// Reader-initiated coherence, memory side (paper section 4.1): READ-GLOBAL,
// WRITE-GLOBAL, READ-UPDATE subscription lists, RESET-UPDATE, and the
// chained propagation of updated blocks down the subscriber list.
#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "proto/directory_controller.hpp"

namespace bcsim::proto {

using net::MsgType;

void DirectoryController::on_read_global(const net::Message& m) {
  auto& e = entry(m.block);
  if (defer_if_busy(e, m)) return;
  stats_.counter(hot_.read_global, "dir.read_global").add();
  auto out = reply_to(m, MsgType::kReadGlobalAck);
  if (net::whole_block(m)) {
    out.data = memory_.read_block(m.block);  // block fill (local-miss path)
  } else {
    out.value = memory_.read_word(m.block, amap_.word_of(m.addr));
  }
  reply_after(config_.t_directory + config_.t_memory, std::move(out));
}

void DirectoryController::on_write_global(const net::Message& m) {
  auto& e = entry(m.block);
  if (defer_if_busy(e, m)) return;
  stats_.counter(hot_.write_global, "dir.write_global").add();
  memory_.write_word(m.block, amap_.word_of(m.addr), m.value);
  e.ru_version += 1;
  const Tick done = memory_.occupy(sim_.now(), config_.t_directory + config_.t_memory);
  // The write is "globally performed" only once every subscriber has the
  // new value; the acknowledgment that retires the writer's buffer entry
  // is therefore produced by the LAST subscriber in the chain (the writer
  // itself never waits under buffered consistency — but FLUSH-BUFFER
  // before a CP-Synch does, which is exactly the model's guarantee).
  // Every subscriber is visited — including the writer if it subscribed:
  // its locally-updated copy may have been overwritten by an older
  // in-flight snapshot, and the version-ordered chain is what restores it.
  if (!e.ru_list.empty()) {
    stats_.counter(hot_.ru_propagations, "dir.ru_propagations").add();
    auto upd = to_cache(MsgType::kRuUpdate, e.ru_list.front(), m.block);
    upd.data = memory_.read_block(m.block);
    upd.chain = net::Chain(e.ru_list.begin() + 1, e.ru_list.end());
    upd.txn = m.txn;
    upd.who = m.src;  // the last hop acks the writer
    upd.value = e.ru_version;
    net_.send_at(done, std::move(upd));
  } else {
    net_.send_at(done, reply_to(m, MsgType::kWriteGlobalAck));
  }
}

void DirectoryController::on_read_update(const net::Message& m) {
  auto& e = entry(m.block);
  if (defer_if_busy(e, m)) return;
  if (!e.lock_chain.empty()) {
    // "The read-update request is considered to be mutually exclusive with
    // a lock request for the same memory block."
    throw std::logic_error("DirectoryController: READ-UPDATE on a locked block");
  }
  stats_.counter(hot_.read_update, "dir.read_update").add();
  e.usage_lock = false;
  const NodeId old_head = e.ru_list.empty() ? kNoNode : e.ru_list.front();
  const bool already =
      std::find(e.ru_list.begin(), e.ru_list.end(), m.src) != e.ru_list.end();
  auto out = reply_to(m, MsgType::kReadUpdateData);
  out.data = memory_.read_block(m.block);
  out.value = e.ru_version;
  // A duplicate subscription (e.g. resubscribe after a local reset raced
  // an in-flight update) keeps its position and just refreshes the data.
  out.who = already ? kNoNode : old_head;
  reply_after(config_.t_directory + config_.t_memory, std::move(out));
  if (already) return;
  // Push-front insert: the new subscriber becomes the list head (that is
  // the single-pointer-update hardware insert); the old head learns its
  // new prev.
  e.ru_list.insert(e.ru_list.begin(), m.src);
  if (old_head != kNoNode) {
    auto link = to_cache(MsgType::kRuLinkPrev, old_head, m.block);
    link.who = m.src;
    reply_after(0, std::move(link));
  }
}

void DirectoryController::on_reset_update(const net::Message& m) {
  auto& e = entry(m.block);
  stats_.counter(hot_.reset_update, "dir.reset_update").add();
  auto it = std::find(e.ru_list.begin(), e.ru_list.end(), m.src);
  if (it == e.ru_list.end()) return;  // idempotent (replacement raced reset)
  const std::size_t idx = static_cast<std::size_t>(it - e.ru_list.begin());
  const NodeId prev = idx > 0 ? e.ru_list[idx - 1] : kNoNode;
  const NodeId next = idx + 1 < e.ru_list.size() ? e.ru_list[idx + 1] : kNoNode;
  e.ru_list.erase(it);
  // Neighbor splice messages: mirror maintenance in the caches (the paper's
  // doubly-linked-list delete).
  const Tick done = memory_.occupy(sim_.now(), config_.t_directory);
  auto splice = [&](NodeId dst, NodeId new_neighbor) {
    if (dst == kNoNode) return;
    auto s = to_cache(MsgType::kRuUnlink, dst, m.block);
    s.who = m.src;
    net::set_unlink_neighbor(s, new_neighbor);
    net_.send_at(done, std::move(s));
  };
  splice(prev, next);
  splice(next, prev);
}

// ---------------------------------------------------------------------------
// barrier counter at memory
// ---------------------------------------------------------------------------

void DirectoryController::on_bar_arrive(const net::Message& m) {
  auto& e = entry(m.block);
  stats_.counter(hot_.barrier_arrivals, "dir.barrier_arrivals").add();
  e.barrier_count += 1;
  memory_.write_word(m.block, amap_.word_of(m.addr), e.barrier_count);
  const std::uint32_t target = static_cast<std::uint32_t>(m.value);
  auto ack = reply_to(m, MsgType::kBarArriveAck);
  ack.value = e.barrier_count - 1;  // arrival index
  const bool last = e.barrier_count >= target;
  net::set_last_arrival(ack, last);
  if (!last) {
    e.barrier_waiters.push_back(m.src);
    reply_after(config_.t_directory + config_.t_memory, std::move(ack));
    return;
  }
  // Last arriver: open the barrier. Its ack doubles as its release; the
  // waiters get a chained kBarRelease (paper Table 3: "barrier notify").
  const Tick done = memory_.occupy(sim_.now(), config_.t_directory + config_.t_memory);
  net_.send_at(done, std::move(ack));
  if (!e.barrier_waiters.empty()) {
    auto rel = to_cache(MsgType::kBarRelease, e.barrier_waiters.front(), m.block);
    rel.chain = net::Chain(e.barrier_waiters.begin() + 1, e.barrier_waiters.end());
    net_.send_at(done, std::move(rel));
  }
  e.barrier_count = 0;
  e.barrier_waiters.clear();
  memory_.write_word(m.block, amap_.word_of(m.addr), 0);
}

}  // namespace bcsim::proto
