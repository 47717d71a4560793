#include "core/sync/mutex.hpp"

#include <stdexcept>

namespace bcsim::sync {

using core::Processor;

// ---------------------------------------------------------------------------
// CBL
// ---------------------------------------------------------------------------

sim::Task CblMutex::acquire(Processor& p) {
  // NP-Synch: proceed as soon as the grant (with the lock block's data)
  // arrives; no waiting on prior global writes.
  co_await p.write_lock(addr_);
}

sim::Task CblMutex::acquire_shared(Processor& p) { co_await p.read_lock(addr_); }

sim::Task CblMutex::release(Processor& p) {
  // CP-Synch: all global writes issued inside the critical section must be
  // globally performed before the lock moves on.
  co_await p.flush_buffer();
  co_await p.unlock(addr_);
}

// ---------------------------------------------------------------------------
// test-and-test&set (with optional exponential backoff)
// ---------------------------------------------------------------------------

sim::Task TtsMutex::acquire(Processor& p) {
  unsigned attempt = 0;
  for (;;) {
    // Spin on the cached copy; only an invalidation (the holder's release
    // write) wakes us, so the spin itself generates no network traffic.
    for (;;) {
      const Word v = co_await p.read(addr_);
      if (v == 0) break;
      co_await p.wait_word_change(addr_, v);
    }
    const Word old = co_await p.test_and_set(addr_);
    if (old == 0) co_return;
    if (backoff_) {
      ++attempt;
      co_await p.compute(1 + p.rng().backoff(attempt + 3, backoff_cap_));
    }
  }
}

sim::Task TtsMutex::release(Processor& p) {
  co_await p.flush_buffer();
  co_await p.write(addr_, 0);
}

// ---------------------------------------------------------------------------
// ticket lock
// ---------------------------------------------------------------------------

sim::Task TicketMutex::acquire(Processor& p) {
  const Word my = co_await p.fetch_add(ticket_, 1);
  for (;;) {
    const Word cur = co_await p.read(serving_);
    if (cur == my) co_return;
    co_await p.wait_word_change(serving_, cur);
  }
}

sim::Task TicketMutex::release(Processor& p) {
  co_await p.flush_buffer();
  const Word cur = co_await p.read(serving_);
  co_await p.write(serving_, cur + 1);
}

// ---------------------------------------------------------------------------
// MCS list lock
// ---------------------------------------------------------------------------

McsMutex::McsMutex(core::AddressAllocator& alloc, std::uint32_t n_nodes)
    : tail_(alloc.alloc_blocks(1)), stride_(alloc.block_words()) {
  qnodes_ = alloc.alloc_blocks(n_nodes);
}

sim::Task McsMutex::acquire(Processor& p) {
  const NodeId me = p.id();
  // Reset my queue record, then swap myself in as the tail.
  co_await p.write(qnode_next(me), 0);
  co_await p.write(qnode_locked(me), 1);
  const Word prev = co_await p.rmw(tail_, net::RmwOp::kSwap, static_cast<Word>(me) + 1);
  if (prev == 0) co_return;  // uncontended
  const NodeId pred = static_cast<NodeId>(prev - 1);
  // Link behind the predecessor, then spin on my own flag.
  co_await p.write(qnode_next(pred), static_cast<Word>(me) + 1);
  for (;;) {
    const Word l = co_await p.read(qnode_locked(me));
    if (l == 0) co_return;
    co_await p.wait_word_change(qnode_locked(me), l);
  }
}

sim::Task McsMutex::release(Processor& p) {
  co_await p.flush_buffer();
  const NodeId me = p.id();
  Word next = co_await p.read(qnode_next(me));
  if (next == 0) {
    // No known successor: if we are still the tail, swing it back to free.
    const Word cur = co_await p.compare_swap(tail_, static_cast<Word>(me) + 1, 0);
    if (cur == static_cast<Word>(me) + 1) co_return;  // really was the tail
    // Someone enqueued meanwhile; wait for it to link behind us.
    for (;;) {
      next = co_await p.read(qnode_next(me));
      if (next != 0) break;
      co_await p.wait_word_change(qnode_next(me), 0);
    }
  }
  co_await p.write(qnode_locked(static_cast<NodeId>(next - 1)), 0);
}

// ---------------------------------------------------------------------------

std::unique_ptr<Mutex> make_mutex(core::LockImpl impl, core::AddressAllocator& alloc,
                                  std::uint32_t n_nodes) {
  switch (impl) {
    case core::LockImpl::kCbl: return std::make_unique<CblMutex>(alloc);
    case core::LockImpl::kTts: return std::make_unique<TtsMutex>(alloc, false);
    case core::LockImpl::kTtsBackoff: return std::make_unique<TtsMutex>(alloc, true);
    case core::LockImpl::kTicket: return std::make_unique<TicketMutex>(alloc);
    case core::LockImpl::kMcs: return std::make_unique<McsMutex>(alloc, n_nodes);
  }
  throw std::invalid_argument("make_mutex: unknown lock implementation");
}

}  // namespace bcsim::sync
