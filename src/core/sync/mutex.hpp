// Mutual exclusion abstractions over the machine's primitives.
//
// One Mutex object represents one lock variable shared by all processors;
// each implementation allocates its own words from the experiment's
// AddressAllocator. acquire()/release() are coroutines: workloads write
//
//   co_await mtx.acquire(p);
//   ... critical section ...
//   co_await mtx.release(p);
//
// Release is a CP-Synch operation in the paper's model: every
// implementation flushes the write buffer before making the release
// visible, so writes inside the critical section are globally performed
// before the lock moves on. Acquire is NP-Synch and never flushes.
#pragma once

#include <memory>

#include "core/config.hpp"
#include "core/machine.hpp"
#include "core/processor.hpp"
#include "sim/task.hpp"

namespace bcsim::sync {

class Mutex {
 public:
  virtual ~Mutex() = default;
  virtual sim::Task acquire(core::Processor& p) = 0;
  /// Shared acquisition: holders may be inside together, a writer waits
  /// for all of them. Only the CBL lock has a shared mode (READ-LOCK); a
  /// software lock takes the lock exclusively. release() ends either mode.
  virtual sim::Task acquire_shared(core::Processor& p) { return acquire(p); }
  virtual sim::Task release(core::Processor& p) = 0;

  /// Base address of the lock's block. For the CBL lock, words 1..k-1 of
  /// this block travel with the grant, so small protected data colocated
  /// here is delivered by the lock acquisition itself.
  [[nodiscard]] virtual Addr lock_addr() const = 0;
  /// True when acquiring the lock also delivers the lock block's data.
  [[nodiscard]] virtual bool data_rides_lock() const { return false; }
};

/// CBL: the paper's cache-based queued lock, exclusive (WRITE-LOCK) or
/// shared (READ-LOCK). Readers sharing the lock receive the lock block's
/// data with the grant and may read it locally; a writer's modifications
/// travel with the lock.
class CblMutex final : public Mutex {
 public:
  explicit CblMutex(core::AddressAllocator& alloc) : addr_(alloc.alloc_blocks(1)) {}
  sim::Task acquire(core::Processor& p) override;
  sim::Task acquire_shared(core::Processor& p) override;
  sim::Task release(core::Processor& p) override;
  [[nodiscard]] Addr lock_addr() const override { return addr_; }
  [[nodiscard]] bool data_rides_lock() const override { return true; }

 private:
  Addr addr_;
};

/// Test-and-test&set: spin on the cached copy, attempt with an atomic RMW.
/// With `backoff`, failed attempts wait a capped, randomized,
/// exponentially-growing delay (the paper's "Q-backoff" variant).
class TtsMutex final : public Mutex {
 public:
  TtsMutex(core::AddressAllocator& alloc, bool backoff,
           Tick backoff_cap = kDefaultBackoffCap)
      : addr_(alloc.alloc_blocks(1)), backoff_(backoff), backoff_cap_(backoff_cap) {}
  sim::Task acquire(core::Processor& p) override;
  sim::Task release(core::Processor& p) override;
  [[nodiscard]] Addr lock_addr() const override { return addr_; }

  static constexpr Tick kDefaultBackoffCap = 1024;

 private:
  Addr addr_;
  bool backoff_;
  Tick backoff_cap_;
};

/// Ticket lock: fetch&add a ticket, spin until now-serving reaches it.
/// Ticket and now-serving words live in separate blocks so the grant write
/// does not collide with ticket draws.
class TicketMutex final : public Mutex {
 public:
  explicit TicketMutex(core::AddressAllocator& alloc)
      : ticket_(alloc.alloc_blocks(1)), serving_(alloc.alloc_blocks(1)) {}
  sim::Task acquire(core::Processor& p) override;
  sim::Task release(core::Processor& p) override;
  [[nodiscard]] Addr lock_addr() const override { return ticket_; }

 private:
  Addr ticket_;
  Addr serving_;
};

/// MCS list lock: the classic software queue lock, included as the modern
/// baseline the paper's CBL anticipates. Each node's queue record lives in
/// its own block (one block per node) to avoid false sharing; the lock
/// word holds the queue tail (node id + 1, 0 = free).
class McsMutex final : public Mutex {
 public:
  McsMutex(core::AddressAllocator& alloc, std::uint32_t n_nodes);
  sim::Task acquire(core::Processor& p) override;
  sim::Task release(core::Processor& p) override;
  [[nodiscard]] Addr lock_addr() const override { return tail_; }

 private:
  [[nodiscard]] Addr qnode_next(NodeId i) const { return qnodes_ + i * stride_; }
  [[nodiscard]] Addr qnode_locked(NodeId i) const { return qnodes_ + i * stride_ + 1; }

  Addr tail_;
  Addr qnodes_;
  std::uint32_t stride_;
};

/// Creates the mutex implementation selected by `impl`.
std::unique_ptr<Mutex> make_mutex(core::LockImpl impl, core::AddressAllocator& alloc,
                                  std::uint32_t n_nodes);

}  // namespace bcsim::sync
