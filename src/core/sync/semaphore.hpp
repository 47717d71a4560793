// Counting semaphore built from a mutex-protected counter.
//
// The paper classifies P as NP-Synch and V as CP-Synch; that falls out of
// the construction: P acquires without flushing, V's mutex release flushes
// the write buffer. This is a demonstration of building higher-level
// synchronization from the machine's primitives, not a tuned algorithm.
#pragma once

#include <memory>

#include "core/machine.hpp"
#include "core/processor.hpp"
#include "core/sync/mutex.hpp"
#include "sim/task.hpp"

namespace bcsim::sync {

class CountingSemaphore {
 public:
  CountingSemaphore(core::LockImpl impl, core::AddressAllocator& alloc,
                    std::uint32_t n_nodes, Word initial)
      : mutex_(make_mutex(impl, alloc, n_nodes)),
        count_(alloc.alloc_blocks(1)),
        initial_(initial) {}

  /// One-time initialization by any single processor before concurrent use.
  sim::Task init(core::Processor& p) {
    if (p.config().data_protocol == core::DataProtocol::kReadUpdate) {
      co_await p.write_global(count_, initial_);
      co_await p.flush_buffer();
    } else {
      co_await p.write(count_, initial_);
    }
  }

  /// P / wait: decrements when the count is positive; retries with a small
  /// randomized backoff otherwise.
  sim::Task p_op(core::Processor& p) {
    unsigned attempt = 0;
    for (;;) {
      co_await mutex_->acquire(p);
      const Word c = co_await read(p);
      if (c > 0) {
        co_await write(p, c - 1);
        co_await mutex_->release(p);
        co_return;
      }
      co_await mutex_->release(p);
      ++attempt;
      co_await p.compute(1 + p.rng().backoff(attempt + 2, 256));
    }
  }

  /// V / signal.
  sim::Task v_op(core::Processor& p) {
    co_await mutex_->acquire(p);
    const Word c = co_await read(p);
    co_await write(p, c + 1);
    co_await mutex_->release(p);
  }

  /// Address of the count word (tests and the differential oracle peek the
  /// final count; Word is unsigned, so an underflow past P's `c > 0` guard
  /// would show up as a huge value here).
  [[nodiscard]] Addr count_addr() const noexcept { return count_; }

 private:
  core::OpAwaiter read(core::Processor& p) {
    return p.config().data_protocol == core::DataProtocol::kReadUpdate
               ? p.read_global(count_)
               : p.read(count_);
  }
  core::OpAwaiter write(core::Processor& p, Word v) {
    return p.config().data_protocol == core::DataProtocol::kReadUpdate
               ? p.write_global(count_, v)
               : p.write(count_, v);
  }

  std::unique_ptr<Mutex> mutex_;
  Addr count_;
  Word initial_;
};

}  // namespace bcsim::sync
