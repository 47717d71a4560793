// Write buffer: the hardware behind buffered consistency (paper section 4.2).
//
// WRITE-GLOBAL requests are entered here and sent to memory immediately
// (the network model handles queuing); an entry is retired when the
// acknowledgment from the home memory arrives. The number of pending
// entries implicitly implements the Adve-Hill pending-operation counter
// (paper section 3, issue 2).
//
// Flush semantics (paper section 4.2): FLUSH-BUFFER only guarantees that
// global writes issued *before* it are performed; writes issued after may
// still be in flight. The gate is therefore a retire-count watermark taken
// when the flush issues (flush_mark), not an empty-buffer test: under a
// bounded buffer, a slot freed by a retire immediately refills from a
// backlogged writer, so `pending == 0` may never hold and an empty-buffer
// gate would starve the flush (and with it the CP-Synch it protects)
// indefinitely.
//
// Capacity may be bounded (a real machine) or unbounded (the paper's
// simulation assumption). The buffer parks nothing: the one processor that
// can wait on it (for a slot while full(), or for flushed(mark)) keeps that
// wait in its outstanding-operation record, and the cache controller wakes
// it when the acknowledgment that retires an entry arrives.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "sim/types.hpp"

namespace bcsim::cache {

class WriteBuffer {
 public:
  /// Deliberate misbehaviors of the flush gate for oracle validation,
  /// armed by a fault plan's `wb:fault=` rule (docs/TESTING.md).
  enum class Fault : std::uint8_t {
    kNone,
    kEagerFlush,  ///< every flush is flushed at once: the gate is removed
    kEmptyGate,   ///< a flush waits for a fully empty buffer (pre-fix bug)
  };

  /// `capacity` 0 means unbounded (paper Table 4 assumption).
  explicit WriteBuffer(std::size_t capacity = 0, Fault fault = Fault::kNone)
      : capacity_(capacity), fault_(fault) {}

  [[nodiscard]] bool unbounded() const noexcept { return capacity_ == 0; }
  [[nodiscard]] std::size_t pending() const noexcept {
    return static_cast<std::size_t>(entered_ - retired_);
  }
  [[nodiscard]] bool empty() const noexcept { return entered_ == retired_; }
  [[nodiscard]] bool full() const noexcept {
    return capacity_ != 0 && pending() >= capacity_;
  }

  /// Registers a new in-flight global write; returns its transaction id.
  std::uint64_t enter() {
    ++entered_;
    return next_txn_++;
  }

  /// Retires the entry matching an acknowledgment.
  void retire() {
    if (retired_ == entered_) {
      throw std::logic_error("WriteBuffer::retire: ack without a matching entry");
    }
    ++retired_;
  }

  /// The watermark of a FLUSH-BUFFER issued now: every write entered
  /// before it. Writes entered afterwards do not delay it — the paper's
  /// FLUSH-BUFFER orders a CP-Synch after the writes that precede it,
  /// nothing more.
  [[nodiscard]] std::uint64_t flush_mark() const noexcept {
    if (fault_ == Fault::kEagerFlush) return 0;
    if (fault_ == Fault::kEmptyGate) return kEmptyMark;
    return entered_;
  }

  /// True once the writes a flush with watermark `mark` waits for have
  /// retired. kEmptyMark (the injected empty-gate bug) holds only on a
  /// fully drained buffer.
  [[nodiscard]] bool flushed(std::uint64_t mark) const noexcept {
    return mark == kEmptyMark ? empty() : mark <= retired_;
  }

 private:
  static constexpr std::uint64_t kEmptyMark = ~std::uint64_t{0};

  std::size_t capacity_;
  Fault fault_;
  std::uint64_t entered_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t next_txn_ = 1;
};

}  // namespace bcsim::cache
