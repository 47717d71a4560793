// Direct unit tests for cache::WriteBuffer — the pending-write counter
// behind buffered consistency and the retire-count watermark that
// implements FLUSH-BUFFER's ordering guarantee (paper section 4.2): its
// accounting, its capacity, its edge cases (the retire underflow guard, a
// bounded buffer that refills at once), and the two injectable faults the
// differential oracle uses (docs/TESTING.md, "Differential testing").
// Parking and waking a processor on the buffer is the cache controller's
// job; tests/test_consistency.cpp covers it.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "cache/write_buffer.hpp"

namespace bcsim {
namespace {

using cache::WriteBuffer;

TEST(WriteBuffer, EmptyBufferIsFlushedAtOnce) {
  WriteBuffer wb;
  EXPECT_TRUE(wb.flushed(wb.flush_mark()));
}

TEST(WriteBuffer, PendingCountTracksEnterRetire) {
  WriteBuffer wb;
  EXPECT_TRUE(wb.empty());
  wb.enter();
  wb.enter();
  EXPECT_EQ(wb.pending(), 2u);
  wb.retire();
  EXPECT_EQ(wb.pending(), 1u);
  wb.retire();
  EXPECT_TRUE(wb.empty());
}

TEST(WriteBuffer, TxnIdsAreUnique) {
  WriteBuffer wb;
  EXPECT_NE(wb.enter(), wb.enter());
}

TEST(WriteBuffer, RetireWithoutEntryThrows) {
  WriteBuffer wb;
  EXPECT_THROW(wb.retire(), std::logic_error);
  wb.enter();
  wb.retire();
  // The retire counter must guard the boundary on every revolution, not
  // just the first: an ack with no matching entry is always a bug.
  EXPECT_THROW(wb.retire(), std::logic_error);
}

TEST(WriteBuffer, FullOnlyAtCapacity) {
  WriteBuffer wb(2);
  EXPECT_FALSE(wb.unbounded());
  wb.enter();
  EXPECT_FALSE(wb.full());
  wb.enter();
  EXPECT_TRUE(wb.full()) << "a third write must wait for a slot";
  wb.retire();
  EXPECT_FALSE(wb.full()) << "a retire frees a slot";

  WriteBuffer unbounded;
  for (int i = 0; i < 1000; ++i) unbounded.enter();
  EXPECT_TRUE(unbounded.unbounded());
  EXPECT_FALSE(unbounded.full());
}

TEST(WriteBuffer, WatermarkCoversOnlyPrecedingWrites) {
  WriteBuffer wb;
  wb.enter();
  wb.enter();
  const std::uint64_t mark = wb.flush_mark();
  // A write entered *after* the flush issued must not delay it.
  wb.enter();
  wb.retire();
  EXPECT_FALSE(wb.flushed(mark)) << "flushed with a preceding write still pending";
  wb.retire();
  EXPECT_TRUE(wb.flushed(mark)) << "both preceding writes have retired";
  EXPECT_EQ(wb.pending(), 1u);  // the late write is still in flight
}

// The starvation scenario an empty-buffer gate gets wrong: a bounded
// buffer whose freed slots refill at once from a backlogged writer is
// never empty, yet the flush covers only the writes that preceded it.
TEST(WriteBuffer, RefillingSlotsDoNotStarveTheFlush) {
  WriteBuffer wb(2);
  wb.enter();
  wb.enter();
  const std::uint64_t mark = wb.flush_mark();
  wb.retire();
  wb.enter();  // the backlogged writer takes the freed slot
  EXPECT_FALSE(wb.flushed(mark));  // only 1 of the 2 preceding writes retired
  wb.retire();
  wb.enter();
  EXPECT_TRUE(wb.flushed(mark))
      << "flush starved: the refills keep the buffer full, but every write "
         "preceding the flush has retired";
  EXPECT_TRUE(wb.full());
}

// Fault kEagerFlush (the differential oracle's injected reordering bug):
// the gate disappears entirely — a flush is done with writes in flight.
TEST(WriteBuffer, EagerFlushFaultRemovesTheGate) {
  WriteBuffer wb(0, WriteBuffer::Fault::kEagerFlush);
  wb.enter();
  EXPECT_TRUE(wb.flushed(wb.flush_mark())) << "kEagerFlush must not wait";
  EXPECT_EQ(wb.pending(), 1u);
}

// Fault kEmptyGate (the pre-watermark bug): the flush waits for a fully
// empty buffer, so a write entered after the flush delays it — exactly
// the starvation the watermark fix removed.
TEST(WriteBuffer, EmptyGateFaultWaitsForAFullyEmptyBuffer) {
  WriteBuffer wb(0, WriteBuffer::Fault::kEmptyGate);
  wb.enter();
  const std::uint64_t mark = wb.flush_mark();
  wb.enter();  // entered after the flush — must not matter, but does here
  wb.retire();
  EXPECT_FALSE(wb.flushed(mark)) << "empty-gate bug: pending == 1, so the gate holds";
  wb.retire();
  EXPECT_TRUE(wb.flushed(mark));
}

// pending() and the underflow guard are unaffected by a fault.
TEST(WriteBuffer, FaultsDoNotCorruptAccounting) {
  WriteBuffer wb(0, WriteBuffer::Fault::kEagerFlush);
  wb.enter();
  wb.enter();
  EXPECT_EQ(wb.pending(), 2u);
  wb.retire();
  wb.retire();
  EXPECT_TRUE(wb.empty());
  EXPECT_THROW(wb.retire(), std::logic_error);
}

}  // namespace
}  // namespace bcsim
