// Buffered vs sequential consistency semantics: write-buffer behavior,
// FLUSH-BUFFER, CP-Synch ordering, and the performance relation BC <= SC.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "test_util.hpp"

namespace bcsim {
namespace {

using core::Consistency;
using core::Machine;
using core::Processor;
using test::paper_config;
using test::run_all;

TEST(Consistency, BcWriteGlobalReturnsImmediately) {
  Machine m(paper_config(4));
  Tick write_cost = 0;
  std::size_t pending_after = 0;
  auto prog = [&](Processor& p) -> sim::Task {
    const Tick t0 = p.simulator().now();
    co_await p.write_global(200, 1);
    write_cost = p.simulator().now() - t0;
    pending_after = p.cache().write_buffer().pending();
    co_await p.flush_buffer();
  };
  m.spawn(prog(m.processor(0)));
  run_all(m);
  EXPECT_EQ(write_cost, 1u) << "BC: the write buffer absorbs the write";
  EXPECT_EQ(pending_after, 1u);
}

TEST(Consistency, ScWriteGlobalStalls) {
  auto cfg = paper_config(4);
  cfg.consistency = Consistency::kSequential;
  Machine m(cfg);
  Tick write_cost = 0;
  auto prog = [&](Processor& p) -> sim::Task {
    const Tick t0 = p.simulator().now();
    co_await p.write_global(200, 1);
    write_cost = p.simulator().now() - t0;
  };
  m.spawn(prog(m.processor(0)));
  run_all(m);
  EXPECT_GT(write_cost, 4u) << "SC: the processor waits for the global ack";
}

TEST(Consistency, FlushWaitsForAllPendingWrites) {
  Machine m(paper_config(4));
  Tick flush_cost = 0;
  auto prog = [&](Processor& p) -> sim::Task {
    for (Addr a = 0; a < 12; ++a) {
      co_await p.write_global(300 + a * 4, a);  // different home modules
    }
    const Tick t0 = p.simulator().now();
    co_await p.flush_buffer();
    flush_cost = p.simulator().now() - t0;
    EXPECT_TRUE(p.cache().write_buffer().empty());
  };
  m.spawn(prog(m.processor(0)));
  run_all(m);
  EXPECT_GT(flush_cost, 1u) << "flush must wait out the in-flight writes";
  for (Addr a = 0; a < 12; ++a) EXPECT_EQ(m.peek_memory(300 + a * 4), a);
}

TEST(Consistency, FlushOnEmptyBufferIsCheap) {
  Machine m(paper_config(2));
  Tick cost = 0;
  auto prog = [&](Processor& p) -> sim::Task {
    const Tick t0 = p.simulator().now();
    co_await p.flush_buffer();
    cost = p.simulator().now() - t0;
  };
  m.spawn(prog(m.processor(0)));
  run_all(m);
  EXPECT_LE(cost, 1u);
}

// Eight WRITE-GLOBALs, then FLUSH-BUFFER, on a buffer of depth 1 and 2:
// every write after the first `depth` waits for a slot, and the flush
// waits for the last ones. No tests/pins.txt line sets the buffer depth,
// so each depth pins its completion tick, stats digest and data digest.
TEST(Consistency, BoundedWriteBufferAppliesBackpressure) {
  struct Pin {
    Tick completion;
    std::uint64_t digest;
    std::uint64_t data;
  };
  const Pin pins[] = {
      {81, 0xbe4139bf04c64764, 0x10751a8624b4db25},  // depth 1
      {48, 0xbe4139bf04c64764, 0x10751a8624b4db25},  // depth 2
  };
  for (std::size_t depth : {1u, 2u}) {
    SCOPED_TRACE(depth);
    auto cfg = paper_config(2);
    cfg.write_buffer_entries = depth;
    Machine m(cfg);
    Tick burst_cost = 0;
    auto prog = [&](Processor& p) -> sim::Task {
      const Tick t0 = p.simulator().now();
      for (int i = 0; i < 8; ++i) {
        co_await p.write_global(400 + static_cast<Addr>(i) * 4, 1);
      }
      burst_cost = p.simulator().now() - t0;
      co_await p.flush_buffer();
    };
    m.spawn(prog(m.processor(0)));
    const Tick done = run_all(m);
    EXPECT_GT(burst_cost, 8u) << "a full buffer must stall further writes";
    EXPECT_EQ(done, pins[depth - 1].completion);
    EXPECT_EQ(m.stats_digest(), pins[depth - 1].digest);
    EXPECT_EQ(m.data_digest(), pins[depth - 1].data);
  }
}

TEST(Consistency, CpSynchOrdersWritesBeforeLockRelease) {
  // Writer: update data (global write), then release the lock. Reader:
  // acquire the lock, then read the data with READ-GLOBAL. The CP-Synch
  // flush inside release() must make the data write visible first.
  Machine m(paper_config(4));
  const Addr lock = 16;
  const Addr data = 64;  // different block, different home
  Word reader_saw = 1234;
  auto writer = [&](Processor& p) -> sim::Task {
    co_await p.write_lock(lock);
    co_await p.write_global(data, 42);
    // CP-Synch discipline: flush before the unlock.
    co_await p.flush_buffer();
    co_await p.unlock(lock);
  };
  auto reader = [&](Processor& p) -> sim::Task {
    co_await p.compute(30);
    co_await p.write_lock(lock);
    reader_saw = co_await p.read_global(data);
    co_await p.unlock(lock);
  };
  m.spawn(writer(m.processor(0)));
  m.spawn(reader(m.processor(1)));
  run_all(m);
  EXPECT_EQ(reader_saw, 42u);
}

TEST(Consistency, BcNeverSlowerThanScOnWriteHeavyPhase) {
  // Same deterministic program under both models; BC must finish no later.
  auto run_model = [&](Consistency c) {
    auto cfg = paper_config(4);
    cfg.consistency = c;
    Machine m(cfg);
    auto prog = [](Processor& p) -> sim::Task {
      for (int i = 0; i < 50; ++i) {
        co_await p.write_global(static_cast<Addr>(512 + i * 4), i);
        co_await p.compute(2);
      }
      co_await p.flush_buffer();
    };
    // Keep the coroutine alive through run: spawn directly.
    m.spawn(prog(m.processor(0)));
    return m.run(20'000'000);
  };
  const Tick bc = run_model(Consistency::kBuffered);
  const Tick sc = run_model(Consistency::kSequential);
  EXPECT_LT(bc, sc) << "buffering must overlap write latency with compute";
}

TEST(Consistency, PendingCounterMatchesAdveHillSemantics) {
  // The write buffer's pending count is the paper's implicit Adve-Hill
  // counter: it rises with issues, falls with global completions.
  Machine m(paper_config(2));
  std::vector<std::size_t> counts;
  auto prog = [&](Processor& p) -> sim::Task {
    counts.push_back(p.cache().write_buffer().pending());
    co_await p.write_global(600, 1);
    counts.push_back(p.cache().write_buffer().pending());
    co_await p.write_global(604, 2);
    counts.push_back(p.cache().write_buffer().pending());
    co_await p.flush_buffer();
    counts.push_back(p.cache().write_buffer().pending());
  };
  m.spawn(prog(m.processor(0)));
  run_all(m);
  EXPECT_EQ(counts, (std::vector<std::size_t>{0, 1, 2, 0}));
}

}  // namespace
}  // namespace bcsim
