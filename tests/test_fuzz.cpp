// Fuzz tests: randomly generated (but well-formed) programs across many
// seeds must always terminate, quiesce, and reproduce deterministically on
// both machines. Every fuzz run doubles as an invariant-checker workout:
// random programs execute under (program_seed, schedule_seed) pairs with
// full invariant checking, so both the program space and the same-tick
// event orderings get explored together (docs/TESTING.md). Plus exhaustive
// two-processor interleaving sweeps for the lock protocol — every
// (stagger_a, stagger_b) offset pair in a window.
#include <gtest/gtest.h>

#include <vector>

#include "net/transport.hpp"
#include "sim/fault_plan.hpp"
#include "sim/invariants.hpp"
#include "test_util.hpp"

namespace bcsim {
namespace {

using core::Machine;
using core::MachineConfig;
using core::Processor;
using test::paper_config;
using test::run_all;
using test::small_config;

// ---------------------------------------------------------------------------
// Random well-formed program generator. Locks are acquired and released in
// LIFO order (hierarchical: deadlock-free); every program ends with a
// flush. The generator consumes only its own RNG, so a (seed, machine)
// pair defines the run exactly.
// ---------------------------------------------------------------------------
struct FuzzProgram {
  std::vector<Addr> locks;  // block-aligned lock addresses, global order
  int steps;
  bool ru_machine;

  sim::Task operator()(Processor& p) const {
    auto& rng = p.rng();
    std::vector<std::size_t> held;  // indices into locks, ascending
    for (int s = 0; s < steps; ++s) {
      const double dice = rng.next_double();
      if (dice < 0.25) {
        // Acquire the next lock in the global order (hierarchical).
        const std::size_t next = held.empty() ? rng.next_below(2) : held.back() + 1;
        if (next < locks.size() && held.size() < 2) {
          co_await p.write_lock(locks[next]);
          held.push_back(next);
        } else {
          co_await p.compute(3);
        }
      } else if (dice < 0.45) {
        if (!held.empty()) {
          // Write into the held lock's block, then release (LIFO).
          const Addr a = locks[held.back()] + 1 + rng.next_below(2);
          const Word v = co_await p.read(a);
          co_await p.write(a, v + 1);
          co_await p.unlock(locks[held.back()]);
          held.pop_back();
        } else {
          co_await p.compute(2);
        }
      } else if (dice < 0.65) {
        const Addr a = 256 + rng.next_below(64);
        if (ru_machine) {
          if (rng.chance(0.5)) {
            co_await p.write_global(a, rng.next_u64());
          } else {
            co_await p.read_update(a);
          }
        } else {
          if (rng.chance(0.5)) {
            co_await p.write(a, rng.next_u64());
          } else {
            co_await p.read(a);
          }
        }
      } else if (dice < 0.75) {
        if (ru_machine && rng.chance(0.5)) {
          co_await p.reset_update(256 + rng.next_below(64));
        } else {
          co_await p.fetch_add(512 + rng.next_below(8), 1);
        }
      } else if (dice < 0.85) {
        co_await p.flush_buffer();
      } else {
        co_await p.compute(1 + rng.next_below(15));
      }
    }
    // Wind down: release everything, drain the buffer.
    while (!held.empty()) {
      co_await p.unlock(locks[held.back()]);
      held.pop_back();
    }
    co_await p.flush_buffer();
  }
};

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, RandomProgramsQuiesceOnBothMachines) {
  for (bool paper : {true, false}) {
    auto cfg = paper ? paper_config(6) : small_config(6);
    cfg.network = core::NetworkKind::kOmega;
    cfg.seed = GetParam();
    cfg.lock_cache_entries = 4;
    if (!paper) cfg.lock_impl = core::LockImpl::kCbl;  // CBL works on WBI too
    Machine m(cfg);
    FuzzProgram prog{{0, 16, 32}, 120, paper};
    for (NodeId i = 0; i < 6; ++i) m.spawn(prog(m.processor(i)));
    run_all(m);  // asserts all_done + quiescent
  }
}

TEST_P(FuzzSeeds, RandomProgramsAreDeterministic) {
  auto run_once = [&] {
    auto cfg = paper_config(4);
    cfg.network = core::NetworkKind::kOmega;
    cfg.seed = GetParam();
    Machine m(cfg);
    FuzzProgram prog{{0, 16}, 80, true};
    for (NodeId i = 0; i < 4; ++i) m.spawn(prog(m.processor(i)));
    const Tick t = m.run(100'000'000);
    return std::pair{t, m.stats().counter_value("net.messages")};
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Range<std::uint64_t>(1, 17));

// ---------------------------------------------------------------------------
// (program_seed, schedule_seed) pairs: the program generator picks what the
// processors do; the schedule seed picks how same-tick events interleave.
// Crossing the two explores far more protocol corners than either axis
// alone, and full invariant checking turns every run into an oracle.
// ---------------------------------------------------------------------------

void run_fuzz_pair(std::uint64_t program_seed, std::uint64_t schedule_seed) {
  for (bool paper : {true, false}) {
    auto cfg = paper ? paper_config(5) : small_config(5);
    cfg.network = core::NetworkKind::kOmega;
    cfg.seed = program_seed;
    cfg.schedule_seed = schedule_seed;
    cfg.invariants = sim::InvariantLevel::kFull;
    cfg.lock_cache_entries = 4;
    if (!paper) cfg.lock_impl = core::LockImpl::kCbl;
    Machine m(cfg);
    FuzzProgram prog{{0, 16, 32}, 90, paper};
    for (NodeId i = 0; i < 5; ++i) m.spawn(prog(m.processor(i)));
    SCOPED_TRACE(::testing::Message()
                 << (paper ? "paper" : "wbi") << " program_seed=" << program_seed
                 << " schedule_seed=" << schedule_seed);
    run_all(m);  // any invariant violation throws out of Machine::run
  }
}

class FuzzPairs
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t>> {};

TEST_P(FuzzPairs, RandomProgramsHoldInvariantsUnderRandomSchedules) {
  run_fuzz_pair(std::get<0>(GetParam()), std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Grid, FuzzPairs,
                         ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 5, 11),
                                            ::testing::Values<std::uint64_t>(0, 1, 7, 23)));

// ---------------------------------------------------------------------------
// Fault-plan axis: the same random programs on an unreliable fabric. A
// mixed plan (drops, duplicates, delays) is armed with a distinct lottery
// seed per cell; the transport's seq/dedup/retry machinery must mask every
// injected fault — programs still terminate, the protocols still quiesce,
// invariants still hold, and no message is ever given up on. The liveness
// watchdog is on so a protocol hole shows up as a diagnosis, not a timeout.
// ---------------------------------------------------------------------------

void run_fuzz_faulted(std::uint64_t program_seed, std::uint64_t fault_seed) {
  const sim::FaultPlan plan = sim::FaultPlan::parse(
      "drop:p=0.03;dup:p=0.03;delay:p=0.05,ticks=48;seed=" + std::to_string(fault_seed));
  for (bool paper : {true, false}) {
    auto cfg = paper ? paper_config(5) : small_config(5);
    cfg.network = core::NetworkKind::kOmega;
    cfg.seed = program_seed;
    cfg.schedule_seed = fault_seed;
    cfg.invariants = sim::InvariantLevel::kFull;
    cfg.lock_cache_entries = 4;
    cfg.watchdog_interval = 4096;
    if (!paper) cfg.lock_impl = core::LockImpl::kCbl;
    cfg.fault_plan = plan;
    Machine m(cfg);
    FuzzProgram prog{{0, 16, 32}, 90, paper};
    for (NodeId i = 0; i < 5; ++i) m.spawn(prog(m.processor(i)));
    SCOPED_TRACE(::testing::Message()
                 << (paper ? "paper" : "wbi") << " program_seed=" << program_seed
                 << " fault_seed=" << fault_seed);
    run_all(m);  // asserts all_done + quiescent
    ASSERT_NE(m.network().transport(), nullptr);
    EXPECT_TRUE(m.network().transport()->idle());
    EXPECT_TRUE(m.network().transport()->given_up().empty());
  }
}

class FuzzFaultSeeds
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t>> {};

TEST_P(FuzzFaultSeeds, InjectedFaultsStayMaskedUnderRandomPrograms) {
  run_fuzz_faulted(std::get<0>(GetParam()), std::get<1>(GetParam()));
}

TEST_P(FuzzFaultSeeds, FaultedRunsAreDeterministic) {
  const sim::FaultPlan plan = sim::FaultPlan::parse(
      "drop:p=0.03;dup:p=0.03;delay:p=0.05,ticks=48;seed=" +
      std::to_string(std::get<1>(GetParam())));
  auto run_once = [&] {
    auto cfg = paper_config(4);
    cfg.network = core::NetworkKind::kOmega;
    cfg.seed = std::get<0>(GetParam());
    cfg.watchdog_interval = 4096;
    cfg.fault_plan = plan;
    Machine m(cfg);
    FuzzProgram prog{{0, 16}, 80, true};
    for (NodeId i = 0; i < 4; ++i) m.spawn(prog(m.processor(i)));
    const Tick t = m.run(100'000'000);
    return std::tuple{t, m.stats().counter_value("net.messages"),
                      m.stats().counter_value("net.retransmit")};
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(Grid, FuzzFaultSeeds,
                         ::testing::Combine(::testing::Values<std::uint64_t>(1, 5, 11),
                                            ::testing::Values<std::uint64_t>(0, 2, 9, 31)));

// Regression corpus: (program_seed, schedule_seed) pairs that once exposed
// bugs or stressed rare transitions. Grown over time — when `bcsim check`
// or a fuzz sweep finds a failing pair, it gets pinned here so the exact
// interleaving replays on every tier-1 run.
struct CorpusEntry {
  std::uint64_t program_seed;
  std::uint64_t schedule_seed;
  const char* why;
};

constexpr CorpusEntry kRegressionCorpus[] = {
    // Found while bringing up Network::send_at: a directory DataS reply and
    // a later same-tick invalidation swapped on the wire, leaving a cached
    // sharer missing from the directory's sharer set (wbi-sharers).
    {3, 3, "DataS/Inv same-tick send reorder at the directory"},
    // Lock-chain handoff with the releaser re-requesting before its unlock
    // notification lands: the chain transiently names the node twice.
    {1, 14, "CBL re-request while handoff-done notify in flight"},
    // Heavy reset_update traffic against a propagating update wave.
    {9, 5, "RESET-UPDATE racing update propagation down the chain"},
    // Seed 0 baseline: the corpus must also cover plain FIFO order.
    {7, 0, "FIFO baseline with three-level lock hierarchy"},
};

TEST(FuzzCorpus, PinnedSeedPairsStayClean) {
  for (const auto& c : kRegressionCorpus) {
    SCOPED_TRACE(c.why);
    run_fuzz_pair(c.program_seed, c.schedule_seed);
  }
}

// ---------------------------------------------------------------------------
// Exhaustive two-processor interleaving sweep: every (a, b) stagger pair in
// a 20x20 window around a lock handoff. Covers the enqueue/release/drain
// races at single-cycle resolution.
// ---------------------------------------------------------------------------
TEST(Exhaustive, TwoProcessorLockOffsets) {
  int checked = 0;
  for (Tick a = 0; a < 20; ++a) {
    for (Tick b = 0; b < 20; ++b) {
      Machine m(paper_config(2));
      const Addr lock = 16;
      struct Prog {
        Addr lock;
        Tick delay;
        sim::Task operator()(Processor& p) const {
          co_await p.compute(delay);
          for (int k = 0; k < 2; ++k) {
            co_await p.write_lock(lock);
            const Word v = co_await p.read(lock + 1);
            co_await p.write(lock + 1, v + 1);
            co_await p.unlock(lock);
          }
        }
      };
      Prog pa{lock, a}, pb{lock, b};
      m.spawn(pa(m.processor(0)));
      m.spawn(pb(m.processor(1)));
      m.run(10'000'000);
      if (m.peek_memory(lock + 1) == 4u && m.all_done() && m.quiescent()) {
        ++checked;
      } else {
        ADD_FAILURE() << "offsets (" << a << "," << b << "): counter "
                      << m.peek_memory(lock + 1);
      }
    }
  }
  EXPECT_EQ(checked, 400);
}

// Same exhaustive treatment for reader/writer mixes around a shared lock.
TEST(Exhaustive, ReaderWriterOffsets) {
  for (Tick a = 0; a < 12; ++a) {
    for (Tick b = 0; b < 12; ++b) {
      Machine m(paper_config(3));
      const Addr lock = 16;
      bool violation = false;
      int writers_in = 0, readers_in = 0;
      struct Reader {
        Addr lock;
        Tick delay;
        bool& violation;
        int& writers_in;
        int& readers_in;
        sim::Task operator()(Processor& p) const {
          co_await p.compute(delay);
          co_await p.read_lock(lock);
          ++readers_in;
          violation = violation || writers_in != 0;
          co_await p.compute(10);
          --readers_in;
          co_await p.unlock(lock);
        }
      };
      struct Writer {
        Addr lock;
        Tick delay;
        bool& violation;
        int& writers_in;
        int& readers_in;
        sim::Task operator()(Processor& p) const {
          co_await p.compute(delay);
          co_await p.write_lock(lock);
          ++writers_in;
          violation = violation || readers_in != 0 || writers_in != 1;
          co_await p.compute(8);
          --writers_in;
          co_await p.unlock(lock);
        }
      };
      Reader r1{lock, a, violation, writers_in, readers_in};
      Reader r2{lock, b, violation, writers_in, readers_in};
      Writer w{lock, (a + b) / 2, violation, writers_in, readers_in};
      m.spawn(r1(m.processor(0)));
      m.spawn(r2(m.processor(1)));
      m.spawn(w(m.processor(2)));
      m.run(10'000'000);
      EXPECT_TRUE(m.all_done()) << "offsets (" << a << "," << b << ")";
      EXPECT_FALSE(violation) << "offsets (" << a << "," << b << ")";
    }
  }
}

// The paper declares READ-UPDATE and lock use of a block mutually
// exclusive; mixing them is a software error the directory must reject
// loudly rather than corrupt its queue pointer.
TEST(UsageBit, LockAndSubscriptionConflictIsDetected) {
  {
    Machine m(paper_config(2));
    auto prog = [&](Processor& p) -> sim::Task {
      co_await p.write_lock(16);
      co_await p.unlock(16);  // lock chain empty again: block reusable
    };
    m.spawn(prog(m.processor(0)));
    run_all(m);
    // After full release the block may be used for subscriptions again.
    Word v = 0;
    auto sub = [&](Processor& p) -> sim::Task { v = co_await p.read_update(16); };
    m.spawn(sub(m.processor(1)));
    run_all(m);
  }
  {
    Machine m(paper_config(2));
    auto bad = [&](Processor& p) -> sim::Task {
      co_await p.read_update(16);
      co_await p.write_lock(16);  // conflict: subscription list active
    };
    m.spawn(bad(m.processor(0)));
    EXPECT_THROW(m.run(), std::logic_error);
  }
  {
    Machine m(paper_config(2));
    auto hold_and_sub = [&](Processor& p) -> sim::Task {
      co_await p.write_lock(16);
      co_await p.read_update(16);  // conflict: lock queue active
    };
    m.spawn(hold_and_sub(m.processor(0)));
    EXPECT_THROW(m.run(), std::logic_error);
  }
}

}  // namespace
}  // namespace bcsim
