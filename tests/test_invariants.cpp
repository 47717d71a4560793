// The invariant checker itself (docs/TESTING.md): healthy protocol runs
// sail through the strictest level, and injected protocol faults — a lost
// unlock notification, a forged owner, a dropped subscriber — are caught
// with a diagnostic naming the offending block, node, and tick.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/invariants.hpp"
#include "test_util.hpp"

namespace bcsim {
namespace {

using core::Machine;
using core::MachineConfig;
using core::Processor;
using sim::InvariantViolation;

constexpr Addr kLock = 16;

sim::Task lock_worker(Processor& p, int iters) {
  for (int k = 0; k < iters; ++k) {
    co_await p.write_lock(kLock);
    const Word v = co_await p.read(kLock + 1);
    co_await p.write(kLock + 1, v + 1);
    co_await p.unlock(kLock);
  }
}

MachineConfig full(MachineConfig cfg) {
  cfg.invariants = sim::InvariantLevel::kFull;
  return cfg;
}

TEST(Invariants, HealthyLockRunPassesFullChecking) {
  for (const bool paper : {true, false}) {
    auto cfg = full(paper ? test::paper_config(4) : test::small_config(4));
    cfg.lock_impl = core::LockImpl::kCbl;
    Machine m(cfg);
    for (NodeId i = 0; i < cfg.n_nodes; ++i) m.spawn(lock_worker(m.processor(i), 4));
    test::run_all(m);  // end-of-run check runs inside Machine::run
    EXPECT_EQ(m.peek_memory(kLock + 1), 16u);
    EXPECT_NO_THROW(m.check_invariants("test"));
  }
}

TEST(Invariants, HealthySubscriptionRunPassesFullChecking) {
  auto cfg = full(test::paper_config(4));
  Machine m(cfg);
  struct Prog {
    sim::Task operator()(Processor& p) const {
      co_await p.read_update(0);
      for (int k = 0; k < 4; ++k) {
        co_await p.write_global(4 * p.id(), p.id() + k);
        co_await p.flush_buffer();
      }
    }
  } prog;
  for (NodeId i = 0; i < cfg.n_nodes; ++i) m.spawn(prog(m.processor(i)));
  test::run_all(m);
  EXPECT_NO_THROW(m.check_invariants("test"));
}

// A "protocol bug" where a cache releases its lock but the unlock
// notification never reaches the directory: the chain mirror keeps naming a
// node whose lock cache has long dropped the line.
TEST(Invariants, SkippedUnlockNotificationIsCaught) {
  auto cfg = full(test::small_config(4));
  cfg.lock_impl = core::LockImpl::kCbl;
  Machine m(cfg);
  for (NodeId i = 0; i < cfg.n_nodes; ++i) m.spawn(lock_worker(m.processor(i), 2));
  test::run_all(m);

  const BlockId b = m.address_map().block_of(kLock);
  const NodeId home = m.address_map().home_of(b);
  auto& e = m.directory(home).mutable_entry(b);
  // The state a lost unlock notification leaves behind: node 2 still
  // chained as the write holder.
  e.lock_chain.push_back({NodeId{2}, net::LockMode::kWrite});
  e.lock_holders = 1;
  e.usage_lock = true;

  try {
    m.check_invariants("fault-injection");
    FAIL() << "corrupted lock chain not detected";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.block, b);
    EXPECT_EQ(v.node, 2u);
    EXPECT_EQ(v.tick, m.simulator().now());
    EXPECT_NE(std::string(v.what()).find("cbl-"), std::string::npos) << v.what();
    EXPECT_NE(std::string(v.what()).find("block " + std::to_string(b)), std::string::npos)
        << v.what();
  }
}

// A forged WBI owner: the directory believes another node holds the
// modified copy. Single-writer/multiple-reader cross-checking must object.
TEST(Invariants, ForgedOwnerViolatesSwmr) {
  auto cfg = full(test::small_config(4));
  Machine m(cfg);
  struct Prog {
    sim::Task operator()(Processor& p) const {
      co_await p.write(64, 99);  // node 0 takes block 16 modified
    }
  } prog;
  m.spawn(prog(m.processor(0)));
  test::run_all(m);

  const BlockId b = m.address_map().block_of(64);
  const NodeId home = m.address_map().home_of(b);
  auto& e = m.directory(home).mutable_entry(b);
  ASSERT_EQ(e.state, mem::DirState::kModified);
  ASSERT_EQ(e.owner, 0u);
  e.owner = 1;  // forged

  try {
    m.check_invariants("fault-injection");
    FAIL() << "forged owner not detected";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.block, b);
    EXPECT_NE(std::string(v.what()).find("wbi-swmr"), std::string::npos) << v.what();
  }
}

// A dropped subscriber: the directory loses a node from its READ-UPDATE
// list while that cache still carries the update bit — updates would
// silently stop reaching it.
TEST(Invariants, DroppedSubscriberIsCaught) {
  auto cfg = full(test::paper_config(4));
  Machine m(cfg);
  struct Prog {
    sim::Task operator()(Processor& p) const { co_await p.read_update(0); }
  } prog;
  for (NodeId i = 0; i < 3; ++i) m.spawn(prog(m.processor(i)));
  test::run_all(m);

  const BlockId b = m.address_map().block_of(0);
  const NodeId home = m.address_map().home_of(b);
  auto& e = m.directory(home).mutable_entry(b);
  ASSERT_GE(e.ru_list.size(), 2u);
  const NodeId dropped = e.ru_list.back();
  e.ru_list.pop_back();

  try {
    m.check_invariants("fault-injection");
    FAIL() << "dropped subscriber not detected";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.block, b);
    EXPECT_NE(std::string(v.what()).find("ru-"), std::string::npos) << v.what();
    // Either the truncated list's dangling tail pointer or the orphaned
    // subscriber itself is named — both identify the dropped node's fault.
    EXPECT_TRUE(v.node == dropped || v.node == e.ru_list.back()) << v.what();
  }
}

// Entry-local checking (kFull) fires during the run, not only at the end:
// a transition hook observing a corrupted mirror throws from inside the
// event loop and surfaces through Machine::run.
TEST(Invariants, CorruptionMidRunSurfacesThroughRun) {
  auto cfg = full(test::small_config(4));
  cfg.lock_impl = core::LockImpl::kCbl;
  Machine m(cfg);
  for (NodeId i = 0; i < cfg.n_nodes; ++i) m.spawn(lock_worker(m.processor(i), 2));
  m.run_until(5);  // lock requests now in flight
  const BlockId b = m.address_map().block_of(kLock);
  const NodeId home = m.address_map().home_of(b);
  auto& e = m.directory(home).mutable_entry(b);
  e.usage_lock = false;  // lie about the usage bit with a chain pending
  if (e.lock_chain.empty()) {
    GTEST_SKIP() << "no chain formed this early; nothing to corrupt";
  }
  EXPECT_THROW(m.run(1'000'000), InvariantViolation);
}

TEST(Invariants, LevelRoundTrips) {
  EXPECT_EQ(sim::to_string(sim::InvariantLevel::kOff), "off");
  EXPECT_EQ(sim::to_string(sim::InvariantLevel::kQuiesce), "quiesce");
  EXPECT_EQ(sim::to_string(sim::InvariantLevel::kFull), "full");
}

// ---------------------------------------------------------------------------
// Every rule fires: one targeted corruption per invariant name. A rule
// nobody can trigger is a rule that silently rotted; this table is the
// checker's own regression suite, one row per fail() name in
// src/sim/invariants.cpp.
// ---------------------------------------------------------------------------

constexpr Addr kData = 64;  ///< the data block every scenario touches
constexpr Addr kFree = 256;  ///< a block no scenario touches

/// Which healthy quiescent machine the corruption starts from.
enum class Scenario {
  kWbiModified,  ///< node 0 wrote kData: block modified, owner 0
  kWbiShared,    ///< nodes 0 and 1 read kData: block shared by both
  kRuSub,        ///< paper machine, nodes 0-2 subscribed to block 0
  kLockHeld,     ///< node 0 acquired the CBL lock and still holds it
};

/// How the corrupted state is checked: the whole-machine quiescent sweep,
/// or the entry-local hook alone (for rules the quiescence precondition
/// would otherwise shadow, e.g. a blocked queue making the directory
/// non-quiescent before dir-blocked is reached).
enum class CheckVia { kMachine, kEntryLocal };

struct RuleCase {
  const char* rule;         ///< fail() name that must appear in what()
  Scenario scenario;
  CheckVia via = CheckVia::kMachine;
  void (*inject)(core::Machine& m, BlockId b, NodeId home);
};

sim::Task write_once(Processor& p) { co_await p.write(kData, 99); }
sim::Task read_once(Processor& p) { const Word v = co_await p.read(kData); (void)v; }
sim::Task subscribe(Processor& p) { const Word v = co_await p.read_update(0); (void)v; }
sim::Task lock_and_hold(Processor& p) { co_await p.write_lock(kLock); }

core::MachineConfig scenario_config(Scenario s) {
  switch (s) {
    case Scenario::kRuSub:
      return full(test::paper_config(4));
    case Scenario::kLockHeld: {
      auto cfg = full(test::small_config(4));
      cfg.lock_impl = core::LockImpl::kCbl;
      return cfg;
    }
    default: {
      auto cfg = full(test::small_config(4));
      cfg.write_buffer_entries = 1;  // bounded: lets a write wait for a slot
      return cfg;
    }
  }
}

/// Runs the scenario's program on `m` to a healthy quiescent state.
void prepare(core::Machine& m, Scenario s) {
  switch (s) {
    case Scenario::kWbiModified: m.spawn(write_once(m.processor(0))); break;
    case Scenario::kWbiShared:
      m.spawn(read_once(m.processor(0)));
      m.spawn(read_once(m.processor(1)));
      break;
    case Scenario::kRuSub:
      for (NodeId i = 0; i < 3; ++i) m.spawn(subscribe(m.processor(i)));
      break;
    case Scenario::kLockHeld: m.spawn(lock_and_hold(m.processor(0))); break;
  }
  test::run_all(m);
}

BlockId scenario_block(const core::Machine& m, Scenario s) {
  return m.address_map().block_of(s == Scenario::kRuSub ? Addr{0}
                                  : s == Scenario::kLockHeld ? kLock
                                                             : kData);
}

/// Picks a word of node `n`'s copy of `b` that is not locally dirty and
/// perturbs it — the "missed update / lost merge" class of corruption.
void corrupt_clean_word(core::Machine& m, BlockId b, NodeId n) {
  cache::CacheLine* l = m.cache_controller(n).mutable_data_cache().find(b);
  ASSERT_NE(l, nullptr);
  for (std::uint32_t w = 0; w < m.config().block_words; ++w) {
    if (!(l->dirty_mask & (1u << w))) {
      l->data[w] ^= 1;
      return;
    }
  }
  FAIL() << "no clean word to corrupt";
}

const RuleCase kRuleCases[] = {
    {"wbi-sharers", Scenario::kWbiShared, CheckVia::kMachine,
     [](core::Machine& m, BlockId b, NodeId home) {
       auto& e = m.directory(home).mutable_entry(b);
       e.sharers.push_back(e.sharers.front());  // duplicate sharer
     }},
    {"wbi-sharers", Scenario::kWbiShared, CheckVia::kMachine,
     [](core::Machine& m, BlockId b, NodeId home) {
       auto& e = m.directory(home).mutable_entry(b);
       const NodeId s = e.sharers.front();
       e.sharer_word_of(s) &= ~(std::uint64_t{1} << (s % 64));  // listed, not a member
     }},
    {"wbi-sharers", Scenario::kWbiShared, CheckVia::kMachine,
     [](core::Machine& m, BlockId b, NodeId home) {
       auto& e = m.directory(home).mutable_entry(b);
       for (NodeId s = 0; s < m.config().n_nodes; ++s) {
         if (!e.is_sharer(s)) {
           e.sharer_word_of(s) |= std::uint64_t{1} << (s % 64);  // a member, not listed
           return;
         }
       }
       FAIL() << "every node already shares the block";
     }},
    {"wbi-owner", Scenario::kWbiModified, CheckVia::kMachine,
     [](core::Machine& m, BlockId b, NodeId home) {
       m.directory(home).mutable_entry(b).owner = 99;  // not a node
     }},
    {"wbi-swmr", Scenario::kWbiModified, CheckVia::kMachine,
     [](core::Machine& m, BlockId b, NodeId home) {
       m.directory(home).mutable_entry(b).owner = 1;  // forged owner
     }},
    {"wbi-acks", Scenario::kWbiModified, CheckVia::kEntryLocal,
     [](core::Machine& m, BlockId b, NodeId home) {
       m.directory(home).mutable_entry(b).acks_outstanding = 1;
     }},
    {"wbi-merge", Scenario::kWbiModified, CheckVia::kMachine,
     [](core::Machine& m, BlockId b, NodeId) {
       corrupt_clean_word(m, b, 0);  // owner's clean word vs memory
     }},
    {"dir-blocked", Scenario::kWbiModified, CheckVia::kEntryLocal,
     [](core::Machine& m, BlockId b, NodeId home) {
       // A request queued behind a stable entry: the drain was lost.
       m.directory(home).mutable_entry(b).blocked.push_back(net::Message{});
     }},
    {"dir-coarse", Scenario::kWbiShared, CheckVia::kEntryLocal,
     [](core::Machine& m, BlockId b, NodeId home) {
       // A coarse entry under a full-map/broadcast config: the fold can
       // only happen when kCoarse overflow is selected.
       m.directory(home).mutable_entry(b).coarse = true;
     }},
    {"usage-bit", Scenario::kRuSub, CheckVia::kMachine,
     [](core::Machine& m, BlockId b, NodeId home) {
       m.directory(home).mutable_entry(b).usage_lock = true;  // list says RU
     }},
    {"ru-list", Scenario::kRuSub, CheckVia::kMachine,
     [](core::Machine& m, BlockId b, NodeId home) {
       auto& e = m.directory(home).mutable_entry(b);
       e.ru_list.push_back(e.ru_list.front());  // duplicate subscriber
     }},
    {"ru-link", Scenario::kRuSub, CheckVia::kMachine,
     [](core::Machine& m, BlockId b, NodeId home) {
       auto& e = m.directory(home).mutable_entry(b);
       ASSERT_GE(e.ru_list.size(), 2u);
       std::swap(e.ru_list[0], e.ru_list[1]);  // mirror order vs cache links
     }},
    {"ru-version", Scenario::kRuSub, CheckVia::kMachine,
     [](core::Machine& m, BlockId b, NodeId home) {
       m.directory(home).mutable_entry(b).ru_version += 1;  // update never sent
     }},
    {"ru-merge", Scenario::kRuSub, CheckVia::kMachine,
     [](core::Machine& m, BlockId b, NodeId home) {
       corrupt_clean_word(m, b, m.directory(home).mutable_entry(b).ru_list.front());
     }},
    {"ru-orphan", Scenario::kWbiShared, CheckVia::kMachine,
     [](core::Machine& m, BlockId b, NodeId) {
       // Update bit with no home-side subscription: updates never arrive.
       cache::CacheLine* l = m.cache_controller(0).mutable_data_cache().find(b);
       ASSERT_NE(l, nullptr);
       l->update_bit = true;
     }},
    {"cbl-chain", Scenario::kLockHeld, CheckVia::kMachine,
     [](core::Machine& m, BlockId b, NodeId) {
       // Holder's line claims it is still waiting — grant never landed.
       cache::CacheLine* l = m.cache_controller(0).mutable_lock_cache().find(b);
       ASSERT_NE(l, nullptr);
       l->lock = cache::LockState::kWaitWrite;
     }},
    {"cbl-holders", Scenario::kLockHeld, CheckVia::kMachine,
     [](core::Machine& m, BlockId b, NodeId home) {
       m.directory(home).mutable_entry(b).lock_holders = 0;  // chain, no holder
     }},
    {"cbl-tail", Scenario::kLockHeld, CheckVia::kMachine,
     [](core::Machine& m, BlockId b, NodeId) {
       // Tail's successor must be nil or the distributed list leaks.
       cache::CacheLine* l = m.cache_controller(0).mutable_lock_cache().find(b);
       ASSERT_NE(l, nullptr);
       l->next = 2;
     }},
    {"cbl-writeback", Scenario::kWbiModified, CheckVia::kMachine,
     [](core::Machine& m, BlockId b, NodeId home) {
       // Stale data, nobody holding, no writeback running: data lost.
       m.directory(home).mutable_entry(b).lock_data_stale = true;
     }},
    {"cbl-orphan", Scenario::kLockHeld, CheckVia::kMachine,
     [](core::Machine& m, BlockId b, NodeId home) {
       auto& e = m.directory(home).mutable_entry(b);
       e.lock_chain.clear();  // directory forgot the holder entirely
       e.lock_holders = 0;
       e.usage_lock = false;
       e.lock_data_stale = false;
     }},
    {"barrier", Scenario::kWbiModified, CheckVia::kMachine,
     [](core::Machine& m, BlockId b, NodeId home) {
       m.directory(home).mutable_entry(b).barrier_count = 5;  // no waiters
     }},
    {"write-buffer", Scenario::kWbiModified, CheckVia::kMachine,
     [](core::Machine& m, BlockId, NodeId) {
       // A lost slot wakeup: a WRITE-GLOBAL parks on the bounded buffer's
       // one slot, and the entry holding it retires behind the
       // controller's back, so nothing wakes the record.
       core::CacheController& cc = m.cache_controller(0);
       cc.mutable_write_buffer().enter();
       cc.op_write_global(kFree, 1);
       cc.mutable_write_buffer().retire();
     }},
    {"write-buffer", Scenario::kWbiModified, CheckVia::kMachine,
     [](core::Machine& m, BlockId, NodeId) {
       // An entry nothing will ever acknowledge: the buffer is not drained
       // at quiescence. The rule must name it, not report the controller
       // as merely busy ([quiescence]).
       m.cache_controller(0).mutable_write_buffer().enter();
     }},
    {"lock-cache", Scenario::kWbiModified, CheckVia::kMachine,
     [](core::Machine& m, BlockId, NodeId) {
       // A lost capacity wakeup: the cache fills, an acquisition parks,
       // and a slot frees behind the controller's back.
       core::CacheController& cc = m.cache_controller(0);
       auto& lc = cc.mutable_lock_cache();
       BlockId filler = 1000;
       while (!lc.full()) lc.allocate(filler++);
       cc.op_lock(kFree, net::LockMode::kWrite);
       lc.release(1000);
     }},
    {"dirty-mask", Scenario::kWbiModified, CheckVia::kMachine,
     [](core::Machine& m, BlockId b, NodeId) {
       cache::CacheLine* l = m.cache_controller(0).mutable_data_cache().find(b);
       ASSERT_NE(l, nullptr);
       l->dirty_mask |= 1u << m.config().block_words;  // past the block
     }},
    {"quiescence", Scenario::kWbiModified, CheckVia::kMachine,
     [](core::Machine& m, BlockId b, NodeId home) {
       // An entry stuck busy forever: the transaction's finish was lost.
       m.directory(home).mutable_entry(b).state = mem::DirState::kBusyRmw;
     }},
};

TEST(InvariantRules, EveryRuleFiresUnderTargetedCorruption) {
  for (const RuleCase& c : kRuleCases) {
    SCOPED_TRACE(c.rule);
    core::Machine m(scenario_config(c.scenario));
    prepare(m, c.scenario);
    const BlockId b = scenario_block(m, c.scenario);
    const NodeId home = m.address_map().home_of(b);
    ASSERT_NO_THROW(m.check_invariants("pre-injection"))
        << c.rule << ": scenario unhealthy before the corruption";
    c.inject(m, b, home);
    if (::testing::Test::HasFatalFailure()) return;
    try {
      if (c.via == CheckVia::kEntryLocal) {
        sim::InvariantChecker(m).check_entry(home, b);
      } else {
        m.check_invariants("fault-injection");
      }
      FAIL() << c.rule << ": corruption not detected";
    } catch (const InvariantViolation& v) {
      EXPECT_NE(std::string(v.what()).find(std::string("[") + c.rule + "]"),
                std::string::npos)
          << c.rule << " expected, got: " << v.what();
      EXPECT_EQ(v.tick, m.simulator().now());
    }
  }
}

TEST(InvariantRules, SharerWordsAboveSixtyFourNodes) {
  // Above 64 nodes an entry keeps its sharer bitmap in allocated words
  // (96 nodes: two); every node reads the block, so both words fill, the
  // list and the words agree through a fully checked run, and a word that
  // loses a listed node's bit is caught.
  core::Machine m(full(test::small_config(96)));
  for (NodeId i = 0; i < 96; ++i) m.spawn(read_once(m.processor(i)));
  test::run_all(m);
  const BlockId b = m.address_map().block_of(kData);
  auto& e = m.directory(m.address_map().home_of(b)).mutable_entry(b);
  ASSERT_EQ(e.sharers.size(), 96u);
  ASSERT_NE(e.sharer_words, nullptr);
  EXPECT_EQ(e.sharer_word, 0u);
  EXPECT_TRUE(e.is_sharer(70));
  e.sharer_word_of(70) &= ~(std::uint64_t{1} << (70 % 64));
  try {
    m.check_invariants("test");
    FAIL() << "a listed node without its bit passed";
  } catch (const InvariantViolation& v) {
    EXPECT_NE(std::string(v.what()).find("[wbi-sharers]"), std::string::npos) << v.what();
  }
}

/// The table covers the checker: every fail() name in invariants.cpp has
/// a row above, so a new rule without a firing test shows up here. A rule
/// may have several rows (write-buffer: a lost wakeup and an entry never
/// acknowledged).
TEST(InvariantRules, TableNamesAreComplete) {
  std::vector<std::string> names;
  for (const RuleCase& c : kRuleCases) names.emplace_back(c.rule);
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  const std::vector<std::string> expected = {
      "barrier",    "cbl-chain",   "cbl-holders", "cbl-orphan",  "cbl-tail",
      "cbl-writeback", "dir-blocked", "dir-coarse", "dirty-mask", "lock-cache",
      "quiescence", "ru-link",     "ru-list",     "ru-merge",    "ru-orphan",
      "ru-version", "usage-bit",   "wbi-acks",    "wbi-merge",   "wbi-owner",
      "wbi-sharers", "wbi-swmr",   "write-buffer"};
  EXPECT_EQ(names, expected);
}

}  // namespace
}  // namespace bcsim
