// Differential-oracle tests (docs/TESTING.md, "Differential testing"):
// the DRF generator's structural guarantees, the golden SC reference
// machine's schedule-independence, clean diff cells on every flavor, the
// oracle's ability to catch both a tampered result and a deliberately
// injected write-buffer bug, the corpus line parser, and a replay of
// tests/cell_corpus.txt — every cell `bcsim diff` or `bcsim chaos` ever
// recorded keeps its verdict forever.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir/run.hpp"
#include "ref/cell.hpp"
#include "ref/check_battery.hpp"
#include "ref/drf_program.hpp"
#include "ref/ref_machine.hpp"

namespace bcsim {
namespace {

using ir::OpKind;
using ir::Program;
using ref::DrfGenConfig;

DrfGenConfig small_gen() {
  DrfGenConfig g;
  g.n_nodes = 4;
  g.phases = 2;
  return g;
}

// ---------------------------------------------------------------------------
// Generator structure: the DRF guarantees the oracle's soundness rests on.
// ---------------------------------------------------------------------------

TEST(DrfGenerator, IsDeterministic) {
  const Program a = ref::generate_drf_program(7, small_gen());
  const Program b = ref::generate_drf_program(7, small_gen());
  ASSERT_EQ(a.n_locations, b.n_locations);
  ASSERT_EQ(a.threads.size(), b.threads.size());
  for (std::size_t n = 0; n < a.threads.size(); ++n) {
    ASSERT_EQ(a.threads[n].size(), b.threads[n].size()) << "node " << n;
    for (std::size_t i = 0; i < a.threads[n].size(); ++i) {
      EXPECT_EQ(a.threads[n][i].kind, b.threads[n][i].kind);
      EXPECT_EQ(a.threads[n][i].arg, b.threads[n][i].arg);
      EXPECT_EQ(a.threads[n][i].value, b.threads[n][i].value);
      EXPECT_EQ(a.threads[n][i].observed, b.threads[n][i].observed);
    }
  }
}

TEST(DrfGenerator, DistinctSeedsDiffer) {
  const Program a = ref::generate_drf_program(1, small_gen());
  const Program b = ref::generate_drf_program(2, small_gen());
  bool differ = a.threads.size() != b.threads.size();
  for (std::size_t n = 0; !differ && n < a.threads.size(); ++n) {
    for (std::size_t i = 0; !differ && i < std::min(a.threads[n].size(), b.threads[n].size());
         ++i) {
      differ = a.threads[n][i].kind != b.threads[n][i].kind ||
               a.threads[n][i].arg != b.threads[n][i].arg ||
               a.threads[n][i].value != b.threads[n][i].value;
    }
  }
  EXPECT_TRUE(differ);
}

TEST(DrfGenerator, LocksBalanceAndGuardCounters) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Program prog = ref::generate_drf_program(seed, small_gen());
    const std::vector<std::uint32_t> guard = prog.guard_locks();
    for (std::uint32_t n = 0; n < prog.threads.size(); ++n) {
      int held = -1;  // -1 = none (generator never nests locks)
      for (const ir::Op& op : prog.threads[n]) {
        switch (op.kind) {
          case OpKind::kLock:
            ASSERT_EQ(held, -1) << "seed " << seed << " node " << n << " nests locks";
            held = static_cast<int>(op.arg);
            break;
          case OpKind::kUnlock:
            ASSERT_EQ(held, static_cast<int>(op.arg));
            held = -1;
            break;
          case OpKind::kCsAdd:
            ASSERT_GE(held, 0) << "CsAdd outside a critical section";
            ASSERT_EQ(static_cast<std::uint32_t>(held), guard[op.arg])
                << "CsAdd under the wrong lock";
            break;
          default:
            break;
        }
      }
      ASSERT_EQ(held, -1) << "lock leaked at program end";
    }
  }
}

TEST(DrfGenerator, SingleStaticWriterPerVariable) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Program prog = ref::generate_drf_program(seed, small_gen());
    // kStore targets (region + handoff words) must have exactly one
    // writing node; counters are only touched via lock-guarded kCsAdd.
    const std::vector<std::uint32_t> guard = prog.guard_locks();
    std::vector<int> writer(prog.n_locations, -1);
    for (std::uint32_t n = 0; n < prog.threads.size(); ++n) {
      for (const ir::Op& op : prog.threads[n]) {
        if (op.kind == OpKind::kStore) {
          ASSERT_TRUE(writer[op.arg] == -1 || writer[op.arg] == static_cast<int>(n))
              << "var " << op.arg << " written by nodes " << writer[op.arg] << " and "
              << n << " (seed " << seed << ")";
          writer[op.arg] = static_cast<int>(n);
          ASSERT_EQ(guard[op.arg], ir::kNoLock) << "plain write to a lock-guarded counter";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The golden reference: SC interpretation, schedule-independent streams.
// ---------------------------------------------------------------------------

TEST(RefMachine, ScheduleSeedsAgreeOnPrograms) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Program prog = ref::generate_drf_program(seed, small_gen());
    const ref::RefResult a = ref::RefMachine(prog, 11).run();
    const ref::RefResult b = ref::RefMachine(prog, 0xfeedfaceULL).run();
    EXPECT_FALSE(a.deadlocked) << "seed " << seed;
    EXPECT_TRUE(a.locks_held_at_end.empty());
    EXPECT_TRUE(ref::ref_results_agree(a, b))
        << "reference streams depend on the schedule (seed " << seed
        << ") — the generator emitted a racy program";
  }
}

TEST(RefMachine, CounterSumsMatchTheEmittedDeltas) {
  const Program prog = ref::generate_drf_program(3, small_gen());
  std::vector<Word> want(prog.n_locations, 0);
  for (const auto& code : prog.threads) {
    for (const ir::Op& op : code) {
      if (op.kind == OpKind::kCsAdd) want[op.arg] += op.value;
    }
  }
  const ref::RefResult r = ref::RefMachine(prog, 5).run();
  const std::vector<std::uint32_t> guard = prog.guard_locks();
  for (std::uint32_t c = 0; c < prog.n_locations; ++c) {
    if (guard[c] == ir::kNoLock) continue;
    EXPECT_EQ(r.final_locs[c], want[c]) << "counter " << c;
  }
}

// Read locks, critical-section loads and fetch-adds: locations 0 (guarded
// by lock 0), then `extra` plain locations.
Program shared_ops_program(std::uint32_t extra, std::vector<std::vector<ir::Op>> threads) {
  Program p;
  p.name = "shared-ops";
  p.n_locations = 1 + extra;
  p.objects = {{ir::ObjKind::kLock, 0, 1, 0}, {ir::ObjKind::kBlocks, 1, extra, 0}};
  p.threads = std::move(threads);
  return p;
}

TEST(RefMachine, ReadersShareALockAndAWriterWaitsForBoth) {
  // Each reader announces it holds the lock (ready), then waits for `go`
  // before it loads g: both readers hold the lock at once, or the program
  // deadlocks. The writer sets `go` once both hold it and then locks; if
  // it could enter while a reader held the lock, some schedule would let
  // a reader observe its 5.
  constexpr std::uint32_t kG = 0, kReady0 = 1, kReady1 = 2, kGo = 3;
  const auto reader = [](std::uint32_t ready) {
    return std::vector<ir::Op>{ir::ReadLock(0), ir::St(ready, 1), ir::Await(kGo, 1),
                               ir::CsLoad(kG), ir::Unlock(0)};
  };
  const Program prog = shared_ops_program(
      3, {reader(kReady0), reader(kReady1),
          {ir::Await(kReady0, 1), ir::Await(kReady1, 1), ir::St(kGo, 1), ir::Lock(0),
           ir::CsAdd(kG, 5), ir::Unlock(0)}});
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const ref::RefResult r = ref::RefMachine(prog, seed).run();
    ASSERT_FALSE(r.deadlocked) << "seed " << seed << ": readers could not share the lock";
    for (std::uint32_t t = 0; t < 2; ++t) {
      ASSERT_EQ(r.loads[t].size(), 1u);
      EXPECT_EQ(r.loads[t][0].value, 0u) << "seed " << seed << ": the writer entered early";
    }
    EXPECT_EQ(r.final_locs[kG], 5u);
    EXPECT_EQ(r.lock_acquisitions[0], 3u);
    EXPECT_TRUE(r.locks_held_at_end.empty());
  }
}

TEST(RefMachine, CriticalSectionOpsNeedTheirLock) {
  const Program add_under_read_lock =
      shared_ops_program(0, {{ir::ReadLock(0), ir::CsAdd(0, 1), ir::Unlock(0)}});
  EXPECT_THROW((void)ref::RefMachine(add_under_read_lock, 1).run(), std::logic_error);
  const Program load_outside = shared_ops_program(0, {{ir::CsLoad(0)}});
  EXPECT_THROW((void)ref::RefMachine(load_outside, 1).run(), std::logic_error);
}

// One program with all three ops: readers observe x under the shared lock
// while the writer moves it 0 -> 1 -> 0 under the exclusive one, and
// everyone fetch-adds a counter.
Program all_shared_ops() {
  constexpr std::uint32_t kX = 0, kCount = 1;
  std::vector<std::vector<ir::Op>> threads(4);
  for (int k = 0; k < 3; ++k) {
    threads[0].insert(threads[0].end(), {ir::Lock(0), ir::CsAdd(kX, 1), ir::Compute(3),
                                         ir::CsAdd(kX, ~Word{0}), ir::Unlock(0),
                                         ir::FetchAdd(kCount, 1)});
    for (std::uint32_t t = 1; t < 4; ++t) {
      threads[t].insert(threads[t].end(), {ir::ReadLock(0), ir::CsLoad(kX), ir::Compute(t),
                                           ir::CsLoad(kX), ir::Unlock(0),
                                           ir::FetchAdd(kCount, t)});
    }
  }
  return shared_ops_program(1, std::move(threads));
}

TEST(RefMachine, SharedOpsProgramIsScheduleIndependent) {
  const Program prog = all_shared_ops();
  const ref::RefResult a = ref::RefMachine(prog, 1).run();
  EXPECT_TRUE(ref::ref_results_agree(a, ref::RefMachine(prog, 0xfeedfaceULL).run()));
  EXPECT_EQ(a.final_locs, (std::vector<Word>{0, 3 * (1 + 1 + 2 + 3)}));
  for (std::uint32_t t = 1; t < 4; ++t) {
    ASSERT_EQ(a.loads[t].size(), 6u);
    for (const ir::Observation& o : a.loads[t]) EXPECT_EQ(o.value, 0u);
  }
}

// The `bcsim check` battery is judged like a DRF program, so its reference
// result must not depend on the reference schedule, and it must compute
// what each program is for.
TEST(CheckBattery, ReferenceResultsAreScheduleIndependent) {
  for (const std::uint32_t n : {2u, 5u, 16u}) {
    const std::vector<Program> battery = ref::check_battery(n);
    ASSERT_EQ(battery.size(), 5u);
    std::vector<ref::RefResult> sc;
    for (const Program& prog : battery) {
      SCOPED_TRACE(prog.name + " n=" + std::to_string(n));
      ASSERT_EQ(prog.threads.size(), n);
      sc.push_back(ref::RefMachine(prog, 1).run());
      EXPECT_FALSE(sc.back().deadlocked);
      EXPECT_TRUE(sc.back().locks_held_at_end.empty());
      for (std::uint64_t seed = 2; seed < 10; ++seed) {
        EXPECT_TRUE(ref::ref_results_agree(sc.back(), ref::RefMachine(prog, seed).run()));
      }
    }
    EXPECT_EQ(sc[0].final_locs, (std::vector<Word>{6 * n}));  // lock-counter
    EXPECT_EQ(sc[1].final_locs, (std::vector<Word>{0, 4}));   // rw-lock: x, count
    for (const auto& loads : sc[1].loads) {
      for (const ir::Observation& o : loads) EXPECT_EQ(o.value, 0u) << "rw-lock reader";
    }
    ASSERT_EQ(sc[2].loads[n - 1].size(), 1u);  // message-passing's reader
    EXPECT_EQ(sc[2].loads[n - 1][0].value, 42u);
    for (const auto& loads : sc[3].loads) {  // barrier: slot j holds j + 1
      ASSERT_EQ(loads.size(), n);
      for (std::uint32_t j = 0; j < n; ++j) EXPECT_EQ(loads[j].value, j + 1);
    }
  }
  EXPECT_THROW((void)ref::check_battery(1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The oracle end to end: clean cells, tampering, injected faults.
// ---------------------------------------------------------------------------

/// A fault-free cell of small_gen()'s shape.
ref::Cell small_cell(const char* flavor, std::uint64_t program_seed) {
  return {.machine = {.nodes = 4, .flavor = flavor}, .program_seed = program_seed, .phases = 2};
}

TEST(Diff, AllFlavorsMatchTheReference) {
  for (const char* f : {"wbi", "paper", "cbl-on-wbi"}) {
    const ref::CellOutcome out = ref::run_cell(small_cell(f, 1));
    EXPECT_EQ(out.verdict, ref::Verdict::kTransparent) << f << ": " << out.detail;
  }
}

// Read locks, critical-section loads and fetch-adds lower onto every
// flavor's native primitives: READ-LOCK on CBL, the exclusive lock on TTS.
TEST(Diff, SharedOpsMatchTheReferenceOnEveryFlavor) {
  const Program prog = all_shared_ops();
  const ref::RefResult sc = ref::RefMachine(prog, 1).run();
  for (const char* f : {"wbi", "paper", "cbl-on-wbi"}) {
    for (std::uint64_t schedule = 0; schedule < 4; ++schedule) {
      ref::Cell c = small_cell(f, 0);
      c.machine.schedule_seed = schedule;
      const auto cfg = ref::cell_config(c);
      const ref::CellOutcome out =
          ref::judge(sc, ir::run_program(prog, cfg), cfg.block_words);
      EXPECT_EQ(out.verdict, ref::Verdict::kTransparent)
          << f << " schedule " << schedule << ": " << out.detail;
    }
  }
}

TEST(Diff, CatchesATamperedObservation) {
  const Program prog = ref::generate_drf_program(2, small_gen());
  const ref::RefResult ref_run = ref::RefMachine(prog, 1).run();
  const auto cfg = ref::cell_config(small_cell("wbi", 2));
  ir::RunResult mach = ir::run_program(prog, cfg);
  ASSERT_TRUE(mach.completed) << mach.error;

  // Find a node with at least one observation and corrupt it.
  for (std::uint32_t n = 0; n < prog.threads.size(); ++n) {
    if (mach.loads[n].empty()) continue;
    mach.loads[n].front().value ^= 0x1;
    const ref::Divergence d = ref::compare_runs(ref_run, mach, cfg.block_words);
    ASSERT_TRUE(d.found());
    EXPECT_EQ(d.kind, ref::Divergence::Kind::kObsRead);
    EXPECT_EQ(d.node, n);
    EXPECT_NE(d.detail.find("block"), std::string::npos) << d.detail;
    EXPECT_NE(d.detail.find("tick"), std::string::npos) << d.detail;
    EXPECT_EQ(ref::judge(ref_run, mach, cfg.block_words).verdict, ref::Verdict::kWrong);
    return;
  }
  FAIL() << "no observations to tamper with";
}

TEST(Diff, CatchesATamperedFinalVariable) {
  const Program prog = ref::generate_drf_program(2, small_gen());
  const ref::RefResult ref_run = ref::RefMachine(prog, 1).run();
  const auto cfg = ref::cell_config(small_cell("cbl-on-wbi", 2));
  ir::RunResult mach = ir::run_program(prog, cfg);
  ASSERT_TRUE(mach.completed) << mach.error;
  mach.final_locs.back() += 1;
  const ref::Divergence d = ref::compare_runs(ref_run, mach, cfg.block_words);
  ASSERT_TRUE(d.found());
  EXPECT_EQ(d.kind, ref::Divergence::Kind::kFinalVar);
}

/// The cells the eager-flush proof probes: RU on the 16-node mesh.
ref::Cell mesh_cell(std::uint64_t program_seed, std::uint64_t schedule_seed) {
  return {.machine = {.nodes = 16, .network = "mesh", .schedule_seed = schedule_seed},
          .program_seed = program_seed};
}

// The acceptance demonstration, pinned as a unit test: removing the
// CP-Synch flush gate (the eager-flush plan) on the buffered-consistency
// machine must produce a wrong cell whose report names a block and tick.
// The mesh's distance-dependent paths are what let the un-flushed write
// lose the race (docs/TESTING.md).
TEST(Diff, CatchesTheEagerFlushFault) {
  bool caught = false;
  for (std::uint64_t seed = 0; seed < 4 && !caught; ++seed) {
    for (std::uint64_t ss = 0; ss < 2 && !caught; ++ss) {
      ref::Cell c = mesh_cell(seed, ss);
      c.machine.fault_plan = "eager-flush";
      const ref::CellOutcome out = ref::run_cell(c);
      if (out.verdict == ref::Verdict::kTransparent) continue;
      caught = true;
      EXPECT_EQ(out.verdict, ref::Verdict::kWrong) << out.detail;
      EXPECT_NE(out.detail.find("block"), std::string::npos) << out.detail;
      EXPECT_NE(out.detail.find("tick"), std::string::npos) << out.detail;
    }
  }
  EXPECT_TRUE(caught)
      << "the injected eager-flush reordering bug escaped a 4x2 diff grid";
}

// The same grid without the fault stays clean — the fault test above is
// meaningful only if the healthy machine passes the identical cells.
TEST(Diff, MeshGridIsCleanWithoutTheFault) {
  for (std::uint64_t seed = 0; seed < 2; ++seed) {
    const ref::CellOutcome out = ref::run_cell(mesh_cell(seed, 0));
    EXPECT_EQ(out.verdict, ref::Verdict::kTransparent) << out.detail;
  }
}

// ---------------------------------------------------------------------------
// The cell corpus: one line format for every harness, replayed forever.
// ---------------------------------------------------------------------------

TEST(CellCorpus, LineFormatRoundTrips) {
  const ref::CorpusEntry e{.cell = {.machine = {.nodes = 12,
                                                .flavor = "cbl-on-wbi",
                                                .network = "mesh",
                                                .buffer_depth = 2,
                                                .dir_limit = 3,
                                                .dir_overflow = "coarse",
                                                .dir_region = 2,
                                                .schedule_seed = 5,
                                                .fault_plan = "drop:p=0.1;seed=0",
                                                .watchdog = 4096,
                                                .watchdog_stalls = 5,
                                                .trace_dump = 16},
                                    .program_seed = 34,
                                    .phases = 2,
                                    .fault_seed = 12,
                                    .budget = 50'000'000},
                           .expected = ref::Verdict::kDiagnosed};
  const std::string line = ref::format_corpus_line(e);
  for (const char* key : {"flavor=cbl-on-wbi", "network=mesh", "nodes=12", "program=34", "phases=2",
                          "schedule=5", "plan=drop:p=0.1;seed=0", "fault-seed=12",
                          "buffer-depth=2", "dir-limit=3", "dir-overflow=coarse",
                          "dir-region=2", "watchdog=4096", "stalls=5", "trace-dump=16",
                          "budget=50000000"}) {
    EXPECT_NE(line.find(key), std::string::npos) << key << " missing from: " << line;
  }
  const auto back = ref::parse_corpus_line(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(ref::format_corpus_line(*back), line);
  EXPECT_EQ(back->expected, ref::Verdict::kDiagnosed);
  EXPECT_EQ(ref::cell_config(back->cell).dir_overflow, core::DirOverflow::kCoarse);
  EXPECT_EQ(ref::cell_config(back->cell).fault_plan.seed, 12u);
  EXPECT_EQ(back->cell.budget, 50'000'000u);

  // Defaults stay off the line; comments and blank lines are not entries.
  EXPECT_EQ(ref::format_corpus_line({}),
            "transparent flavor=paper network=omega nodes=16 program=0 phases=3 schedule=0");
  EXPECT_FALSE(ref::parse_corpus_line("# comment").has_value());
  EXPECT_FALSE(ref::parse_corpus_line("   ").has_value());
}

/// A malformed line is a parse *error*, not a skip — a typo must fail the
/// replay loudly instead of silently dropping the pinned scenario.
TEST(CellCorpus, ParserRejectsMalformedLines) {
  const auto rejects = [](const std::string& line) {
    try {
      (void)ref::parse_corpus_line(line);
    } catch (const std::invalid_argument&) {
      return true;
    }
    return false;
  };
  // Each malformed case below breaks exactly one field of this line.
  const std::string ok =
      "transparent flavor=cbl-on-wbi network=mesh nodes=16 program=3 phases=3 schedule=0";
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string line = ok;
    line.replace(line.find(from), from.size(), to);
    return line;
  };
  EXPECT_FALSE(rejects(ok));
  EXPECT_FALSE(rejects("transparent schedule=2 program=1 phases=3 nodes=8 network=omega "
                       "flavor=paper plan=eager-flush"));
  EXPECT_FALSE(rejects(with("transparent", "diagnosed") + " plan=drop-noretry watchdog=4096"));
  EXPECT_TRUE(rejects(with("transparent ", ""))) << "missing verdict";
  EXPECT_TRUE(rejects(with("transparent", "fine"))) << "unknown verdict";
  // A required field never falls back to its default (a line without its
  // network would replay the cell on omega).
  for (const std::string key : {"flavor", "network", "nodes", "program", "phases", "schedule"}) {
    std::istringstream is(ok);
    std::string line;
    for (std::string tok; is >> tok;) {
      if (tok.rfind(key + "=", 0) != 0) line += (line.empty() ? "" : " ") + tok;
    }
    EXPECT_TRUE(rejects(line)) << "missing " << key << ": " << line;
  }
  EXPECT_TRUE(rejects("diagnosed plan=drop-noretry watchdog=4096")) << "no scenario at all";
  EXPECT_TRUE(rejects(with("flavor=cbl-on-wbi", "flavor=sc"))) << "unknown flavor";
  EXPECT_TRUE(rejects(with("flavor=cbl-on-wbi", "flavor=ru"))) << "ru is no flavor name";
  EXPECT_TRUE(rejects(with("flavor=cbl-on-wbi", "flavor=cbl"))) << "cbl is no flavor name";
  EXPECT_TRUE(rejects(with("network=mesh", "network=toroid"))) << "unknown network";
  EXPECT_TRUE(rejects(with("program=3", "program=x"))) << "non-numeric seed";
  EXPECT_TRUE(rejects(with("schedule=0", "schedule=-1"))) << "negative seed";
  EXPECT_TRUE(rejects(ok + " plan=lazy-flush")) << "unknown fault plan";
  EXPECT_TRUE(rejects(ok + " junk")) << "trailing garbage";
  EXPECT_TRUE(rejects(ok + " color=red")) << "unknown key";
  EXPECT_TRUE(rejects(ok + " nodes=8")) << "repeated key";
  EXPECT_TRUE(rejects(with("nodes=16", "nodes="))) << "empty value";
  EXPECT_TRUE(rejects(with("nodes=16", "nodes=0"))) << "zero nodes";
  EXPECT_TRUE(rejects(with("phases=3", "phases=0"))) << "zero phases";
  EXPECT_TRUE(rejects(ok + " stalls=0")) << "zero stalls";
  EXPECT_TRUE(rejects(ok + " budget=x")) << "non-numeric budget";
  EXPECT_TRUE(rejects(ok + " dir-overflow=spill")) << "unknown overflow mode";
  EXPECT_TRUE(rejects("drop 1 2 3")) << "positional (old chaos) format";
  EXPECT_TRUE(rejects("cbl 3 0 16 3 mesh")) << "positional (old diff) format";
}

TEST(CellCorpus, EveryEntryReplaysItsVerdict) {
  const auto corpus = ref::load_corpus(BCSIM_CELL_CORPUS);
  ASSERT_GE(corpus.size(), 15u);
  for (const ref::CorpusEntry& e : corpus) {
    const ref::CellOutcome out = ref::run_cell(e.cell);
    EXPECT_EQ(out.verdict, e.expected)
        << ref::format_corpus_line(e) << " -> " << ref::to_string(out.verdict) << ": "
        << out.detail;
  }
}

}  // namespace
}  // namespace bcsim
