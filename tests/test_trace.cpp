// Trace format and trace-driven replay tests.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>

#include "conf/scenario.hpp"
#include "workload/trace.hpp"
#include "test_util.hpp"

namespace bcsim::workload {
namespace {

using core::Machine;
using core::PrimitiveOp;
using test::paper_config;
using test::run_all;
using test::small_config;

TEST(TraceFormat, ParsesBasicRecords) {
  const auto t = Trace::parse_string(R"(# demo
0 r 16
0 w 16 7
1 rg 20
1 c 100
0 fl
)");
  ASSERT_EQ(t.size(), 5u);
  EXPECT_EQ(t.records()[0].op, PrimitiveOp::kRead);
  EXPECT_EQ(t.records()[1].value, 7u);
  EXPECT_EQ(t.records()[2].proc, 1u);
  EXPECT_EQ(t.records()[3].op, PrimitiveOp::kCompute);
  EXPECT_EQ(t.records()[3].addr, 100u);
  EXPECT_EQ(t.records()[4].op, PrimitiveOp::kFlushBuffer);
}

TEST(TraceFormat, SkipsCommentsAndBlankLines) {
  const auto t = Trace::parse_string("\n   \n# comment only\n0 r 1\n");
  EXPECT_EQ(t.size(), 1u);
}

TEST(TraceFormat, RejectsMalformedInput) {
  EXPECT_THROW(Trace::parse_string("0 zz 1\n"), std::invalid_argument);
  EXPECT_THROW(Trace::parse_string("0 w 16\n"), std::invalid_argument);  // no value
  EXPECT_THROW(Trace::parse_string("garbage\n"), std::invalid_argument);
  EXPECT_THROW(Trace::parse_string("0 r\n"), std::invalid_argument);  // no addr
}

TEST(TraceFormat, WriteParseRoundTrip) {
  Trace t;
  t.append({0, PrimitiveOp::kRead, 16, 0});
  t.append({1, PrimitiveOp::kWriteGlobal, 20, 99});
  t.append({2, PrimitiveOp::kFlushBuffer, 0, 0});
  t.append({0, PrimitiveOp::kFetchAdd, 8, 3});
  std::ostringstream os;
  t.write(os);
  const auto t2 = Trace::parse_string(os.str());
  ASSERT_EQ(t2.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t2.records()[i].proc, t.records()[i].proc);
    EXPECT_EQ(t2.records()[i].op, t.records()[i].op);
    EXPECT_EQ(t2.records()[i].addr, t.records()[i].addr);
    EXPECT_EQ(t2.records()[i].value, t.records()[i].value);
  }
}

TEST(TraceFormat, PerProcessorSplitPreservesOrder) {
  const auto t = Trace::parse_string("0 r 1\n1 r 2\n0 r 3\n");
  const auto streams = t.per_processor(2);
  ASSERT_EQ(streams[0].size(), 2u);
  EXPECT_EQ(streams[0][1].addr, 3u);
  ASSERT_EQ(streams[1].size(), 1u);
  EXPECT_THROW(t.per_processor(1), std::invalid_argument);
}

TEST(TraceReplay, WbiWriteReadThroughTrace) {
  Machine m(small_config(2));
  const auto t = Trace::parse_string(R"(
0 w 16 41
0 c 50
1 r 16
)");
  TraceWorkload w(m, t);
  w.spawn_all(m);
  run_all(m);
  // The reader's GetS recalled the writer's dirty line to memory.
  EXPECT_EQ(m.peek_memory(16), 41u);
  EXPECT_EQ(w.checksums()[1], 41u) << "reader must have seen the write";
}

TEST(TraceReplay, PaperMachinePrimitivesThroughTrace) {
  Machine m(paper_config(2));
  const auto t = Trace::parse_string(R"(
1 ru 32
0 wg 32 9
0 fl
1 ru 32
)");
  TraceWorkload w(m, t);
  w.spawn_all(m);
  run_all(m);
  EXPECT_EQ(m.peek_memory(32), 9u);
  // The two streams race; each read-update independently saw 0 or 9, so
  // the reader's checksum is one of {0, 9, 18}.
  EXPECT_TRUE(w.checksums()[1] == 0u || w.checksums()[1] == 9u ||
              w.checksums()[1] == 18u)
      << "checksum " << w.checksums()[1];
}

TEST(TraceReplay, LocksThroughTrace) {
  Machine m(paper_config(2));
  const auto t = Trace::parse_string(R"(
0 wl 16
0 w 17 5
0 ul 16
1 wl 16
1 r 17
1 ul 16
)");
  TraceWorkload w(m, t);
  w.spawn_all(m);
  run_all(m);
  EXPECT_EQ(w.checksums()[1], 5u) << "data must ride the lock";
}

TEST(TraceCapture, RecordsPrimitiveStream) {
  Machine m(paper_config(2));
  workload::TraceRecorder rec(m);
  auto prog = [](core::Processor& p) -> sim::Task {
    co_await p.write_global(16, 5);
    co_await p.flush_buffer();
    co_await p.compute(10);
    co_await p.read_update(16);
  };
  m.spawn(prog(m.processor(0)));
  run_all(m);
  rec.detach();
  const auto& recs = rec.trace().records();
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_EQ(recs[0].op, PrimitiveOp::kWriteGlobal);
  EXPECT_EQ(recs[0].value, 5u);
  EXPECT_EQ(recs[1].op, PrimitiveOp::kFlushBuffer);
  EXPECT_EQ(recs[2].op, PrimitiveOp::kCompute);
  EXPECT_EQ(recs[2].addr, 10u);
  EXPECT_EQ(recs[3].op, PrimitiveOp::kReadUpdate);
}

TEST(TraceCapture, CaptureReplayReproducesMemoryState) {
  // Record a lock-based program, then replay the captured trace on a
  // fresh machine: the final memory state must match. (Per-processor
  // program order is preserved; cross-processor interleaving may differ,
  // but this program's result is interleaving-independent.)
  auto run_original = [](workload::Trace* captured) {
    Machine m(paper_config(4));
    std::optional<workload::TraceRecorder> rec;
    if (captured) rec.emplace(m);
    const Addr lock = 16;
    auto prog = [&](core::Processor& p) -> sim::Task {
      for (int k = 0; k < 5; ++k) {
        co_await p.write_lock(lock);
        const Word v = co_await p.read(lock + 1);
        co_await p.write(lock + 1, v + 1);
        co_await p.unlock(lock);
      }
      co_await p.write_global(64 + p.id(), p.id() + 100);
      co_await p.flush_buffer();
    };
    for (NodeId i = 0; i < 4; ++i) m.spawn(prog(m.processor(i)));
    test::run_all(m);
    if (captured) *captured = rec->take();
    return std::tuple{m.peek_memory(17), m.peek_memory(64), m.peek_memory(67)};
  };
  workload::Trace captured;
  const auto orig = run_original(&captured);
  EXPECT_GT(captured.size(), 0u);

  Machine m2(paper_config(4));
  workload::TraceWorkload replay(m2, captured);
  replay.spawn_all(m2);
  test::run_all(m2);
  EXPECT_EQ(std::tuple(m2.peek_memory(17), m2.peek_memory(64), m2.peek_memory(67)), orig);
}

TEST(TraceCapture, RoundTripsThroughTextFormat) {
  Machine m(paper_config(2));
  workload::TraceRecorder rec(m);
  auto prog = [](core::Processor& p) -> sim::Task {
    co_await p.fetch_add(8, 3);
    co_await p.test_and_set(12);
    co_await p.write(20, 7);
  };
  m.spawn(prog(m.processor(1)));
  run_all(m);
  std::ostringstream os;
  rec.trace().write(os);
  const auto parsed = workload::Trace::parse_string(os.str());
  ASSERT_EQ(parsed.size(), rec.trace().size());
  EXPECT_EQ(parsed.records()[0].op, PrimitiveOp::kFetchAdd);
  EXPECT_EQ(parsed.records()[1].op, PrimitiveOp::kTestAndSet);
}

// ---------------------------------------------------------------------------
// Record round-trip: write → read → identical stream, for every opcode,
// plus the error paths a damaged trace file can take (truncation, binary
// junk where text was expected).
// ---------------------------------------------------------------------------

TEST(TraceFormat, EveryOpRoundTripsIdentically) {
  // One record per opcode. Fields an op does not carry stay 0 — the text
  // format drops them, so only then can the round-trip be identity.
  Trace t;
  NodeId proc = 0;
  for (const PrimitiveOp op :
       {PrimitiveOp::kRead, PrimitiveOp::kWrite, PrimitiveOp::kReadGlobal,
        PrimitiveOp::kWriteGlobal, PrimitiveOp::kReadUpdate, PrimitiveOp::kResetUpdate,
        PrimitiveOp::kFlushBuffer, PrimitiveOp::kReadLock, PrimitiveOp::kWriteLock,
        PrimitiveOp::kUnlock, PrimitiveOp::kCompute, PrimitiveOp::kTestAndSet,
        PrimitiveOp::kFetchAdd}) {
    TraceRecord r;
    r.proc = proc++ % 3;
    r.op = op;
    const bool has_addr = op != PrimitiveOp::kFlushBuffer;
    const bool has_value = op == PrimitiveOp::kWrite || op == PrimitiveOp::kWriteGlobal ||
                           op == PrimitiveOp::kFetchAdd;
    r.addr = has_addr ? 16 + 4 * proc : 0;
    r.value = has_value ? 100 + proc : 0;
    t.append(r);
    // The mnemonic itself must be a bijection.
    EXPECT_EQ(parse_trace_op(trace_mnemonic(op)), op);
  }
  std::ostringstream os;
  t.write(os);
  const Trace back = Trace::parse_string(os.str());
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back.records()[i].proc, t.records()[i].proc) << i;
    EXPECT_EQ(back.records()[i].op, t.records()[i].op) << i;
    EXPECT_EQ(back.records()[i].addr, t.records()[i].addr) << i;
    EXPECT_EQ(back.records()[i].value, t.records()[i].value) << i;
  }
  // A second trip through the text form is byte-identical — the writer is
  // a fixed point of parse∘write.
  std::ostringstream os2;
  back.write(os2);
  EXPECT_EQ(os2.str(), os.str());
}

TEST(TraceFormat, FileWriteReadRoundTrip) {
  Trace t;
  t.append({0, PrimitiveOp::kWriteGlobal, 32, 9});
  t.append({1, PrimitiveOp::kReadUpdate, 32, 0});
  t.append({0, PrimitiveOp::kFlushBuffer, 0, 0});
  const std::string path = ::testing::TempDir() + "/trace_roundtrip.txt";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out);
    t.write(out);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in);
  const Trace back = Trace::parse(in);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back.records()[0].value, 9u);
  EXPECT_EQ(back.records()[1].op, PrimitiveOp::kReadUpdate);
  EXPECT_EQ(back.records()[2].op, PrimitiveOp::kFlushBuffer);
}

TEST(TraceFormat, TruncatedFileNamesTheBrokenLine) {
  // A file cut off mid-record (crash while writing, partial copy): the
  // parser must reject it and name the exact line, at every truncation
  // point that splits a record.
  const std::string full = "0 w 16 7\n1 ru 32\n0 fa 40 5\n";
  const auto expect_error_on_line = [](const std::string& text, const char* line) {
    try {
      (void)Trace::parse_string(text);
      FAIL() << "truncated trace accepted: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("line ") + line),
                std::string::npos)
          << e.what();
    }
  };
  expect_error_on_line("0 w 16 7\n1 ru 32\n0 fa 40\n", "3");  // value cut
  expect_error_on_line("0 w 16 7\n1 ru\n", "2");              // address cut
  expect_error_on_line("0 w 16 7\n1\n", "2");                 // op cut
  // Truncation at a record boundary is indistinguishable from a shorter
  // trace and parses fine.
  EXPECT_EQ(Trace::parse_string("0 w 16 7\n1 ru 32\n").size(), 2u);
  EXPECT_EQ(Trace::parse_string(full).size(), 3u);
}

TEST(TraceFormat, RejectsBinaryJunk) {
  // Wrong file handed to the parser (an ELF, a PNG, a gzip of the trace):
  // the magic bytes are not a <proc> integer, so line 1 is rejected
  // rather than silently yielding an empty or garbage stream.
  for (const std::string& magic :
       {std::string("\x7f""ELF\x02\x01\x01", 7), std::string("\x89PNG\r\n", 6),
        std::string("\x1f\x8b\x08", 3), std::string("BCTRACE-v2 0 r 16", 17)}) {
    EXPECT_THROW((void)Trace::parse_string(magic + "\n0 r 16\n"),
                 std::invalid_argument)
        << "accepted junk header: " << magic;
  }
}

TEST(TraceReplay, RmwThroughTrace) {
  Machine m(small_config(2));
  const auto t = Trace::parse_string(R"(
0 fa 40 5
0 fa 40 5
1 ts 44
)");
  TraceWorkload w(m, t);
  w.spawn_all(m);
  run_all(m);
  EXPECT_EQ(m.peek_memory(40), 10u);
  EXPECT_EQ(m.peek_memory(44), 1u);
}

// ---------------------------------------------------------------------------
// Header directives: a recorded trace is a complete run description.
// ---------------------------------------------------------------------------

TEST(TraceHeader, NodesAndMemoryDirectivesParse) {
  const auto t = Trace::parse_string("!nodes 4\n!m 16 7\n!m 20 9\n0 r 16\n");
  EXPECT_EQ(t.n_nodes(), 4u);
  ASSERT_EQ(t.initial_memory().size(), 2u);
  EXPECT_EQ(t.initial_memory()[0], (std::pair<Addr, Word>{16, 7}));
  EXPECT_EQ(t.size(), 1u);
}

TEST(TraceHeader, ReplayRejectsWidthMismatch) {
  Machine m(small_config(2));
  const auto t = Trace::parse_string("!nodes 4\n0 r 16\n");
  EXPECT_THROW((void)TraceWorkload(m, t), std::invalid_argument);
}

TEST(TraceHeader, MalformedDirectivesDiagnosed) {
  EXPECT_THROW((void)Trace::parse_string("!nodes 0\n"), std::invalid_argument);
  EXPECT_THROW((void)Trace::parse_string("!nodes\n"), std::invalid_argument);
  EXPECT_THROW((void)Trace::parse_string("!m 16\n"), std::invalid_argument);
  EXPECT_THROW((void)Trace::parse_string("!bogus 1\n"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Round-trip property: for every built-in workload x machine flavor, a
// recorded run replayed through the trace frontend — via its text
// serialization — reproduces the stats digest, the data hash and the
// retired-op count bit-for-bit.
// ---------------------------------------------------------------------------

TEST(TraceProperty, RecordReplayReproducesEveryWorkloadAndFlavor) {
  const char* flavors[] = {"paper", "wbi", "cbl-on-wbi"};
  const char* kinds[] = {"work-queue", "sync-model", "solver",
                         "stencil",    "grid",       "fft"};
  for (const char* flavor : flavors) {
    for (const char* kind : kinds) {
      SCOPED_TRACE(std::string(flavor) + "/" + kind);
      conf::MachineSpec ms;
      ms.nodes = 4;
      ms.flavor = flavor;
      conf::WorkloadSpec ws;
      ws.kind = kind;
      // Small knobs: 18 cells x 2 runs must stay a tier-1-sized test.
      ws.work_queue.total_tasks = 16;
      ws.work_queue.grain = 10;
      ws.sync_model.tasks_per_proc = 3;
      ws.sync_model.grain = 10;
      ws.solver.iterations = 2;
      ws.stencil.cells_per_proc = 4;
      ws.stencil.sweeps = 2;
      ws.grid.grid = 4;
      ws.grid.sweeps = 2;
      ws.fft.words_per_region = 4;

      std::uint64_t want_digest = 0;
      std::uint64_t want_data = 0;
      std::uint64_t want_retired = 0;
      std::string text;
      {
        Machine m(conf::build_machine(ms));
        conf::WorkloadInstance wl(m, ws);
        TraceRecorder rec(m);
        run_all(m);
        want_digest = m.stats_digest();
        want_data = m.data_digest();
        want_retired = m.ops_retired_total();
        std::ostringstream os;
        rec.trace().write(os);
        text = os.str();
      }
      Machine m(conf::build_machine(ms));
      TraceWorkload replay(m, Trace::parse_string(text));
      replay.spawn_all(m);
      run_all(m);
      EXPECT_EQ(m.stats_digest(), want_digest);
      EXPECT_EQ(m.data_digest(), want_data);
      EXPECT_EQ(m.ops_retired_total(), want_retired);
    }
  }
}

TEST(TraceProperty, RecordingIsNonInvasive) {
  // Attaching the recorder must not perturb the run it observes.
  conf::MachineSpec ms;
  ms.nodes = 4;
  conf::WorkloadSpec ws;
  ws.work_queue.total_tasks = 16;
  ws.work_queue.grain = 10;
  const auto digest_of = [&](bool record) {
    Machine m(conf::build_machine(ms));
    conf::WorkloadInstance wl(m, ws);
    std::optional<TraceRecorder> rec;
    if (record) rec.emplace(m);
    run_all(m);
    return m.stats_digest();
  };
  EXPECT_EQ(digest_of(false), digest_of(true));
}

TEST(TraceProperty, TruncatedRecordingDiagnosedOnReplayParse) {
  // A recorded trace chopped mid-line must fail with a line diagnosis,
  // never crash or silently replay a prefix.
  conf::MachineSpec ms;
  ms.nodes = 4;
  conf::WorkloadSpec ws;
  ws.work_queue.total_tasks = 8;
  ws.work_queue.grain = 5;
  Machine m(conf::build_machine(ms));
  conf::WorkloadInstance wl(m, ws);
  TraceRecorder rec(m);
  run_all(m);
  std::ostringstream os;
  rec.trace().write(os);
  const std::string text = os.str();
  const std::string cut = text.substr(0, text.size() * 3 / 4);
  try {
    (void)Trace::parse_string(cut);
    // A cut landing exactly on a record boundary parses clean — rare but
    // legal; anything else must name the broken line.
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace bcsim::workload
