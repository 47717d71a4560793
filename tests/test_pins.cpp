// Pins every run bcsim reports a number for. Each cell is one line of
// tests/pins.txt, `<kind> <key=value>... completion=<tick> digest=<hex>
// data=<hex>`: the final tick, Machine::stats_digest(), and a hash of the
// data (docs/TESTING.md, "Pins"). The file holds three grids, in this
// order, and each is its own CTest entry (tests/CMakeLists.txt):
//   test_ir - the `drf`, `litmus` and `cell` lines of the program-IR
//       lowering (ir/run.hpp): DRF programs on every flavor and network,
//       the whole litmus battery with its warm-up, and every corpus cell
//       with its faults and watchdog. Their `data` folds every loaded
//       value, then Machine::data_digest().
//   test_pins - the first `run` lines: the run_cells.hpp table.
//   test_block_words - the other `run` lines: the 16-node queue at every
//       block size on three machines and both fabrics.
// A `run` line is a work-queue or sync-model `bcsim run` whose keys are its
// flags, every knob spelled out. Its `data` is Machine::data_digest(), and
// a work-queue run must execute all its tasks (the queue's counters live
// in simulated memory).
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "ir/run.hpp"
#include "model/battery.hpp"
#include "model/litmus.hpp"
#include "ref/cell.hpp"
#include "run_cells.hpp"

namespace bcsim {
namespace {

/// "<what> completion=<tick> digest=<hex> data=<hex>", one line of the pin file.
std::string pin(const std::string& what, Tick completion, std::uint64_t digest,
                std::uint64_t data) {
  char tail[128];
  std::snprintf(tail, sizeof tail,
                " completion=%" PRIu64 " digest=%016" PRIx64 " data=%016" PRIx64, completion,
                digest, data);
  return what + tail;
}

std::string pin(const std::string& what, const ir::RunResult& r) {
  return pin(what, r.completion, r.digest, r.data);
}

std::string flavor_network(const ref::Cell& c) {
  return "flavor=" + c.machine.flavor + " network=" + c.machine.network;
}

std::vector<std::string> ir_grid() {
  std::vector<std::string> out;
  const auto sweep = [&](std::uint32_t nodes, const auto& run_one) {
    for (const char* f : {"wbi", "paper", "cbl-on-wbi"}) {
      for (const char* n : {"omega", "mesh"}) {
        for (std::uint64_t s = 0; s < 2; ++s) {
          run_one(ref::Cell{.machine = {.nodes = nodes, .flavor = f, .network = n,
                                        .schedule_seed = s}});
        }
      }
    }
  };
  for (std::uint64_t ps = 0; ps < 4; ++ps) {
    sweep(8, [&](ref::Cell c) {
      c.program_seed = ps;
      out.push_back(pin("drf program=" + std::to_string(ps) + " " + flavor_network(c) +
                            " schedule=" + std::to_string(c.machine.schedule_seed),
                        ir::run_program(ref::cell_program(c), ref::cell_config(c))));
    });
  }
  for (const ir::Program& t : model::litmus_battery()) {
    sweep(16, [&](const ref::Cell& c) {
      out.push_back(pin("litmus " + t.name + " " + flavor_network(c) +
                            " schedule=" + std::to_string(c.machine.schedule_seed),
                        ir::run_program(model::with_warmup(t, c.machine.schedule_seed),
                                        ref::cell_config(c))));
    });
  }
  for (const ref::CorpusEntry& e : ref::load_corpus(BCSIM_CELL_CORPUS)) {
    const ref::Cell& c = e.cell;
    const conf::MachineSpec& m = c.machine;
    out.push_back(pin("cell plan=" + (m.fault_plan.empty() ? std::string("none") : m.fault_plan) +
                          " fault_seed=" + std::to_string(c.fault_seed) + " " +
                          flavor_network(c) + " program=" + std::to_string(c.program_seed) +
                          " phases=" + std::to_string(c.phases) +
                          " nodes=" + std::to_string(m.nodes) +
                          " schedule=" + std::to_string(m.schedule_seed) +
                          " watchdog=" + std::to_string(m.watchdog),
                      ir::run_program(ref::cell_program(c), ref::cell_config(c), c.budget)));
  }
  return out;
}

/// A `run` line: `bcsim run` with these keys as flags reproduces it.
std::string run_pin(const test::RunCell& c) {
  const core::MachineConfig cfg = conf::build_machine(c.machine);
  const std::string keys =
      "run nodes=" + std::to_string(cfg.n_nodes) + " machine=" + c.machine.flavor +
      " consistency=" + std::string(core::to_string(cfg.consistency)) +
      " lock=" + std::string(core::to_string(cfg.lock_impl)) +
      " barrier=" + std::string(core::to_string(cfg.barrier_impl)) +
      " network=" + std::string(core::to_string(cfg.network)) +
      " buffer-depth=" + std::to_string(cfg.net_buffer_depth) +
      " dir-limit=" + std::to_string(cfg.dir_pointer_limit) +
      " dir-overflow=" + std::string(core::to_string(cfg.dir_overflow)) +
      " dir-region=" + std::to_string(cfg.dir_region_nodes) +
      " block-words=" + std::to_string(cfg.block_words) + " workload=" + c.workload +
      " tasks=" + std::to_string(c.tasks) + " grain=" + std::to_string(c.grain) +
      " seed=" + std::to_string(cfg.seed) +
      " schedule-seed=" + std::to_string(cfg.schedule_seed);
  core::Machine m(cfg);
  conf::WorkloadInstance w(m, test::workload(c));
  const Tick t = m.run(100'000'000);
  if (w.work_queue() != nullptr) {
    EXPECT_EQ(w.work_queue()->tasks_executed(m), c.tasks) << keys;
  }
  return pin(keys, t, m.stats_digest(), m.data_digest());
}

/// The pin file's grids, in file order. A line's grid follows from its
/// kind and place: every `drf`, `litmus` and `cell` line is kIr, the first
/// std::size(test::kRunCells) `run` lines are kRunCells, the rest kBlockWords.
enum class Grid { kIr, kRunCells, kBlockWords };
constexpr Grid kGrids[] = {Grid::kIr, Grid::kRunCells, Grid::kBlockWords};

std::vector<std::string> pinned_lines(Grid g) {
  std::vector<std::string> out;
  switch (g) {
    case Grid::kIr:
      return ir_grid();
    case Grid::kRunCells:
      for (const test::RunCell& c : test::kRunCells) out.push_back(run_pin(c));
      break;
    case Grid::kBlockWords:
      for (const std::uint32_t words : {1u, 2u, 4u, 8u, 16u, 32u}) {
        for (const char* flavor : {"wbi", "cbl-on-wbi", "paper"}) {
          for (const char* network : {"omega", "mesh"}) {
            out.push_back(run_pin(
                {"", {.nodes = 16, .flavor = flavor, .network = network, .block_words = words},
                 "work-queue", 64, 20, 0}));
          }
        }
      }
      break;
  }
  return out;
}

/// Checks one grid against its lines of the pin file.
void expect_reproduces(Grid g, const std::string& name) {
  std::ifstream in(BCSIM_PINS);
  ASSERT_TRUE(in) << "cannot open " << BCSIM_PINS;
  std::vector<std::string> comments, want;
  std::size_t runs = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') {
      comments.push_back(line);
      continue;
    }
    Grid of = Grid::kIr;
    if (line.starts_with("run ")) {
      of = runs++ < std::size(test::kRunCells) ? Grid::kRunCells : Grid::kBlockWords;
    }
    if (of == g) want.push_back(line);
  }
  const std::vector<std::string> got = pinned_lines(g);
  if (got == want) return;
  // Leave the regenerated file, every grid of it, behind: after an intended
  // change to the machine, copying it over the pin file accepts the new
  // numbers. Each grid writes its own copy, so grids failing at once in
  // parallel do not write the same file.
  const std::string fresh = ::testing::TempDir() + "pins-" + name + ".txt";  // TempDir ends in /
  std::ofstream out(fresh);
  for (const std::string& line : comments) out << line << '\n';
  for (const Grid each : kGrids) {
    for (const std::string& line : each == g ? got : pinned_lines(each)) out << line << '\n';
  }
  std::printf("regenerated pins; to accept them: cp %s %s\n", fresh.c_str(), BCSIM_PINS);
  ASSERT_EQ(got.size(), want.size()) << "the " << name << " grid changed shape";
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "first divergent pin, line " << i + 1 << " of the " << name
                               << " grid";
  }
}

TEST(Pins, IrGridReproduces) { expect_reproduces(Grid::kIr, "ir"); }

TEST(Pins, RunCellsReproduce) { expect_reproduces(Grid::kRunCells, "run-cells"); }

TEST(Pins, BlockWordsGridReproduces) { expect_reproduces(Grid::kBlockWords, "block-words"); }

}  // namespace
}  // namespace bcsim
