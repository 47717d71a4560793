// Pins the program-IR lowering (ir/run.hpp) bit for bit: the completion
// tick and Machine::stats_digest() of every cell of a fixed grid — DRF
// programs on every flavor and network, the whole litmus battery with its
// warm-up, and every corpus cell with its faults and watchdog — must match
// tests/run_digest_golden.txt, which was captured from the per-harness
// runners the lowering replaced.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "ir/run.hpp"
#include "model/battery.hpp"
#include "model/litmus.hpp"
#include "ref/cell.hpp"

namespace bcsim {
namespace {

/// "<what> completion=<tick> digest=<hex>", the golden-file line of one run.
std::string pin(const std::string& what, const ir::RunResult& r) {
  char tail[96];
  std::snprintf(tail, sizeof tail, " completion=%" PRIu64 " digest=%016" PRIx64, r.completion,
                r.digest);
  return what + tail;
}

std::string flavor_network(const ref::Cell& c) {
  return std::string("flavor=") + ref::to_string(c.flavor) +
         " network=" + std::string(core::to_string(c.network));
}

std::vector<std::string> pinned_grid() {
  const ref::Flavor flavors[] = {ref::Flavor::kWbi, ref::Flavor::kRu, ref::Flavor::kCbl};
  const core::NetworkKind networks[] = {core::NetworkKind::kOmega, core::NetworkKind::kMesh};
  std::vector<std::string> out;
  const auto sweep = [&](std::uint32_t nodes, const auto& run_one) {
    for (const ref::Flavor f : flavors) {
      for (const core::NetworkKind n : networks) {
        for (std::uint64_t s = 0; s < 2; ++s) {
          ref::Cell c;
          c.flavor = f;
          c.network = n;
          c.nodes = nodes;
          c.schedule_seed = s;
          run_one(c);
        }
      }
    }
  };
  for (std::uint64_t ps = 0; ps < 4; ++ps) {
    sweep(8, [&](ref::Cell c) {
      c.program_seed = ps;
      out.push_back(pin("drf program=" + std::to_string(ps) + " " + flavor_network(c) +
                            " schedule=" + std::to_string(c.schedule_seed),
                        ir::run_program(ref::cell_program(c), ref::cell_config(c))));
    });
  }
  for (const ir::Program& t : model::litmus_battery()) {
    sweep(16, [&](const ref::Cell& c) {
      out.push_back(pin("litmus " + t.name + " " + flavor_network(c) +
                            " schedule=" + std::to_string(c.schedule_seed),
                        ir::run_program(model::with_warmup(t, c.schedule_seed),
                                        ref::cell_config(c))));
    });
  }
  for (const ref::CorpusEntry& e : ref::load_corpus(BCSIM_CELL_CORPUS)) {
    const ref::Cell& c = e.cell;
    out.push_back(pin("cell plan=" + (c.plan.empty() ? std::string("none") : c.plan) +
                          " fault_seed=" + std::to_string(c.fault_seed) + " " +
                          flavor_network(c) + " program=" + std::to_string(c.program_seed) +
                          " phases=" + std::to_string(c.phases) +
                          " nodes=" + std::to_string(c.nodes) +
                          " schedule=" + std::to_string(c.schedule_seed) +
                          " watchdog=" + std::to_string(c.watchdog),
                      ir::run_program(ref::cell_program(c), ref::cell_config(c), c.budget)));
  }
  return out;
}

TEST(IrLowering, CompletionAndDigestMatchTheGoldenGrid) {
  std::ifstream in(BCSIM_RUN_DIGEST_GOLDEN);
  ASSERT_TRUE(in) << "cannot open " << BCSIM_RUN_DIGEST_GOLDEN;
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') want.push_back(line);
  }
  const std::vector<std::string> got = pinned_grid();
  if (got == want) return;
  // Leave the new table behind: after an intended change to the machine,
  // it replaces the non-comment lines of the golden file.
  const std::string fresh = ::testing::TempDir() + "/run_digest_golden.txt";
  std::ofstream out(fresh);
  for (const std::string& line : got) out << line << '\n';
  ASSERT_EQ(got.size(), want.size()) << "grid changed shape; new table: " << fresh;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "first divergent cell, line " << i << "; new table: " << fresh;
  }
}

}  // namespace
}  // namespace bcsim
