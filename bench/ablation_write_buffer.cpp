// Ablation: write-buffer depth. The paper's simulation assumes an infinite
// write buffer (Table 4); a real machine bounds it, and a full buffer
// stalls the processor exactly like sequential consistency would. This
// bench sweeps buffer depth under a write-burst workload to show where
// buffered consistency's benefit saturates — the quantitative version of
// DESIGN.md's "write buffer absorbs bursts" claim (and of the Adve-Hill
// pending-operation counter the buffer implements).
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace bcsim;
using namespace bcsim::bench;
using core::Machine;
using core::Processor;

double write_burst(std::size_t buffer_entries, bool sequential) {
  core::MachineConfig cfg =
      conf::build_machine({.nodes = 8, .consistency{sequential ? "sc" : "bc"}});
  cfg.write_buffer_entries = buffer_entries;
  Machine m(cfg);
  struct Prog {
    sim::Task operator()(Processor& p) const {
      // Bursts of global writes separated by compute: the pattern inside
      // a critical section or producer phase.
      for (int burst = 0; burst < 16; ++burst) {
        for (int w = 0; w < 8; ++w) {
          co_await p.write_global(
              static_cast<Addr>((p.id() * 1024) + burst * 32 + w * 4), w);
        }
        co_await p.compute(100);
      }
      co_await p.flush_buffer();
    }
  } prog;
  for (NodeId i = 0; i < m.n_nodes(); ++i) m.spawn(prog(m.processor(i)));
  return static_cast<double>(run_machine(m, 2'000'000'000ULL));
}

}  // namespace

int main() {
  std::printf("Ablation: write-buffer depth (8 nodes, 16 bursts x 8 global writes each)\n\n");
  std::printf("%-14s%16s\n", "buffer", "cycles");
  const double sc = write_burst(0, /*sequential=*/true);
  std::printf("%-14s%16.0f   <- sequential consistency (stall per write)\n", "SC", sc);
  for (std::size_t entries : {1u, 2u, 4u, 8u, 16u}) {
    std::printf("%-14zu%16.0f\n", entries, write_burst(entries, false));
  }
  const double unbounded = write_burst(0, false);
  std::printf("%-14s%16.0f   <- paper Table 4 assumption\n", "unbounded", unbounded);
  std::printf("\nExpected: depth 1 behaves nearly like SC (every second write stalls);\n"
              "the benefit saturates once the buffer covers a burst (8 here) — the\n"
              "infinite-buffer assumption costs little beyond that.\n");
  std::printf("BC(unbounded)/SC = %.2f\n", unbounded / sc);
  return 0;
}
