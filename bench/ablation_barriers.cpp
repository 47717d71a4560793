// Ablation: barrier implementations. Table 3 gives the hardware (CBL)
// barrier's costs; this bench positions it against the software
// alternatives — the centralized sense-reversing barrier (whose arrival
// counter is a textbook hot spot) and the combining tree (the software
// answer to that hot spot). Metric: mean cost of one barrier episode over
// many phases, with skewed arrivals.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/sync/barrier.hpp"

namespace {

using namespace bcsim;
using namespace bcsim::bench;
using core::Machine;
using core::Processor;

double barrier_phases(const conf::MachineSpec& machine, core::BarrierImpl impl, int phases) {
  Machine m(conf::build_machine(machine));
  auto alloc = m.make_allocator(100);
  auto bar = sync::make_barrier(impl, alloc, m.n_nodes());
  struct Prog {
    sync::Barrier& bar;
    int phases;
    sim::Task operator()(Processor& p) const {
      auto& rng = p.rng();
      for (int ph = 0; ph < phases; ++ph) {
        co_await p.compute(1 + rng.next_below(50));  // skewed arrivals
        co_await bar.wait(p);
      }
    }
  } prog{*bar, phases};
  for (NodeId i = 0; i < m.n_nodes(); ++i) m.spawn(prog(m.processor(i)));
  return static_cast<double>(run_machine(m, 2'000'000'000ULL)) / phases;
}

}  // namespace

int main() {
  constexpr int kPhases = 24;
  std::printf("Ablation: barrier implementations (mean cycles per episode, %d phases)\n",
              kPhases);
  const std::vector<std::uint32_t> nodes = {4, 8, 16, 32, 64};
  std::printf("%-8s%16s%16s%16s\n", "n", "central", "tree", "cbl (hw)");
  const auto rows = sim::parallel_map<std::vector<double>>(
      nodes.size(), std::function<std::vector<double>(std::size_t)>([&](std::size_t i) {
        const std::uint32_t n = nodes[i];
        // Software barriers need coherent READ/WRITE: run them on the WBI
        // machine; the hardware barrier runs on the paper's machine.
        return std::vector<double>{
            barrier_phases({.nodes = n, .flavor = "wbi"}, core::BarrierImpl::kCentral, kPhases),
            barrier_phases({.nodes = n, .flavor = "wbi"}, core::BarrierImpl::kTree, kPhases),
            barrier_phases({.nodes = n, .flavor = "cbl-on-wbi"}, core::BarrierImpl::kCbl,
                           kPhases),
        };
      }));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    std::printf("%-8u%16.0f%16.0f%16.0f\n", nodes[i], rows[i][0], rows[i][1], rows[i][2]);
  }
  std::printf("\nReading the table: the CBL hardware barrier (one memory-side increment\n"
              "per arrival + chained release, Table 3's 2-messages-per-request row)\n"
              "wins clearly through ~32 nodes. At larger scale its RELEASE becomes the\n"
              "bottleneck: the notify chain is n-1 serial hops, while the combining\n"
              "tree's release fans out in parallel — so the tree overtakes it around\n"
              "n=64. That is a genuine scalability limit of the paper's chained-notify\n"
              "design (a tree-structured hardware release would fix it); the\n"
              "centralized software barrier hot-spots on its counter throughout.\n");
  return 0;
}
