// Ablation A1: what does eliminating false sharing buy? (Listed as future
// work in the paper's conclusions; the mechanism is the per-word dirty
// bits + word-granular WRITE-GLOBAL of the read-update machine.)
//
// Workload: the linear solver with the x vector COLOCATED (maximal false
// sharing: up to B owners write different words of one block every
// iteration), swept over block sizes. Under WBI, larger blocks mean more
// false-sharing ping-pong on writes; on the read-update machine the write
// traffic is word-granular and flat in B.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "workload/linear_solver.hpp"

namespace {

using namespace bcsim;
using namespace bcsim::bench;

struct Run {
  double cycles = 0;
  double flits = 0;
};

Run solver_run(const conf::MachineSpec& machine) {
  core::Machine m(conf::build_machine(machine));
  workload::LinearSolverConfig sc;
  sc.iterations = 8;
  sc.separate_x_blocks = false;  // colocated: the false-sharing layout
  workload::LinearSolverWorkload w(m, sc);
  w.spawn_all(m);
  const Tick t = run_machine(m, 1'000'000'000ULL);
  return {static_cast<double>(t), static_cast<double>(m.stats().counter_value("net.flits"))};
}

}  // namespace

int main() {
  constexpr std::uint32_t kN = 16;
  std::printf("Ablation: false sharing vs block size (linear solver, colocated x, n=%u)\n",
              kN);
  std::printf("(8 iterations; colocated x vector)\n");

  const std::vector<std::uint32_t> blocks = {1, 2, 4, 8, 16};
  const auto rows = sim::parallel_map<std::vector<double>>(
      blocks.size(), std::function<std::vector<double>(std::size_t)>([&](std::size_t i) {
        const std::uint32_t B = blocks[i];
        const Run w = solver_run({.nodes = kN, .flavor = "wbi", .block_words = B});
        const Run r = solver_run({.nodes = kN, .block_words = B});
        return std::vector<double>{w.cycles, r.cycles, w.cycles / r.cycles, w.flits, r.flits};
      }));
  std::vector<std::string> labels;
  std::vector<std::vector<double>> cells;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    labels.push_back("B=" + std::to_string(blocks[i]));
    cells.push_back(rows[i]);
  }
  print_table("completion time and traffic by block size", "block words",
              {"WBI cycles", "RU cycles", "WBI/RU", "WBI flits", "RU flits"}, labels, cells);
  std::printf("\nReading the table: WBI completion degrades sharply once several owners\n"
              "share a block (B >= 8): colocated writers ping-pong exclusive ownership\n"
              "(false sharing). The read-update machine never invalidates on writes —\n"
              "word-granular WRITE-GLOBALs merge via per-word dirty bits — so it wins\n"
              "clearly at small B; at large B its own cost appears instead (update\n"
              "chains carry whole blocks, see the flit column), which is the paper's\n"
              "motivation for keeping line sizes modest. Either way, the correctness\n"
              "hazard of false sharing (lost updates from delayed whole-line\n"
              "writebacks) is gone by construction.\n");
  return 0;
}
