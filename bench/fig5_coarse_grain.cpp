// Figure 5 reproduction: completion time vs. number of processors with
// COARSE-granularity parallelism (1000 data references per task).
//
// Expected shape (paper): coarser tasks dilute synchronization, so the WBI
// scheme scales further than in Figure 4, but its performance still
// degrades beyond ~32 nodes, while CBL keeps improving.
#include <cstdio>
#include <functional>

#include "bench_util.hpp"

namespace {

using namespace bcsim;
using namespace bcsim::bench;

constexpr std::uint32_t kGrain = 1000;  // coarse granularity

double q_line(const conf::MachineSpec& machine) {
  workload::WorkQueueConfig wq;
  wq.total_tasks = 128;
  wq.grain = kGrain;
  return static_cast<double>(run_work_queue(machine, wq).completion);
}

double sync_line(const conf::MachineSpec& machine) {
  workload::SyncModelConfig sm;
  sm.tasks_per_proc = 4;
  sm.grain = kGrain;
  return static_cast<double>(run_sync_model(machine, sm).completion);
}

}  // namespace

int main() {
  std::printf("Figure 5: performance of cache schemes, coarse-granularity parallelism\n");
  std::printf("(completion time in machine cycles; grain = %u references/task)\n", kGrain);

  const auto nodes = node_sweep();
  const std::vector<std::string> cols = {"WBI", "CBL", "Q-WBI", "Q-backoff", "Q-CBL"};
  const auto rows = sim::parallel_map<std::vector<double>>(
      nodes.size(), std::function<std::vector<double>(std::size_t)>([&](std::size_t i) {
        const std::uint32_t n = nodes[i];
        return std::vector<double>{
            sync_line({.nodes = n, .flavor = "wbi"}),
            sync_line({.nodes = n, .flavor = "cbl-on-wbi"}),
            q_line({.nodes = n, .flavor = "wbi"}),
            q_line({.nodes = n, .flavor = "wbi", .lock = "tts-backoff"}),
            q_line({.nodes = n, .flavor = "cbl-on-wbi"}),
        };
      }));
  std::vector<std::string> labels;
  std::vector<std::vector<double>> cells;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    labels.push_back("n=" + std::to_string(nodes[i]));
    cells.push_back(rows[i]);
  }
  print_table("Figure 5 series", "processors", cols, labels, cells);

  // Shape checks: the WBI degradation point moves out with coarser grain.
  std::size_t best_wbi = 0, best_cbl = 0;
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    if (cells[i][2] < cells[best_wbi][2]) best_wbi = i;
    if (cells[i][4] < cells[best_cbl][4]) best_cbl = i;
  }
  std::printf("\nQ-WBI best at n=%u; Q-CBL best at n=%u (CBL scales at least as far)\n",
              nodes[best_wbi], nodes[best_cbl]);
  const std::size_t last = nodes.size() - 1;
  std::printf("Q-WBI / Q-CBL at n=%u: %.2fx\n", nodes[last], cells[last][2] / cells[last][4]);
  return 0;
}
