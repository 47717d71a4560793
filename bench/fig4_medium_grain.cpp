// Figure 4 reproduction: completion time vs. number of processors with
// MEDIUM-granularity parallelism (100 data references per task).
//
// Series (matching the paper's lines):
//   WBI        sync-model workload, WBI machine, TTS spin lock
//   CBL        sync-model workload, CBL hardware locks/barrier
//   Q-WBI      work-queue workload, WBI machine, TTS spin lock
//   Q-backoff  work-queue workload, WBI machine, TTS + exponential backoff
//   Q-CBL      work-queue workload, CBL hardware locks/barrier
//
// Expected shape (paper): on the work-queue model the WBI scheme stops
// scaling beyond ~16 nodes; backoff avoids the collapse but does not scale;
// CBL keeps improving. On the low-contention sync model WBI ~ CBL.
#include <cstdio>
#include <functional>

#include "bench_util.hpp"

namespace {

using namespace bcsim;
using namespace bcsim::bench;

constexpr std::uint32_t kGrain = 100;  // medium granularity

double q_line(const conf::MachineSpec& machine) {
  workload::WorkQueueConfig wq;
  wq.total_tasks = 256;
  wq.grain = kGrain;
  return static_cast<double>(run_work_queue(machine, wq).completion);
}

double sync_line(const conf::MachineSpec& machine) {
  workload::SyncModelConfig sm;
  sm.tasks_per_proc = 8;
  sm.grain = kGrain;
  return static_cast<double>(run_sync_model(machine, sm).completion);
}

}  // namespace

int main() {
  std::printf("Figure 4: performance of cache schemes, medium-granularity parallelism\n");
  std::printf("(completion time in machine cycles; grain = %u references/task)\n", kGrain);

  const auto nodes = node_sweep();
  std::vector<std::string> labels;
  std::vector<std::vector<double>> cells;
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
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    labels.push_back("n=" + std::to_string(nodes[i]));
    cells.push_back(rows[i]);
  }
  print_table("Figure 4 series", "processors", cols, labels, cells);

  // The headline claims, checked numerically.
  const std::size_t last = nodes.size() - 1;
  std::printf("\nQ-WBI / Q-CBL at n=%u: %.2fx  (paper: WBI does not scale past 16)\n",
              nodes[last], cells[last][2] / cells[last][4]);
  std::printf("Q-backoff / Q-CBL at n=%u: %.2fx (backoff helps but fails to scale)\n",
              nodes[last], cells[last][3] / cells[last][4]);
  std::printf("WBI / CBL (sync model) at n=%u: %.2fx (comparable at low contention)\n",
              nodes[last], cells[last][0] / cells[last][1]);
  return 0;
}
