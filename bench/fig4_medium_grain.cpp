// Figure 4 reproduction: completion time vs. number of processors with
// MEDIUM-granularity parallelism (100 data references per task); the five
// series are bench_util.hpp's cache_scheme_figure.
//
// Expected shape (paper): on the work-queue model the WBI scheme stops
// scaling beyond ~16 nodes; backoff avoids the collapse but does not scale;
// CBL keeps improving. On the low-contention sync model WBI ~ CBL.
#include <cstdio>

#include "bench_util.hpp"

int main() {
  using namespace bcsim::bench;
  const auto cells = cache_scheme_figure(4, "medium", /*grain=*/100, /*queue_tasks=*/256,
                                         /*tasks_per_proc=*/8);
  const auto nodes = node_sweep();

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
