// Figure 5 reproduction: completion time vs. number of processors with
// COARSE-granularity parallelism (1000 data references per task); the five
// series are bench_util.hpp's cache_scheme_figure.
//
// Expected shape (paper): coarser tasks dilute synchronization, so the WBI
// scheme scales further than in Figure 4, but its performance still
// degrades beyond ~32 nodes, while CBL keeps improving.
#include <cstdio>

#include "bench_util.hpp"

int main() {
  using namespace bcsim::bench;
  const auto cells = cache_scheme_figure(5, "coarse", /*grain=*/1000, /*queue_tasks=*/128,
                                         /*tasks_per_proc=*/4);
  const auto nodes = node_sweep();

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
