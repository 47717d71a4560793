// Figure 7 reproduction: buffered consistency (BC-CBL) vs sequential
// consistency (SC-CBL) on the work-queue workload with MEDIUM-granularity
// parallelism (100 data references per task); bench_util.hpp's
// consistency_figure.
//
// Expected shape (paper): as Figure 6, with an even smaller BC advantage —
// coarser tasks mean proportionally fewer synchronization points whose
// latency buffering can hide. EXPERIMENTS.md compares the two figures per n.
#include <cstdio>

#include "bench_util.hpp"

int main() {
  const double worst =
      bcsim::bench::consistency_figure(7, "medium", /*grain=*/100, /*tasks=*/256);
  std::printf("\nMax BC/SC = %.1f%%.\n", worst);
  return 0;
}
