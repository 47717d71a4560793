// Figure 6 reproduction: buffered consistency (BC-CBL) vs sequential
// consistency (SC-CBL) on the work-queue workload with FINE-granularity
// parallelism (10 data references per task), on the paper's machine
// (read-update coherence + CBL locks); bench_util.hpp's consistency_figure.
//
// Expected shape (paper): BC improves completion time for most cases, but
// the improvement is modest — global writes happen only with probability
// sh x write_ratio ~ 0.45% of references in the tested workload.
#include <cstdio>

#include "bench_util.hpp"

int main() {
  const double worst =
      bcsim::bench::consistency_figure(6, "fine", /*grain=*/10, /*tasks=*/384);
  if (worst <= 100.0) {
    std::printf("\nBC is never slower than SC here (max BC/SC = %.1f%%); the gain is\n"
                "modest, as the paper reports, because buffered global writes are a\n"
                "small fraction of all references.\n", worst);
  } else {
    std::printf("\nBC is slower than SC at some n here (max BC/SC = %.1f%%).\n", worst);
  }
  return 0;
}
