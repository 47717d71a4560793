// Ablation: directory precision. The paper chooses pointer-based directory
// structures "since [they are] more scalable than either a full-map or
// limited directory structures" (section 4.1, citing Stenstrom's survey).
// This bench quantifies the alternative it rejected: a Dir_k-B limited
// directory, which broadcasts invalidations once a block has more than k
// sharers. Workload: the red-black stencil, whose halo blocks are shared
// by exactly two nodes — the case where broadcast over-invalidation hurts
// most (the all-to-all solver would hide it: there, everyone really is a
// sharer, so broadcast and full map coincide).
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "workload/stencil.hpp"

namespace {

using namespace bcsim;
using namespace bcsim::bench;

struct Result {
  double cycles = 0;
  double invs = 0;
  double broadcasts = 0;
};

Result run_limit(std::uint32_t n, std::uint32_t limit) {
  core::Machine m(conf::build_machine({.nodes = n, .flavor = "wbi", .dir_limit = limit}));
  workload::StencilConfig sc;
  sc.sweeps = 8;
  sc.cells_per_proc = 8;
  workload::StencilWorkload w(m, sc);
  w.spawn_all(m);
  const Tick t = run_machine(m, 2'000'000'000ULL);
  return {static_cast<double>(t),
          static_cast<double>(m.stats().counter_value("dir.invs")),
          static_cast<double>(m.stats().counter_value("dir.broadcast_invalidations"))};
}

}  // namespace

int main() {
  constexpr std::uint32_t kN = 32;
  std::printf("Ablation: limited-pointer directory (Dir_k-B) vs full map\n");
  std::printf("(red-black stencil, n=%u, 8 sweeps; limit 0 = full map)\n\n", kN);
  std::printf("%-10s%16s%16s%16s\n", "pointers", "cycles", "invalidations", "broadcasts");
  const std::vector<std::uint32_t> limits = {0, 1, 2, 4, 8, 16};
  const auto rows = sim::parallel_map<Result>(
      limits.size(),
      std::function<Result(std::size_t)>([&](std::size_t i) { return run_limit(kN, limits[i]); }));
  for (std::size_t i = 0; i < limits.size(); ++i) {
    std::printf("%-10s%16.0f%16.0f%16.0f\n",
                limits[i] == 0 ? "full" : std::to_string(limits[i]).c_str(), rows[i].cycles,
                rows[i].invs, rows[i].broadcasts);
  }
  std::printf("\nExpected: a halo block has at most two genuine sharers, so the full\n"
              "map sends at most one invalidation per write; once sharers exceed the\n"
              "pointer budget the directory must broadcast to all %u nodes, inflating\n"
              "invalidations by an order of magnitude. The barrier counters (widely\n"
              "shared) are what push small-limit configurations over the edge.\n", kN);
  return 0;
}
