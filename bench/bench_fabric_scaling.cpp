// Fabric + directory scaling study: completion time of the work-queue
// workload for the three machine flavors as the node count grows 16 -> 1024,
// comparing an unbounded (infinite-buffer) fabric against a bounded
// credit-flow fabric, and a full-map directory against the coarse-vector
// overflow representation. Feeds the scaling table in docs/BENCHMARKS.md
// ("Bounded fabric & coarse directory").
//
//   bench_fabric_scaling [--quick]
//
// Every cell must complete inside its tick budget — a cell that does not is
// a liveness bug (credit deadlock or lost invalidation), and the bench
// fails loudly. The bounded columns also report the new backpressure
// counters; the coarse columns report overflow/invalidation rounds so the
// storage/traffic trade is visible, not just asserted.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace bcsim;
using namespace bcsim::bench;
using Clock = std::chrono::steady_clock;

struct Variant {
  const char* name;
  std::uint32_t buffer_depth;  // 0 = unbounded
  bool coarse;                 // coarse-vector directory overflow
};

// Depth 1 is the harshest legal fabric: one slot per port, so any two
// messages contending for a hot port within a credit round-trip stall.
constexpr Variant kVariants[] = {
    {"unbounded/full-map", 0, false},
    {"bounded1/full-map", 1, false},
    {"bounded1/coarse", 1, true},
};

struct Cell {
  bool done = false;
  Tick completion = 0;
  double wall_ms = 0;
  std::uint64_t messages = 0;
  std::uint64_t inject_stalls = 0;
  std::uint64_t credit_stalls = 0;
  std::uint64_t coarse_overflows = 0;
  std::uint64_t coarse_invs = 0;
};

Cell run_cell(const char* flavor, const Variant& v, std::uint32_t nodes,
              std::uint32_t tasks, std::uint32_t grain) {
  conf::MachineSpec spec{.nodes = nodes, .flavor = flavor, .buffer_depth = v.buffer_depth};
  if (v.coarse) {
    spec.dir_limit = 8;
    spec.dir_overflow = "coarse";
    // Region granularity grows with the machine so the mask stays narrow
    // (32 regions at every size), mirroring the paper's storage argument.
    spec.dir_region = nodes <= 32 ? 1 : nodes / 32;
  }
  workload::WorkQueueConfig wq;
  wq.total_tasks = tasks;
  wq.grain = grain;
  core::Machine m(conf::build_machine(spec));
  workload::WorkQueueWorkload w(m, wq);
  w.spawn_all(m);
  Cell c;
  const auto t0 = Clock::now();
  c.completion = m.run(4'000'000'000ULL);
  c.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  c.done = m.all_done();
  c.messages = m.stats().counter_value("net.messages");
  c.inject_stalls = m.stats().counter_value("net.inject_stall_cycles");
  c.credit_stalls = m.stats().counter_value("net.credit_stall_cycles");
  c.coarse_overflows = m.stats().counter_value("dir.coarse_overflows");
  c.coarse_invs = m.stats().counter_value("dir.coarse_invalidations");
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const std::vector<std::uint32_t> nodes =
      quick ? std::vector<std::uint32_t>{16, 64, 256}
            : std::vector<std::uint32_t>{16, 64, 256, 1024};
  const std::uint32_t grain = quick ? 20 : 60;

  std::printf("Fabric + directory scaling (work-queue, omega, grain %u%s)\n", grain,
              quick ? ", quick" : "");
  std::printf("%-10s %-6s %-20s %12s %10s %12s %11s %11s %9s %9s\n", "flavor",
              "nodes", "variant", "ticks", "wall_ms", "messages", "inj_stall",
              "cred_stall", "ovfl", "c_invs");

  bool all_done = true;
  for (const char* flavor : {"wbi", "cbl-on-wbi", "paper"}) {
    for (const std::uint32_t n : nodes) {
      const std::uint32_t tasks = quick ? n : 2 * n;
      for (const Variant& v : kVariants) {
        const Cell c = run_cell(flavor, v, n, tasks, grain);
        all_done = all_done && c.done;
        std::printf("%-10s %-6u %-20s %12llu %10.1f %12llu %11llu %11llu %9llu %9llu%s\n",
                    flavor, n, v.name,
                    static_cast<unsigned long long>(c.completion), c.wall_ms,
                    static_cast<unsigned long long>(c.messages),
                    static_cast<unsigned long long>(c.inject_stalls),
                    static_cast<unsigned long long>(c.credit_stalls),
                    static_cast<unsigned long long>(c.coarse_overflows),
                    static_cast<unsigned long long>(c.coarse_invs),
                    c.done ? "" : "  INCOMPLETE");
      }
    }
    std::printf("\n");
  }
  if (!all_done) {
    std::printf("FAIL: a cell exhausted its budget — fabric or directory "
                "liveness bug.\n");
    return 1;
  }
  std::printf("All cells completed. Bounded columns pay stall cycles, never "
              "correctness;\ncoarse columns trade extra invalidations for "
              "32-region directory storage.\n");
  return 0;
}
