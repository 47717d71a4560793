// Runs shared by test_pins (which pins each as a `run` line of
// tests/pins.txt) and test_allocs (which bounds the heap allocations each
// makes inside Machine::run). A cell is a `bcsim run` invocation: it is
// built through conf::build_machine and conf::WorkloadInstance, the path
// the CLI takes.
#pragma once

#include <cstdint>
#include <string>

#include "conf/scenario.hpp"

namespace bcsim::test {

struct RunCell {
  const char* name;
  conf::MachineSpec machine;
  const char* workload;      ///< `--workload`: work-queue or sync-model
  std::uint32_t tasks;       ///< `--tasks`
  std::uint32_t grain;       ///< `--grain`
  std::uint64_t max_allocs;  ///< ceiling on heap allocations inside Machine::run
};

/// The section 5.2 work queue with a `tasks` budget and `grain` references
/// per task.
inline conf::WorkloadSpec work_queue(std::uint32_t tasks, std::uint32_t grain) {
  conf::WorkloadSpec w;
  w.work_queue.total_tasks = tasks;
  w.work_queue.grain = grain;
  return w;
}

/// The workload of `bcsim run --workload <workload> --tasks <tasks>
/// --grain <grain>` on the cell's machine, through the CLI's flag rows (the
/// sync model gets tasks / nodes tasks per processor).
inline conf::WorkloadSpec workload(const RunCell& c) {
  conf::Scenario s{c.machine, {}};
  conf::apply_flags(s, {{"--workload", c.workload},
                        {"--tasks", std::to_string(c.tasks)},
                        {"--grain", std::to_string(c.grain)}});
  return s.workload;
}

/// The three machines (WBI with a TTS lock and a central barrier, WBI
/// with CBL, the paper's read-update + BC + CBL) on 8 nodes, the paper
/// machine on bounded omega and mesh fabrics, WBI on a depth-1 fabric
/// whose 1-pointer directory overflows into 2-node regions, WBI on a
/// ragged 4x3 mesh at buffer depth 2, the paper machine on a 12-node omega
/// padded to 16 wires at depth 3, and the paper machine on 64 nodes; then
/// the four workloads of BENCHMARK.json at 1/16 of their task counts
/// (perfbench's `--task-divisor 16`, so each `run` line's digest is the
/// one `bcsim_e2e --task-divisor 16 --seed 1` prints), and the sync model
/// on the three machines. The allocation ceilings are exact counts
/// measured with g++ 12.2 (Release, RelWithDebInfo and the
/// -DBCSIM_SANITIZE=ON build agree). Each includes its caches' set chunks
/// (a cache that fills S sets allocates bit_width(S) of them) and, on WBI
/// machines above 64 nodes, one sharer bitmap per directory entry that
/// gains a sharer.
inline const RunCell kRunCells[] = {
    {"e2e.wbi", {.nodes = 8, .flavor = "wbi"}, "work-queue", 64, 20, 825},
    {"e2e.cbl", {.nodes = 8, .flavor = "cbl-on-wbi"}, "work-queue", 64, 20, 707},
    {"e2e.paper", {.nodes = 8, .flavor = "paper"}, "work-queue", 64, 20, 637},
    {"fabric.omega", {.nodes = 8, .flavor = "paper", .buffer_depth = 4}, "work-queue", 64, 20,
     637},
    {"fabric.mesh", {.nodes = 8, .flavor = "paper", .network = "mesh", .buffer_depth = 4},
     "work-queue", 64, 20, 639},
    {"fabric.coarse",
     {.nodes = 8, .flavor = "wbi", .buffer_depth = 1, .dir_limit = 1, .dir_overflow = "coarse",
      .dir_region = 2},
     "work-queue", 64, 20, 1392},
    {"fabric.mesh-ragged", {.nodes = 10, .flavor = "wbi", .network = "mesh", .buffer_depth = 2},
     "work-queue", 64, 20, 850},
    {"fabric.omega-padded", {.nodes = 12, .flavor = "paper", .buffer_depth = 3}, "work-queue",
     64, 20, 647},
    {"e2e.wq", {.nodes = 64, .flavor = "paper"}, "work-queue", 128, 20, 1430},
    {"perf.wq-wbi-512", {.nodes = 512, .flavor = "wbi"}, "work-queue", 16, 60, 6031},
    {"perf.wq-ru-1024", {.nodes = 1024, .flavor = "paper"}, "work-queue", 512, 100, 11186},
    {"perf.wq-cbl-64-g1000", {.nodes = 64, .flavor = "cbl-on-wbi"}, "work-queue", 256, 1000,
     4127},
    {"perf.mesh-bounded-512",
     {.nodes = 512, .flavor = "wbi", .network = "mesh", .buffer_depth = 1, .dir_limit = 8,
      .dir_overflow = "coarse", .dir_region = 32},
     "work-queue", 8, 20, 12238},
    {"sync.wbi", {.nodes = 16, .flavor = "wbi"}, "sync-model", 512, 100, 2117},
    {"sync.cbl", {.nodes = 16, .flavor = "cbl-on-wbi"}, "sync-model", 512, 100, 1848},
    {"sync.paper", {.nodes = 16, .flavor = "paper"}, "sync-model", 512, 100, 1852},
};

}  // namespace bcsim::test
