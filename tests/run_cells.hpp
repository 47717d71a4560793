// Work-queue runs shared by test_pins (which pins each as a `run` line of
// tests/pins.txt) and test_allocs (which bounds the heap allocations each
// makes inside Machine::run). A cell is a `bcsim run` invocation: it is
// built through conf::build_machine and conf::WorkloadInstance, the path
// the CLI takes.
#pragma once

#include <cstdint>

#include "conf/scenario.hpp"

namespace bcsim::test {

struct RunCell {
  const char* name;
  conf::MachineSpec machine;
  std::uint32_t tasks;
  std::uint64_t max_allocs;  ///< ceiling on heap allocations inside Machine::run
};

/// `--workload work-queue --grain 20 --tasks <tasks>`: the section 5.2
/// work queue at a fine grain.
inline conf::WorkloadSpec work_queue(std::uint32_t tasks) {
  conf::WorkloadSpec w;
  w.work_queue.total_tasks = tasks;
  w.work_queue.grain = 20;
  return w;
}

/// The three machines (WBI with a TTS lock and a central barrier, WBI
/// with CBL, the paper's read-update + BC + CBL) on 8 nodes, the paper
/// machine on bounded omega and mesh fabrics, WBI on a depth-1 fabric
/// whose 1-pointer directory overflows into 2-node regions, and the paper
/// machine on 64 nodes. The allocation ceilings are exact counts measured
/// with g++ 12.2 (Release, RelWithDebInfo and Debug agree).
inline const RunCell kRunCells[] = {
    {"e2e.wbi", {.nodes = 8, .flavor = "wbi"}, 64, 5321},
    {"e2e.cbl", {.nodes = 8, .flavor = "cbl-on-wbi"}, 64, 2062},
    {"e2e.paper", {.nodes = 8, .flavor = "paper"}, 64, 2006},
    {"fabric.omega", {.nodes = 8, .flavor = "paper", .buffer_depth = 4}, 64, 2006},
    {"fabric.mesh", {.nodes = 8, .flavor = "paper", .network = "mesh", .buffer_depth = 4},
     64, 2015},
    {"fabric.coarse",
     {.nodes = 8, .flavor = "wbi", .buffer_depth = 1, .dir_limit = 1, .dir_overflow = "coarse",
      .dir_region = 2},
     64, 5879},
    {"e2e.wq", {.nodes = 64, .flavor = "paper"}, 128, 4207},
};

}  // namespace bcsim::test
