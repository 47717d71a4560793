// Ablation A3: interconnect choice. The paper leaves the network
// "intentionally unspecified" but evaluates on a multistage Omega network;
// this bench quantifies how much the conclusions depend on that choice by
// replaying the Figure-4 style work-queue comparison on an ideal
// fixed-latency network, a crossbar, and the Omega network.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace bcsim;
using namespace bcsim::bench;

double run_q(const conf::MachineSpec& machine) {
  workload::WorkQueueConfig wq;
  wq.total_tasks = 192;
  wq.grain = 100;
  return static_cast<double>(run_work_queue(machine, wq).completion);
}

}  // namespace

int main() {
  std::printf("Ablation: interconnection network (work-queue, grain 100, 192 tasks)\n");
  const std::vector<std::uint32_t> nodes = {4, 16, 64};
  std::vector<std::string> labels;
  std::vector<std::vector<double>> cells;
  const auto rows = sim::parallel_map<std::vector<double>>(
      nodes.size(), std::function<std::vector<double>(std::size_t)>([&](std::size_t i) {
        std::vector<double> row;
        for (const char* flavor : {"wbi", "cbl-on-wbi"}) {
          for (const char* network : {"ideal", "crossbar", "omega", "mesh"}) {
            row.push_back(run_q({.nodes = nodes[i], .flavor = flavor, .network = network}));
          }
        }
        return row;
      }));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    labels.push_back("n=" + std::to_string(nodes[i]));
    cells.push_back(rows[i]);
  }
  print_table("completion time by network", "processors",
              {"WBI/ideal", "WBI/xbar", "WBI/omega", "WBI/mesh", "CBL/ideal", "CBL/xbar",
               "CBL/omega", "CBL/mesh"},
              labels, cells);
  std::printf("\nExpected: CBL's advantage holds on every network; the gap widens on\n"
              "the Omega network, where the WBI scheme's O(n^2) synchronization\n"
              "messages also pay queuing delay (hot-spot contention).\n");
  return 0;
}
