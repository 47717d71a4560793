// Ablation A4: CBL vs software queue locks the paper predates or inspired.
// MCS (1991) provides the same O(1)-handoff property in software; the
// ticket lock queues but spins on a single location. This bench replays
// the parallel-lock scenario and the work-queue workload across all lock
// implementations — the modern context for the paper's CBL claims.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/sync/mutex.hpp"

namespace {

using namespace bcsim;
using namespace bcsim::bench;
using core::Machine;
using core::Processor;

double contended_locks(const core::MachineConfig& cfg, int iters) {
  Machine m(cfg);
  auto alloc = m.make_allocator(100);
  auto mtx = sync::make_mutex(cfg.lock_impl, alloc, m.n_nodes());
  const Addr counter = mtx->data_rides_lock() ? mtx->lock_addr() + 1 : alloc.alloc_blocks(1);
  struct Prog {
    sync::Mutex& mtx;
    Addr counter;
    int iters;
    sim::Task operator()(Processor& p) const {
      for (int k = 0; k < iters; ++k) {
        co_await mtx.acquire(p);
        const Word v = co_await p.read(counter);
        co_await p.compute(10);
        co_await p.write(counter, v + 1);
        co_await mtx.release(p);
        co_await p.compute(20);
      }
    }
  } prog{*mtx, counter, iters};
  for (NodeId i = 0; i < m.n_nodes(); ++i) m.spawn(prog(m.processor(i)));
  return static_cast<double>(run_machine(m, 2'000'000'000ULL));
}

}  // namespace

int main() {
  std::printf("Ablation: CBL vs software locks (contended counter, 12 CS/processor)\n");
  const std::vector<std::uint32_t> nodes = {4, 8, 16, 32, 64};
  const std::vector<std::string> locks = {"tts", "tts-backoff", "ticket", "mcs", "cbl"};
  const auto rows = sim::parallel_map<std::vector<double>>(
      nodes.size(), std::function<std::vector<double>(std::size_t)>([&](std::size_t i) {
        std::vector<double> row;
        for (const std::string& lock : locks) {
          // CBL runs on the CBL machine, with its hardware barrier.
          const char* flavor = lock == "cbl" ? "cbl-on-wbi" : "wbi";
          row.push_back(contended_locks(
              conf::build_machine({.nodes = nodes[i], .flavor = flavor, .lock = lock}), 12));
        }
        return row;
      }));
  std::vector<std::string> labels;
  std::vector<std::vector<double>> cells;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    labels.push_back("n=" + std::to_string(nodes[i]));
    cells.push_back(rows[i]);
  }
  print_table("completion time (cycles)", "processors", locks, labels, cells);
  std::printf("\nExpected: tts collapses with n; ticket improves (one release wakes all\n"
              "spinners but handoff is O(1)); mcs scales like cbl in message count;\n"
              "cbl still wins by merging the data transfer with the lock grant and by\n"
              "doing the queueing in cache hardware (fewer round trips per handoff).\n");
  return 0;
}
