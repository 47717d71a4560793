// Ablation A2: lock-cache capacity. Lock lines pinned in the lock queue
// are unreplaceable, so the small fully-associative lock cache bounds how
// many locks a node can hold or wait for. The paper treats sizing as a
// compile-time resource-management problem; this bench quantifies the
// cliff: processors acquire `kNested` locks in a global nesting order, so
// capacities below kNested force acquisition stalls.
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

constexpr std::uint32_t kNested = 4;

struct Result {
  double completion = 0;
  double stalls = 0;
};

Result run_nested(std::uint32_t lock_cache_entries);

/// Capacity below the nesting depth is not a slowdown but a deadlock: a
/// node holding k locks waits for a free lock-cache slot that only its own
/// further progress could release. The paper's remedy is compile-time
/// conservatism ("mapping of software locks to hardware locks is a compile
/// time decision made conservatively"); the bench reports the cliff.
Result run_guarded(std::uint32_t entries) {
  try {
    return run_nested(entries);
  } catch (const std::runtime_error&) {
    return {-1.0, -1.0};  // cycle budget exhausted: deadlocked
  }
}

Result run_nested(std::uint32_t lock_cache_entries) {
  core::MachineConfig cfg = conf::build_machine({.nodes = 8, .flavor = "cbl-on-wbi"});
  cfg.lock_cache_entries = lock_cache_entries;
  Machine m(cfg);
  auto alloc = m.make_allocator(100);
  std::vector<Addr> locks;
  for (std::uint32_t l = 0; l < kNested; ++l) locks.push_back(alloc.alloc_blocks(1));
  struct Prog {
    const std::vector<Addr>& locks;
    sim::Task operator()(Processor& p) const {
      for (int k = 0; k < 16; ++k) {
        // Hierarchical (ordered) nesting: deadlock-free by construction.
        for (Addr l : locks) co_await p.write_lock(l);
        co_await p.compute(20);
        for (auto it = locks.rbegin(); it != locks.rend(); ++it) co_await p.unlock(*it);
        co_await p.compute(5);
      }
    }
  } prog{locks};
  for (NodeId i = 0; i < m.n_nodes(); ++i) m.spawn(prog(m.processor(i)));
  const Tick t = m.run(200'000'000ULL);
  if (!m.all_done()) return {-1.0, -1.0};  // deadlocked: event queue drained
  return {static_cast<double>(t),
          static_cast<double>(m.stats().counter_value("cache.lock_cache_stalls"))};
}

}  // namespace

int main() {
  std::printf("Ablation: lock-cache capacity (8 nodes, %u nested locks per critical path)\n",
              kNested);
  const std::vector<std::uint32_t> caps = {1, 2, 3, 4, 6, 8, 16};
  const auto rows = sim::parallel_map<Result>(
      caps.size(),
      std::function<Result(std::size_t)>([&](std::size_t i) { return run_guarded(caps[i]); }));
  std::printf("%-10s%16s%16s\n", "entries", "completion", "capacity stalls");
  for (std::size_t i = 0; i < caps.size(); ++i) {
    if (rows[i].completion < 0) {
      std::printf("%-10u%16s%16s\n", caps[i], "DEADLOCK", "-");
    } else {
      std::printf("%-10u%16.0f%16.0f\n", caps[i], rows[i].completion, rows[i].stalls);
    }
  }
  std::printf("\nExpected: capacity below the nesting depth (%u) deadlocks — exactly why\n"
              "the paper requires the compiler to map software locks to hardware locks\n"
              "conservatively. At or above the depth, modest extra slack absorbs\n"
              "releases still in flight.\n", kNested);
  return 0;
}
