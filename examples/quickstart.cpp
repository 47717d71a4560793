// Quickstart: build the paper's machine, run a tiny parallel program that
// uses the Table-1 primitives, and print what happened.
//
//   $ ./quickstart
//
// The program: four processors increment a shared counter under a CBL
// write-lock (the counter rides the lock block, so critical-section
// accesses are local), publish per-processor results with WRITE-GLOBAL
// under buffered consistency, flush before the hardware barrier (CP-Synch
// discipline), and one processor reads everyone's result via READ-UPDATE.
#include <cstdio>

#include "conf/scenario.hpp"
#include "core/machine.hpp"
#include "core/sync/barrier.hpp"
#include "core/sync/mutex.hpp"

using namespace bcsim;

namespace {

struct Program {
  sync::Mutex& mutex;
  sync::Barrier& barrier;
  Addr counter;
  Addr results;
  std::uint32_t n;

  sim::Task operator()(core::Processor& p) const {
    // Phase 1: contended critical sections.
    for (int k = 0; k < 5; ++k) {
      co_await mutex.acquire(p);
      const Word v = co_await p.read(counter);  // local: data rode the grant
      co_await p.compute(3);
      co_await p.write(counter, v + 1);
      co_await mutex.release(p);  // flushes, then releases (CP-Synch)
      co_await p.compute(10);
    }
    // Phase 2: publish a per-processor value; the write buffer absorbs it
    // (buffered consistency) and the barrier's flush makes it global.
    co_await p.write_global(results + p.id(), 100 + p.id());
    co_await barrier.wait(p);
    // Phase 3: processor 0 reads everyone's result, subscribing to updates.
    if (p.id() == 0) {
      Word sum = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        sum += co_await p.read_update(results + i);
      }
      std::printf("sum of published results: %llu (expected %u)\n",
                  static_cast<unsigned long long>(sum), 100 * n + n * (n - 1) / 2);
    }
  }
};

}  // namespace

int main() {
  // The paper's machine: read-update coherence, CBL locks, buffered
  // consistency, Omega network. Table 4 defaults for everything else.
  const auto cfg = conf::build_machine({.nodes = 4, .flavor = "paper"});
  core::Machine m(cfg);

  auto alloc = m.make_allocator();
  sync::CblMutex mutex(alloc);
  sync::CblBarrier barrier(alloc, cfg.n_nodes);
  const Addr counter = mutex.lock_addr() + 1;  // rides the lock block
  const Addr results = alloc.alloc_words(cfg.n_nodes);

  Program prog{mutex, barrier, counter, results, cfg.n_nodes};
  for (NodeId i = 0; i < cfg.n_nodes; ++i) m.spawn(prog(m.processor(i)));

  const Tick t = m.run();
  std::printf("completed in %llu cycles\n", static_cast<unsigned long long>(t));
  std::printf("final counter: %llu (expected 20)\n",
              static_cast<unsigned long long>(m.peek_memory(counter)));
  std::printf("network messages: %llu, lock grants: %llu, RU updates: %llu\n",
              static_cast<unsigned long long>(m.stats().counter_value("net.messages")),
              static_cast<unsigned long long>(m.stats().counter_value("cache.lock_granted")),
              static_cast<unsigned long long>(
                  m.stats().counter_value("cache.ru_updates_received")));
  return 0;
}
