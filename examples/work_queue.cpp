// Example: the paper's work-queue workload (dynamic task scheduling from a
// lock-protected shared queue) across lock implementations.
//
//   $ ./work_queue [n_processors] [total_tasks] [grain]
//
// This is a runnable slice of Figure 4: watch the test-and-set spin lock
// drown in invalidation traffic as processors are added, while the CBL
// queue lock hands the queue head from cache to cache.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "conf/scenario.hpp"
#include "core/machine.hpp"
#include "workload/work_queue_model.hpp"

using namespace bcsim;

namespace {

struct Outcome {
  Tick completion;
  std::uint64_t messages;
  std::uint64_t tasks;
};

Outcome run(core::LockImpl lock, std::uint32_t n, std::uint32_t tasks, std::uint32_t grain) {
  // The CBL lock runs with its flavor's CBL barrier; the software locks
  // run on the WBI machine.
  const bool cbl = lock == core::LockImpl::kCbl;
  core::Machine m(conf::build_machine({.nodes = n,
                                       .flavor = cbl ? "cbl-on-wbi" : "wbi",
                                       .lock = std::string(core::to_string(lock))}));
  workload::WorkQueueConfig wq;
  wq.total_tasks = tasks;
  wq.grain = grain;
  workload::WorkQueueWorkload w(m, wq);
  w.spawn_all(m);
  const Tick t = m.run();
  return {t, m.stats().counter_value("net.messages"), w.tasks_executed(m)};
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t n = argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 16;
  const std::uint32_t tasks = argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 128;
  const std::uint32_t grain = argc > 3 ? static_cast<std::uint32_t>(std::atoi(argv[3])) : 100;

  std::printf("work-queue: %u processors, %u tasks, grain %u\n\n", n, tasks, grain);
  std::printf("%-14s%14s%14s%12s\n", "lock", "cycles", "messages", "tasks run");
  for (auto lock : {core::LockImpl::kTts, core::LockImpl::kTtsBackoff, core::LockImpl::kTicket,
                    core::LockImpl::kMcs, core::LockImpl::kCbl}) {
    const auto o = run(lock, n, tasks, grain);
    std::printf("%-14s%14llu%14llu%12llu\n", std::string(core::to_string(lock)).c_str(),
                static_cast<unsigned long long>(o.completion),
                static_cast<unsigned long long>(o.messages),
                static_cast<unsigned long long>(o.tasks));
  }
  std::printf("\nUnder CBL the queue metadata lives in the lock block itself, so the\n"
              "dequeue/enqueue state arrives with the grant — the paper's\n"
              "\"synchronization merged with data transfer\".\n");
  return 0;
}
