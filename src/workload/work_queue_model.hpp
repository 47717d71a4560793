// The work-queue workload model (paper section 5.2): "a dynamic scheduling
// paradigm believed to be the kernel of several parallel programs". A
// shared queue of executable tasks is protected by a mutex; each processor
// repeatedly dequeues a task, executes it (`grain` data references under
// the sync-model reference mix), and may enqueue a newly generated task.
// All processors run until the global task budget is drained, then meet at
// a barrier. Completion time of that barrier is the metric the paper plots
// in Figures 4-7.
//
// Queue bookkeeping (head, tail, generated, done) lives in one block: under
// CBL that block IS the lock block, so dequeue/enqueue metadata arrives
// with the lock grant — the paper's data-rides-lock locality. Task slots
// live in a shared ring accessed inside the critical section, which is what
// gives queue manipulation its high shared-access ratio (Table 4: 0.5).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/machine.hpp"
#include "core/sync/barrier.hpp"
#include "core/sync/mutex.hpp"
#include "sim/task.hpp"

namespace bcsim::workload {

struct WorkQueueConfig {
  std::uint32_t total_tasks = 256;    ///< global task budget
  std::uint32_t grain = 100;          ///< data references per task
  double shared_ratio = 0.03;         ///< during task execution (Table 4)
  double read_ratio = 0.85;           ///< Table 4
  std::uint32_t n_shared_blocks = 32; ///< Table 4
  double spawn_prob = 0.5;            ///< chance an executed task spawns a child
  std::uint32_t initial_tasks = 0;    ///< 0: one seed task per processor
};

class WorkQueueWorkload {
 public:
  WorkQueueWorkload(core::Machine& machine, WorkQueueConfig cfg);

  sim::Task run(core::Processor& p);
  void spawn_all(core::Machine& machine);

  /// Number of tasks actually executed (valid after the run; read from
  /// simulated memory, so it also checks queue integrity).
  [[nodiscard]] std::uint64_t tasks_executed(const core::Machine& machine) const;

 private:
  sim::Task execute_task(core::Processor& p, Word task_seed);

  WorkQueueConfig cfg_;
  core::AddressAllocator alloc_;
  std::vector<Addr> shared_blocks_;
  std::unique_ptr<sync::Mutex> queue_lock_;
  std::unique_ptr<sync::Barrier> barrier_;
  bool meta_rides_lock_ = false;

  // Queue layout in shared memory.
  Addr meta_;   ///< meta_+0: head, +1: tail, +2: generated, +3: done
  Addr slots_;  ///< ring of total_tasks slots (task seeds)

  [[nodiscard]] Addr head_addr() const { return meta_ + 0; }
  [[nodiscard]] Addr tail_addr() const { return meta_ + 1; }
  [[nodiscard]] Addr generated_addr() const { return meta_ + 2; }
  [[nodiscard]] Addr done_addr() const { return meta_ + 3; }
  [[nodiscard]] Addr slot_addr(Word i) const { return slots_ + (i % cfg_.total_tasks); }
};

}  // namespace bcsim::workload
