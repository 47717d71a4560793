// The "sync" workload model (paper section 5.2): a probabilistic memory
// reference generator in the style of Archibald & Baer, extended with
// synchronization operations. Each processor executes a fixed number of
// tasks; a task is `grain` data references (each private with probability
// 1 - shared_ratio, otherwise a read or write of a random shared block);
// tasks are separated by a synchronization operation — a lock-protected
// critical section with probability lock_ratio, a barrier otherwise.
//
// Parameter defaults follow paper Table 4.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/machine.hpp"
#include "core/sync/barrier.hpp"
#include "core/sync/mutex.hpp"
#include "sim/task.hpp"

namespace bcsim::workload {

struct SyncModelConfig {
  std::uint32_t tasks_per_proc = 16;   ///< tasks each processor executes
  std::uint32_t grain = 100;           ///< data references per task (granularity)
  double shared_ratio = 0.03;          ///< Table 4: task-execution shared ratio
  double read_ratio = 0.85;            ///< Table 4
  std::uint32_t n_shared_blocks = 32;  ///< Table 4
  double lock_ratio = 0.5;             ///< Table 4: lock vs barrier sync ops
  std::uint32_t n_locks = 8;           ///< locks drawn uniformly (low contention)
  std::uint32_t cs_references = 4;     ///< references inside a critical section
  std::uint64_t schedule_seed = 0x5c4ed01eULL;  ///< shared lock/barrier schedule
};

class SyncModelWorkload {
 public:
  SyncModelWorkload(core::Machine& machine, SyncModelConfig cfg);

  /// Program for processor `p`; spawn one per node.
  sim::Task run(core::Processor& p);

  /// Registers one program per processor on the machine.
  void spawn_all(core::Machine& machine);

 private:
  /// True when task slot `t` synchronizes with a lock (false: barrier).
  /// The schedule is shared by all processors — a per-processor coin flip
  /// would deadlock the barrier.
  [[nodiscard]] bool lock_slot(std::uint32_t t) const;

  SyncModelConfig cfg_;
  core::AddressAllocator alloc_;
  std::vector<Addr> shared_blocks_;
  std::vector<std::unique_ptr<sync::Mutex>> locks_;
  std::vector<Addr> lock_data_;  ///< per-lock protected block
  std::unique_ptr<sync::Barrier> barrier_;
};

}  // namespace bcsim::workload
