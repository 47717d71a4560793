// Lowers an ir::Program onto a real core::Machine — the one machine runner
// behind `bcsim diff`, `model`, `chaos` and `check` (docs/TESTING.md).
//
// Objects are allocated in declaration order (ir/program.hpp); thread t
// runs on processor t as one coroutine using the protocol-agnostic access
// helpers of workload/access.hpp and the sync library, so WBI, read-update
// + BC and CBL-on-WBI all execute the program through their native
// primitives. Loads and stores map onto the flavor's shared accessors,
// kCsAdd and kCsLoad onto the critical-section accessors (lock-riding
// data travels with the grant), kReadLock onto the lock's shared
// acquisition, kFetchAdd onto FETCH&ADD, kFence onto FLUSH-BUFFER, kUnsub
// onto RESET-UPDATE (read-update only). Semaphore counts are poked into
// memory before tick 0, which is equivalent to a one-time init with empty
// caches.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "ir/program.hpp"

namespace bcsim::ir {

struct RunResult {
  bool completed = false;  ///< every thread done and the machine quiescent
  Tick completion = 0;
  std::string error;        ///< exception text (budget exhausted, invariant, watchdog)
  std::uint64_t digest = 0; ///< Machine::stats_digest() when the run ended
  /// FNV-1a over `loads` (each thread's count, then its values in program
  /// order) and then Machine::data_digest(); set even after an exception.
  std::uint64_t data = 0;
  std::vector<std::vector<Observation>> loads;  ///< per thread, program order
  std::vector<Word> final_locs;  ///< per location via peek_coherent; empty after an exception
  std::vector<Word> final_sems;  ///< per semaphore count; empty after an exception
  std::vector<Addr> loc_addr;    ///< the layout, for naming addr/block in reports
  std::vector<Addr> sem_addr;    ///< semaphore count words, same purpose
};

/// Runs `prog` on a machine built from `cfg` (cfg.n_nodes must be at least
/// the thread count; throws std::invalid_argument otherwise). Simulation
/// failures are reported in `error`, never thrown, so a harness can judge
/// "machine stuck" with context. When `trace_tail` is non-null and
/// cfg.trace is on, the newest trace records are written there after the
/// run (the replay path).
[[nodiscard]] RunResult run_program(const Program& prog, const core::MachineConfig& cfg,
                                    Tick budget = 100'000'000,
                                    std::ostream* trace_tail = nullptr);

}  // namespace bcsim::ir
