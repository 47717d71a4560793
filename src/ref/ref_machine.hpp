// Golden sequentially-consistent reference machine.
//
// A cache-less, buffer-less interpreter of ir::Program: one atomic global
// memory, blocking lock/barrier/semaphore semantics, and a seeded
// scheduler that executes exactly one operation of one runnable thread
// per step. Every execution it can produce is sequentially consistent by
// construction (operations are atomic and interleaved, never reordered or
// buffered), so for a DRF program its observed loads, final location
// values, and final semaphore counts are the ground truth the full
// machine must reproduce (docs/TESTING.md, "Differential testing").
// kLoad and kLoadOnce both read memory; kAwait is runnable only once its
// location holds the awaited value; kFence, kUnsub and kCompute are
// no-ops (there is no buffer, subscription or time to model). A lock is
// held by one thread (kLock) or by a group of readers (kReadLock); kCsAdd
// needs its guarding lock held exclusively, kCsLoad in either mode, and
// kFetchAdd is one atomic step.
//
// The schedule seed exists for a self-check, not for coverage: a DRF
// program's comparison stream must be identical under *every* reference
// schedule. `bcsim diff` runs the reference twice with different seeds
// and refuses to proceed if they disagree — that would mean the generator
// emitted a racy program and the oracle would be comparing noise.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/program.hpp"
#include "sim/types.hpp"

namespace bcsim::ref {

struct RefResult {
  bool deadlocked = false;    ///< generator bug if ever true for a DRF program
  std::uint64_t steps = 0;    ///< operations executed (reference "time")
  std::vector<Word> final_locs;  ///< per location
  std::vector<Word> final_sems;  ///< per semaphore
  std::vector<std::vector<ir::Observation>> loads;  ///< per thread, program order
  std::vector<std::uint64_t> lock_acquisitions;  ///< per lock, either mode
  std::vector<std::uint32_t> locks_held_at_end;  ///< must be empty for DRF programs
};

/// Two reference runs agree on everything a DRF program pins down.
[[nodiscard]] bool ref_results_agree(const RefResult& a, const RefResult& b);

class RefMachine {
 public:
  RefMachine(const ir::Program& prog, std::uint64_t schedule_seed);

  /// Interprets the whole program; safe to call once per instance.
  [[nodiscard]] RefResult run();

 private:
  const ir::Program& prog_;
  std::uint64_t schedule_seed_;
};

}  // namespace bcsim::ref
