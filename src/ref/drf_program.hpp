// Data-race-free program generator for differential and chaos testing.
//
// The paper's correctness claim (section 3) is conditional: buffered
// consistency with reader-initiated coherence behaves like sequential
// consistency *for properly-synchronized programs*. The differential
// oracle (docs/TESTING.md, "Differential testing") makes that claim
// executable: a seeded generator emits randomized DRF programs, and the same program runs both on the full machine and on
// the golden SC reference interpreter (ref_machine.hpp). Because the
// program is DRF *and* every observed read is schedule-independent by
// construction, the two executions must agree on every observed value,
// every final variable, and every final semaphore count — any mismatch is
// a machine bug, never schedule noise.
//
// The program is emitted in the shared IR (ir/program.hpp): writes are
// kStore, observed reads kLoadOnce, counter updates kCsAdd under their
// lock. Its layout is declared as data — each lock with its counters
// (riding the lock block when the machine's lock delivers data with the
// grant), then per node one packed word group for its region slots and
// one for its handoff slots, the semaphores, and the global barrier — so
// the lowering needs no knowledge of the generator's numbering.
//
// Generated program shape (per node, per phase, everything seeded):
//   1. jittered compute
//   2. writes to the node's own region slice for this phase
//   3. handoff produce: write handoff slots, then V the node's ring
//      semaphore
//   4. a lock-protected critical section: fetch-add style updates to the
//      lock's counters (final values are schedule-independent sums;
//      intermediate reads are not observed)
//   5. optionally a P ... V pass through the counting throttle semaphore
//   6. handoff consume: P the upstream neighbor's ring semaphore, then
//      *observed* reads of the slots it produced this phase (ordered by
//      the semaphore's happens-before edge)
//   7. observed reads of region slices from strictly earlier phases
//      (ordered by the interphase barrier) and of the node's own current
//      slice (ordered by program order)
//   8. global barrier
// plus a final observed sweep over random region slices after the last
// barrier, when every write in the program has been performed.
#pragma once

#include <cstdint>

#include "ir/program.hpp"
#include "sim/types.hpp"

namespace bcsim::ref {

/// Generator knobs (docs/TESTING.md lists what each one stresses).
struct DrfGenConfig {
  std::uint32_t n_nodes = 8;
  std::uint32_t phases = 3;
  std::uint32_t region_slots = 2;   ///< own-region writes per node per phase
  std::uint32_t handoff_slots = 2;  ///< semaphore-ordered slots per phase
  std::uint32_t n_locks = 2;
  std::uint32_t counters_per_lock = 2;
  std::uint32_t reads_per_phase = 3;  ///< observed old-slice reads per phase
  std::uint32_t final_reads = 4;      ///< observed sweep after the last barrier
  Word throttle_initial = 2;          ///< counting semaphore initial value
};

/// Deterministically generates a DRF program from a seed. Identical
/// (seed, gen) pairs produce identical programs on every platform.
/// Ring semaphores [0, n_nodes) (node i signals sem i, node (i+1)%n
/// waits on it), then the counting throttle semaphore; counters are
/// locations [0, n_locks * counters_per_lock).
[[nodiscard]] ir::Program generate_drf_program(std::uint64_t program_seed,
                                               const DrfGenConfig& gen = {});

}  // namespace bcsim::ref
