// The program IR every correctness harness shares (docs/TESTING.md).
//
// A program is a handful of threads, each a straight-line op list over
// symbolic memory objects — shared locations, locks, counting semaphores
// and barriers — named by index, never by address. Three generators emit
// it (the seeded DRF generator, ref/drf_program.hpp, the check battery,
// ref/check_battery.hpp, and the litmus battery, model/battery.hpp) and
// three interpreters read it:
//
//   * ir/run.hpp lowers it onto a real core::Machine, thread t on
//     processor t, through the protocol-agnostic access helpers and the
//     sync library, so every machine flavor executes it with its native
//     primitives;
//   * ref/ref_machine.hpp interprets it on the golden sequentially
//     consistent reference (the diff, chaos and check judges);
//   * model/bc_model.hpp enumerates every outcome the Buffered
//     Consistency axioms allow (the model judge).
//
// The memory layout is data: `objects` lists every object in allocation
// order and the lowering allocates them in exactly that order, so a
// program pins its own addresses without the lowering knowing which
// generator produced it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace bcsim::ir {

enum class OpKind : std::uint8_t {
  kStore,     ///< store `value` to location `arg` (WRITE-GLOBAL on read-update; buffered under BC)
  kLoad,      ///< subscribing load of location `arg` (READ-UPDATE on read-update)
  kLoadOnce,  ///< one-shot load (READ-GLOBAL: the home's current value)
  kAwait,     ///< spin (subscribing) until location `arg` reads `value`
  kFence,     ///< FLUSH-BUFFER: prior stores globally performed before it completes
  kUnsub,     ///< RESET-UPDATE of location `arg` (a no-op on WBI)
  kCompute,   ///< `arg` cycles of local work
  kLock,      ///< acquire lock `arg` (NP-Synch: does not wait for pending writes)
  kUnlock,    ///< release lock `arg` (CP-Synch: flushes before the release is visible)
  kBarrier,   ///< wait at barrier `arg`; every thread participates (CP-Synch)
  kCsAdd,     ///< location `arg` += `value`, only while holding the lock that guards it
  kSemP,      ///< P on semaphore `arg` (blocks while the count is 0)
  kSemV,      ///< V on semaphore `arg`
  kReadLock,  ///< acquire lock `arg` shared (READ-LOCK on CBL); kUnlock releases either mode
  kCsLoad,    ///< load location `arg`, only while holding the lock that guards it
  kFetchAdd,  ///< atomic location `arg` += `value` at memory; the result is not observed
};

struct Op {
  OpKind kind = OpKind::kCompute;
  std::uint32_t arg = 0;  ///< location, lock, semaphore or barrier index; cycles
  Word value = 0;         ///< kStore: stored value; kAwait: value spun for; kCsAdd: delta
  bool observed = false;  ///< kLoad/kLoadOnce/kCsLoad: the value enters the comparison stream
};

// Terse constructors so a program reads like its paper notation.
inline Op St(std::uint32_t loc, Word v) { return {OpKind::kStore, loc, v, false}; }
inline Op Ld(std::uint32_t loc) { return {OpKind::kLoad, loc, 0, true}; }
/// Unobserved load: subscribes (lengthening the location's delivery chain)
/// without contributing to the outcome.
inline Op LdQuiet(std::uint32_t loc) { return {OpKind::kLoad, loc, 0, false}; }
inline Op LdOnce(std::uint32_t loc) { return {OpKind::kLoadOnce, loc, 0, true}; }
/// Spin until `loc` reads `v`. Not itself observed; it pins the thread's
/// view to a moment the value was visible.
inline Op Await(std::uint32_t loc, Word v) { return {OpKind::kAwait, loc, v, false}; }
inline Op Fence() { return {OpKind::kFence, 0, 0, false}; }
inline Op Unsub(std::uint32_t loc) { return {OpKind::kUnsub, loc, 0, false}; }
inline Op Compute(std::uint32_t cycles) { return {OpKind::kCompute, cycles, 0, false}; }
inline Op Lock(std::uint32_t lock) { return {OpKind::kLock, lock, 0, false}; }
inline Op Unlock(std::uint32_t lock) { return {OpKind::kUnlock, lock, 0, false}; }
inline Op Bar(std::uint32_t barrier = 0) { return {OpKind::kBarrier, barrier, 0, false}; }
inline Op CsAdd(std::uint32_t loc, Word delta) { return {OpKind::kCsAdd, loc, delta, false}; }
inline Op SemP(std::uint32_t sem) { return {OpKind::kSemP, sem, 0, false}; }
inline Op SemV(std::uint32_t sem) { return {OpKind::kSemV, sem, 0, false}; }
inline Op ReadLock(std::uint32_t lock) { return {OpKind::kReadLock, lock, 0, false}; }
inline Op CsLoad(std::uint32_t loc) { return {OpKind::kCsLoad, loc, 0, true}; }
inline Op FetchAdd(std::uint32_t loc, Word delta) { return {OpKind::kFetchAdd, loc, delta, false}; }

/// Memory objects. Locks, semaphores and barriers are numbered in
/// declaration order within their kind.
enum class ObjKind : std::uint8_t {
  kBlocks,     ///< locations [first, first+count), one cache block (own home) each
  kWords,      ///< locations [first, first+count), packed into consecutive words
  kLock,       ///< the next lock; it guards locations [first, first+count), which
               ///< ride its block (words 1..) when the lock delivers data with
               ///< the grant, and get one block each otherwise
  kSemaphore,  ///< the next counting semaphore, initial count `value`
  kBarrier,    ///< the next barrier
};

struct Object {
  ObjKind kind = ObjKind::kBlocks;
  std::uint32_t first = 0;
  std::uint32_t count = 0;
  Word value = 0;
};

inline constexpr std::uint32_t kNoLock = ~0u;

struct Program {
  std::string name;         ///< litmus id, or "drf-<seed>"
  std::string description;  ///< one line for reports and the golden table
  std::uint32_t n_locations = 0;
  std::vector<Object> objects;            ///< allocation order
  std::vector<std::vector<Op>> threads;   ///< thread t runs on processor t

  [[nodiscard]] std::uint32_t count(ObjKind k) const noexcept {
    std::uint32_t n = 0;
    for (const Object& o : objects) n += o.kind == k ? 1 : 0;
    return n;
  }
  [[nodiscard]] std::vector<Word> sem_initial() const {
    std::vector<Word> v;
    for (const Object& o : objects) {
      if (o.kind == ObjKind::kSemaphore) v.push_back(o.value);
    }
    return v;
  }
  /// Per location: the lock that guards it, or kNoLock.
  [[nodiscard]] std::vector<std::uint32_t> guard_locks() const {
    std::vector<std::uint32_t> g(n_locations, kNoLock);
    std::uint32_t lock = 0;
    for (const Object& o : objects) {
      if (o.kind != ObjKind::kLock) continue;
      for (std::uint32_t k = 0; k < o.count; ++k) g[o.first + k] = lock;
      ++lock;
    }
    return g;
  }
};

/// One observed load as an interpreter performed it.
struct Observation {
  std::uint32_t op_index = 0;
  std::uint32_t loc = 0;
  Word value = 0;
  Tick tick = 0;  ///< machine cycle the load completed (0 on the reference)
};

}  // namespace bcsim::ir
