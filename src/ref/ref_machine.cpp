#include "ref/ref_machine.hpp"

#include <cstdint>
#include <stdexcept>

#include "sim/random.hpp"

namespace bcsim::ref {

bool ref_results_agree(const RefResult& a, const RefResult& b) {
  if (a.deadlocked || b.deadlocked) return false;
  if (a.final_locs != b.final_locs || a.final_sems != b.final_sems) return false;
  if (a.loads.size() != b.loads.size()) return false;
  for (std::size_t n = 0; n < a.loads.size(); ++n) {
    if (a.loads[n].size() != b.loads[n].size()) return false;
    for (std::size_t i = 0; i < a.loads[n].size(); ++i) {
      const ir::Observation& x = a.loads[n][i];
      const ir::Observation& y = b.loads[n][i];
      if (x.op_index != y.op_index || x.loc != y.loc || x.value != y.value) return false;
    }
  }
  return a.lock_acquisitions == b.lock_acquisitions;
}

RefMachine::RefMachine(const ir::Program& prog, std::uint64_t schedule_seed)
    : prog_(prog), schedule_seed_(schedule_seed) {}

RefResult RefMachine::run() {
  using ir::OpKind;
  const auto n_threads = static_cast<std::uint32_t>(prog_.threads.size());
  const std::uint32_t n_locks = prog_.count(ir::ObjKind::kLock);
  const std::vector<std::uint32_t> guard = prog_.guard_locks();
  constexpr std::uint32_t kFree = ~0u;
  constexpr std::uint32_t kNotWaiting = ~0u;

  RefResult r;
  r.final_locs.assign(prog_.n_locations, 0);
  r.final_sems = prog_.sem_initial();
  r.loads.resize(n_threads);
  r.lock_acquisitions.assign(n_locks, 0);
  auto& mem = r.final_locs;

  std::vector<std::size_t> pc(n_threads, 0);
  std::vector<std::uint32_t> waiting_at(n_threads, kNotWaiting);  // barrier id
  std::vector<std::uint32_t> arrived(prog_.count(ir::ObjKind::kBarrier), 0);
  std::vector<std::uint32_t> lock_owner(n_locks, kFree);  // the exclusive holder
  // Shared holders: per lock, one flag per thread, and their count.
  std::vector<std::vector<std::uint8_t>> reading(n_locks, std::vector<std::uint8_t>(n_threads, 0));
  std::vector<std::uint32_t> readers(n_locks, 0);

  sim::Rng rng(sim::SplitMix64(schedule_seed_ ^ 0xD1FFu).next());
  std::vector<std::uint32_t> runnable;
  runnable.reserve(n_threads);

  for (;;) {
    runnable.clear();
    bool all_done = true;
    for (std::uint32_t n = 0; n < n_threads; ++n) {
      const auto& code = prog_.threads[n];
      if (pc[n] >= code.size()) continue;
      all_done = false;
      if (waiting_at[n] != kNotWaiting) continue;  // released when everyone arrives
      const ir::Op& op = code[pc[n]];
      if (op.kind == OpKind::kLock && (lock_owner[op.arg] != kFree || readers[op.arg] != 0)) {
        continue;
      }
      if (op.kind == OpKind::kReadLock && lock_owner[op.arg] != kFree) continue;
      if (op.kind == OpKind::kSemP && r.final_sems[op.arg] == 0) continue;
      if (op.kind == OpKind::kAwait && mem[op.arg] != op.value) continue;
      runnable.push_back(n);
    }
    if (all_done) break;
    if (runnable.empty()) {
      // Threads waiting at a barrier are not runnable, but a full barrier
      // releases; anything else is a deadlock (for a DRF program, a
      // generator bug: they are deadlock-free by construction).
      r.deadlocked = true;
      break;
    }

    const std::uint32_t n =
        runnable[static_cast<std::size_t>(rng.next_below(runnable.size()))];
    const std::size_t i = pc[n];
    const ir::Op& op = prog_.threads[n][i];
    ++r.steps;

    switch (op.kind) {
      case OpKind::kAwait:    // scheduled only once the value is visible
      case OpKind::kFence:    // no buffer to drain
      case OpKind::kUnsub:    // no subscriptions
      case OpKind::kCompute:  // time is not modeled; the reference is functional
        break;
      case OpKind::kStore:
        mem[op.arg] = op.value;
        break;
      case OpKind::kLoad:
      case OpKind::kLoadOnce:
        if (op.observed) {
          r.loads[n].push_back({static_cast<std::uint32_t>(i), op.arg, mem[op.arg], 0});
        }
        break;
      case OpKind::kLock:
        lock_owner[op.arg] = n;
        ++r.lock_acquisitions[op.arg];
        break;
      case OpKind::kReadLock:
        if (reading[op.arg][n] != 0) {
          throw std::logic_error("RefMachine: read-lock of a lock the thread holds");
        }
        reading[op.arg][n] = 1;
        ++readers[op.arg];
        ++r.lock_acquisitions[op.arg];
        break;
      case OpKind::kUnlock:
        if (lock_owner[op.arg] == n) {
          lock_owner[op.arg] = kFree;
        } else if (reading[op.arg][n] != 0) {
          reading[op.arg][n] = 0;
          --readers[op.arg];
        } else {
          throw std::logic_error("RefMachine: unlock of a lock the thread does not hold");
        }
        break;
      case OpKind::kCsAdd:
        // Guarded by its lock, held exclusively, so read-modify-write is
        // one step.
        if (guard[op.arg] == ir::kNoLock || lock_owner[guard[op.arg]] != n) {
          throw std::logic_error("RefMachine: CS-ADD outside its guarding lock held exclusively");
        }
        mem[op.arg] += op.value;
        break;
      case OpKind::kCsLoad:
        // Guarded by its lock, held in either mode.
        if (guard[op.arg] == ir::kNoLock ||
            (lock_owner[guard[op.arg]] != n && reading[guard[op.arg]][n] == 0)) {
          throw std::logic_error("RefMachine: CS-LOAD outside its guarding lock");
        }
        if (op.observed) {
          r.loads[n].push_back({static_cast<std::uint32_t>(i), op.arg, mem[op.arg], 0});
        }
        break;
      case OpKind::kFetchAdd:
        mem[op.arg] += op.value;
        break;
      case OpKind::kBarrier:
        waiting_at[n] = op.arg;
        if (++arrived[op.arg] == n_threads) {
          for (auto& w : waiting_at) {
            if (w == op.arg) w = kNotWaiting;
          }
          arrived[op.arg] = 0;
        }
        break;
      case OpKind::kSemP:
        --r.final_sems[op.arg];  // scheduled only with a nonzero count
        break;
      case OpKind::kSemV:
        ++r.final_sems[op.arg];
        break;
    }
    pc[n] = i + 1;
  }

  for (std::uint32_t l = 0; l < n_locks; ++l) {
    if (lock_owner[l] != kFree || readers[l] != 0) r.locks_held_at_end.push_back(l);
  }
  return r;
}

}  // namespace bcsim::ref
