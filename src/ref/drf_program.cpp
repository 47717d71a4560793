#include "ref/drf_program.hpp"

#include <stdexcept>

#include "sim/random.hpp"

namespace bcsim::ref {

namespace {

/// Stable hash for write values: distinct, nonzero, platform-independent.
Word value_of(std::uint64_t seed, std::uint32_t node, std::uint32_t phase,
              std::uint32_t slot, std::uint32_t salt) {
  sim::SplitMix64 sm(seed ^ (std::uint64_t{node} << 40) ^ (std::uint64_t{phase} << 24) ^
                     (std::uint64_t{slot} << 8) ^ salt);
  const Word v = sm.next();
  return v == 0 ? 1 : v;
}

}  // namespace

ir::Program generate_drf_program(std::uint64_t program_seed, const DrfGenConfig& gen) {
  if (gen.n_nodes == 0 || gen.phases == 0 || gen.region_slots == 0) {
    throw std::invalid_argument("drf generator: n_nodes, phases, region_slots must be >= 1");
  }
  if (gen.n_locks == 0 || gen.counters_per_lock == 0) {
    throw std::invalid_argument("drf generator: need at least one lock with one counter");
  }
  using ir::ObjKind;

  ir::Program p;
  p.name = "drf-" + std::to_string(program_seed);
  const std::uint32_t n_counters = gen.n_locks * gen.counters_per_lock;
  const std::uint32_t region_per_node = gen.phases * gen.region_slots;
  const std::uint32_t handoff_per_node = gen.phases * gen.handoff_slots;
  const std::uint32_t region_base = n_counters;
  const std::uint32_t handoff_base = region_base + gen.n_nodes * region_per_node;
  p.n_locations = handoff_base + gen.n_nodes * handoff_per_node;

  // Layout, in allocation order: locks with their counters, then each
  // node's region and handoff words, the semaphores, the barrier. Ring
  // semaphores start at 0 (pure handoff); the throttle is counting.
  for (std::uint32_t l = 0; l < gen.n_locks; ++l) {
    p.objects.push_back({ObjKind::kLock, l * gen.counters_per_lock, gen.counters_per_lock, 0});
  }
  for (std::uint32_t n = 0; n < gen.n_nodes; ++n) {
    p.objects.push_back({ObjKind::kWords, region_base + n * region_per_node, region_per_node, 0});
    p.objects.push_back(
        {ObjKind::kWords, handoff_base + n * handoff_per_node, handoff_per_node, 0});
  }
  const std::uint32_t throttle = gen.n_nodes;
  for (std::uint32_t s = 0; s <= throttle; ++s) {
    p.objects.push_back({ObjKind::kSemaphore, 0, 0, s == throttle ? gen.throttle_initial : 0});
  }
  p.objects.push_back({ObjKind::kBarrier, 0, 0, 0});

  const auto region_var = [&](std::uint32_t node, std::uint32_t phase, std::uint32_t slot) {
    return region_base + node * region_per_node + phase * gen.region_slots + slot;
  };
  const auto handoff_var = [&](std::uint32_t node, std::uint32_t phase, std::uint32_t slot) {
    return handoff_base + node * handoff_per_node + phase * gen.handoff_slots + slot;
  };

  p.threads.resize(gen.n_nodes);
  for (std::uint32_t n = 0; n < gen.n_nodes; ++n) {
    sim::Rng rng(sim::SplitMix64(program_seed ^ (0x9e1u + n)).next());
    auto& code = p.threads[n];
    const std::uint32_t prev = (n + gen.n_nodes - 1) % gen.n_nodes;

    for (std::uint32_t ph = 0; ph < gen.phases; ++ph) {
      // 1. jitter so nodes drift apart inside a phase
      code.push_back(ir::Compute(1 + static_cast<std::uint32_t>(rng.next_below(8))));

      // 2. own-region writes: each slot is written exactly once, in its
      //    own phase, which is what makes later-phase reads deterministic.
      for (std::uint32_t j = 0; j < gen.region_slots; ++j) {
        code.push_back(ir::St(region_var(n, ph, j), value_of(program_seed, n, ph, j, 0xA)));
      }

      // 3. handoff produce: write the slots, then signal downstream.
      for (std::uint32_t j = 0; j < gen.handoff_slots; ++j) {
        code.push_back(ir::St(handoff_var(n, ph, j), value_of(program_seed, n, ph, j, 0xB)));
      }
      code.push_back(ir::SemV(n));

      // 4. lock-protected counter updates (never nested; any lock order
      //    is safe). Intermediate counter values depend on acquisition
      //    order, so CS reads are not observed — the schedule-independent
      //    fact is the final sum, checked via final memory.
      const auto l = static_cast<std::uint32_t>(rng.next_below(gen.n_locks));
      code.push_back(ir::Lock(l));
      const std::uint32_t updates = 1 + static_cast<std::uint32_t>(
                                            rng.next_below(gen.counters_per_lock));
      for (std::uint32_t u = 0; u < updates; ++u) {
        const std::uint32_t c = l * gen.counters_per_lock +
                                static_cast<std::uint32_t>(
                                    rng.next_below(gen.counters_per_lock));
        code.push_back(ir::CsAdd(c, 1 + rng.next_below(5)));
      }
      code.push_back(ir::Unlock(l));

      // 5. counting-semaphore throttle (P may block when the pool is dry).
      if (rng.chance(0.5)) {
        code.push_back(ir::SemP(throttle));
        code.push_back(ir::Compute(1 + static_cast<std::uint32_t>(rng.next_below(4))));
        code.push_back(ir::SemV(throttle));
      }

      // 6. handoff consume: the P on the upstream ring semaphore is the
      //    happens-before edge that makes these same-phase reads
      //    deterministic.
      code.push_back(ir::SemP(prev));
      for (std::uint32_t j = 0; j < gen.handoff_slots; ++j) {
        code.push_back(ir::LdOnce(handoff_var(prev, ph, j)));
      }

      // 7. observed region reads: own current slice (program order) or
      //    any node's strictly earlier slice (barrier order).
      for (std::uint32_t r = 0; r < gen.reads_per_phase; ++r) {
        std::uint32_t src_node = n;
        std::uint32_t src_phase = ph;
        if (ph > 0 && rng.chance(0.75)) {
          src_node = static_cast<std::uint32_t>(rng.next_below(gen.n_nodes));
          src_phase = static_cast<std::uint32_t>(rng.next_below(ph));
        }
        const auto j = static_cast<std::uint32_t>(rng.next_below(gen.region_slots));
        code.push_back(ir::LdOnce(region_var(src_node, src_phase, j)));
      }

      // 8. phase barrier
      code.push_back(ir::Bar());
    }

    // Final sweep: after the last barrier every region write in the whole
    // program is ordered before these reads.
    for (std::uint32_t r = 0; r < gen.final_reads; ++r) {
      const auto src_node = static_cast<std::uint32_t>(rng.next_below(gen.n_nodes));
      const auto src_phase = static_cast<std::uint32_t>(rng.next_below(gen.phases));
      const auto j = static_cast<std::uint32_t>(rng.next_below(gen.region_slots));
      code.push_back(ir::LdOnce(region_var(src_node, src_phase, j)));
    }
  }
  return p;
}

}  // namespace bcsim::ref
