#include "ref/check_battery.hpp"

#include <stdexcept>
#include <string>

#include "sim/random.hpp"

namespace bcsim::ref {

namespace {

using ir::ObjKind;

ir::Program lock_counter(std::uint32_t n) {
  ir::Program p;
  p.name = "lock-counter";
  p.description = "every thread adds 1 to a lock-guarded counter six times";
  p.n_locations = 1;
  p.objects = {{ObjKind::kLock, 0, 1, 0}};
  p.threads.resize(n);
  for (auto& code : p.threads) {
    for (int k = 0; k < 6; ++k) {
      code.insert(code.end(), {ir::Lock(0), ir::CsAdd(0, 1), ir::Unlock(0)});
    }
  }
  return p;
}

ir::Program rw_lock(std::uint32_t n) {
  constexpr std::uint32_t kX = 0;  // 1 only inside the writer's critical section
  constexpr std::uint32_t kC = 1;  // the writer's count
  ir::Program p;
  p.name = "rw-lock";
  p.description = "readers share the lock and must never see the writer's x = 1";
  p.n_locations = 2;
  p.objects = {{ObjKind::kLock, 0, 2, 0}};
  p.threads.resize(n);
  for (int k = 0; k < 4; ++k) {
    p.threads[0].insert(p.threads[0].end(),
                        {ir::Lock(0), ir::CsAdd(kX, 1), ir::Compute(2), ir::CsAdd(kX, ~Word{0}),
                         ir::CsAdd(kC, 1), ir::Unlock(0)});
    for (std::uint32_t t = 1; t < n; ++t) {
      // Staggered holds: readers drop out of a group mid-way.
      p.threads[t].insert(p.threads[t].end(), {ir::ReadLock(0), ir::CsLoad(kX),
                                               ir::Compute(1 + t % 3), ir::CsLoad(kX),
                                               ir::Unlock(0)});
    }
  }
  return p;
}

ir::Program message_passing(std::uint32_t n) {
  constexpr std::uint32_t kData = 0;
  constexpr std::uint32_t kFlag = 1;
  ir::Program p;
  p.name = "message-passing";
  p.description = "data is stored and flushed before the flag; the reader must see it";
  p.n_locations = 2;
  p.objects = {{ObjKind::kBlocks, 0, 2, 0}};
  p.threads.resize(n);
  p.threads[0] = {ir::Compute(50), ir::St(kData, 42), ir::Fence(), ir::St(kFlag, 1), ir::Fence()};
  p.threads[n - 1] = {ir::LdQuiet(kData), ir::LdQuiet(kFlag), ir::Await(kFlag, 1), ir::Ld(kData)};
  // Bystanders subscribe after the reader, so they join the data's
  // delivery chain ahead of it (a new subscriber becomes the list head).
  for (std::uint32_t t = 1; t + 1 < n && t <= 2; ++t) {
    p.threads[t] = {ir::Compute(20), ir::LdQuiet(kData)};
  }
  return p;
}

ir::Program barrier(std::uint32_t n) {
  ir::Program p;
  p.name = "barrier";
  p.description = "every slot stored before the barrier is seen by every thread after it";
  p.n_locations = n;
  p.objects = {{ObjKind::kWords, 0, n, 0}, {ObjKind::kBarrier, 0, 0, 0}};
  p.threads.resize(n);
  for (std::uint32_t t = 0; t < n; ++t) {
    auto& code = p.threads[t];
    code = {ir::St(t, t + 1), ir::Fence(), ir::Bar()};
    for (std::uint32_t j = 0; j < n; ++j) code.push_back(ir::LdOnce(j));
  }
  return p;
}

ir::Program fuzz(std::uint32_t n) {
  constexpr std::uint32_t kLocks = 3;
  constexpr std::uint32_t kGuarded = 2;   // counters per lock
  constexpr std::uint32_t kCounters = 8;  // fetch-add targets
  constexpr std::uint32_t kOwnWords = 4;  // words each thread stores to
  constexpr int kSteps = 60;
  constexpr std::uint32_t kCounterBase = kLocks * kGuarded;
  constexpr std::uint32_t kWordBase = kCounterBase + kCounters;
  const std::uint32_t n_words = n * kOwnWords;

  ir::Program p;
  p.name = "fuzz";
  p.description = "a seeded mix of nested locks, fetch-adds, own-word stores and subscriptions";
  p.n_locations = kWordBase + n_words;
  for (std::uint32_t l = 0; l < kLocks; ++l) {
    p.objects.push_back({ObjKind::kLock, l * kGuarded, kGuarded, 0});
  }
  p.objects.push_back({ObjKind::kWords, kCounterBase, kCounters, 0});
  // Thread t owns words t, t + n, t + 2n, ...: every block holds words of
  // several threads.
  p.objects.push_back({ObjKind::kWords, kWordBase, n_words, 0});
  const auto any_word = [&](sim::Rng& rng) {
    return kWordBase + static_cast<std::uint32_t>(rng.next_below(n_words));
  };

  p.threads.resize(n);
  for (std::uint32_t t = 0; t < n; ++t) {
    sim::Rng rng(sim::SplitMix64(0xF022u + t).next());
    auto& code = p.threads[t];
    std::vector<std::uint32_t> held;  // lock indices, ascending
    for (int s = 0; s < kSteps; ++s) {
      const double dice = rng.next_double();
      if (dice < 0.25) {
        const auto next =
            held.empty() ? static_cast<std::uint32_t>(rng.next_below(2)) : held.back() + 1;
        if (next < kLocks && held.size() < 2) {
          code.push_back(ir::Lock(next));
          held.push_back(next);
        } else {
          code.push_back(ir::Compute(3));
        }
      } else if (dice < 0.45) {
        if (!held.empty()) {
          const auto c =
              held.back() * kGuarded + static_cast<std::uint32_t>(rng.next_below(kGuarded));
          code.push_back(ir::CsAdd(c, 1));
          code.push_back(ir::Unlock(held.back()));
          held.pop_back();
        } else {
          code.push_back(ir::Compute(2));
        }
      } else if (dice < 0.65) {
        if (rng.chance(0.5)) {
          const auto k = static_cast<std::uint32_t>(rng.next_below(kOwnWords));
          code.push_back(ir::St(kWordBase + k * n + t, rng.next_u64()));
        } else {
          code.push_back(ir::LdQuiet(any_word(rng)));
        }
      } else if (dice < 0.75) {
        if (rng.chance(0.5)) {
          code.push_back(ir::Unsub(any_word(rng)));
        } else {
          const auto c = kCounterBase + static_cast<std::uint32_t>(rng.next_below(kCounters));
          code.push_back(ir::FetchAdd(c, 1));
        }
      } else if (dice < 0.85) {
        code.push_back(ir::Fence());
      } else {
        code.push_back(ir::Compute(1 + static_cast<std::uint32_t>(rng.next_below(15))));
      }
    }
    for (; !held.empty(); held.pop_back()) code.push_back(ir::Unlock(held.back()));
    code.push_back(ir::Fence());
  }
  return p;
}

}  // namespace

std::vector<ir::Program> check_battery(std::uint32_t nodes) {
  if (nodes < 2) {
    throw std::invalid_argument("check battery: needs at least 2 nodes, got " +
                                std::to_string(nodes));
  }
  return {lock_counter(nodes), rw_lock(nodes), message_passing(nodes), barrier(nodes),
          fuzz(nodes)};
}

}  // namespace bcsim::ref
