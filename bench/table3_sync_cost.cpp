// Table 3 reproduction: messages and time for synchronization scenarios
// under WBI (spin lock on write-back-invalidate coherence) vs CBL.
//
// Part 1 prints the paper's analytical rows. Part 2 runs the four
// scenarios through the simulator and reports measured message counts and
// times; the claims that must reproduce are the complexity classes —
// parallel lock O(n^2) WBI vs O(n) CBL — and the serial-lock and barrier
// message counts.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "analytic/table3.hpp"
#include "bench_util.hpp"
#include "core/sync/barrier.hpp"
#include "core/sync/mutex.hpp"

namespace {

using namespace bcsim;
using namespace bcsim::bench;
using core::Machine;
using core::Processor;

struct Measured {
  double messages = 0;
  double time = 0;
};

/// n processors request the same lock simultaneously; each holds for t_cs.
Measured parallel_lock(const core::MachineConfig& cfg, Tick t_cs) {
  Machine m(cfg);
  auto alloc = m.make_allocator(100);
  auto mtx = sync::make_mutex(cfg.lock_impl, alloc, m.n_nodes());
  struct Prog {
    sync::Mutex& mtx;
    Tick t_cs;
    sim::Task operator()(Processor& p) const {
      co_await mtx.acquire(p);
      co_await p.compute(t_cs);
      co_await mtx.release(p);
    }
  } prog{*mtx, t_cs};
  for (NodeId i = 0; i < m.n_nodes(); ++i) m.spawn(prog(m.processor(i)));
  const Tick t = run_machine(m, 2'000'000'000ULL);
  return {static_cast<double>(m.stats().counter_value("net.messages")),
          static_cast<double>(t)};
}

/// One processor acquires and releases an uncontended lock `reps` times;
/// costs are reported per acquire/release pair.
Measured serial_lock(const core::MachineConfig& cfg, Tick t_cs, int reps = 16) {
  Machine m(cfg);
  auto alloc = m.make_allocator(100);
  auto mtx = sync::make_mutex(cfg.lock_impl, alloc, m.n_nodes());
  struct Prog {
    sync::Mutex& mtx;
    Tick t_cs;
    int reps;
    sim::Task operator()(Processor& p) const {
      for (int k = 0; k < reps; ++k) {
        co_await mtx.acquire(p);
        co_await p.compute(t_cs);
        co_await mtx.release(p);
      }
    }
  } prog{*mtx, t_cs, reps};
  m.spawn(prog(m.processor(0)));
  const Tick t = run_machine(m, 2'000'000'000ULL);
  return {static_cast<double>(m.stats().counter_value("net.messages")) / reps,
          static_cast<double>(t) / reps};
}

/// One full barrier episode across n processors; messages total, time to
/// release after the last arrival.
Measured barrier_once(const core::MachineConfig& cfg) {
  Machine m(cfg);
  auto alloc = m.make_allocator(100);
  auto bar = sync::make_barrier(cfg.barrier_impl, alloc, m.n_nodes());
  struct Prog {
    sync::Barrier& bar;
    sim::Task operator()(Processor& p) const { co_await bar.wait(p); }
  } prog{*bar};
  for (NodeId i = 0; i < m.n_nodes(); ++i) m.spawn(prog(m.processor(i)));
  const Tick t = run_machine(m, 2'000'000'000ULL);
  return {static_cast<double>(m.stats().counter_value("net.messages")),
          static_cast<double>(t)};
}

}  // namespace

int main() {
  constexpr std::uint32_t kN = 16;
  constexpr Tick kTcs = 50;

  std::printf("Table 3: cost of synchronization scenarios, WBI vs CBL (n=%u)\n", kN);

  // ---- analytical rows ----
  analytic::TimeConstants tc;
  tc.t_cs = static_cast<double>(kTcs);
  std::vector<std::string> labels;
  std::vector<std::vector<double>> cells;
  for (auto s : {analytic::SyncScenario::kParallelLock, analytic::SyncScenario::kSerialLock,
                 analytic::SyncScenario::kBarrierRequest,
                 analytic::SyncScenario::kBarrierNotify}) {
    const auto w = analytic::wbi_cost(s, kN, tc);
    const auto c = analytic::cbl_cost(s, kN, tc);
    labels.emplace_back(analytic::to_string(s));
    cells.push_back({w.messages, w.time, c.messages, c.time});
  }
  print_table("analytical (paper Table 3)", "scenario",
              {"WBI msgs", "WBI time", "CBL msgs", "CBL time"}, labels, cells);

  // ---- simulated counterpart ----
  const auto wbi = conf::build_machine({.nodes = kN, .flavor = "wbi"});
  const auto cbl = conf::build_machine({.nodes = kN, .flavor = "cbl-on-wbi"});
  const auto res = sim::parallel_map<Measured>(
      6, std::function<Measured(std::size_t)>([&](std::size_t i) {
        switch (i) {
          case 0: return parallel_lock(wbi, kTcs);
          case 1: return parallel_lock(cbl, kTcs);
          case 2: return serial_lock(wbi, kTcs);
          case 3: return serial_lock(cbl, kTcs);
          case 4: return barrier_once(wbi);
          default: return barrier_once(cbl);
        }
      }));
  print_table("simulated", "scenario", {"WBI msgs", "WBI time", "CBL msgs", "CBL time"},
              {"parallel lock", "serial lock", "barrier"},
              {{res[0].messages, res[0].time, res[1].messages, res[1].time},
               {res[2].messages, res[2].time, res[3].messages, res[3].time},
               {res[4].messages, res[4].time, res[5].messages, res[5].time}});

  // ---- complexity-class check: messages vs n for the parallel lock ----
  std::printf("\nParallel-lock message scaling (simulated):\n");
  std::printf("%-8s%16s%16s%16s\n", "n", "WBI msgs", "CBL msgs", "WBI/CBL");
  for (std::uint32_t n : {4u, 8u, 16u, 32u, 64u}) {
    const auto w = parallel_lock(conf::build_machine({.nodes = n, .flavor = "wbi"}), kTcs);
    const auto c = parallel_lock(conf::build_machine({.nodes = n, .flavor = "cbl-on-wbi"}), kTcs);
    std::printf("%-8u%16.0f%16.0f%16.1f\n", n, w.messages, c.messages,
                w.messages / c.messages);
  }
  std::printf("\nExpected: the WBI/CBL ratio grows ~linearly with n (O(n^2) vs O(n)).\n");
  return 0;
}
