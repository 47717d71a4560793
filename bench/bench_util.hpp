// Shared helpers for the paper-reproduction benchmark harnesses.
//
// Each bench binary regenerates one table or figure of the paper: it runs
// the relevant simulations (in parallel across host threads — each
// simulation is single-threaded and deterministic) and prints the same
// rows/series the paper reports, plus the measured message counts that
// back them. Every machine is built by conf::build_machine from the
// flavor names `bcsim run --machine` takes (paper, wbi, cbl-on-wbi).
#pragma once

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "conf/scenario.hpp"
#include "core/machine.hpp"
#include "sim/sweep.hpp"
#include "workload/sync_model.hpp"
#include "workload/work_queue_model.hpp"

namespace bcsim::bench {

/// Runs `m` to completion. With the watchdog off, Machine::run returns
/// quietly when the event queue drains before every program finished, so
/// a stuck run would print its deadlock tick as a completion time; it
/// throws here instead and fails the binary.
inline Tick run_machine(core::Machine& m, Tick budget) {
  const Tick t = m.run(budget);
  if (!m.all_done()) {
    throw std::runtime_error("bench: programs stuck at tick " + std::to_string(t));
  }
  return t;
}

struct RunResult {
  Tick completion = 0;
  std::uint64_t messages = 0;
  std::uint64_t contention_cycles = 0;
};

/// Runs the work-queue workload (fixed total work) on a machine.
inline RunResult run_work_queue(const conf::MachineSpec& machine,
                                const workload::WorkQueueConfig& wq,
                                Tick budget = 4'000'000'000ULL) {
  core::Machine m(conf::build_machine(machine));
  workload::WorkQueueWorkload w(m, wq);
  w.spawn_all(m);
  RunResult r;
  r.completion = run_machine(m, budget);
  r.messages = m.stats().counter_value("net.messages");
  r.contention_cycles = m.stats().counter_value("net.contention_cycles");
  return r;
}

/// Runs the sync-model workload (fixed work per processor).
inline RunResult run_sync_model(const conf::MachineSpec& machine,
                                const workload::SyncModelConfig& sm,
                                Tick budget = 4'000'000'000ULL) {
  core::Machine m(conf::build_machine(machine));
  workload::SyncModelWorkload w(m, sm);
  w.spawn_all(m);
  RunResult r;
  r.completion = run_machine(m, budget);
  r.messages = m.stats().counter_value("net.messages");
  r.contention_cycles = m.stats().counter_value("net.contention_cycles");
  return r;
}

/// Prints an aligned table: first column label + numeric columns.
inline void print_table(const std::string& title, const std::string& row_header,
                        const std::vector<std::string>& columns,
                        const std::vector<std::string>& row_labels,
                        const std::vector<std::vector<double>>& cells) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%-14s", row_header.c_str());
  for (const auto& c : columns) std::printf("%16s", c.c_str());
  std::printf("\n");
  for (std::size_t r = 0; r < row_labels.size(); ++r) {
    std::printf("%-14s", row_labels[r].c_str());
    for (double v : cells[r]) std::printf("%16.1f", v);
    std::printf("\n");
  }
}

/// Standard processor-count sweep for the figure benches.
inline std::vector<std::uint32_t> node_sweep() { return {2, 4, 8, 16, 32, 64}; }

}  // namespace bcsim::bench
