// Shared helpers for the paper-reproduction benchmark harnesses.
//
// Each bench binary regenerates one table or figure of the paper: it runs
// the relevant simulations (in parallel across host threads — each
// simulation is single-threaded and deterministic) and prints the same
// rows/series the paper reports, plus the measured message counts that
// back them.
#pragma once

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/machine.hpp"
#include "sim/sweep.hpp"
#include "workload/sync_model.hpp"
#include "workload/work_queue_model.hpp"

namespace bcsim::bench {

/// WBI machine with a software lock (the paper's baseline).
inline core::MachineConfig wbi_machine(std::uint32_t n, core::LockImpl lock) {
  core::MachineConfig cfg;
  cfg.n_nodes = n;
  cfg.lock_impl = lock;
  cfg.barrier_impl = core::BarrierImpl::kCentral;
  cfg.network = core::NetworkKind::kOmega;
  return cfg;
}

/// WBI data coherence + hardware CBL locks/barrier (Figures 4-5 "CBL"
/// lines: "these tests do not employ buffered consistency").
inline core::MachineConfig cbl_machine(std::uint32_t n) {
  core::MachineConfig cfg;
  cfg.n_nodes = n;
  cfg.lock_impl = core::LockImpl::kCbl;
  cfg.barrier_impl = core::BarrierImpl::kCbl;
  cfg.network = core::NetworkKind::kOmega;
  return cfg;
}

/// The paper's full machine: read-update coherence + CBL + chosen
/// consistency model (Figures 6-7).
inline core::MachineConfig paper_machine(std::uint32_t n, core::Consistency c) {
  core::MachineConfig cfg;
  cfg.n_nodes = n;
  cfg.data_protocol = core::DataProtocol::kReadUpdate;
  cfg.consistency = c;
  cfg.lock_impl = core::LockImpl::kCbl;
  cfg.barrier_impl = core::BarrierImpl::kCbl;
  cfg.network = core::NetworkKind::kOmega;
  return cfg;
}

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
inline RunResult run_work_queue(const core::MachineConfig& cfg,
                                const workload::WorkQueueConfig& wq,
                                Tick budget = 4'000'000'000ULL) {
  core::Machine m(cfg);
  workload::WorkQueueWorkload w(m, wq);
  w.spawn_all(m);
  RunResult r;
  r.completion = run_machine(m, budget);
  r.messages = m.stats().counter_value("net.messages");
  r.contention_cycles = m.stats().counter_value("net.contention_cycles");
  return r;
}

/// Runs the sync-model workload (fixed work per processor).
inline RunResult run_sync_model(const core::MachineConfig& cfg,
                                const workload::SyncModelConfig& sm,
                                Tick budget = 4'000'000'000ULL) {
  core::Machine m(cfg);
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
