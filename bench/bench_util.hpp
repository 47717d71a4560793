// Shared helpers for the paper-reproduction benchmark harnesses.
//
// Each bench binary regenerates one table or figure of the paper: it runs
// the relevant simulations (in parallel across host threads — each
// simulation is single-threaded and deterministic) and prints the same
// rows/series the paper reports, plus the measured message counts that
// back them. Every machine is built by conf::build_machine from the
// flavor names `bcsim run --machine` takes (paper, wbi, cbl-on-wbi).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
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

/// Runs `series(n)` for every n of node_sweep() (in parallel) and prints
/// the rows as the figure's table, labelled by n.
inline std::vector<std::vector<double>> sweep_figure(
    const std::string& title, const std::vector<std::string>& columns,
    const std::function<std::vector<double>(std::uint32_t)>& series) {
  const auto nodes = node_sweep();
  const auto rows = sim::parallel_map<std::vector<double>>(
      nodes.size(), std::function<std::vector<double>(std::size_t)>(
                        [&](std::size_t i) { return series(nodes[i]); }));
  std::vector<std::string> labels;
  for (std::uint32_t n : nodes) labels.push_back("n=" + std::to_string(n));
  print_table(title, "processors", columns, labels, rows);
  return rows;
}

/// Figures 4 and 5: completion time of the paper's five cache-scheme
/// series at `grain` data references per task. The work queue runs
/// `queue_tasks` tasks in all, the sync model `tasks_per_proc` per
/// processor:
///   WBI        sync-model workload, WBI machine, TTS spin lock
///   CBL        sync-model workload, CBL hardware locks/barrier
///   Q-WBI      work-queue workload, WBI machine, TTS spin lock
///   Q-backoff  work-queue workload, WBI machine, TTS + exponential backoff
///   Q-CBL      work-queue workload, CBL hardware locks/barrier
/// Prints the figure's header and table and returns its rows.
inline std::vector<std::vector<double>> cache_scheme_figure(int figure, const char* granularity,
                                                            std::uint32_t grain,
                                                            std::uint32_t queue_tasks,
                                                            std::uint32_t tasks_per_proc) {
  std::printf("Figure %d: performance of cache schemes, %s-granularity parallelism\n", figure,
              granularity);
  std::printf("(completion time in machine cycles; grain = %u references/task)\n", grain);
  const auto q_line = [&](const conf::MachineSpec& machine) {
    workload::WorkQueueConfig wq;
    wq.total_tasks = queue_tasks;
    wq.grain = grain;
    return static_cast<double>(run_work_queue(machine, wq).completion);
  };
  const auto sync_line = [&](const conf::MachineSpec& machine) {
    workload::SyncModelConfig sm;
    sm.tasks_per_proc = tasks_per_proc;
    sm.grain = grain;
    return static_cast<double>(run_sync_model(machine, sm).completion);
  };
  return sweep_figure("Figure " + std::to_string(figure) + " series",
                      {"WBI", "CBL", "Q-WBI", "Q-backoff", "Q-CBL"}, [&](std::uint32_t n) {
                        return std::vector<double>{
                            sync_line({.nodes = n, .flavor = "wbi"}),
                            sync_line({.nodes = n, .flavor = "cbl-on-wbi"}),
                            q_line({.nodes = n, .flavor = "wbi"}),
                            q_line({.nodes = n, .flavor = "wbi", .lock = "tts-backoff"}),
                            q_line({.nodes = n, .flavor = "cbl-on-wbi"}),
                        };
                      });
}

/// Figures 6 and 7: SC-CBL against BC-CBL completion time of `tasks`
/// work-queue tasks at `grain` data references per task, on the paper's
/// machine. Prints the figure's header and table (BC/SC in percent) and
/// returns the largest BC/SC.
inline double consistency_figure(int figure, const char* granularity, std::uint32_t grain,
                                 std::uint32_t tasks) {
  std::printf("Figure %d: buffered vs sequential consistency, %s-granularity work-queue\n",
              figure, granularity);
  std::printf("(completion time in machine cycles; grain = %u references/task)\n", grain);
  const auto completion = [&](std::uint32_t n, const char* consistency) {
    workload::WorkQueueConfig wq;
    wq.total_tasks = tasks;
    wq.grain = grain;
    return static_cast<double>(
        run_work_queue({.nodes = n, .consistency{consistency}}, wq).completion);
  };
  const auto rows = sweep_figure(
      "Figure " + std::to_string(figure) + " series (BC/SC column in percent)",
      {"SC-CBL", "BC-CBL", "BC/SC"}, [&](std::uint32_t n) {
        const double sc = completion(n, "sc");
        const double bc = completion(n, "bc");
        return std::vector<double>{sc, bc, 100.0 * bc / sc};
      });
  double worst = 0;
  for (const auto& r : rows) worst = std::max(worst, r[2]);
  return worst;
}

}  // namespace bcsim::bench
