// Machine: assembles n nodes (processor + cache controller + memory module
// slice with its directory) around an interconnection network, and runs
// coroutine programs on the processors.
#pragma once

#include <deque>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cache_controller.hpp"
#include "core/config.hpp"
#include "core/processor.hpp"
#include "mem/address.hpp"
#include "net/network.hpp"
#include "proto/directory_controller.hpp"
#include "sim/invariants.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/task.hpp"

namespace bcsim::core {

enum class LivenessKind : std::uint8_t;  // core/watchdog.hpp

/// Simple bump allocator for the simulated shared address space; hands out
/// block-aligned regions so synchronization variables and data structures
/// can be placed deliberately (colocated or separated — the paper makes
/// allocation a software responsibility).
class AddressAllocator {
 public:
  explicit AddressAllocator(std::uint32_t block_words, Addr start_block = 0)
      : block_words_(block_words), next_block_(start_block) {}

  /// A fresh block-aligned region of `blocks` blocks; returns its base addr.
  Addr alloc_blocks(std::uint64_t blocks = 1) {
    const Addr base = next_block_ * block_words_;
    next_block_ += blocks;
    return base;
  }
  /// A fresh region of at least `words` words (rounded up to whole blocks).
  Addr alloc_words(std::uint64_t words) {
    return alloc_blocks((words + block_words_ - 1) / block_words_);
  }
  [[nodiscard]] std::uint32_t block_words() const noexcept { return block_words_; }

 private:
  std::uint32_t block_words_;
  Addr next_block_;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] const MachineConfig& config() const noexcept { return config_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] sim::StatsRegistry& stats() noexcept { return stats_; }
  [[nodiscard]] const sim::StatsRegistry& stats() const noexcept { return stats_; }
  [[nodiscard]] net::Network& network() noexcept { return *network_; }
  [[nodiscard]] const mem::AddressMap& address_map() const noexcept { return amap_; }
  [[nodiscard]] std::uint32_t n_nodes() const noexcept { return config_.n_nodes; }

  [[nodiscard]] Processor& processor(NodeId i) { return *processors_.at(i); }
  [[nodiscard]] CacheController& cache_controller(NodeId i) { return *caches_.at(i); }
  [[nodiscard]] proto::DirectoryController& directory(NodeId i) { return *dirs_.at(i); }

  /// A fresh allocator over this machine's address space. Regions from
  /// independent allocators would collide; create one per experiment.
  [[nodiscard]] AddressAllocator make_allocator(Addr start_block = 0) const {
    return AddressAllocator(config_.block_words, start_block);
  }

  /// Registers a program; it starts at the next run() call. Spawning
  /// between runs is allowed (tests use it to sequence scenarios).
  void spawn(sim::Task t) { programs_.push_back(std::move(t)); }

  /// Starts all not-yet-started programs and drains the event loop. Throws
  /// if any program failed or the cycle budget was exhausted. Returns the
  /// completion time in cycles.
  ///
  /// With the liveness watchdog enabled (config.watchdog_interval > 0) the
  /// run is additionally supervised: an event queue that drains before
  /// every program finished (or with protocol state stranded) is diagnosed
  /// as deadlock, `watchdog_stalls` consecutive intervals without a
  /// retired operation — or a budget exhaustion — as livelock. Both print
  /// a wait-for-graph report plus the trace tail and throw
  /// LivenessViolation (core/watchdog.hpp).
  Tick run(Tick max_cycles = kNever);

  /// Runs until simulated time `until` and pauses (programs may still be
  /// mid-flight). Useful for inspecting in-progress protocol state; call
  /// run() afterwards to finish.
  Tick run_until(Tick until);

  /// True when every program finished.
  [[nodiscard]] bool all_done() const;

  /// Sum of Processor::ops_retired() over every node: the machine-wide
  /// progress counter the liveness watchdog samples between run slices.
  [[nodiscard]] std::uint64_t ops_retired_total() const;

  /// True when no protocol activity is outstanding anywhere (directories
  /// stable, caches drained). Meaningful after run() returns.
  [[nodiscard]] bool quiescent() const;

  /// Fingerprint of every statistic (sim::StatsRegistry::digest). Two runs
  /// of one configuration must agree bit-for-bit; every line of
  /// tests/pins.txt records it, so any change to simulation behavior —
  /// intended or not — is caught (docs/TESTING.md, "Pins").
  [[nodiscard]] std::uint64_t stats_digest() const noexcept { return stats_.digest(); }

  /// Fingerprint of the final memory contents, which stats_digest() cannot
  /// see: FNV-1a over (address, peek_coherent(address)) for every word of
  /// every block that backing memory holds or any directory has an entry
  /// for, in address order. It only reads and registers no statistic.
  [[nodiscard]] std::uint64_t data_digest() const;

  /// Convenience: direct word access to backing memory (tests/debugging;
  /// bypasses all timing).
  [[nodiscard]] Word peek_memory(Addr a) const;
  void poke_memory(Addr a, Word v);

  /// Like peek_memory, but coherent: when the WBI directory records an
  /// exclusive owner for the block, the value is read from that owner's
  /// cache (memory is legitimately stale under a write-back protocol).
  [[nodiscard]] Word peek_coherent(Addr a) const;

  /// Every nonzero word of backing memory as (addr, value), sorted by
  /// address. Taken before run() it captures the initial contents the
  /// workload constructor poked — the trace recorder stores it so a
  /// replay starts from identical memory (bypasses all timing).
  [[nodiscard]] std::vector<std::pair<Addr, Word>> snapshot_memory() const;

  /// Runs the full quiescent-state invariant sweep now, regardless of the
  /// configured level; throws sim::InvariantViolation on the first broken
  /// invariant (after dumping the trace tail when tracing is on). Only
  /// meaningful when quiescent() (the distributed queue mirrors lag the
  /// directory while messages are in flight).
  void check_invariants(const char* where = "on-demand");

  /// Writes the newest `n` trace records to `os` (no-op text when tracing
  /// was never enabled). The machine calls this itself on an invariant or
  /// liveness violation with n = config.trace_dump; exposed for tests and
  /// tools.
  void dump_trace(std::ostream& os, std::size_t n = kViolationDumpTail) const;

  /// Default records dumped alongside a violation diagnostic (the
  /// per-machine knob is MachineConfig::trace_dump / --trace-dump).
  static constexpr std::size_t kViolationDumpTail = 64;

 private:
  /// Schedules the start of every program spawned since the last run.
  void start_programs();

  /// Prints the trace tail to stderr before an InvariantViolation
  /// propagates, so the interleaving that led to the violation survives.
  void dump_trace_on_violation() const;

  /// run()'s event-draining core: a plain sim_.run with the watchdog off,
  /// a run_until-sliced loop sampling ops_retired_total() with it on
  /// (livelock is diagnosed from inside; deadlock/budget by run()).
  sim::RunResult run_events(Tick max_cycles);

  /// Prints the liveness report (wait-for graph + transport diagnosis) and
  /// the trace tail to stderr, then throws LivenessViolation.
  [[noreturn]] void diagnose_liveness(LivenessKind kind, const std::string& headline);

  MachineConfig config_;
  sim::Simulator sim_;
  sim::StatsRegistry stats_;
  mem::AddressMap amap_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<proto::DirectoryController>> dirs_;
  std::vector<std::unique_ptr<CacheController>> caches_;
  std::vector<std::unique_ptr<Processor>> processors_;
  std::deque<sim::Task> programs_;  ///< deque: stable addresses across spawn
  std::size_t started_ = 0;         ///< programs_[0..started_) have started
  sim::InvariantChecker checker_{*this};
};

}  // namespace bcsim::core
