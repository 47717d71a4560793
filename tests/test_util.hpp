// Shared helpers for the bcsim test suite.
#pragma once

#include <gtest/gtest.h>

#include "conf/scenario.hpp"
#include "core/config.hpp"
#include "core/machine.hpp"

namespace bcsim::test {

/// Small machine configuration with predictable timing (ideal network) for
/// protocol unit tests.
inline core::MachineConfig small_config(std::uint32_t n_nodes = 4) {
  core::MachineConfig cfg;
  cfg.n_nodes = n_nodes;
  cfg.block_words = 4;
  cfg.cache_blocks = 64;
  cfg.cache_assoc = 4;
  cfg.lock_cache_entries = 8;
  cfg.network = core::NetworkKind::kIdeal;
  cfg.ideal_latency = 4;
  return cfg;
}

/// Configuration of the paper's machine (read-update + CBL + buffered
/// consistency) at small scale: the `paper` flavor on the ideal network,
/// with small_config()'s caches.
inline core::MachineConfig paper_config(std::uint32_t n_nodes = 4) {
  auto cfg = conf::build_machine({.nodes = n_nodes, .flavor = "paper", .network = "ideal"});
  const auto small = small_config(n_nodes);
  cfg.cache_blocks = small.cache_blocks;
  cfg.cache_assoc = small.cache_assoc;
  cfg.lock_cache_entries = small.lock_cache_entries;
  return cfg;
}

/// Runs the machine to completion with a generous safety budget and
/// asserts that every program finished and the system went quiescent.
inline Tick run_all(core::Machine& m, Tick budget = 20'000'000) {
  const Tick t = m.run(budget);
  EXPECT_TRUE(m.all_done()) << "programs stuck at tick " << t;
  EXPECT_TRUE(m.quiescent()) << "protocol activity still outstanding at tick " << t;
  return t;
}

}  // namespace bcsim::test
