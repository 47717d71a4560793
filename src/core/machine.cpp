#include "core/machine.hpp"

#include <algorithm>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "core/watchdog.hpp"

namespace bcsim::core {

Machine::Machine(const MachineConfig& config)
    : config_(config), amap_(config.block_words, config.n_nodes) {
  config_.validate();
  // Before anything can schedule: the tie-break policy must cover every
  // event of the simulation for a seed to name one schedule exactly.
  sim_.set_schedule_seed(config_.schedule_seed);
  switch (config_.network) {
    case NetworkKind::kOmega:
      network_ = std::make_unique<net::OmegaNetwork>(sim_, stats_, config_.n_nodes,
                                                     config_.switch_delay,
                                                     config_.net_buffer_depth);
      break;
    case NetworkKind::kCrossbar:
      network_ = std::make_unique<net::CrossbarNetwork>(sim_, stats_, config_.n_nodes);
      break;
    case NetworkKind::kMesh:
      network_ = std::make_unique<net::MeshNetwork>(sim_, stats_, config_.n_nodes,
                                                    config_.switch_delay,
                                                    config_.net_buffer_depth);
      break;
    case NetworkKind::kIdeal:
      network_ = std::make_unique<net::IdealNetwork>(sim_, stats_, config_.n_nodes,
                                                     config_.ideal_latency);
      break;
  }
  network_->set_block_words(config_.block_words);

  if (config_.trace) sim_.enable_trace(config_.trace_capacity);
  if (config_.fault_plan.has_net_rules()) {
    network_->install_transport(config_.fault_plan, stats_);
  }

  sim::Rng seeder(config_.seed);
  dirs_.reserve(config_.n_nodes);
  caches_.reserve(config_.n_nodes);
  processors_.reserve(config_.n_nodes);
  for (NodeId i = 0; i < config_.n_nodes; ++i) {
    dirs_.push_back(std::make_unique<proto::DirectoryController>(i, sim_, *network_, amap_,
                                                                 config_, stats_));
    caches_.push_back(
        std::make_unique<CacheController>(i, sim_, *network_, amap_, config_, stats_));
    processors_.push_back(
        std::make_unique<Processor>(i, sim_, *caches_.back(), config_, seeder.next_u64()));
    network_->attach(i, net::Unit::kMemory,
                     [d = dirs_.back().get()](const net::Message& m) { d->on_message(m); });
    network_->attach(i, net::Unit::kCache,
                     [c = caches_.back().get()](const net::Message& m) { c->on_message(m); });
  }
  if (config_.invariants == sim::InvariantLevel::kFull) {
    for (NodeId i = 0; i < config_.n_nodes; ++i) {
      dirs_[i]->set_transition_hook([this, i](BlockId b) { checker_.check_entry(i, b); });
    }
  }
}

Tick Machine::run(Tick max_cycles) {
  try {
    start_programs();
    const auto result = run_events(max_cycles);
    for (const auto& t : programs_) t.rethrow_if_failed();
    if (result == sim::RunResult::kBudget) {
      if (config_.watchdog_interval > 0) {
        diagnose_liveness(LivenessKind::kLivelock,
                          "cycle budget exhausted with programs still running");
      }
      throw std::runtime_error(
          "Machine::run: cycle budget exhausted (livelock or budget too small)");
    }
    if (result == sim::RunResult::kIdle && config_.watchdog_interval > 0 &&
        (!all_done() || !quiescent())) {
      diagnose_liveness(LivenessKind::kDeadlock,
                        all_done()
                            ? "every program finished but protocol state failed to quiesce"
                            : "event queue drained before every program finished");
    }
    if (config_.invariants != sim::InvariantLevel::kOff && quiescent()) {
      checker_.check_quiescent("end-of-run");
    }
  } catch (const sim::InvariantViolation&) {
    // Entry-local (kFull) violations surface out of sim_.run() via the
    // transition hook; quiescent ones out of check_quiescent. Either way,
    // print the interleaving that led here before the diagnostic unwinds.
    dump_trace_on_violation();
    throw;
  }
  return sim_.now();
}

Tick Machine::run_until(Tick until) {
  try {
    start_programs();
    sim_.run_until(until);
    for (const auto& t : programs_) t.rethrow_if_failed();
  } catch (const sim::InvariantViolation&) {
    dump_trace_on_violation();
    throw;
  }
  return sim_.now();
}

void Machine::check_invariants(const char* where) {
  try {
    checker_.check_quiescent(where);
  } catch (const sim::InvariantViolation&) {
    dump_trace_on_violation();
    throw;
  }
}

void Machine::start_programs() {
  while (started_ < programs_.size()) {
    sim_.schedule(0, [t = &programs_[started_++]] { t->start(); });
  }
}

void Machine::dump_trace(std::ostream& os, std::size_t n) const {
  sim_.trace().dump_tail(os, n);
}

void Machine::dump_trace_on_violation() const {
  if (!sim_.trace().enabled()) return;
  std::cerr << "--- trace (newest " << config_.trace_dump << " records) ---\n";
  dump_trace(std::cerr, config_.trace_dump);
}

sim::RunResult Machine::run_events(Tick max_cycles) {
  if (config_.watchdog_interval == 0) return sim_.run(max_cycles);
  const Tick now0 = sim_.now();
  const Tick deadline =
      (max_cycles == kNever || max_cycles > kNever - now0) ? kNever : now0 + max_cycles;
  std::uint64_t last_retired = ops_retired_total();
  std::uint32_t stalls = 0;
  for (;;) {
    Tick target = (config_.watchdog_interval > kNever - sim_.now())
                      ? kNever
                      : sim_.now() + config_.watchdog_interval;
    if (target > deadline) target = deadline;
    sim_.run_until(target);
    if (sim_.pending_events() == 0) return sim::RunResult::kIdle;
    if (sim_.now() >= deadline) return sim::RunResult::kBudget;
    // Progress check: events are firing but nothing retires. Protocol-only
    // churn after the programs finished (drain, retransmits) is fine; it
    // either completes or ends in a give-up and the queue drains.
    const std::uint64_t retired = ops_retired_total();
    if (retired == last_retired && !all_done()) {
      if (++stalls >= config_.watchdog_stalls) {
        std::ostringstream os;
        os << "no operation retired for " << stalls << " watchdog interval(s) ("
           << config_.watchdog_interval << " tick(s) each) with unfinished programs";
        diagnose_liveness(LivenessKind::kLivelock, os.str());
      }
    } else {
      stalls = 0;
      last_retired = retired;
    }
  }
}

std::uint64_t Machine::ops_retired_total() const {
  std::uint64_t total = 0;
  for (const auto& p : processors_) total += p->ops_retired();
  return total;
}

void Machine::diagnose_liveness(LivenessKind kind, const std::string& headline) {
  const std::string report = render_liveness_report(*this, kind, headline);
  std::cerr << report;
  if (sim_.trace().enabled()) {
    std::cerr << "--- trace (newest " << config_.trace_dump << " records) ---\n";
    dump_trace(std::cerr, config_.trace_dump);
  }
  throw LivenessViolation(kind, sim_.now(), report);
}

bool Machine::all_done() const {
  for (const auto& t : programs_) {
    if (!t.done()) return false;
  }
  return true;
}

bool Machine::quiescent() const {
  for (const auto& d : dirs_) {
    if (!d->quiescent()) return false;
  }
  for (const auto& c : caches_) {
    if (!c->quiescent()) return false;
  }
  return true;
}

Word Machine::peek_memory(Addr a) const {
  const BlockId b = amap_.block_of(a);
  return dirs_.at(amap_.home_of(b))->memory().read_word(b, amap_.word_of(a));
}

void Machine::poke_memory(Addr a, Word v) {
  const BlockId b = amap_.block_of(a);
  dirs_.at(amap_.home_of(b))->memory().write_word(b, amap_.word_of(a), v);
}

std::vector<std::pair<Addr, Word>> Machine::snapshot_memory() const {
  std::vector<std::pair<Addr, Word>> out;
  for (const auto& d : dirs_) {
    d->memory().for_each_word([&](BlockId b, std::uint32_t w, Word v) {
      out.emplace_back(amap_.base_of(b) + w, v);
    });
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t Machine::data_digest() const {
  std::vector<BlockId> blocks;
  for (const auto& d : dirs_) {
    d->memory().for_each_block([&](BlockId b) { blocks.push_back(b); });
    d->for_each_entry([&](BlockId b, const mem::DirectoryEntry&) { blocks.push_back(b); });
  }
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
  sim::Fnv1a h;
  for (const BlockId b : blocks) {
    const Addr base = amap_.base_of(b);
    for (Addr a = base; a < base + config_.block_words; ++a) {
      h.u64(a);
      h.u64(peek_coherent(a));
    }
  }
  return h.h;
}

Word Machine::peek_coherent(Addr a) const {
  const BlockId b = amap_.block_of(a);
  const auto* e = dirs_.at(amap_.home_of(b))->peek(b);
  if (e != nullptr && e->state == mem::DirState::kModified && e->owner != kNoNode) {
    if (const auto* line = caches_.at(e->owner)->data_cache().find(b)) {
      return line->data[amap_.word_of(a)];
    }
  }
  return peek_memory(a);
}

}  // namespace bcsim::core
