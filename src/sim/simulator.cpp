#include "sim/simulator.hpp"

namespace bcsim::sim {

void Simulator::drain(Tick until) {
  while (!queue_.empty() && queue_.next_tick() <= until) {
    auto [at, fn] = queue_.pop();
    now_ = at;
    ++events_processed_;
    fn();
  }
}

RunResult Simulator::run(Tick max_cycles) {
  drain((max_cycles == kNever) ? kNever : saturating_add(now_, max_cycles));
  return queue_.empty() ? RunResult::kIdle : RunResult::kBudget;
}

void Simulator::run_until(Tick until) {
  drain(until);
  if (now_ < until) now_ = until;
}

}  // namespace bcsim::sim
