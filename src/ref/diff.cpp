#include "ref/diff.hpp"

#include <limits>
#include <sstream>

namespace bcsim::ref {

namespace {

void name_location(Divergence& d, const ir::RunResult& mach, std::uint32_t var,
                   std::uint32_t block_words) {
  d.var = var;
  d.addr = var < mach.loc_addr.size() ? mach.loc_addr[var] : 0;
  d.block = block_words != 0 ? d.addr / block_words : 0;
}

}  // namespace

Divergence compare_runs(const RefResult& ref, const ir::RunResult& mach,
                        std::uint32_t block_words) {
  Divergence d;
  std::ostringstream os;

  if (!mach.error.empty() || !mach.completed) {
    d.kind = Divergence::Kind::kMachineError;
    d.tick = mach.completion;
    os << "machine failed at tick " << mach.completion << ": "
       << (mach.error.empty() ? "did not complete" : mach.error);
    d.detail = os.str();
    return d;
  }
  if (ref.deadlocked) {
    d.kind = Divergence::Kind::kMachineError;
    os << "reference deadlocked — generator emitted a non-DRF program (bug)";
    d.detail = os.str();
    return d;
  }

  // Observed reads: the earliest mismatch by machine tick across nodes.
  Tick best_tick = std::numeric_limits<Tick>::max();
  for (std::uint32_t n = 0; n < ref.loads.size(); ++n) {
    const auto& rv = ref.loads[n];
    const auto& mv = mach.loads[n];
    const std::size_t common = rv.size() < mv.size() ? rv.size() : mv.size();
    for (std::size_t i = 0; i < common; ++i) {
      if (rv[i].value == mv[i].value && rv[i].loc == mv[i].loc) continue;
      if (mv[i].tick >= best_tick) break;
      best_tick = mv[i].tick;
      d.kind = Divergence::Kind::kObsRead;
      d.node = n;
      d.op_index = mv[i].op_index;
      d.tick = mv[i].tick;
      d.machine_value = mv[i].value;
      d.ref_value = rv[i].value;
      name_location(d, mach, mv[i].loc, block_words);
      break;
    }
    if (rv.size() != mv.size() && d.kind == Divergence::Kind::kNone) {
      d.kind = Divergence::Kind::kObsStream;
      d.node = n;
      os.str("");
      os << "node " << n << " observed " << mv.size() << " reads, reference "
         << rv.size();
      d.detail = os.str();
      return d;
    }
  }
  if (d.kind == Divergence::Kind::kObsRead) {
    os << "node " << d.node << " op " << d.op_index << " READ var " << d.var
       << " (addr " << d.addr << ", block " << d.block << ") at tick " << d.tick
       << ": machine read " << d.machine_value << ", SC reference expects "
       << d.ref_value;
    d.detail = os.str();
    return d;
  }

  for (std::uint32_t v = 0; v < ref.final_locs.size(); ++v) {
    if (mach.final_locs[v] == ref.final_locs[v]) continue;
    d.kind = Divergence::Kind::kFinalVar;
    d.tick = mach.completion;
    d.machine_value = mach.final_locs[v];
    d.ref_value = ref.final_locs[v];
    name_location(d, mach, v, block_words);
    os << "final memory: var " << v << " (addr " << d.addr << ", block " << d.block
       << ") at completion tick " << d.tick << ": machine holds " << d.machine_value
       << ", SC reference expects " << d.ref_value;
    d.detail = os.str();
    return d;
  }

  for (std::uint32_t s = 0; s < ref.final_sems.size(); ++s) {
    if (mach.final_sems[s] == ref.final_sems[s]) continue;
    d.kind = Divergence::Kind::kFinalSem;
    d.tick = mach.completion;
    d.machine_value = mach.final_sems[s];
    d.ref_value = ref.final_sems[s];
    d.var = s;
    d.addr = s < mach.sem_addr.size() ? mach.sem_addr[s] : 0;
    d.block = block_words != 0 ? d.addr / block_words : 0;
    os << "final semaphore " << s << " count (addr " << d.addr << ", block "
       << d.block << ") at completion tick " << d.tick << ": machine holds "
       << d.machine_value << ", SC reference expects " << d.ref_value;
    d.detail = os.str();
    return d;
  }

  return d;
}

}  // namespace bcsim::ref
