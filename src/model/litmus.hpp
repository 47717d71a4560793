// Litmus tests for the axiomatic buffered-consistency checker.
//
// A litmus test is an ir::Program (ir/program.hpp): a handful of threads,
// each a straight-line sequence of operations over a few shared locations
// (plus locks and barriers). The same program feeds two interpreters:
//
//   * model/bc_model.hpp enumerates every outcome the paper's Buffered
//     Consistency model allows (the axiomatic side), and
//   * ir/run.hpp lowers it onto a real core::Machine (the operational
//     side), after with_warmup() prepends the subscription warm-up,
//
// so `bcsim model` can assert that everything the machine does is allowed
// (soundness) and report how much of the allowed set the schedule sweep
// reaches (statistical completeness). docs/TESTING.md ("Model
// conformance") documents the format and workflow.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/program.hpp"
#include "sim/types.hpp"

namespace bcsim::model {

/// A litmus test: `n_locations` locations on a block each (distinct homes,
/// genuinely unordered completions), `n_locks` locks, and a barrier when
/// any thread uses one, allocated in that order.
[[nodiscard]] ir::Program litmus(std::string name, std::string description,
                                 std::uint32_t n_locations, std::uint32_t n_locks,
                                 std::vector<std::vector<ir::Op>> threads);

/// The machine run of `t` under `schedule_seed`: each thread first waits
/// a stagger of 256 cycles per thread index, then issues an unobserved
/// subscribing load of every location it kLoads or kAwaits (under
/// read-update this builds the update-delivery chains — thread order is
/// subscription order, and the earliest subscriber ends up at the chain's
/// tail, last to be delivered), meets the others at a start barrier so no
/// store can race the subscriptions, and computes for a jitter derived
/// from the schedule seed — so the seed sweep explores coarse race
/// alignments, not just same-tick tie-breaks. The warm-up observes
/// nothing; the model and the golden tables never see it.
[[nodiscard]] ir::Program with_warmup(const ir::Program& t, std::uint64_t schedule_seed);

/// One observable result of a litmus execution: the values every observed
/// load returned (thread-major, program order within a thread) plus the
/// final memory value of every location.
struct Outcome {
  std::vector<Word> loads;
  std::vector<Word> finals;
  auto operator<=>(const Outcome&) const = default;
};

/// The outcome of an interpreter run (ir::RunResult or ref::RefResult).
[[nodiscard]] Outcome outcome_of(const std::vector<std::vector<ir::Observation>>& loads,
                                 const std::vector<Word>& finals);

/// Well-formedness check; returns "" when the test is usable and a
/// diagnostic otherwise. Enforced rules: only the ops the model knows (no
/// kCsAdd or semaphores); indices in range; lock/unlock properly paired
/// per thread (no releasing a lock the thread does not hold, none held at
/// thread exit); every thread has the same number of kBarrier ops
/// (barriers are global episodes); a thread never kLoadOnce's or kAwaits
/// a location it also stores to (READ-GLOBAL bypasses the write buffer,
/// and awaiting an own store is vacuous); every kAwait'ed value is stored
/// by some thread (otherwise the spin cannot terminate).
[[nodiscard]] std::string validate(const ir::Program& t);

/// Human name for a location index: "x", "y", "z", "w", "v", "u", then "L<n>".
[[nodiscard]] std::string loc_name(std::uint32_t loc);

/// Renders one outcome against the test's load labels, e.g.
/// "t1:Ld y=1 t1:Ld x=0 | x=42 y=1".
[[nodiscard]] std::string render_outcome(const ir::Program& t, const Outcome& o);

/// Label of the i-th observed load (thread-major): "t1:Ld y (op 2)".
[[nodiscard]] std::string load_label(const ir::Program& t, std::size_t i);

}  // namespace bcsim::model
