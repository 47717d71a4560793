// Axiomatic Buffered Consistency checker: enumerates every outcome the
// paper's memory model allows for a litmus test (model/litmus.hpp).
//
// The BC rules (paper section 3) are encoded as an abstract operational
// machine whose reachable terminal states are exactly the executions the
// axioms admit:
//
//   * program order per thread, modulo write-buffer reordering — a store
//     enters the issuing thread's FIFO buffer and *performs* (reaches its
//     home, entering the location's coherence order) at any later point;
//     stores to the same location by one thread perform in program order
//     (one network channel), stores to different locations may drain out
//     of order;
//   * per-location coherence — each thread holds a monotonically advancing
//     view (an index into the location's coherence order); a load returns
//     any value no older than the view, no older than the thread's own
//     last performed store, and no newer than the newest performed store
//     (update deliveries take time, so views may lag arbitrarily);
//     a thread's own buffered store is returned directly (the dirty word
//     is in its cache before the write is globally performed);
//   * fence / CP-Synch flush edges — FLUSH-BUFFER (and the flush inside
//     unlock and barrier arrival) completes only once every prior store
//     by the thread is *globally* performed: all copies updated, so every
//     thread's view of those locations is floored at the store's position;
//   * NP-Synch — lock acquire is pure mutual exclusion and creates no
//     visibility edge (the paper's racy window);
//   * read-from — kLoad may return a stale-but-coherent value; kLoadOnce
//     (READ-GLOBAL) returns the home memory's current value at its
//     linearization point.
//
// Exhaustive interleaving of these transitions with state memoization
// yields the allowed set. Soundness of the cross-validation rests on the
// machine being *no weaker* than each rule: docs/TESTING.md ("Model
// conformance") walks the argument rule by rule.
#pragma once

#include <string>
#include <vector>

#include "model/litmus.hpp"

namespace bcsim::model {

/// Enumerates the allowed outcome set, sorted and deduplicated. Throws
/// std::invalid_argument when validate(t) rejects the test.
[[nodiscard]] std::vector<Outcome> enumerate_allowed(const ir::Program& t);

/// Membership test against a sorted allowed set.
[[nodiscard]] bool outcome_allowed(const std::vector<Outcome>& allowed,
                                   const Outcome& got);

/// The index of the first observed load (thread-major) at which `got`
/// departs from every allowed outcome — the earliest point a soundness
/// violation is visible. Returns -1 when `got` is allowed, and
/// `got.loads.size()` when every load prefix is extendable but the final
/// memory state matches no outcome with those loads.
[[nodiscard]] int first_divergence(const std::vector<Outcome>& allowed,
                                   const Outcome& got);

/// Golden-table rendering of a test's allowed set: a header naming the
/// test and its threads, then one canonical line per outcome. Pinned in
/// tests/model_allowed_golden.txt; regenerate with
/// `bcsim model --print-allowed`.
[[nodiscard]] std::string render_allowed(const ir::Program& t,
                                         const std::vector<Outcome>& allowed);

}  // namespace bcsim::model
