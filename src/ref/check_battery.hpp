// The `bcsim check` battery: five fixed programs in the shared IR
// (ir/program.hpp) that work the synchronization engines and the write
// buffer's CP-Synch gate. `bcsim check` runs each one on every flavor,
// network and schedule seed at full invariant level and judges it against
// the SC reference, as `bcsim diff` judges a DRF program (docs/TESTING.md,
// "One program IR, one grid, four judges").
//
// With n threads:
//   * lock-counter    — every thread adds 1 to a lock-guarded counter six
//     times: enqueue, handoff, drain and re-lock races; the final count is
//     6n.
//   * rw-lock         — thread 0 writes under the lock (x goes 0 -> 1 -> 0
//     inside each critical section), the others read x twice under the
//     lock's shared mode with staggered holds: read-holder groups,
//     mid-group drop-outs and writer promotion. Under exclusion every
//     observed x is 0.
//   * message-passing — the writer stores data, flushes, then stores the
//     flag and flushes; the reader subscribes to data and then to the
//     flag, awaits the flag and loads data (42). Up to two bystanders
//     subscribe to data after the reader, so the data's update reaches
//     the reader last: a flag that overtakes the data is seen.
//   * barrier         — each thread stores its own slot, flushes, waits at
//     the barrier and then reads every slot.
//   * fuzz            — a seeded mix of nested locks (index order, at most
//     two held) with counter updates, fetch-adds, stores to the thread's
//     own words (packed so threads share blocks), unobserved subscribing
//     loads, unsubscribes, flushes and compute.
//
// Every observed load and every final location is the same under every
// SC schedule, so the reference result is schedule-independent, as for a
// DRF program.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/program.hpp"

namespace bcsim::ref {

/// The battery for `nodes` threads (at least 2: rw-lock and
/// message-passing put their writer and readers on different processors),
/// in the order above. Throws std::invalid_argument for fewer.
[[nodiscard]] std::vector<ir::Program> check_battery(std::uint32_t nodes);

}  // namespace bcsim::ref
