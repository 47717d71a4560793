// Liveness watchdog: deadlock/livelock diagnosis for the machine.
//
// Enabled by MachineConfig::watchdog_interval > 0 (chaos runs turn it on;
// the default is off, with zero behavior change). Machine::run() then
// distinguishes two failure shapes the fault-injection layer can produce:
//
//   * deadlock — the event queue drains (quiescence) before every program
//     finished, or with protocol state stranded (an undeliverable message
//     left a directory entry busy, a lock chain broken, an MSHR waiting
//     forever);
//   * livelock — events keep firing but no processor retires an operation
//     for `watchdog_stalls` consecutive intervals (also what a cycle-budget
//     exhaustion is converted into, so a budget hit is diagnosed rather
//     than reported as a bare exception).
//
// Either way the machine prints a report — a wait-for graph assembled from
// each processor's outstanding operation, the lock chains, barrier states,
// write buffers, and directory blocked queues, plus the transport's fault journal and the trace-ring
// tail — and throws LivenessViolation carrying the same text, so harnesses
// (bcsim chaos, the differential oracle) can classify the run as
// *diagnosed* rather than silently hung.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace bcsim::core {

class Machine;

enum class LivenessKind : std::uint8_t { kDeadlock, kLivelock };

[[nodiscard]] constexpr const char* to_string(LivenessKind k) noexcept {
  return k == LivenessKind::kDeadlock ? "deadlock" : "livelock";
}

/// Thrown by Machine::run() when the watchdog fires; what() carries the
/// full report (headline, wait-for graph, transport diagnosis).
class LivenessViolation : public std::runtime_error {
 public:
  LivenessViolation(LivenessKind kind_, Tick tick_, const std::string& report)
      : std::runtime_error(report), kind(kind_), tick(tick_) {}

  LivenessKind kind;
  Tick tick;
};

/// One edge of the wait-for graph: `from` cannot make progress until `to`
/// acts (kNoNode when the wait is on a home/memory-side condition with no
/// single responsible node). `reason` says what is being waited for.
struct WaitEdge {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  std::string reason;
};

/// Assembles the wait-for graph from the machine's current protocol state:
/// every processor's outstanding operation (a demand miss: cache -> home;
/// a lock acquire: waiter -> predecessor in the directory's lock chain,
/// with the chain named; a barrier wait; a global-write ack; a spin on a
/// line or word change; a busy lock line, full lock cache or full write
/// buffer; a flush), non-empty write buffers, and requests queued behind
/// busy directory entries.
[[nodiscard]] std::vector<WaitEdge> build_wait_for_graph(Machine& m);

/// Renders the full diagnosis: headline, the wait-for graph, and the
/// transport's undeliverable/journal report when a transport is installed.
/// (The trace-ring tail is appended separately by the machine, which owns
/// the dump path shared with InvariantViolation.)
[[nodiscard]] std::string render_liveness_report(Machine& m, LivenessKind kind,
                                                 const std::string& headline);

}  // namespace bcsim::core
