// Declarative, seeded fault injection for the unreliable-fabric resilience
// layer (docs/TESTING.md, "Chaos testing & liveness").
//
// A FaultPlan is a list of rules, each describing one class of fabric
// misbehavior at link granularity — message drop, duplication, bounded
// extra delay, payload corruption, or a node inbound-stall window — plus a
// plan-wide retry policy for the transport layer that recovers from them
// (net/transport.hpp). Every probabilistic decision is a pure function of
// (plan seed, rule index, link, sequence number, attempt), so a plan+seed
// names one deterministic fault schedule: the same run replays exactly,
// which is what makes chaos cells (`bcsim chaos`) replayable from a corpus
// line.
//
// Plans are written as text:
//
//   drop:p=0.02;delay:p=0.1,ticks=64;stall:node=3,at=5000,len=2000;seed=7
//
// one `kind:key=val,...` item per rule, ';'-separated, plus optional
// plan-level items `seed=N` and `retry:off|max=N,timeout=T,nack=on|off`.
// The legacy write-buffer faults ride along as `wb:fault=eager-flush` /
// `wb:fault=empty-gate` rules so every deliberate-fault spelling in the
// tree resolves through one registry (resolve_fault_plan), including the
// historical `--inject-fault eager-flush|empty-gate` names. Each cache
// controller reads them from MachineConfig::fault_plan when it builds its
// write buffer (cache::WriteBuffer::Fault).
//
// This header is sim-level: it knows nothing about the network. Message
// `type` filters are kept as strings ("sync", "data", or a concrete
// message-type name like "LockHandoff") and validated by the transport
// when the plan is installed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.hpp"

namespace bcsim::sim {

enum class FaultKind : std::uint8_t {
  kDrop,     ///< the message copy vanishes in the fabric
  kDup,      ///< a second copy of the message is injected
  kDelay,    ///< the copy arrives up to `ticks` cycles late
  kCorrupt,  ///< payload bits flip in flight; the receiver's checksum
             ///< rejects the copy (modeled as perfect detection)
  kStall,    ///< node `node` accepts no deliveries during [at, at+ticks)
  kWbEagerFlush,  ///< write-buffer fault: FLUSH-BUFFER never waits
  kWbEmptyGate,   ///< write-buffer fault: a flush waits for an empty buffer
};

[[nodiscard]] constexpr std::string_view to_string(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDup: return "dup";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kStall: return "stall";
    case FaultKind::kWbEagerFlush: return "wb:fault=eager-flush";
    case FaultKind::kWbEmptyGate: return "wb:fault=empty-gate";
  }
  return "?";
}

/// One fault rule. Field meaning depends on `kind`; unused fields keep
/// their defaults (and are rejected by the parser where they make no
/// sense, e.g. `p` on a stall rule).
struct FaultRule {
  FaultKind kind = FaultKind::kDrop;
  double p = 1.0;         ///< per-attempt probability (drop/dup/delay/corrupt)
  NodeId src = kNoNode;   ///< link filter; kNoNode = any source
  NodeId dst = kNoNode;   ///< link filter; kNoNode = any destination
  std::string type;       ///< "" = any; "sync" / "data" / a MsgType name
  Tick from = 0;          ///< rule active while from <= send tick < until
  Tick until = kNever;
  Tick ticks = 16;        ///< delay: max extra cycles; stall: window length
  NodeId node = kNoNode;  ///< stall: the stalled node
  Tick at = 0;            ///< stall: window start tick
};

/// A complete fault schedule: rules + seed + the transport retry policy.
struct FaultPlan {
  std::uint64_t seed = 0;

  /// Transport retry policy (net/transport.hpp). `max_retries = 0`
  /// disables both timeout and NACK recovery: lost messages stay lost,
  /// which is how the liveness tests manufacture protocol deadlock.
  std::uint32_t max_retries = 16;
  Tick rto_base = 32;  ///< first retransmit timeout; doubles per attempt
  bool nack = true;    ///< gap-triggered fast retransmit of known losses

  std::vector<FaultRule> rules;

  [[nodiscard]] bool empty() const noexcept { return rules.empty(); }

  /// True when any rule needs the network transport layer (everything but
  /// the legacy write-buffer faults). The Machine installs the transport
  /// only in this case; otherwise the send path is bit-identical to a
  /// plan-free build.
  [[nodiscard]] bool has_net_rules() const noexcept;

  /// Parses the plan grammar above. Throws std::invalid_argument with a
  /// precise message (unknown kind, unknown key, malformed value, value
  /// out of range) on any defect; an empty spec yields an empty plan.
  [[nodiscard]] static FaultPlan parse(std::string_view spec);

  /// Canonical text form; parse(to_string()) round-trips.
  [[nodiscard]] std::string to_string() const;
};

/// A named preset in the fault-plan registry.
struct NamedFaultPlan {
  std::string_view name;
  std::string_view spec;
  std::string_view what;  ///< one-line description for listings
};

/// The registry of named plans: chaos presets plus the legacy
/// `--inject-fault` spellings (eager-flush, empty-gate) as aliases.
[[nodiscard]] const std::vector<NamedFaultPlan>& fault_plan_registry();

/// Comma-separated registry names, for "unknown fault" error messages.
[[nodiscard]] std::string fault_plan_names();

/// Resolves a registry name or an inline plan spec (anything containing
/// ':' or '=') to a parsed plan. Throws std::invalid_argument naming the
/// valid registry entries for an unknown name, or the parse defect for a
/// malformed inline spec.
[[nodiscard]] FaultPlan resolve_fault_plan(std::string_view name_or_spec);

}  // namespace bcsim::sim
