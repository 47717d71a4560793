// Reliable-delivery transport over an unreliable fabric.
//
// Installed on a Network only when the machine's FaultPlan carries network
// rules (drop/dup/delay/corrupt/stall); without it the send path is the
// historical, fault-free one — bit-identical behavior and no overhead.
//
// The transport models, per point-to-point link (Network::channel_of):
//
//   * sender-side sequence numbers, one monotone stream per link;
//   * an omniscient receiver: duplicates are discarded by sequence number,
//     out-of-order survivors wait in a reorder buffer and are released
//     in-sequence, so the protocol layers above keep the FIFO-per-link
//     guarantee they were built on even while the fabric drops, duplicates,
//     delays, or corrupts copies underneath;
//   * loss recovery: a NACK-style fast retransmit when a gap is observed
//     (a later sequence number arrives while an earlier one is known lost)
//     and a per-message retransmit timer with seeded exponential backoff as
//     the fallback; `retry:off` disables both, which is how the liveness
//     tests manufacture protocol deadlock on demand;
//   * payload corruption as detected loss: the corrupted copy consumes
//     fabric bandwidth but is rejected by the receiver's (perfect) checksum
//     and recovered like a drop.
//
// Abstractions, stated once: acknowledgments are oracle-level (the sender
// learns of a delivery the instant its tick is decided; no physical ACK
// messages ride the fabric), and faults apply to remote traffic only —
// local (src == dst) unit-to-unit transfers never cross the fabric.
//
// Determinism: every lottery draw is a pure function of (plan seed, rule
// index, link channel, sequence number, attempt), so a plan+seed replays
// exactly — chaos cells are reproducible from their corpus line.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <unordered_map>
#include <vector>

#include "net/message.hpp"
#include "net/network.hpp"
#include "sim/fault_plan.hpp"
#include "sim/random.hpp"
#include "sim/types.hpp"

namespace bcsim::net {

class Transport {
 public:
  /// Compiles `plan`'s network rules against this network (resolving
  /// message-type filter names; throws std::invalid_argument for an
  /// unknown type name) and registers the fault/recovery counters.
  Transport(Network& net, sim::StatsRegistry& stats, const sim::FaultPlan& plan);

  /// Serial-context entry point: takes over Network::route_and_deliver for
  /// every remote message once installed.
  void on_send(Message&& msg, Tick send_tick);

  // --- diagnosis (watchdog / chaos reports) -----------------------------

  /// One fault decision that fired, in firing order (bounded ring).
  struct FaultEvent {
    Tick tick = 0;
    sim::FaultKind kind = sim::FaultKind::kDrop;
    MsgType type = MsgType::kGetS;
    NodeId src = kNoNode;
    NodeId dst = kNoNode;
    std::uint64_t seq = 0;
    std::uint32_t attempt = 0;
  };

  /// A message the transport stopped retrying (or never could retry):
  /// the protocol above it is now permanently stuck on this link.
  struct Undeliverable {
    Tick tick = 0;
    MsgType type = MsgType::kGetS;
    BlockId block = 0;
    NodeId src = kNoNode;
    NodeId dst = kNoNode;
    std::uint64_t seq = 0;
    std::uint32_t attempts = 0;
  };

  [[nodiscard]] const std::deque<FaultEvent>& journal() const noexcept { return journal_; }
  [[nodiscard]] const std::vector<Undeliverable>& given_up() const noexcept { return given_up_; }

  /// True when no link holds unacknowledged or reorder-buffered messages.
  [[nodiscard]] bool idle() const noexcept;

  /// Human-readable diagnosis block: undeliverable messages, in-flight
  /// state, and the journal tail. Appended to watchdog reports.
  void report(std::ostream& os, std::size_t journal_tail = 16) const;

  static constexpr std::size_t kJournalCapacity = 256;

 private:
  struct Pending {
    Message msg;                 ///< canonical copy for retransmission
    std::uint32_t attempt = 0;   ///< transmissions so far
    std::uint64_t timer_gen = 0; ///< invalidates stale retransmit timers
  };
  struct Buffered {
    Message msg;
    Tick arrive = 0;  ///< physical (stall-adjusted) arrival tick
  };
  struct Link {
    std::uint64_t next_seq = 0;  ///< sender: next sequence number to assign
    std::uint64_t expected = 0;  ///< receiver: next in-order sequence number
    Tick floor = 0;              ///< last scheduled delivery tick (in-order gate)
    std::map<std::uint64_t, Pending> unacked;
    std::map<std::uint64_t, Buffered> buffered;  ///< out-of-order survivors
    std::map<std::uint64_t, Tick> lost;          ///< known-lost seq -> loss tick
  };
  struct CompiledRule {
    const sim::FaultRule* rule = nullptr;
    std::size_t index = 0;                      ///< position in the plan (lottery salt)
    std::array<bool, kMsgTypeCount> type_ok{};  ///< compiled type filter
  };

  /// Transmits one attempt of `seq` (lottery, routing, receiver logic).
  void transmit(std::uint64_t channel, Link& link, std::uint64_t seq, Tick send_tick);
  /// Receiver logic for a physically arriving copy of `seq`.
  void accept(std::uint64_t channel, Link& link, std::uint64_t seq, Message msg, Tick arrive);
  /// Marks `seq` lost and arms recovery (timer) or gives up.
  void on_lost(std::uint64_t channel, Link& link, std::uint64_t seq);
  void give_up(Link& link, std::uint64_t seq);
  /// Schedules a serial-context retransmission of `seq` after `delay`.
  void schedule_retransmit(std::uint64_t channel, std::uint64_t seq, Tick delay,
                           std::uint64_t gen, bool is_timer);
  void retransmit_now(std::uint64_t channel, std::uint64_t seq, std::uint64_t gen,
                      bool is_timer);
  /// Pushes inbound deliveries out of any matching node-stall window.
  [[nodiscard]] Tick stall_adjust(NodeId dst, Tick arrive);
  void journal_push(Tick tick, sim::FaultKind kind, const Message& m, std::uint64_t seq,
                    std::uint32_t attempt);
  /// Deterministic per-(rule, link, seq, attempt) random stream.
  [[nodiscard]] sim::Rng lottery(std::size_t rule_index, std::uint64_t channel,
                                 std::uint64_t seq, std::uint32_t attempt) const noexcept;

  Network& net_;
  sim::Simulator& sim_;
  sim::FaultPlan plan_;
  std::vector<CompiledRule> rules_;   ///< probabilistic rules, plan order
  std::vector<const sim::FaultRule*> stalls_;
  std::unordered_map<std::uint64_t, Link> links_;
  Tick ack_latency_;  ///< NACK turnaround, = the network's min remote latency

  std::deque<FaultEvent> journal_;
  std::vector<Undeliverable> given_up_;

  sim::Counter* c_drop_;
  sim::Counter* c_dup_;
  sim::Counter* c_delay_;
  sim::Counter* c_corrupt_;
  sim::Counter* c_stall_;
  sim::Counter* c_retransmit_;
  sim::Counter* c_nack_;
  sim::Counter* c_dup_discard_;
  sim::Counter* c_gave_up_;
};

}  // namespace bcsim::net
