// Abstract interconnection network.
//
// The network connects n endpoints (one per node; each node hosts a cache
// controller and a memory module slice, selected by Message::unit). send()
// computes the delivery time — including any queuing delay from contention —
// and schedules the destination's handler. Messages between co-located
// units (src == dst) bypass the network with a fixed local latency, which
// models the paper's distributed-memory configuration.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "net/message.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace bcsim::sim {
struct FaultPlan;
}

namespace bcsim::net {

class Transport;

/// Handler invoked at the destination when a message arrives.
using DeliverFn = std::function<void(const Message&)>;

/// Free-list pool of in-flight Messages. A Message reserves room for the
/// largest block (kMaxBlockWords words), far more than an event closure
/// holds inline, so each one in flight lives in a pool slot instead: the
/// closure captures a bare pointer (which keeps it inside EventFn's inline
/// buffer) and the pool's steady state allocates nothing. A message is
/// moved into its slot once, by send() or send_at(); injection, routing
/// and delivery all work on that slot (DESIGN.md, "A message's life").
class MessagePool {
 public:
  /// Moves `m` into a pooled slot and returns its stable address.
  Message* acquire(Message&& m) {
    if (free_.empty()) {
      storage_.push_back(std::make_unique<Message>(std::move(m)));
      free_.reserve(storage_.size());  // keeps release() allocation-free
      return storage_.back().get();
    }
    Message* p = free_.back();
    free_.pop_back();
    *p = std::move(m);
    return p;
  }

  /// Returns a message to the pool. `p` must come from acquire().
  void release(Message* p) noexcept {
    p->chain = Chain{};  // drop this hop's share of the chain snapshot
    free_.push_back(p);  // cannot allocate: capacity covers every slot
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return storage_.size(); }

 private:
  std::vector<std::unique_ptr<Message>> storage_;
  std::vector<Message*> free_;
};

class Network {
 public:
  Network(sim::Simulator& simulator, sim::StatsRegistry& stats, std::uint32_t n_nodes);
  virtual ~Network();  // out of line: Transport is incomplete here
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers the consumer for (node, unit). Must be called for every
  /// endpoint before the first send.
  void attach(NodeId node, Unit unit, DeliverFn fn);

  /// Injects a message now; delivery is scheduled on the simulator. The
  /// message is moved into an in-flight pool slot once, and routed and
  /// delivered from there.
  void send(Message&& msg);

  /// Injects `msg` at absolute tick `at` (>= now). The deferred injection
  /// event is tied to the message's ordering channel: two delayed sends on
  /// one (src, dst, unit) link inject — and therefore arrive — in the order
  /// they were scheduled, under every schedule seed. Controllers that model
  /// service time before a reply (e.g. a memory access) must use this
  /// rather than a bare simulator callback, or a schedule seed could
  /// reorder their replies on the wire. The message is pooled here, once;
  /// the injection event routes and delivers from that same slot, with the
  /// counters and `msg-send` trace record send() would give at tick `at`.
  void send_at(Tick at, Message&& msg);

  /// Ordering channel of a message: one FIFO per (src, dst, unit).
  [[nodiscard]] static std::uint64_t channel_of(const Message& m) noexcept {
    return (static_cast<std::uint64_t>(m.src) << 33) |
           (static_cast<std::uint64_t>(m.dst) << 1) | (m.unit == Unit::kMemory ? 1u : 0u);
  }

  [[nodiscard]] std::uint32_t n_nodes() const noexcept { return n_nodes_; }

  /// Lower bound on the latency of any remote (src != dst) message. The
  /// transport uses it as its acknowledgment latency (net/transport.hpp).
  [[nodiscard]] virtual Tick min_remote_latency() const noexcept = 0;

  /// Service time (flits) a message of this size occupies a switch port.
  [[nodiscard]] Tick flits_of(const Message& m) const noexcept;

  /// Installs the unreliable-fabric transport layer (net/transport.hpp)
  /// compiled from `plan`'s network rules; `stats` receives the fault and
  /// recovery counters. Without this call the remote path is the
  /// historical fault-free one. Call once, before the first send.
  void install_transport(const sim::FaultPlan& plan, sim::StatsRegistry& stats);

  /// The installed transport, or nullptr on a pristine fabric.
  [[nodiscard]] Transport* transport() const noexcept { return transport_.get(); }

  /// One-look fabric state for liveness reports (core/watchdog.cpp):
  /// bounded fabrics print buffer depth, cumulative injection/credit
  /// stalls, and the most backpressured port. Unbounded fabrics print
  /// nothing — there is no credit state to diagnose.
  virtual void fabric_report(std::ostream&) const {}

  /// Cumulative cycles injection stalled waiting for a first-hop credit
  /// (0 on unbounded fabrics).
  [[nodiscard]] std::uint64_t inject_stall_cycles() const noexcept {
    return inject_stall_cycles_;
  }
  /// Cumulative downstream credit-wait cycles (0 on unbounded fabrics).
  [[nodiscard]] std::uint64_t credit_stall_cycles() const noexcept {
    return credit_stall_cycles_;
  }

 protected:
  /// Computes the arrival tick for a message injected now; subclasses model
  /// topology and contention here. Local (src==dst) traffic never reaches
  /// this.
  virtual Tick route(const Message& m, Tick now) = 0;

  /// Charges queuing delay to the contention counter (cached handle; a
  /// route() adds a message's waits once).
  void count_contention(Tick waited) noexcept { c_contention_->add(waited); }

  /// Registers the bounded-fabric stall counters. Called by subclasses
  /// only when buffer depth > 0, so depth-0 stats digests stay bit-for-bit
  /// identical to builds that predate bounded buffering.
  void enable_credit_counters();
  /// First-hop credit wait: backpressure reached the injecting node.
  void count_inject_stall(Tick waited) noexcept {
    inject_stall_cycles_ += waited;
    c_inject_stall_->add(waited);
  }
  /// Credit wait at an interior hop.
  void count_credit_stall(Tick waited) noexcept {
    credit_stall_cycles_ += waited;
    c_credit_stall_->add(waited);
  }

  sim::Simulator& simulator_;
  sim::StatsRegistry& stats_;
  Tick block_words_ = 4;  ///< for flit accounting of block payloads

 public:
  void set_block_words(Tick w) noexcept { block_words_ = w; }
  /// Local (same-node) unit-to-unit latency in cycles.
  static constexpr Tick kLocalLatency = 1;

 private:
  /// The transport reuses the private routing/delivery/accounting plumbing
  /// (route(), schedule_delivery(), the remote counters) without widening
  /// the public surface.
  friend class Transport;

  /// Send-side counter handles (resolved once — the registry lookup used
  /// to run per message on the simulator's hottest path) plus the lazily
  /// filled per-type counters.
  struct SendCounters {
    sim::Counter* messages = nullptr;
    sim::Counter* sync = nullptr;
    sim::Counter* data = nullptr;
    sim::Counter* local = nullptr;
    std::array<sim::Counter*, kMsgTypeCount> by_type{};  ///< lazily filled
  };

  void deliver(const Message& m);
  /// Cold path of the per-type counters: registers "net.msg.<type>" on the
  /// type's first send, so the stats report lists exactly the types a run
  /// actually produced.
  sim::Counter& register_type_counter(MsgType t);
  /// Injects the pooled message `pm` now: the send counters, the
  /// `msg-send` trace record, then the local or the remote path.
  void inject(Message* pm);
  /// Remote path: charges the remote counters, routes against the
  /// contention state, and schedules delivery. With a transport installed
  /// it hands the message over instead.
  void route_and_deliver(Message* pm, Tick send_tick);
  /// Schedules the delivery of pooled message `pm` at `arrive`, on its
  /// ordering channel; the slot returns to the pool after delivery.
  void deliver_at(Message* pm, Tick arrive);
  /// Pools `msg` and schedules its delivery: the transport's entry point,
  /// whose deliveries may be held back by the reorder buffer.
  void schedule_delivery(Message&& msg, Tick arrive);

  std::uint32_t n_nodes_;
  std::unique_ptr<Transport> transport_;
  MessagePool pool_;  ///< in-flight messages
  std::vector<DeliverFn> cache_sinks_;
  std::vector<DeliverFn> memory_sinks_;
  SendCounters sent_;

  // Remote-path handles.
  sim::Counter* c_remote_;
  sim::Counter* c_flits_;
  sim::Counter* c_contention_;
  sim::Histogram* h_latency_;
  // Bounded-fabric stall accounting; registered lazily (see
  // enable_credit_counters) and null on unbounded fabrics.
  sim::Counter* c_inject_stall_ = nullptr;
  sim::Counter* c_credit_stall_ = nullptr;
  std::uint64_t inject_stall_cycles_ = 0;
  std::uint64_t credit_stall_cycles_ = 0;
};

/// Ideal network: fixed latency, no contention. Used by unit tests (exact
/// timing is easy to predict) and as the "infinite bandwidth" ablation.
class IdealNetwork final : public Network {
 public:
  IdealNetwork(sim::Simulator& simulator, sim::StatsRegistry& stats, std::uint32_t n_nodes,
               Tick latency)
      : Network(simulator, stats, n_nodes), latency_(latency) {}

  [[nodiscard]] Tick min_remote_latency() const noexcept override { return latency_; }

 protected:
  Tick route(const Message&, Tick now) override { return now + latency_; }

 private:
  Tick latency_;
};

/// A fabric of FIFO output ports, each infinitely buffered per the paper
/// (buffer depth 0) or B message slots deep with credit-based flow control
/// (DESIGN.md "Bounded fabric"): a message waits until the port is free
/// (and, when bounded, until a credit is back), then occupies it while it
/// streams through (cut-through); the header advances one hop per
/// `hop_delay` cycles. A fabric only lists the ports of a message's path;
/// one contention walk (depth 0) and one credit walk (depth B > 0) time it.
///
/// Each port is one record of `ports_`: its busy-until tick and, when
/// bounded, its credit-wait cycles, the index of its oldest slot, then
/// its B slots' "credit usable again" ticks. A message may claim a slot
/// only at or after the oldest slot's tick — the credit-based rule that
/// the B-th previous occupant must have drained *and its freed credit
/// must have crossed back upstream* before the next header is accepted.
/// A slot's drain time is known only once the next hop accepts the tail,
/// so each hop's claim is filled one hop late; no port repeats within a
/// path (the omega is feed-forward, the mesh routes dimension-order), so
/// a deferred fill completes before any later lookup of its port.
class PortFabric : public Network {
 public:
  /// Bounded fabrics print buffer depth, cumulative injection and credit
  /// stalls, and the port with the most credit-wait cycles.
  void fabric_report(std::ostream& os) const final;

 protected:
  PortFabric(sim::Simulator& simulator, sim::StatsRegistry& stats, std::uint32_t n_nodes,
             std::size_t n_ports, Tick hop_delay, std::uint32_t buffer_depth);

  /// Times `m`, injected at `now`, over the ports `path` lists: `path(hop)`
  /// calls `hop(port)` for each port of the message's path, in order, and
  /// returns how many it listed.
  template <typename Path>
  Tick walk(const Message& m, Tick now, Path path);

  Tick hop_delay_;

 private:
  /// Word offsets within a port's record (an unbounded port has kBusy only).
  static constexpr std::size_t kBusy = 0, kWaited = 1, kOldest = 2, kSlots = 3;

  /// Prints the fabric's shape, e.g. "omega, 8 nodes (3 stages x 8 wires)".
  virtual void describe(std::ostream& os) const = 0;
  /// Names a port, e.g. "port: stage 1, wire 5".
  virtual void describe_port(std::ostream& os, std::size_t port) const = 0;

  std::uint32_t depth_;
  std::size_t stride_;     ///< words per port record: 1, or kSlots + depth_
  std::vector<Tick> ports_;  ///< [port * stride_ + word]
};

/// Multistage Omega network of 2x2 switches (the paper's interconnect).
///
/// Endpoints are padded to the next power of two; k = log2(N) stages with a
/// perfect-shuffle permutation before each stage and destination-tag
/// routing. Port `stage * width + wire` is the switch output a message
/// leaves stage `stage` by.
class OmegaNetwork final : public PortFabric {
 public:
  /// `buffer_depth` 0 = the paper's infinite per-port buffering (legacy,
  /// bit-identical); B > 0 = B message slots per switch output port with
  /// credit-based flow control. The omega is feed-forward (stage s only
  /// ever feeds stage s+1), so the credit dependency graph is acyclic and
  /// bounded buffers cannot deadlock.
  OmegaNetwork(sim::Simulator& simulator, sim::StatsRegistry& stats, std::uint32_t n_nodes,
               Tick switch_delay = 1, std::uint32_t buffer_depth = 0);

  /// Every remote message crosses all log2(N) stages; contention, the
  /// tail flit and bounded-buffer credit waits only add to that (asserted
  /// in route_and_deliver).
  [[nodiscard]] Tick min_remote_latency() const noexcept override {
    return static_cast<Tick>(stages_) * hop_delay_;
  }

 protected:
  Tick route(const Message& m, Tick now) override;

 private:
  void describe(std::ostream& os) const override;
  void describe_port(std::ostream& os, std::size_t port) const override;

  std::uint32_t width_;   ///< padded endpoint count (power of two)
  std::uint32_t stages_;  ///< log2(width_)
};

/// 2D mesh with dimension-order (XY) routing: nodes are laid out on a
/// near-square grid; a message first travels along X, then along Y. Each
/// directed link is a port: link `router * 4 + d` leaves router
/// `y * columns + x` in direction d (0:+x 1:-x 2:+y 3:-y). Included as the
/// directly-wired alternative to the Omega network — the paper leaves the
/// interconnect "intentionally unspecified".
class MeshNetwork final : public PortFabric {
 public:
  /// `buffer_depth` as for OmegaNetwork. Dimension-order (XY) routing
  /// admits no cyclic link dependency, so bounded link buffers with
  /// credit flow control cannot deadlock.
  MeshNetwork(sim::Simulator& simulator, sim::StatsRegistry& stats, std::uint32_t n_nodes,
              Tick hop_delay = 1, std::uint32_t buffer_depth = 0);

  [[nodiscard]] std::uint32_t columns() const noexcept { return cols_; }
  [[nodiscard]] std::uint32_t rows() const noexcept { return rows_; }

  /// A remote message traverses at least one link. Bounded buffers only
  /// delay link entry, so credit waits never undercut the bound.
  [[nodiscard]] Tick min_remote_latency() const noexcept override { return hop_delay_; }

 protected:
  Tick route(const Message& m, Tick now) override;

 private:
  void describe(std::ostream& os) const override;
  void describe_port(std::ostream& os, std::size_t port) const override;

  struct Coord {
    std::uint32_t x, y;
  };

  std::uint32_t cols_;
  std::uint32_t rows_;
  std::vector<Coord> coords_;  ///< [node] -> its router's grid position
};

/// Single-stage crossbar: contention only at the destination port.
class CrossbarNetwork final : public Network {
 public:
  CrossbarNetwork(sim::Simulator& simulator, sim::StatsRegistry& stats, std::uint32_t n_nodes,
                  Tick latency = 2);

  [[nodiscard]] Tick min_remote_latency() const noexcept override { return latency_; }

 protected:
  Tick route(const Message& m, Tick now) override;

 private:
  Tick latency_;
  std::vector<Tick> port_free_;
};

}  // namespace bcsim::net
