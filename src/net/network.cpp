#include "net/network.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <ostream>
#include <stdexcept>
#include <string>

#include "net/transport.hpp"

namespace bcsim::net {

Network::~Network() = default;

void Network::install_transport(const sim::FaultPlan& plan, sim::StatsRegistry& stats) {
  if (transport_) throw std::logic_error("Network: transport already installed");
  transport_ = std::make_unique<Transport>(*this, stats, plan);
}

Network::Network(sim::Simulator& simulator, sim::StatsRegistry& stats, std::uint32_t n_nodes)
    : simulator_(simulator), stats_(stats), n_nodes_(n_nodes),
      cache_sinks_(n_nodes), memory_sinks_(n_nodes),
      sent_{&stats.counter("net.messages"), &stats.counter("net.sync_messages"),
            &stats.counter("net.data_messages"), &stats.counter("net.local"), {}},
      c_remote_(&stats.counter("net.remote")),
      c_flits_(&stats.counter("net.flits")),
      c_contention_(&stats.counter("net.contention_cycles")),
      h_latency_(&stats.histogram("net.latency")) {
  if (n_nodes == 0) throw std::invalid_argument("Network: need at least one node");
}

sim::Counter& Network::register_type_counter(MsgType t) {
  std::string name("net.msg.");
  name += to_string(t);
  sim::Counter& c = stats_.counter(name);
  sent_.by_type[static_cast<std::size_t>(t)] = &c;
  return c;
}

void Network::attach(NodeId node, Unit unit, DeliverFn fn) {
  auto& sinks = (unit == Unit::kCache) ? cache_sinks_ : memory_sinks_;
  sinks.at(node) = std::move(fn);
}

Tick Network::flits_of(const Message& m) const noexcept {
  switch (size_class(m)) {
    case SizeClass::kControl: return 1;
    case SizeClass::kWord: return 2;
    case SizeClass::kBlock: return 1 + block_words_;
  }
  return 1;
}

void Network::send(Message&& msg) { inject(pool_.acquire(std::move(msg))); }

void Network::send_at(Tick at, Message&& msg) {
  Message* pm = pool_.acquire(std::move(msg));
  simulator_.schedule_at_channel(at, channel_of(*pm), [this, pm] { inject(pm); });
}

void Network::inject(Message* pm) {
  const Message& msg = *pm;
  sent_.messages->add();
  (is_sync_message(msg.type) ? sent_.sync : sent_.data)->add();
  if (sim::Counter* c = sent_.by_type[static_cast<std::size_t>(msg.type)]) {
    c->add();
  } else {
    register_type_counter(msg.type).add();
  }
  const Tick now = simulator_.now();
  simulator_.trace().msg(sim::TraceKind::kMsgSend, now, static_cast<std::uint8_t>(msg.type),
                         msg.src, msg.dst, msg.unit == Unit::kMemory, msg.block, msg.txn);
  if (msg.src == msg.dst) {
    sent_.local->add();
    // Delivery rides the message's ordering channel: a schedule seed may
    // permute deliveries racing on different links, but messages on one
    // point-to-point link stay FIFO — the hardware guarantee the protocols
    // are built on.
    deliver_at(pm, now + kLocalLatency);
    return;
  }
  route_and_deliver(pm, now);
}

void Network::enable_credit_counters() {
  c_inject_stall_ = &stats_.counter("net.inject_stall_cycles");
  c_credit_stall_ = &stats_.counter("net.credit_stall_cycles");
}

void Network::route_and_deliver(Message* pm, Tick send_tick) {
  if (transport_) {
    transport_->on_send(std::move(*pm), send_tick);
    pool_.release(pm);
    return;
  }
  c_remote_->add();
  c_flits_->add(flits_of(*pm));
  const Tick arrive = route(*pm, send_tick);
  // Backpressure and credit waits only ever push an arrival later, so
  // min_remote_latency() remains a lower bound on every remote delivery.
  assert(arrive >= send_tick + min_remote_latency() &&
         "route() undercut min_remote_latency()");
  h_latency_->record(arrive - send_tick);
  deliver_at(pm, arrive);
}

void Network::deliver_at(Message* pm, Tick arrive) {
  // The closure carries only the slot pointer, keeping it inside
  // EventFn's inline storage.
  simulator_.schedule_at_channel(arrive, channel_of(*pm), [this, pm] {
    deliver(*pm);
    pool_.release(pm);
  });
}

void Network::schedule_delivery(Message&& msg, Tick arrive) {
  deliver_at(pool_.acquire(std::move(msg)), arrive);
}

void Network::deliver(const Message& m) {
  const auto& sinks = (m.unit == Unit::kCache) ? cache_sinks_ : memory_sinks_;
  const auto& fn = sinks.at(m.dst);
  if (!fn) throw std::logic_error("Network: message to unattached endpoint");
  simulator_.trace().msg(sim::TraceKind::kMsgDeliver, simulator_.now(),
                         static_cast<std::uint8_t>(m.type), m.src, m.dst,
                         m.unit == Unit::kMemory, m.block, m.txn);
  fn(m);
}

OmegaNetwork::OmegaNetwork(sim::Simulator& simulator, sim::StatsRegistry& stats,
                           std::uint32_t n_nodes, Tick switch_delay, std::uint32_t buffer_depth)
    : Network(simulator, stats, n_nodes), switch_delay_(switch_delay) {
  // Degenerate geometry guard: a 1-node machine still builds a 2-wide,
  // 1-stage fabric (all its traffic is local and bypasses route(), but the
  // shift amounts in rotl_bits and the routing loop must stay in range).
  width_ = std::bit_ceil(n_nodes < 2 ? 2u : n_nodes);
  stages_ = static_cast<std::uint32_t>(std::bit_width(width_) - 1);
  const std::size_t n_ports = static_cast<std::size_t>(stages_) * width_;
  port_free_.assign(n_ports, 0);
  credits_.init(n_ports, buffer_depth);
  if (credits_.bounded()) {
    port_stall_.assign(n_ports, 0);
    enable_credit_counters();
  }
}

Tick OmegaNetwork::route(const Message& m, Tick now) {
  assert(m.src != m.dst && "local traffic must not reach route()");
  assert(m.src < width_ && m.dst < width_);
  const Tick flits = flits_of(m);
  if (credits_.bounded()) return route_bounded(m, now, flits);
  std::uint32_t wire = m.src;
  Tick t = now;
  Tick waited = 0;
  for (std::uint32_t s = 0; s < stages_; ++s) {
    // Perfect shuffle into stage s, then destination-tag routing: the
    // switch sends the message out of port bit(dst, stages-1-s).
    wire = rotl_bits(wire);
    const std::uint32_t sw = wire >> 1;
    const std::uint32_t out = (m.dst >> (stages_ - 1 - s)) & 1u;
    wire = (sw << 1) | out;
    Tick& free_at = port_free_[static_cast<std::size_t>(s) * width_ + wire];
    if (free_at > t) {
      waited += free_at - t;
      t = free_at;
    }
    // Port occupied until both the tail has streamed through (flits) and
    // the header has cleared the switch (switch_delay): with a slow switch
    // the next message cannot enter before the previous header left.
    free_at = t + std::max(flits, switch_delay_);
    t += switch_delay_;    // header advances to the next stage
  }
  if (waited > 0) count_contention(waited);
  // Tail flit arrives flits-1 cycles after the header.
  return t + (flits - 1);
}

Tick OmegaNetwork::route_bounded(const Message& m, Tick now, Tick flits) {
  // Credit walk: claim one buffer slot per stage; a slot's drain time is
  // known only when the *next* stage accepts the tail, so each claim is
  // filled one hop late (prev_slot / prev_free carry the deferred state).
  // The omega is feed-forward, so a path never revisits a port and every
  // deferred fill completes before any later lookup of that port.
  std::uint32_t wire = m.src;
  Tick t = now;
  Tick waited = 0;
  std::size_t prev_slot = CreditLedger::kNoSlot;
  Tick* prev_free = nullptr;
  for (std::uint32_t s = 0; s < stages_; ++s) {
    wire = rotl_bits(wire);
    const std::uint32_t sw = wire >> 1;
    const std::uint32_t out = (m.dst >> (stages_ - 1 - s)) & 1u;
    wire = (sw << 1) | out;
    const std::size_t port = static_cast<std::size_t>(s) * width_ + wire;
    Tick& free_at = port_free_[port];
    Tick entry = t;
    if (free_at > entry) {
      waited += free_at - entry;
      entry = free_at;
    }
    const Tick credit_at = credits_.available_at(port);
    if (credit_at > entry) {
      // Backpressure: all B slots of this port are still waiting on their
      // returned credits. At stage 0 the stall reaches the injecting node.
      const Tick stall = credit_at - entry;
      port_stall_[port] += stall;
      if (s == 0) {
        count_inject_stall(stall);
      } else {
        count_credit_stall(stall);
      }
      entry = credit_at;
    }
    if (prev_slot != CreditLedger::kNoSlot) {
      // Entry to stage s fixes when the tail clears stage s-1: complete
      // the deferred fill and release the upstream port. The freed credit
      // takes one switch traversal to cross back upstream.
      const Tick exit = entry + flits - 1;
      *prev_free = exit;
      credits_.set(prev_slot, exit + switch_delay_);
    }
    prev_slot = credits_.claim(port);
    prev_free = &free_at;
    t = entry + switch_delay_;  // header advances to the next stage
  }
  const Tick arrive = t + (flits - 1);
  // Ejection into the destination node is never refused, so the last
  // stage's slot drains as the tail arrives.
  *prev_free = arrive;
  credits_.set(prev_slot, arrive + switch_delay_);
  if (waited > 0) count_contention(waited);
  return arrive;
}

void OmegaNetwork::fabric_report(std::ostream& os) const {
  if (!credits_.bounded()) return;
  os << "fabric: omega, " << n_nodes() << " nodes (" << stages_ << " stages x " << width_
     << " wires), buffer depth " << credits_.depth() << "\n"
     << "  inject stall cycles:  " << inject_stall_cycles() << "\n"
     << "  credit stall cycles:  " << credit_stall_cycles() << "\n";
  std::size_t worst = 0;
  for (std::size_t p = 1; p < port_stall_.size(); ++p) {
    if (port_stall_[p] > port_stall_[worst]) worst = p;
  }
  if (port_stall_[worst] > 0) {
    os << "  most backpressured port: stage " << worst / width_ << ", wire " << worst % width_
       << " (" << port_stall_[worst] << " credit-wait cycles)\n";
  }
}

MeshNetwork::MeshNetwork(sim::Simulator& simulator, sim::StatsRegistry& stats,
                         std::uint32_t n_nodes, Tick hop_delay, std::uint32_t buffer_depth)
    : Network(simulator, stats, n_nodes), hop_delay_(hop_delay) {
  // Near-square grid, width >= height. Degenerate shapes (1x1, 1xN, a
  // ragged last row) fall out naturally: XY routing only ever visits
  // coordinates between two valid node positions.
  cols_ = 1;
  while (cols_ * cols_ < n_nodes) ++cols_;
  rows_ = (n_nodes + cols_ - 1) / cols_;
  const std::size_t n_links = static_cast<std::size_t>(cols_) * rows_ * 4;
  link_free_.assign(n_links, 0);
  credits_.init(n_links, buffer_depth);
  if (credits_.bounded()) {
    port_stall_.assign(n_links, 0);
    enable_credit_counters();
  }
}

Tick MeshNetwork::route(const Message& m, Tick now) {
  assert(m.src != m.dst && "local traffic must not reach route()");
  assert(m.src < n_nodes() && m.dst < n_nodes());
  const Tick flits = flits_of(m);
  if (credits_.bounded()) return route_bounded(m, now, flits);
  std::uint32_t x = m.src % cols_;
  std::uint32_t y = m.src / cols_;
  const std::uint32_t dx = m.dst % cols_;
  const std::uint32_t dy = m.dst / cols_;
  Tick t = now;
  Tick waited = 0;
  auto traverse = [&](std::uint32_t dir) {
    Tick& free_at = link_free_[link_index(x, y, dir)];
    if (free_at > t) {
      waited += free_at - t;
      t = free_at;
    }
    // Same occupancy rule as the omega switch port: the link is held until
    // both the tail streamed through and the header cleared the router.
    free_at = t + std::max(flits, hop_delay_);
    t += hop_delay_;
  };
  while (x != dx) {
    const std::uint32_t dir = (dx > x) ? 0u : 1u;
    traverse(dir);
    x = (dx > x) ? x + 1 : x - 1;
  }
  while (y != dy) {
    const std::uint32_t dir = (dy > y) ? 2u : 3u;
    traverse(dir);
    y = (dy > y) ? y + 1 : y - 1;
  }
  if (waited > 0) count_contention(waited);
  return t + (flits - 1);
}

Tick MeshNetwork::route_bounded(const Message& m, Tick now, Tick flits) {
  // Same deferred-fill credit walk as the omega (see route_bounded there).
  // Dimension-order routing never revisits a link within a path, so the
  // one-hop-late slot fills always complete before a later lookup.
  std::uint32_t x = m.src % cols_;
  std::uint32_t y = m.src / cols_;
  const std::uint32_t dx = m.dst % cols_;
  const std::uint32_t dy = m.dst / cols_;
  Tick t = now;
  Tick waited = 0;
  std::size_t prev_slot = CreditLedger::kNoSlot;
  Tick* prev_free = nullptr;
  auto traverse = [&](std::uint32_t dir) {
    const std::size_t link = link_index(x, y, dir);
    Tick& free_at = link_free_[link];
    Tick entry = t;
    if (free_at > entry) {
      waited += free_at - entry;
      entry = free_at;
    }
    const Tick credit_at = credits_.available_at(link);
    if (credit_at > entry) {
      const Tick stall = credit_at - entry;
      port_stall_[link] += stall;
      if (prev_slot == CreditLedger::kNoSlot) {
        count_inject_stall(stall);  // first hop: backpressure reaches the source
      } else {
        count_credit_stall(stall);
      }
      entry = credit_at;
    }
    if (prev_slot != CreditLedger::kNoSlot) {
      const Tick exit = entry + flits - 1;
      *prev_free = exit;
      credits_.set(prev_slot, exit + hop_delay_);
    }
    prev_slot = credits_.claim(link);
    prev_free = &free_at;
    t = entry + hop_delay_;
  };
  while (x != dx) {
    const std::uint32_t dir = (dx > x) ? 0u : 1u;
    traverse(dir);
    x = (dx > x) ? x + 1 : x - 1;
  }
  while (y != dy) {
    const std::uint32_t dir = (dy > y) ? 2u : 3u;
    traverse(dir);
    y = (dy > y) ? y + 1 : y - 1;
  }
  const Tick arrive = t + (flits - 1);
  *prev_free = arrive;  // ejection is never refused
  credits_.set(prev_slot, arrive + hop_delay_);
  if (waited > 0) count_contention(waited);
  return arrive;
}

void MeshNetwork::fabric_report(std::ostream& os) const {
  if (!credits_.bounded()) return;
  os << "fabric: mesh, " << n_nodes() << " nodes (" << cols_ << "x" << rows_
     << "), buffer depth " << credits_.depth() << "\n"
     << "  inject stall cycles:  " << inject_stall_cycles() << "\n"
     << "  credit stall cycles:  " << credit_stall_cycles() << "\n";
  std::size_t worst = 0;
  for (std::size_t p = 1; p < port_stall_.size(); ++p) {
    if (port_stall_[p] > port_stall_[worst]) worst = p;
  }
  if (port_stall_[worst] > 0) {
    static constexpr const char* kDir[] = {"+x", "-x", "+y", "-y"};
    const std::size_t router = worst / 4;
    os << "  most backpressured link: (" << router % cols_ << "," << router / cols_ << ") "
       << kDir[worst % 4] << " (" << port_stall_[worst] << " credit-wait cycles)\n";
  }
}

CrossbarNetwork::CrossbarNetwork(sim::Simulator& simulator, sim::StatsRegistry& stats,
                                 std::uint32_t n_nodes, Tick latency)
    : Network(simulator, stats, n_nodes), latency_(latency), port_free_(n_nodes, 0) {}

Tick CrossbarNetwork::route(const Message& m, Tick now) {
  const Tick flits = flits_of(m);
  Tick t = now;
  Tick& free_at = port_free_[m.dst];
  if (free_at > t) {
    count_contention(free_at - t);
    t = free_at;
  }
  free_at = t + flits;
  return t + latency_ + flits - 1;
}

}  // namespace bcsim::net
