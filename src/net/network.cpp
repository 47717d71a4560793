#include "net/network.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
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

namespace {

/// The later of two ticks, without a branch: whether a hop waits depends
/// on the data, so a jump mispredicts (g++ 12 compiles std::max here into
/// one; this gives a cmov).
[[nodiscard]] inline Tick later(Tick a, Tick b) noexcept {
  return __builtin_expect_with_probability(a > b, 1, 0.5) ? a : b;
}

/// Omega geometry. A 1-node machine still builds a 2-wide, 1-stage fabric
/// (all its traffic is local and bypasses route(), but the routing shifts
/// must stay in range).
std::uint32_t omega_width(std::uint32_t n_nodes) { return std::bit_ceil(std::max(n_nodes, 2u)); }
std::uint32_t omega_stages(std::uint32_t n_nodes) {
  return static_cast<std::uint32_t>(std::bit_width(omega_width(n_nodes)) - 1);
}

/// Mesh geometry: a near-square grid, width >= height. Degenerate shapes
/// (1x1, 1xN, a ragged last row) fall out naturally: XY routing only ever
/// visits coordinates between two valid node positions.
std::uint32_t mesh_columns(std::uint32_t n_nodes) {
  std::uint32_t cols = 1;
  while (cols * cols < n_nodes) ++cols;
  return cols;
}
std::uint32_t mesh_rows(std::uint32_t n_nodes) {
  const std::uint32_t cols = mesh_columns(n_nodes);
  return (n_nodes + cols - 1) / cols;
}

}  // namespace

PortFabric::PortFabric(sim::Simulator& simulator, sim::StatsRegistry& stats,
                       std::uint32_t n_nodes, std::size_t n_ports, Tick hop_delay,
                       std::uint32_t buffer_depth)
    : Network(simulator, stats, n_nodes), hop_delay_(hop_delay), depth_(buffer_depth),
      stride_(buffer_depth == 0 ? 1 : kSlots + buffer_depth), ports_(n_ports * stride_, 0) {
  if (depth_ > 0) enable_credit_counters();
}

template <typename Path>
Tick PortFabric::walk(const Message& m, Tick now, Path path) {
  // Locals, not members: a store into a port record could alias a member.
  const Tick flits = flits_of(m);
  const Tick delay = hop_delay_;
  Tick* const ports = ports_.data();
  Tick t = now;  // when the header reaches the next port
  if (depth_ == 0) {
    // Contention walk. A port is held until both the tail has streamed
    // through (flits) and the header has cleared the hop (hop_delay): with
    // a slow switch the next message cannot enter before the previous
    // header left.
    const Tick hold = std::max(flits, delay);
    const Tick hops = path([&](std::size_t port) {
      const Tick entry = later(ports[port], t);
      ports[port] = entry + hold;
      t = entry + delay;
    });
    // Each hop took `delay` plus its wait, so the waits are the rest.
    count_contention(t - now - hops * delay);
    // Tail flit arrives flits-1 cycles after the header.
    return t + (flits - 1);
  }
  // Credit walk: claim each port's oldest slot; fill the previous hop's
  // claim once this hop fixes when the tail leaves it. The first hop's
  // "previous hop" is a scratch record, so every hop fills one.
  const std::size_t stride = stride_;
  const Tick depth = depth_;
  Tick scratch[2] = {};
  Tick* prev_busy = &scratch[0];
  Tick* prev_slot = &scratch[1];
  Tick stalled = 0;  // every hop's credit wait
  Tick inject = 0;   // the first hop's: backpressure reached the injecting node
  bool first = true;
  const Tick hops = path([&](std::size_t port) {
    Tick* rec = ports + port * stride;
    const Tick free_at = later(rec[kBusy], t);
    const Tick oldest = rec[kOldest];
    const Tick entry = later(rec[kSlots + oldest], free_at);
    const Tick stall = entry - free_at;
    rec[kWaited] += stall;
    stalled += stall;
    inject = first ? stall : inject;
    first = false;
    // Entry here fixes when the tail clears the previous port: release it.
    // The freed credit takes one hop to cross back upstream.
    const Tick exit = entry + flits - 1;
    *prev_busy = exit;
    *prev_slot = exit + delay;
    prev_busy = &rec[kBusy];
    prev_slot = &rec[kSlots + oldest];
    rec[kOldest] = oldest + 1 == depth ? 0 : oldest + 1;
    t = entry + delay;
  });
  const Tick arrive = t + (flits - 1);
  // Ejection into the destination node is never refused, so the last
  // port's slot drains as the tail arrives.
  *prev_busy = arrive;
  *prev_slot = arrive + delay;
  // Each hop took `delay`, its wait for the port and its wait for a credit.
  count_contention(t - now - hops * delay - stalled);
  count_inject_stall(inject);
  count_credit_stall(stalled - inject);
  return arrive;
}

void PortFabric::fabric_report(std::ostream& os) const {
  if (depth_ == 0) return;
  os << "fabric: ";
  describe(os);
  os << ", buffer depth " << depth_ << "\n"
     << "  inject stall cycles:  " << inject_stall_cycles() << "\n"
     << "  credit stall cycles:  " << credit_stall_cycles() << "\n";
  std::size_t worst = 0;
  for (std::size_t p = 1; p < ports_.size() / stride_; ++p) {
    if (ports_[p * stride_ + kWaited] > ports_[worst * stride_ + kWaited]) worst = p;
  }
  if (const Tick w = ports_[worst * stride_ + kWaited]; w > 0) {
    os << "  most backpressured ";
    describe_port(os, worst);
    os << " (" << w << " credit-wait cycles)\n";
  }
}

OmegaNetwork::OmegaNetwork(sim::Simulator& simulator, sim::StatsRegistry& stats,
                           std::uint32_t n_nodes, Tick switch_delay, std::uint32_t buffer_depth)
    : PortFabric(simulator, stats, n_nodes,
                 std::size_t{omega_stages(n_nodes)} * omega_width(n_nodes), switch_delay,
                 buffer_depth),
      width_(omega_width(n_nodes)), stages_(omega_stages(n_nodes)) {}

Tick OmegaNetwork::route(const Message& m, Tick now) {
  assert(m.src != m.dst && "local traffic must not reach route()");
  assert(m.src < width_ && m.dst < width_);
  return walk(m, now, [&](auto&& hop) {
    // A perfect shuffle into each stage, then destination-tag routing out
    // of port bit(dst, stages-1-s): each stage shifts the wire left by one
    // and takes dst's next bit, so after stage s the message is on wire
    // ((src << (s+1)) | (dst >> (stages-1-s))) & (width-1).
    const std::uint64_t mask = width_ - 1;
    std::uint64_t wire = m.src;
    std::uint64_t tag = std::uint64_t{m.dst} << (64 - stages_);  // dst's top bit first
    for (std::size_t stage = 0; stage < std::size_t{stages_} * width_; stage += width_) {
      wire = ((wire << 1) & mask) | (tag >> 63);
      tag <<= 1;
      hop(stage + wire);
    }
    return stages_;
  });
}

void OmegaNetwork::describe(std::ostream& os) const {
  os << "omega, " << n_nodes() << " nodes (" << stages_ << " stages x " << width_ << " wires)";
}

void OmegaNetwork::describe_port(std::ostream& os, std::size_t port) const {
  os << "port: stage " << port / width_ << ", wire " << port % width_;
}

MeshNetwork::MeshNetwork(sim::Simulator& simulator, sim::StatsRegistry& stats,
                         std::uint32_t n_nodes, Tick hop_delay, std::uint32_t buffer_depth)
    : PortFabric(simulator, stats, n_nodes,
                 std::size_t{mesh_columns(n_nodes)} * mesh_rows(n_nodes) * 4, hop_delay,
                 buffer_depth),
      cols_(mesh_columns(n_nodes)), rows_(mesh_rows(n_nodes)), coords_(n_nodes) {
  for (std::uint32_t n = 0; n < n_nodes; ++n) coords_[n] = {n % cols_, n / cols_};
}

Tick MeshNetwork::route(const Message& m, Tick now) {
  assert(m.src != m.dst && "local traffic must not reach route()");
  assert(m.src < n_nodes() && m.dst < n_nodes());
  const Coord s = coords_[m.src];
  const Coord d = coords_[m.dst];
  return walk(m, now, [&](auto&& hop) {
    // X leg along the source's row: +x or -x links, one router (4 links)
    // apart; then the Y leg along the destination's column from (d.x, s.y),
    // +y or -y links, one row (4 * cols links) apart.
    const std::uint32_t x_hops = std::max(s.x, d.x) - std::min(s.x, d.x);
    const std::uint32_t y_hops = std::max(s.y, d.y) - std::min(s.y, d.y);
    std::ptrdiff_t link = std::ptrdiff_t{m.src} * 4 + (d.x < s.x ? 1 : 0);
    std::ptrdiff_t step = d.x < s.x ? -4 : 4;
    for (std::uint32_t i = 0; i < x_hops; ++i, link += step) hop(static_cast<std::size_t>(link));
    link = (std::ptrdiff_t{s.y} * cols_ + d.x) * 4 + (d.y < s.y ? 3 : 2);
    step = (d.y < s.y ? -4 : 4) * std::ptrdiff_t{cols_};
    for (std::uint32_t i = 0; i < y_hops; ++i, link += step) hop(static_cast<std::size_t>(link));
    return x_hops + y_hops;
  });
}

void MeshNetwork::describe(std::ostream& os) const {
  os << "mesh, " << n_nodes() << " nodes (" << cols_ << "x" << rows_ << ")";
}

void MeshNetwork::describe_port(std::ostream& os, std::size_t port) const {
  static constexpr const char* kDir[] = {"+x", "-x", "+y", "-y"};
  const std::size_t router = port / 4;
  os << "link: (" << router % cols_ << "," << router / cols_ << ") " << kDir[port % 4];
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
