#include "core/watchdog.hpp"

#include <sstream>

#include "core/machine.hpp"
#include "net/transport.hpp"

namespace bcsim::core {

namespace {

/// "write lock"/"read lock" for reasons; chain rendering below.
[[nodiscard]] const char* mode_name(net::LockMode m) noexcept {
  return m == net::LockMode::kWrite ? "write" : "read";
}

/// Renders a directory lock chain: "lock chain: holder node 0(write),
/// waiter node 3(read)" — the hardware holders prefix first, then the
/// queued waiters in grant order.
[[nodiscard]] std::string render_chain(const mem::DirectoryEntry& e) {
  std::ostringstream os;
  os << "lock chain:";
  if (e.lock_chain.empty()) {
    os << " empty";
    return os.str();
  }
  for (std::size_t i = 0; i < e.lock_chain.size(); ++i) {
    os << (i == 0 ? " " : ", ") << (i < e.lock_holders ? "holder" : "waiter") << " node "
       << e.lock_chain[i].node << "(" << mode_name(e.lock_chain[i].mode) << ")";
  }
  return os.str();
}

/// What an operation parked on a node-local condition, or on its own
/// completion event, waits for.
[[nodiscard]] const char* waits_for(OutstandingOp::Wait w) noexcept {
  switch (w) {
    case OutstandingOp::Wait::kLockLine: return "its lock line to leave the lock cache";
    case OutstandingOp::Wait::kChange: return "its cached copy to change";
    case OutstandingOp::Wait::kWriteSlot: return "a write-buffer slot";
    case OutstandingOp::Wait::kLockSlot: return "a lock-cache slot";
    default: return "its completion event";
  }
}

/// The edge of node `n`'s outstanding operation (its record is busy).
[[nodiscard]] WaitEdge operation_edge(Machine& m, NodeId n) {
  const OutstandingOp& op = m.cache_controller(n).outstanding();
  const BlockId b = op.block;
  const NodeId home = m.address_map().home_of(b);
  std::ostringstream os;
  NodeId to = kNoNode;
  switch (op.wait) {
    case OutstandingOp::Wait::kNone:
      break;
    case OutstandingOp::Wait::kMiss:
      os << "awaiting " << to_string(m.cache_controller(n).pending_miss_kind())
         << " reply for block " << b;
      to = home;
      break;
    case OutstandingOp::Wait::kLockGrant: {
      const mem::DirectoryEntry* e = m.directory(home).peek(b);
      to = home;
      os << "waiting for lock on block " << b;
      if (e != nullptr) {
        // Name the node actually ahead of us: our predecessor in the
        // directory's grant-order chain, or the home if we are not (yet)
        // threaded into it.
        for (std::size_t i = 0; i < e->lock_chain.size(); ++i) {
          if (e->lock_chain[i].node != n) continue;
          os.str({});
          os << "waiting for " << mode_name(e->lock_chain[i].mode) << " lock on block " << b;
          if (i > 0) to = e->lock_chain[i - 1].node;
          break;
        }
        os << "; " << render_chain(*e);
      }
      break;
    }
    case OutstandingOp::Wait::kBarrier:
      os << "waiting at barrier block " << b;
      if (const mem::DirectoryEntry* e = m.directory(home).peek(b)) {
        os << " (" << e->barrier_count << " arrived)";
      }
      to = home;
      break;
    case OutstandingOp::Wait::kWriteAck:
      os << "1 global write(s) awaiting acknowledgment";
      break;
    case OutstandingOp::Wait::kFlush:
      os << to_string(op.op) << " waiting for the global writes before it to retire";
      break;
    case OutstandingOp::Wait::kEvent:
    case OutstandingOp::Wait::kLockLine:
    case OutstandingOp::Wait::kChange:
    case OutstandingOp::Wait::kWriteSlot:
    case OutstandingOp::Wait::kLockSlot:
      os << to_string(op.op) << " on block " << b << " waiting for " << waits_for(op.wait);
      break;
  }
  return {n, to, os.str()};
}

}  // namespace

std::vector<WaitEdge> build_wait_for_graph(Machine& m) {
  std::vector<WaitEdge> edges;
  for (NodeId n = 0; n < m.n_nodes(); ++n) {
    CacheController& cc = m.cache_controller(n);
    if (cc.outstanding().wait != OutstandingOp::Wait::kNone) {
      edges.push_back(operation_edge(m, n));
    }
    if (cc.write_buffer().pending() > 0) {
      std::ostringstream os;
      os << "write buffer holds " << cc.write_buffer().pending() << " unretired write(s)";
      edges.push_back({n, kNoNode, os.str()});
    }
    if (cc.lock_release_inflight() > 0) {
      std::ostringstream os;
      os << cc.lock_release_inflight() << " lock-release protocol(s) in flight";
      edges.push_back({n, kNoNode, os.str()});
    }
  }

  for (NodeId h = 0; h < m.n_nodes(); ++h) {
    m.directory(h).for_each_entry([&](BlockId b, const mem::DirectoryEntry& e) {
      if (e.state == mem::DirState::kBusyRecall && e.owner != kNoNode) {
        std::ostringstream os;
        os << "recall of block " << b << " outstanding at owner";
        edges.push_back({h, e.owner, os.str()});
      }
      for (const net::Message& q : e.blocked) {
        std::ostringstream os;
        os << to_string(q.type) << " for block " << b << " queued behind busy entry";
        if (e.lock_writeback_pending) os << " (lock writeback pending)";
        edges.push_back({q.src, h, os.str()});
      }
    });
  }
  return edges;
}

std::string render_liveness_report(Machine& m, LivenessKind kind, const std::string& headline) {
  std::ostringstream os;
  os << "=== liveness watchdog: " << to_string(kind) << " at t=" << m.simulator().now()
     << " ===\n";
  os << headline << "\n";
  const std::vector<WaitEdge> edges = build_wait_for_graph(m);
  if (edges.empty()) {
    os << "wait-for graph: empty (no blocked protocol state found)\n";
  } else {
    os << "wait-for graph (" << edges.size() << " edge(s)):\n";
    for (const WaitEdge& e : edges) {
      os << "  node " << e.from;
      if (e.to != kNoNode) os << " -> node " << e.to;
      os << ": " << e.reason << "\n";
    }
  }
  m.network().fabric_report(os);
  if (net::Transport* t = m.network().transport()) t->report(os);
  return os.str();
}

}  // namespace bcsim::core
