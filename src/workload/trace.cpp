#include "workload/trace.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace bcsim::workload {

using core::Machine;
using core::Processor;

namespace {

using core::PrimitiveOp;

/// An op's spelling in the text format: its mnemonic and how many of the
/// address, value and second-operand columns its records carry, in that
/// order.
struct Spelling {
  std::string_view mnemonic;
  int fields;
};

constexpr Spelling spelling(PrimitiveOp op) noexcept {
  switch (op) {
    case PrimitiveOp::kRead: return {"r", 1};
    case PrimitiveOp::kWrite: return {"w", 2};
    case PrimitiveOp::kReadGlobal: return {"rg", 1};
    case PrimitiveOp::kWriteGlobal: return {"wg", 2};
    case PrimitiveOp::kReadUpdate: return {"ru", 1};
    case PrimitiveOp::kResetUpdate: return {"xu", 1};
    case PrimitiveOp::kFlushBuffer: return {"fl", 0};
    case PrimitiveOp::kReadLock: return {"rl", 1};
    case PrimitiveOp::kWriteLock: return {"wl", 1};
    case PrimitiveOp::kUnlock: return {"ul", 1};
    case PrimitiveOp::kTestAndSet: return {"ts", 1};
    case PrimitiveOp::kFetchAdd: return {"fa", 2};
    case PrimitiveOp::kBarrier: return {"ba", 2};
    case PrimitiveOp::kCompute: return {"c", 1};
    case PrimitiveOp::kSwap: return {"sw", 2};
    case PrimitiveOp::kCompareSwap: return {"cx", 3};
    case PrimitiveOp::kWaitWord: return {"wc", 2};
    case PrimitiveOp::kWaitLine: return {"lc", 1};
    case PrimitiveOp::kPrivate: return {"pa", 1};
  }
  return {"", 0};
}

[[noreturn]] void parse_fail(std::size_t lineno, const std::string& what) {
  throw std::invalid_argument("trace: " + what + " on line " + std::to_string(lineno));
}

}  // namespace

std::string_view trace_mnemonic(PrimitiveOp op) noexcept { return spelling(op).mnemonic; }

PrimitiveOp parse_trace_op(std::string_view s) {
  for (auto k = static_cast<int>(PrimitiveOp::kRead); k <= static_cast<int>(PrimitiveOp::kPrivate);
       ++k) {
    const auto op = static_cast<PrimitiveOp>(k);
    if (s == trace_mnemonic(op)) return op;
  }
  throw std::invalid_argument("trace: unknown op '" + std::string(s) + "'");
}

Trace Trace::parse(std::istream& in) {
  Trace t;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream ls(line);
    if (line[first] == '!') {
      std::string directive;
      ls >> directive;
      if (directive == "!nodes") {
        std::uint64_t n = 0;
        if (!(ls >> n) || n == 0) parse_fail(lineno, "malformed !nodes directive");
        t.n_nodes_ = static_cast<std::uint32_t>(n);
      } else if (directive == "!m") {
        Addr a = 0;
        Word v = 0;
        if (!(ls >> a >> v)) parse_fail(lineno, "malformed !m directive");
        t.initial_memory_.emplace_back(a, v);
      } else {
        parse_fail(lineno, "unknown directive '" + directive + "'");
      }
      std::string extra;
      if (ls >> extra) parse_fail(lineno, "trailing text '" + extra + "'");
      continue;
    }
    TraceRecord r;
    std::string op;
    std::uint64_t proc = 0;
    if (!(ls >> proc >> op)) parse_fail(lineno, "malformed record");
    r.proc = static_cast<NodeId>(proc);
    try {
      r.op = parse_trace_op(op);
    } catch (const std::invalid_argument&) {
      parse_fail(lineno, "unknown op '" + op + "'");
    }
    const int fields = spelling(r.op).fields;
    if (fields >= 1 && !(ls >> r.addr)) parse_fail(lineno, "missing address");
    if (fields >= 2 && !(ls >> r.value)) parse_fail(lineno, "missing value");
    if (fields >= 3 && !(ls >> r.value2)) parse_fail(lineno, "missing second operand");
    std::string extra;
    if (ls >> extra) parse_fail(lineno, "trailing text '" + extra + "'");
    t.append(r);
  }
  return t;
}

Trace Trace::parse_string(const std::string& text) {
  std::istringstream in(text);
  return parse(in);
}

void Trace::write(std::ostream& out) const {
  if (n_nodes_ != 0) out << "!nodes " << n_nodes_ << '\n';
  for (const auto& [a, v] : initial_memory_) out << "!m " << a << ' ' << v << '\n';
  for (const auto& r : records_) {
    const Spelling sp = spelling(r.op);
    out << r.proc << ' ' << sp.mnemonic;
    if (sp.fields >= 1) out << ' ' << r.addr;
    if (sp.fields >= 2) out << ' ' << r.value;
    if (sp.fields >= 3) out << ' ' << r.value2;
    out << '\n';
  }
}

std::vector<std::vector<TraceRecord>> Trace::per_processor(std::uint32_t n_nodes) const {
  std::vector<std::vector<TraceRecord>> streams(n_nodes);
  for (const auto& r : records_) {
    if (r.proc >= n_nodes) {
      throw std::invalid_argument("trace: record for processor " + std::to_string(r.proc) +
                                  " on a machine with " + std::to_string(n_nodes) + " nodes");
    }
    streams[r.proc].push_back(r);
  }
  return streams;
}

TraceRecorder::TraceRecorder(Machine& machine)
    : machine_(&machine), per_node_(machine.n_nodes()) {
  trace_.set_n_nodes(machine.n_nodes());
  trace_.set_initial_memory(machine.snapshot_memory());
  for (NodeId i = 0; i < machine.n_nodes(); ++i) {
    machine.processor(i).set_hook(
        [this, i](core::PrimitiveOp op, Addr a, Word v, Word v2) {
          per_node_[i].push_back({i, op, a, v, v2});
        });
  }
}

TraceRecorder::~TraceRecorder() { detach(); }

void TraceRecorder::detach() {
  if (machine_ == nullptr) return;
  for (NodeId i = 0; i < machine_->n_nodes(); ++i) {
    machine_->processor(i).clear_hook();
  }
  machine_ = nullptr;
  flush();
}

void TraceRecorder::flush() {
  for (auto& lane : per_node_) {
    for (const TraceRecord& r : lane) trace_.append(r);
    lane.clear();
  }
}

TraceWorkload::TraceWorkload(Machine& machine, Trace trace)
    : checksums_(machine.n_nodes(), 0) {
  if (trace.n_nodes() != 0 && trace.n_nodes() != machine.n_nodes()) {
    throw std::invalid_argument(
        "trace: recorded on " + std::to_string(trace.n_nodes()) +
        " nodes, replayed on " + std::to_string(machine.n_nodes()));
  }
  spawn_idle_nodes_ = trace.n_nodes() != 0;
  for (const auto& [a, v] : trace.initial_memory()) machine.poke_memory(a, v);
  streams_ = trace.per_processor(machine.n_nodes());
}

sim::Task TraceWorkload::run(Processor& p, const std::vector<TraceRecord>& stream) {
  Word sum = 0;
  for (const auto& r : stream) {
    switch (r.op) {
      case PrimitiveOp::kRead: sum += co_await p.read(r.addr); break;
      case PrimitiveOp::kWrite: co_await p.write(r.addr, r.value); break;
      case PrimitiveOp::kReadGlobal: sum += co_await p.read_global(r.addr); break;
      case PrimitiveOp::kWriteGlobal: co_await p.write_global(r.addr, r.value); break;
      case PrimitiveOp::kReadUpdate: sum += co_await p.read_update(r.addr); break;
      case PrimitiveOp::kResetUpdate: co_await p.reset_update(r.addr); break;
      case PrimitiveOp::kFlushBuffer: co_await p.flush_buffer(); break;
      case PrimitiveOp::kReadLock: co_await p.read_lock(r.addr); break;
      case PrimitiveOp::kWriteLock: co_await p.write_lock(r.addr); break;
      case PrimitiveOp::kUnlock: co_await p.unlock(r.addr); break;
      case PrimitiveOp::kCompute: co_await p.compute(r.addr); break;
      case PrimitiveOp::kTestAndSet: sum += co_await p.test_and_set(r.addr); break;
      case PrimitiveOp::kFetchAdd: sum += co_await p.fetch_add(r.addr, r.value); break;
      case PrimitiveOp::kSwap:
        sum += co_await p.rmw(r.addr, net::RmwOp::kSwap, r.value);
        break;
      case PrimitiveOp::kCompareSwap:
        sum += co_await p.compare_swap(r.addr, r.value, r.value2);
        break;
      case PrimitiveOp::kBarrier:
        co_await p.barrier_arrive(r.addr, static_cast<std::uint32_t>(r.value));
        break;
      case PrimitiveOp::kWaitWord: co_await p.wait_word_change(r.addr, r.value); break;
      case PrimitiveOp::kWaitLine: co_await p.wait_line_change(r.addr); break;
      case PrimitiveOp::kPrivate: co_await p.private_delay(r.addr); break;
    }
  }
  checksums_[p.id()] = sum;
}

void TraceWorkload::spawn_all(Machine& machine) {
  for (NodeId i = 0; i < machine.n_nodes(); ++i) {
    if (spawn_idle_nodes_ || !streams_[i].empty()) {
      machine.spawn(run(machine.processor(i), streams_[i]));
    }
  }
}

}  // namespace bcsim::workload
