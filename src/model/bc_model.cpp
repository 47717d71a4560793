#include "model/bc_model.hpp"

#include <algorithm>
#include <cstring>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace bcsim::model {

using ir::OpKind;

namespace {

/// One buffered (issued, not yet performed) store.
struct BufEntry {
  std::uint32_t loc;
  Word value;
};

/// The abstract BC machine's state. Everything that can influence a
/// future transition or the recorded outcome is here — the memo set keys
/// on a byte encoding of the whole struct.
struct State {
  std::vector<std::uint32_t> pc;                 // per thread
  std::vector<std::uint8_t> arrived;             // per thread: at the barrier
  std::vector<int> lock_owner;                   // per lock, -1 = free
  std::vector<std::vector<BufEntry>> buf;        // per thread, FIFO
  std::vector<std::vector<Word>> co;             // per location, perform order
  std::vector<std::vector<std::uint32_t>> view;  // [thread][loc]: index into co
  std::vector<std::vector<std::uint32_t>> own;   // [thread][loc]: own last performed pos
  std::vector<std::vector<Word>> loads;          // observed loads per thread

  [[nodiscard]] std::string encode() const {
    std::string out;
    auto u32 = [&out](std::uint32_t v) {
      char b[4];
      std::memcpy(b, &v, 4);
      out.append(b, 4);
    };
    auto word = [&out](Word v) {
      char b[sizeof(Word)];
      std::memcpy(b, &v, sizeof(Word));
      out.append(b, sizeof(Word));
    };
    for (const auto v : pc) u32(v);
    for (const auto v : arrived) out.push_back(static_cast<char>(v));
    for (const auto v : lock_owner) u32(static_cast<std::uint32_t>(v + 1));
    for (const auto& b : buf) {
      u32(static_cast<std::uint32_t>(b.size()));
      for (const auto& e : b) {
        u32(e.loc);
        word(e.value);
      }
    }
    for (const auto& c : co) {
      u32(static_cast<std::uint32_t>(c.size()));
      for (const auto v : c) word(v);
    }
    for (const auto& vs : view) {
      for (const auto v : vs) u32(v);
    }
    for (const auto& vs : own) {
      for (const auto v : vs) u32(v);
    }
    for (const auto& ls : loads) {
      u32(static_cast<std::uint32_t>(ls.size()));
      for (const auto v : ls) word(v);
    }
    return out;
  }
};

/// Exhaustive explorer over the abstract machine.
class Enumerator {
 public:
  explicit Enumerator(const ir::Program& t) : t_(t), n_(t.threads.size()) {}

  std::vector<Outcome> run() {
    State init;
    init.pc.assign(n_, 0);
    init.arrived.assign(n_, 0);
    init.lock_owner.assign(t_.count(ir::ObjKind::kLock), -1);
    init.buf.resize(n_);
    init.co.resize(t_.n_locations);
    init.view.assign(n_, std::vector<std::uint32_t>(t_.n_locations, 0));
    init.own.assign(n_, std::vector<std::uint32_t>(t_.n_locations, 0));
    init.loads.resize(n_);
    seen_.insert(init.encode());
    explore(init);
    return {outcomes_.begin(), outcomes_.end()};
  }

 private:
  [[nodiscard]] bool thread_done(const State& s, std::size_t t) const {
    return s.pc[t] >= t_.threads[t].size();
  }

  [[nodiscard]] bool terminal(const State& s) const {
    for (std::size_t t = 0; t < n_; ++t) {
      if (!thread_done(s, t) || !s.buf[t].empty()) return false;
    }
    return true;
  }

  /// Globally-performed floor: after thread t's flush, every thread's view
  /// of each location t has stored to is at least t's last performed store
  /// (all copies updated — the CP-Synch guarantee).
  void apply_flush_floor(State& s, std::size_t t) const {
    for (std::uint32_t x = 0; x < t_.n_locations; ++x) {
      const std::uint32_t p = s.own[t][x];
      if (p == 0) continue;
      for (std::size_t u = 0; u < n_; ++u) {
        s.view[u][x] = std::max(s.view[u][x], p);
      }
    }
  }

  /// The issuing thread's oldest buffered store to `loc` reaches its home
  /// memory: it enters the coherence order, and the thread's own view
  /// advances to it (the dirty word was local all along).
  static void perform(State& s, std::size_t t, std::size_t entry) {
    const BufEntry e = s.buf[t][entry];
    s.buf[t].erase(s.buf[t].begin() +
                   static_cast<std::ptrdiff_t>(entry));
    s.co[e.loc].push_back(e.value);
    const auto pos = static_cast<std::uint32_t>(s.co[e.loc].size());
    s.view[t][e.loc] = std::max(s.view[t][e.loc], pos);
    s.own[t][e.loc] = pos;
  }

  void visit(State&& next) {
    if (seen_.insert(next.encode()).second) {
      if (seen_.size() > kStateCap) {
        throw std::runtime_error("enumerate_allowed: litmus test '" + t_.name +
                                 "' exceeds the state cap — shrink the test");
      }
      explore(next);
    }
  }

  void record(const State& s) {
    Outcome o;
    for (std::size_t t = 0; t < n_; ++t) {
      o.loads.insert(o.loads.end(), s.loads[t].begin(), s.loads[t].end());
    }
    o.finals.reserve(t_.n_locations);
    for (std::uint32_t x = 0; x < t_.n_locations; ++x) {
      o.finals.push_back(s.co[x].empty() ? 0 : s.co[x].back());
    }
    outcomes_.insert(std::move(o));
  }

  void explore(const State& s) {  // NOLINT(misc-no-recursion)
    if (terminal(s)) {
      record(s);
      return;
    }
    for (std::size_t t = 0; t < n_; ++t) {
      // Drain transitions: any location's oldest buffered store may
      // perform now. Per-thread-per-location FIFO (one network channel to
      // one home) but cross-location drains reorder freely.
      std::vector<std::uint8_t> drained(t_.n_locations, 0);
      for (std::size_t i = 0; i < s.buf[t].size(); ++i) {
        const std::uint32_t x = s.buf[t][i].loc;
        if (drained[x] != 0) continue;  // only the oldest per location
        drained[x] = 1;
        State next = s;
        perform(next, t, i);
        visit(std::move(next));
      }
      if (thread_done(s, t) || s.arrived[t] != 0) continue;
      step_op(s, t);
    }
  }

  void step_op(const State& s, std::size_t t) {  // NOLINT(misc-no-recursion)
    const ir::Op& op = t_.threads[t][s.pc[t]];
    switch (op.kind) {
      case OpKind::kStore: {
        State next = s;
        next.buf[t].push_back({op.arg, op.value});
        ++next.pc[t];
        visit(std::move(next));
        break;
      }
      case OpKind::kLoad: {
        // An own buffered store short-circuits: the newest one is what the
        // local (dirty) copy holds.
        const BufEntry* mine = nullptr;
        for (const auto& e : s.buf[t]) {
          if (e.loc == op.arg) mine = &e;
        }
        if (mine != nullptr) {
          State next = s;
          if (op.observed) next.loads[t].push_back(mine->value);
          ++next.pc[t];
          visit(std::move(next));
          break;
        }
        // Otherwise any coherent value from the (monotone) view onward —
        // the update for a newer store may or may not have arrived yet.
        const auto newest = static_cast<std::uint32_t>(s.co[op.arg].size());
        for (std::uint32_t e = s.view[t][op.arg]; e <= newest; ++e) {
          State next = s;
          next.view[t][op.arg] = e;
          if (op.observed) {
            next.loads[t].push_back(e == 0 ? 0 : s.co[op.arg][e - 1]);
          }
          ++next.pc[t];
          visit(std::move(next));
        }
        break;
      }
      case OpKind::kLoadOnce: {
        // READ-GLOBAL: the home's value at the linearization point, i.e.
        // the newest performed store right now. (validate() forbids a
        // thread from kLoadOnce-ing a location it stores to.)
        State next = s;
        const auto newest = static_cast<std::uint32_t>(s.co[op.arg].size());
        next.view[t][op.arg] = std::max(next.view[t][op.arg], newest);
        if (op.observed) {
          next.loads[t].push_back(newest == 0 ? 0 : s.co[op.arg][newest - 1]);
        }
        ++next.pc[t];
        visit(std::move(next));
        break;
      }
      case OpKind::kFence: {
        if (!s.buf[t].empty()) break;  // drains first; transition disabled
        State next = s;
        apply_flush_floor(next, t);
        ++next.pc[t];
        visit(std::move(next));
        break;
      }
      case OpKind::kLock: {
        if (s.lock_owner[op.arg] != -1) break;  // held; NP-Synch = pure mutex
        State next = s;
        next.lock_owner[op.arg] = static_cast<int>(t);
        ++next.pc[t];
        visit(std::move(next));
        break;
      }
      case OpKind::kUnlock: {
        // CP-Synch: the release flushes first, so it is enabled only once
        // the buffer has drained, and it floors views like a fence.
        if (s.lock_owner[op.arg] != static_cast<int>(t) || !s.buf[t].empty()) break;
        State next = s;
        apply_flush_floor(next, t);
        next.lock_owner[op.arg] = -1;
        ++next.pc[t];
        visit(std::move(next));
        break;
      }
      case OpKind::kBarrier: {
        // Arrival flushes (CP-Synch); the last arriver releases everyone.
        if (!s.buf[t].empty()) break;
        State next = s;
        apply_flush_floor(next, t);
        next.arrived[t] = 1;
        bool all = true;
        for (std::size_t u = 0; u < n_; ++u) {
          if (next.arrived[u] == 0) all = false;
        }
        if (all) {
          for (std::size_t u = 0; u < n_; ++u) {
            next.arrived[u] = 0;
            ++next.pc[u];  // validate(): every thread is at a kBarrier
          }
        }
        visit(std::move(next));
        break;
      }
      case OpKind::kAwait: {
        // The spin completes at any coherent view where the location shows
        // the awaited value (validate() forbids awaiting an own store).
        // When no reachable view does yet, the transition is disabled —
        // the thread simply keeps spinning until a perform enables it.
        const auto newest = static_cast<std::uint32_t>(s.co[op.arg].size());
        for (std::uint32_t e = s.view[t][op.arg]; e <= newest; ++e) {
          const Word v = e == 0 ? 0 : s.co[op.arg][e - 1];
          if (v != op.value) continue;
          State next = s;
          next.view[t][op.arg] = e;
          ++next.pc[t];
          visit(std::move(next));
        }
        break;
      }
      case OpKind::kUnsub:
      case OpKind::kCompute: {
        // Model no-ops: RESET-UPDATE only changes *when* updates stop
        // arriving (the view may simply stop advancing until the next
        // subscribe, which the stale-view rule already covers), and
        // compute only burns machine cycles.
        State next = s;
        ++next.pc[t];
        visit(std::move(next));
        break;
      }
      case OpKind::kCsAdd:
      case OpKind::kSemP:
      case OpKind::kSemV:
      case OpKind::kReadLock:
      case OpKind::kCsLoad:
      case OpKind::kFetchAdd:
        break;  // rejected by validate()
    }
  }

  static constexpr std::size_t kStateCap = 4'000'000;

  const ir::Program& t_;
  std::size_t n_;
  std::unordered_set<std::string> seen_;
  std::set<Outcome> outcomes_;
};

std::string op_to_string(const ir::Op& op) {
  switch (op.kind) {
    case OpKind::kStore:
      return "St " + loc_name(op.arg) + "=" + std::to_string(op.value);
    case OpKind::kLoad:
      return std::string(op.observed ? "Ld " : "Ld* ") + loc_name(op.arg);
    case OpKind::kLoadOnce:
      return std::string(op.observed ? "LdOnce " : "LdOnce* ") + loc_name(op.arg);
    case OpKind::kFence: return "Fence";
    case OpKind::kLock: return std::string("Lock ") + static_cast<char>('a' + op.arg);
    case OpKind::kUnlock:
      return std::string("Unlock ") + static_cast<char>('a' + op.arg);
    case OpKind::kBarrier: return "Barrier";
    case OpKind::kUnsub: return "Unsub " + loc_name(op.arg);
    case OpKind::kCompute: return "Compute " + std::to_string(op.arg);
    case OpKind::kAwait:
      return "Await " + loc_name(op.arg) + "==" + std::to_string(op.value);
    case OpKind::kCsAdd:
      return "CsAdd " + loc_name(op.arg) + "+=" + std::to_string(op.value);
    case OpKind::kSemP: return "P " + std::to_string(op.arg);
    case OpKind::kSemV: return "V " + std::to_string(op.arg);
    case OpKind::kReadLock: return std::string("ReadLock ") + static_cast<char>('a' + op.arg);
    case OpKind::kCsLoad: return "CsLoad " + loc_name(op.arg);
    case OpKind::kFetchAdd:
      return "FetchAdd " + loc_name(op.arg) + "+=" + std::to_string(op.value);
  }
  return "?";
}

}  // namespace

std::vector<Outcome> enumerate_allowed(const ir::Program& t) {
  const std::string err = validate(t);
  if (!err.empty()) throw std::invalid_argument(err);
  return Enumerator(t).run();
}

bool outcome_allowed(const std::vector<Outcome>& allowed, const Outcome& got) {
  return std::binary_search(allowed.begin(), allowed.end(), got);
}

int first_divergence(const std::vector<Outcome>& allowed, const Outcome& got) {
  if (outcome_allowed(allowed, got)) return -1;
  for (std::size_t i = 0; i < got.loads.size(); ++i) {
    bool prefix_ok = false;
    for (const Outcome& a : allowed) {
      if (a.loads.size() < i + 1) continue;
      if (std::equal(got.loads.begin(), got.loads.begin() + static_cast<long>(i) + 1,
                     a.loads.begin())) {
        prefix_ok = true;
        break;
      }
    }
    if (!prefix_ok) return static_cast<int>(i);
  }
  return static_cast<int>(got.loads.size());  // loads fine; finals diverge
}

std::string render_allowed(const ir::Program& t, const std::vector<Outcome>& allowed) {
  std::ostringstream os;
  os << "litmus " << t.name << ": " << t.description << '\n';
  for (std::size_t ti = 0; ti < t.threads.size(); ++ti) {
    os << "  t" << ti << ':';
    for (const ir::Op& op : t.threads[ti]) os << ' ' << op_to_string(op) << ';';
    os << '\n';
  }
  os << "  allowed " << allowed.size() << ":\n";
  for (const Outcome& o : allowed) {
    os << "    " << render_outcome(t, o) << '\n';
  }
  return os.str();
}

}  // namespace bcsim::model
