#include "model/litmus.hpp"

#include <algorithm>
#include <sstream>

namespace bcsim::model {

using ir::OpKind;

namespace {

bool is_observed_load(const ir::Op& op) {
  return (op.kind == OpKind::kLoad || op.kind == OpKind::kLoadOnce) && op.observed;
}

}  // namespace

ir::Program litmus(std::string name, std::string description, std::uint32_t n_locations,
                   std::uint32_t n_locks, std::vector<std::vector<ir::Op>> threads) {
  ir::Program p;
  p.name = std::move(name);
  p.description = std::move(description);
  p.n_locations = n_locations;
  p.objects.push_back({ir::ObjKind::kBlocks, 0, n_locations, 0});
  for (std::uint32_t l = 0; l < n_locks; ++l) p.objects.push_back({ir::ObjKind::kLock});
  const bool any_barrier = std::any_of(threads.begin(), threads.end(), [](const auto& th) {
    return std::any_of(th.begin(), th.end(),
                       [](const ir::Op& op) { return op.kind == OpKind::kBarrier; });
  });
  if (any_barrier) p.objects.push_back({ir::ObjKind::kBarrier});
  p.threads = std::move(threads);
  return p;
}

ir::Program with_warmup(const ir::Program& t, std::uint64_t schedule_seed) {
  ir::Program p = t;
  const std::uint32_t start = t.count(ir::ObjKind::kBarrier);
  p.objects.push_back({ir::ObjKind::kBarrier});
  for (std::uint32_t ti = 0; ti < t.threads.size(); ++ti) {
    std::vector<ir::Op> code{ir::Compute(1 + ti * 256)};
    for (const ir::Op& op : t.threads[ti]) {
      if (op.kind != OpKind::kLoad && op.kind != OpKind::kAwait) continue;
      const bool seen = std::any_of(code.begin() + 1, code.end(),
                                    [&](const ir::Op& s) { return s.arg == op.arg; });
      if (!seen) code.push_back(ir::LdQuiet(op.arg));
    }
    code.push_back(ir::Bar(start));
    std::uint64_t h = schedule_seed + 0x9e3779b97f4a7c15ULL * (ti + 1);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    code.push_back(ir::Compute(1 + static_cast<std::uint32_t>(h % 241)));
    code.insert(code.end(), t.threads[ti].begin(), t.threads[ti].end());
    p.threads[ti] = std::move(code);
  }
  return p;
}

Outcome outcome_of(const std::vector<std::vector<ir::Observation>>& loads,
                   const std::vector<Word>& finals) {
  Outcome o;
  for (const auto& per_thread : loads) {
    for (const ir::Observation& l : per_thread) o.loads.push_back(l.value);
  }
  o.finals = finals;
  return o;
}

std::string validate(const ir::Program& t) {
  if (t.threads.empty()) return "litmus '" + t.name + "': no threads";
  const std::uint32_t n_locks = t.count(ir::ObjKind::kLock);
  const std::uint32_t n_barriers = t.count(ir::ObjKind::kBarrier);
  std::size_t barriers0 = 0;
  for (std::size_t ti = 0; ti < t.threads.size(); ++ti) {
    const std::string who = "litmus '" + t.name + "': thread " + std::to_string(ti);
    std::vector<std::uint32_t> held;
    std::vector<bool> stores(t.n_locations, false);
    std::size_t barriers = 0;
    for (const ir::Op& op : t.threads[ti]) {
      const bool is_data = op.kind == OpKind::kStore || op.kind == OpKind::kLoad ||
                           op.kind == OpKind::kLoadOnce || op.kind == OpKind::kUnsub ||
                           op.kind == OpKind::kAwait;
      if (is_data && op.arg >= t.n_locations) {
        return who + " references location " + std::to_string(op.arg) + " >= n_locations";
      }
      const bool is_lock = op.kind == OpKind::kLock || op.kind == OpKind::kUnlock;
      if (is_lock && op.arg >= n_locks) {
        return who + " references lock " + std::to_string(op.arg) + " >= n_locks";
      }
      switch (op.kind) {
        case OpKind::kStore: stores[op.arg] = true; break;
        case OpKind::kLoadOnce:
          if (stores[op.arg]) {
            return who + " kLoadOnce's location it stores to (READ-GLOBAL bypasses "
                         "the write buffer)";
          }
          break;
        case OpKind::kAwait:
          if (stores[op.arg]) return who + " awaits a location it stores to (vacuous spin)";
          break;
        case OpKind::kLock:
          if (std::find(held.begin(), held.end(), op.arg) != held.end()) {
            return who + " re-acquires a lock it holds";
          }
          held.push_back(op.arg);
          break;
        case OpKind::kUnlock:
          if (held.empty() || held.back() != op.arg) {
            return who + " releases a lock it does not hold (or out of nesting order)";
          }
          held.pop_back();
          break;
        case OpKind::kBarrier:
          if (op.arg >= n_barriers) return who + " references an undeclared barrier";
          ++barriers;
          break;
        case OpKind::kCsAdd:
        case OpKind::kSemP:
        case OpKind::kSemV:
        case OpKind::kReadLock:
        case OpKind::kCsLoad:
        case OpKind::kFetchAdd:
          return who + " uses an op the BC model has no rule for";
        default: break;
      }
    }
    if (!held.empty()) return who + " exits holding a lock";
    if (ti == 0) barriers0 = barriers;
    if (barriers != barriers0) {
      return "litmus '" + t.name +
             "': threads disagree on barrier count (barriers are global episodes)";
    }
  }
  // An await can only terminate if someone actually stores the value.
  for (const auto& th : t.threads) {
    for (const ir::Op& op : th) {
      if (op.kind != OpKind::kAwait) continue;
      bool stored = false;
      for (const auto& other : t.threads) {
        for (const ir::Op& st : other) {
          if (st.kind == OpKind::kStore && st.arg == op.arg && st.value == op.value) {
            stored = true;
          }
        }
      }
      if (!stored) {
        return "litmus '" + t.name + "': awaited value " + std::to_string(op.value) +
               " of " + loc_name(op.arg) + " is never stored";
      }
    }
  }
  return "";
}

std::string loc_name(std::uint32_t loc) {
  static constexpr char kNames[] = {'x', 'y', 'z', 'w', 'v', 'u'};
  if (loc < sizeof(kNames)) return std::string(1, kNames[loc]);
  // Appending instead of operator+ sidesteps a GCC 12 -Wrestrict false
  // positive under -Werror.
  std::string s = "L";
  s += std::to_string(loc);
  return s;
}

std::string load_label(const ir::Program& t, std::size_t i) {
  std::size_t seen = 0;
  for (std::size_t ti = 0; ti < t.threads.size(); ++ti) {
    for (std::size_t oi = 0; oi < t.threads[ti].size(); ++oi) {
      const ir::Op& op = t.threads[ti][oi];
      if (!is_observed_load(op)) continue;
      if (seen == i) {
        std::ostringstream os;
        os << 't' << ti << ":Ld " << loc_name(op.arg) << " (op " << oi << ')';
        return os.str();
      }
      ++seen;
    }
  }
  return "load#" + std::to_string(i);
}

std::string render_outcome(const ir::Program& t, const Outcome& o) {
  std::ostringstream os;
  std::size_t i = 0;
  for (std::size_t ti = 0; ti < t.threads.size(); ++ti) {
    for (const ir::Op& op : t.threads[ti]) {
      if (!is_observed_load(op)) continue;
      if (i > 0) os << ' ';
      os << 't' << ti << ':' << loc_name(op.arg) << '=';
      os << (i < o.loads.size() ? std::to_string(o.loads[i]) : std::string("?"));
      ++i;
    }
  }
  if (i == 0) os << "(no observed loads)";
  os << " |";
  for (std::uint32_t l = 0; l < t.n_locations; ++l) {
    os << ' ' << loc_name(l) << '=';
    os << (l < o.finals.size() ? std::to_string(o.finals[l]) : std::string("?"));
  }
  return os.str();
}

}  // namespace bcsim::model
