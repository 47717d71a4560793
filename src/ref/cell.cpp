#include "ref/cell.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "conf/strict_parse.hpp"
#include "ref/drf_program.hpp"
#include "sim/fault_plan.hpp"

namespace bcsim::ref {

core::MachineConfig cell_config(const Cell& c) {
  core::MachineConfig cfg;
  cfg.n_nodes = c.nodes;
  cfg.schedule_seed = c.schedule_seed;
  cfg.invariants = sim::InvariantLevel::kQuiesce;
  switch (c.flavor) {
    case Flavor::kWbi:
      cfg.data_protocol = core::DataProtocol::kWbi;
      cfg.consistency = core::Consistency::kSequential;
      cfg.lock_impl = core::LockImpl::kTts;
      cfg.barrier_impl = core::BarrierImpl::kCentral;
      break;
    case Flavor::kRu:
      cfg.data_protocol = core::DataProtocol::kReadUpdate;
      cfg.consistency = core::Consistency::kBuffered;
      cfg.lock_impl = core::LockImpl::kCbl;
      cfg.barrier_impl = core::BarrierImpl::kCbl;
      break;
    case Flavor::kCbl:
      cfg.data_protocol = core::DataProtocol::kWbi;
      cfg.consistency = core::Consistency::kSequential;
      cfg.lock_impl = core::LockImpl::kCbl;
      cfg.barrier_impl = core::BarrierImpl::kCbl;
      break;
  }
  cfg.network = c.network;
  cfg.net_buffer_depth = c.buffer_depth;
  cfg.dir_pointer_limit = c.dir_limit;
  cfg.dir_overflow = c.dir_overflow;
  cfg.dir_region_nodes = c.dir_region;
  if (!c.plan.empty()) {
    sim::FaultPlan plan = sim::resolve_fault_plan(c.plan);
    plan.seed = c.fault_seed;
    cfg.fault_plan = plan;
  }
  cfg.watchdog_interval = c.watchdog;
  cfg.watchdog_stalls = c.stalls;
  cfg.trace_dump = c.trace_dump;
  return cfg;
}

const char* to_string(Verdict v) noexcept {
  switch (v) {
    case Verdict::kTransparent: return "transparent";
    case Verdict::kDiagnosed: return "diagnosed";
    case Verdict::kWrong: return "wrong";
    case Verdict::kHung: return "hung";
  }
  return "?";
}

CellOutcome judge(const RefResult& ref, const ir::RunResult& run,
                  std::uint32_t block_words) {
  CellOutcome out;
  if (run.completed && run.error.empty()) {
    const Divergence d = compare_runs(ref, run, block_words);
    out.verdict = d.found() ? Verdict::kWrong : Verdict::kTransparent;
    out.detail = d.found() ? d.detail : "indistinguishable from the SC reference";
    return out;
  }
  // A terminated run counts as diagnosed only when the failure carries an
  // explanation: the liveness watchdog's report or an invariant violation.
  // Anything else — a bare budget exhaustion, an unexpected exception, a
  // silent non-completion — is a hang the harness must flag. The full
  // report already went to stderr; the detail keeps its first line.
  const bool explained = run.error.find("liveness watchdog") != std::string::npos ||
                         run.error.find("invariant violation") != std::string::npos;
  out.verdict = explained ? Verdict::kDiagnosed : Verdict::kHung;
  out.detail = "machine failed at tick " + std::to_string(run.completion) + ": " +
               (run.error.empty() ? std::string("did not complete (no diagnosis)")
                                  : run.error.substr(0, run.error.find('\n')));
  return out;
}

ir::Program cell_program(const Cell& c) {
  DrfGenConfig gen;
  gen.n_nodes = c.nodes;
  gen.phases = c.phases;
  return generate_drf_program(c.program_seed, gen);
}

CellOutcome run_cell(const Cell& c) {
  const ir::Program prog = cell_program(c);
  const core::MachineConfig cfg = cell_config(c);
  return judge(RefMachine(prog, 1).run(), ir::run_program(prog, cfg, c.budget), cfg.block_words);
}

const char* to_string(Harness h) noexcept {
  switch (h) {
    case Harness::kDiff: return "diff";
    case Harness::kModel: return "model";
    case Harness::kChaos: return "chaos";
    case Harness::kCheck: return "check";
  }
  return "?";
}

namespace {

constexpr unsigned kAll =
    bit(Harness::kDiff) | bit(Harness::kModel) | bit(Harness::kChaos) | bit(Harness::kCheck);
constexpr unsigned kDrf = bit(Harness::kDiff) | bit(Harness::kChaos);
constexpr unsigned kChaos = bit(Harness::kChaos);
constexpr unsigned kWatched = kChaos | bit(Harness::kCheck);

// diff and model arm the watchdog themselves for network faults; chaos
// takes its knobs and check its interval. model and check run fixed
// batteries, which have no phases.
const CellKey kKeys[] = {
    {"flavor", &Cell::flavor, 0, true},
    {"network", &Cell::network, 0, true},
    {"nodes", &Cell::nodes, kAll, true, 1},
    {"program", &Cell::program_seed, 0, true},
    {"phases", &Cell::phases, kDrf, true, 1},
    {"schedule", &Cell::schedule_seed, 0, true},
    {"plan", &Cell::plan},
    {"fault-seed", &Cell::fault_seed},
    {"buffer-depth", &Cell::buffer_depth, kAll},
    {"dir-limit", &Cell::dir_limit, kAll},
    {"dir-overflow", &Cell::dir_overflow, kAll},
    {"dir-region", &Cell::dir_region, kAll, false, 1},
    {"watchdog", &Cell::watchdog, kWatched},
    {"stalls", &Cell::stalls, kChaos, false, 1},
    {"trace-dump", &Cell::trace_dump, kChaos},
    {"budget", &Cell::budget, kAll},
};

}  // namespace

std::span<const CellKey> cell_keys() noexcept { return kKeys; }

std::string key_text(const Cell& c, const CellKey& k) {
  struct {
    const Cell& c;
    std::string operator()(std::uint64_t Cell::*f) const { return std::to_string(c.*f); }
    std::string operator()(std::uint32_t Cell::*f) const { return std::to_string(c.*f); }
    std::string operator()(std::string Cell::*f) const { return c.*f; }
    std::string operator()(Flavor Cell::*f) const { return to_string(c.*f); }
    std::string operator()(core::NetworkKind Cell::*f) const {
      return std::string(core::to_string(c.*f));
    }
    std::string operator()(core::DirOverflow Cell::*f) const {
      return std::string(core::to_string(c.*f));
    }
  } visitor{c};
  return std::visit(visitor, k.field);
}

void set_key(Cell& c, const CellKey& k, const std::string& text) {
  struct {
    Cell& c;
    const std::string& text;
    const CellKey& k;
    void operator()(std::uint64_t Cell::*f) const { c.*f = conf::parse_u64(k.name, text, k.min); }
    void operator()(std::uint32_t Cell::*f) const {
      c.*f = static_cast<std::uint32_t>(
          conf::parse_u64(k.name, text, k.min, std::numeric_limits<std::uint32_t>::max()));
    }
    void operator()(std::string Cell::*f) const {
      try {
        (void)sim::resolve_fault_plan(text);
      } catch (const std::invalid_argument& e) {
        throw conf::UsageError(e.what());
      }
      c.*f = text;
    }
    void operator()(Flavor Cell::*f) const { c.*f = conf::parse_enum<kFlavors>(k.name, text); }
    void operator()(core::NetworkKind Cell::*f) const {
      c.*f = conf::parse_enum<conf::kNetworks>(k.name, text);
    }
    void operator()(core::DirOverflow Cell::*f) const {
      c.*f = conf::parse_enum<conf::kDirOverflows>(k.name, text);
    }
  } visitor{c, text, k};
  std::visit(visitor, k.field);
}

std::optional<CorpusEntry> parse_corpus_line(const std::string& line) {
  const std::size_t start = line.find_first_not_of(" \t");
  if (start == std::string::npos || line[start] == '#') return std::nullopt;
  try {
    std::istringstream is(line);
    std::string tok;
    is >> tok;
    CorpusEntry e;
    bool known = false;
    for (const Verdict v : {Verdict::kTransparent, Verdict::kDiagnosed, Verdict::kWrong,
                            Verdict::kHung}) {
      if (tok == to_string(v)) {
        e.expected = v;
        known = true;
      }
    }
    if (!known) throw std::invalid_argument("first field '" + tok + "' is not a verdict");
    std::vector<const CellKey*> seen;
    while (is >> tok) {
      const std::size_t eq = tok.find('=');
      const std::string name = tok.substr(0, eq);
      const CellKey* key = nullptr;
      for (const CellKey& k : kKeys) {
        if (eq != std::string::npos && name == k.name) key = &k;
      }
      if (key == nullptr) throw std::invalid_argument("unknown field '" + tok + "'");
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
        throw std::invalid_argument("repeated key '" + name + "'");
      }
      seen.push_back(key);
      set_key(e.cell, *key, tok.substr(eq + 1));
    }
    // A required key never falls back to its default: a line without its
    // network would silently replay a different scenario.
    for (const CellKey& k : kKeys) {
      if (k.always && std::find(seen.begin(), seen.end(), &k) == seen.end()) {
        throw std::invalid_argument(std::string("missing key '") + k.name + "'");
      }
    }
    return e;
  } catch (const std::exception& ex) {
    throw std::invalid_argument("corpus: " + std::string(ex.what()) + " in line: " + line);
  }
}

std::string format_corpus_line(const CorpusEntry& e) {
  const Cell defaults;
  std::string s = to_string(e.expected);
  for (const CellKey& k : kKeys) {
    const std::string v = key_text(e.cell, k);
    if (k.always || v != key_text(defaults, k)) s += std::string(" ") + k.name + "=" + v;
  }
  return s;
}

std::vector<CorpusEntry> load_corpus(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("corpus: cannot open " + path);
  std::vector<CorpusEntry> out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    try {
      if (auto e = parse_corpus_line(line)) out.push_back(std::move(*e));
    } catch (const std::invalid_argument& ex) {
      throw std::invalid_argument(path + ":" + std::to_string(lineno) + ": " + ex.what());
    }
  }
  return out;
}

}  // namespace bcsim::ref
