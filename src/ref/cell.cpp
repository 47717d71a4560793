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
  core::MachineConfig cfg = conf::build_machine(c.machine);
  cfg.invariants = sim::InvariantLevel::kQuiesce;
  if (!c.machine.fault_plan.empty()) cfg.fault_plan.seed = c.fault_seed;
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
  gen.n_nodes = c.machine.nodes;
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

// chaos takes the watchdog's knobs and check its interval; on any cell a
// network fault plan arms build_machine's default. model and check run
// fixed batteries, which have no phases.
const CellKey kKeys[] = {
    {"flavor", "machine.flavor", 0, true},
    {"network", "machine.network", 0, true},
    {"nodes", "machine.nodes", kAll, true},
    {"program", &Cell::program_seed, 0, true},
    {"phases", &Cell::phases, kDrf, true, 1},
    {"schedule", "machine.schedule_seed", 0, true},
    {"plan", "machine.fault_plan"},
    {"fault-seed", &Cell::fault_seed},
    {"buffer-depth", "machine.net_buffer_depth", kAll},
    {"dir-limit", "machine.dir_limit", kAll},
    {"dir-overflow", "machine.dir_overflow", kAll},
    {"dir-region", "machine.dir_region", kAll},
    {"watchdog", "machine.watchdog", kWatched},
    {"stalls", "machine.watchdog_stalls", kChaos},
    {"trace-dump", "machine.trace_dump", kChaos},
    {"budget", &Cell::budget, kAll},
};

}  // namespace

std::span<const CellKey> cell_keys() noexcept { return kKeys; }

std::string key_text(const Cell& c, const CellKey& k) {
  return std::visit(conf::Overloaded{
                        [&](std::string_view row) {
                          return conf::key_text({c.machine, {}}, conf::scenario_key(row));
                        },
                        [&]<typename T>(T Cell::*f) { return std::to_string(c.*f); },
                    },
                    k.field);
}

void set_key(Cell& c, const CellKey& k, const std::string& text) {
  std::visit(conf::Overloaded{
                 [&](std::string_view row) {
                   conf::Scenario s{c.machine, {}};
                   conf::set_key(s, conf::scenario_key(row), text, k.name);
                   // The row takes any text; a corpus line's plan must
                   // resolve when the line is read, not when its cell runs.
                   if (row == "machine.fault_plan") {
                     try {
                       (void)sim::resolve_fault_plan(text);
                     } catch (const std::invalid_argument& e) {
                       throw conf::UsageError(e.what());
                     }
                   }
                   c.machine = s.machine;
                 },
                 [&]<typename T>(T Cell::*f) {
                   c.*f = static_cast<T>(
                       conf::parse_u64(k.name, text, k.min, std::numeric_limits<T>::max()));
                 },
             },
             k.field);
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
