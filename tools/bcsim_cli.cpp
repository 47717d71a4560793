// bcsim — command-line experiment driver.
//
// One binary to configure the machine, pick a workload, run it, and dump
// results (human-readable report and/or CSV for plotting). Runs are
// described either by flags or by a declarative config file — both funnel
// through the same construction path (src/conf/scenario.hpp), so a
// config-built run is bit-identical to its flag-built equivalent:
//
//   bcsim --nodes 32 --machine paper --workload work-queue --tasks 256
//         --grain 100 --report
//   bcsim run --config configs/paper-baseline.conf
//   bcsim run --config configs/paper-baseline.conf -k machine.nodes=64
//
// Config files (docs/CONFIGS.md): INI sections, `include "file"` layering,
// integer/boolean expressions with $(key) references, `-k key=value`
// overrides applied last, strict unknown-key/type/range errors naming
// file:line. `--dump-config` prints the resolved table and exits.
//
// Flags (defaults in brackets; every flag overrides the config file):
//   --config PATH        load a [machine]/[workload] config file
//   -k key=value         override one config key (repeatable)
//   --dump-config        print the resolved config table and exit
//   --nodes N            processors [16]
//   --machine M          paper | wbi | cbl-on-wbi [paper]
//   --consistency C      sc | bc (paper machine only) [bc]
//   --lock L             cbl | tts | tts-backoff | ticket | mcs [per machine]
//   --barrier B          cbl | central | tree [per machine]
//   --network NET        omega | crossbar | mesh | ideal [omega]
//   --buffer-depth B     per-port fabric buffer depth; 0 = the paper's
//                        infinite buffering, B > 0 = bounded with
//                        credit-based flow control (DESIGN.md, "Bounded
//                        fabric") [0]
//   --dir-limit K        directory pointer budget; 0 = full map [0]
//   --dir-overflow O     broadcast (Dir_k-B) | coarse (region-bit vector)
//                        — what happens past the pointer budget [broadcast]
//   --dir-region R       nodes per coarse-vector region [4]
//   --block-words W      cache line size in words [4]
//   --workload W         work-queue | sync-model | solver | stencil | grid
//                        | fft | trace [work-queue]
//   --tasks N            work-queue task budget [256]
//   --grain G            references per task [100]
//   --iters K            solver iterations / stencil sweeps [8]
//   --seed S             RNG seed [1]
//   --schedule-seed S    same-tick event tie-break (0 = FIFO order) [0]
//   --check-invariants L off | quiesce | full (docs/TESTING.md) [off]
//   --fault-plan P       arm a fault plan: a registry name (bcsim chaos
//                        lists them on a typo) or an inline spec like
//                        'drop:p=0.05;seed=3' (sim/fault_plan.hpp) [off]
//   --watchdog T         liveness watchdog interval in ticks; armed
//                        automatically when --fault-plan injects network
//                        faults (core/watchdog.hpp) [0 = off]
//   --trace-dump N       trace-tail records dumped with an invariant or
//                        watchdog diagnosis [64]
//   --csv PATH           write all statistics as CSV
//   --report             print the full statistics report
//
// A run prints its completion tick, its stats digest and `data:`, the hash
// of its final memory contents (Machine::data_digest).
//
// Subcommands:
//   bcsim check [--seeds N] [--first-seed S] [--nodes N] [--trace-capacity N]
//
// Sweeps N schedule seeds (starting at S) across a battery of litmus/fuzz
// programs on both machines with full invariant checking and per-seed
// determinism verification, and prints the smallest failing seed with a
// replay line (then replays it with event tracing on, so the interleaving
// that broke is printed alongside the diagnostic). Exit status 1 on any
// failure; --nodes below 2 is a usage error. See docs/TESTING.md.
//
// Each mode reads only its own flags, and any other flag is a usage error
// naming the mode: --seeds and --first-seed are `check` flags, --record,
// --trace-out and --trace-csv `trace` flags, --trace-capacity belongs to
// both, and `check` takes no --workload, --tasks, --grain, --iters, --csv
// or --report.
//
//   bcsim trace [run flags] [--trace-out PATH] [--trace-csv PATH]
//               [--trace-capacity N]
//   bcsim trace --record [run flags] [--trace-out PATH]
//
// Without --record: runs the chosen workload with the event-trace recorder
// on and writes the retained records as Chrome trace-event JSON (open in
// chrome://tracing or Perfetto) [trace.json], plus an optional flat CSV.
// With --record: captures the per-processor *primitive* streams (plus the
// machine width and pre-run memory) into a replayable trace file
// [trace.tr]; feeding it back through `--workload trace` (config:
// `source = trace:<file>`) reproduces the run bit-identically — same
// digest, same retired-op counts. See docs/OBSERVABILITY.md, docs/CONFIGS.md.
//
//   bcsim diff [--flavors wbi,ru,cbl] [--programs N] [--schedules M]
//              [--first-program S] [--first-schedule S] [--nodes N]
//              [--phases P] [--network NET] [--corpus PATH] [--inject-fault F]
//              [--buffer-depth B] [--dir-limit K] [--dir-overflow O]
//              [--dir-region R] [--budget T] [--config PATH]
//   bcsim model [--tests a,b,...] [--flavors wbi,ru,cbl]
//               [--networks omega,mesh] [--seeds N] [--first-seed S]
//               [--nodes N] [--inject-fault F] [--buffer-depth B]
//               [--dir-limit K] [--dir-overflow O] [--dir-region R]
//               [--print-allowed] [--require-complete] [--budget T]
//               [--config PATH]
//   bcsim chaos [--plans p1,p2,...] [--flavors wbi,ru,cbl]
//               [--networks omega,mesh] [--seeds N] [--first-seed S]
//               [--programs N] [--first-program S] [--nodes N]
//               [--phases P] [--watchdog T] [--stalls K] [--trace-dump N]
//               [--buffer-depth B] [--dir-limit K] [--dir-overflow O]
//               [--dir-region R] [--corpus PATH] [--budget T]
//               [--config PATH]
//
// The correctness harnesses, one grid driver (bcsim_harness.hpp): each
// sweeps fault plans x programs x networks x flavors x schedule seeds and
// judges every cell. `diff` runs randomized data-race-free programs and
// requires each run to match the golden sequentially-consistent
// reference; `chaos` does the same with a fault plan armed and the
// liveness watchdog on, and also accepts a watchdog/invariant diagnosis;
// `model` runs the litmus battery and requires every observed outcome to
// be in the axiomatically allowed set, reporting per-outcome hit counts
// (--print-allowed dumps the golden tables and exits). --inject-fault F
// arms a fault plan on every diff/model cell, e.g. eager-flush, which
// breaks the write-buffer flush gate to prove the judges catch it. A
// failing cell prints a report and a replay line naming every knob of
// its machine, diff/chaos append it to --corpus (tests/cell_corpus.txt's
// format), and diff/model replay it with event tracing. Exit 1 on a
// failing cell. Defaults: diff 8 programs x 4 schedules, nodes 8,
// phases 3, omega; model 16 seeds, nodes 16; chaos 8 seeds x 2 programs,
// nodes 8, phases 3, watchdog 4096, stalls 3, trace dump 64, budget 5e7
// (1e8 otherwise); model and chaos sweep omega + mesh. The same rows
// parse these flags and the [diff]/[model]/[chaos] config keys with one
// range per key: the sweep knobs below, the per-cell knobs in
// ref::cell_keys(). See docs/TESTING.md, "One program IR, one grid, three
// judges".
//
// The tool subcommands read their knobs from [diff]/[model]/[chaos]
// sections; a single preset file can carry a [machine]/[workload]
// description *and* a tool section (each consumer ignores the others').
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "bcsim_harness.hpp"
#include "conf/conf.hpp"
#include "conf/scenario.hpp"
#include "conf/strict_parse.hpp"
#include "core/machine.hpp"
#include "workload/trace.hpp"

using namespace bcsim;

namespace {

/// Flag-level usage error: main() catches UsageError, prints, and exits 2
/// (the strict-exit-2 contract the test suite pins).
[[noreturn]] void usage_error(const std::string& msg) { throw conf::UsageError(msg); }

struct Options {
  conf::MachineSpec machine;
  /// Workload selection in flag vocabulary; workload_spec() resolves it
  /// (merged over the config file's [workload], when one was given).
  std::string workload = "work-queue";
  std::uint32_t tasks = 256;
  std::uint32_t grain = 100;
  std::uint32_t iters = 8;
  bool workload_set = false, tasks_set = false, grain_set = false, iters_set = false;
  conf::WorkloadSpec config_workload;  ///< from --config; defaults otherwise
  bool from_config = false;
  std::string csv;
  bool report = false;
  // `check` subcommand
  bool check = false;
  std::uint64_t seeds = 64;
  std::uint64_t first_seed = 0;
  // `trace` subcommand
  bool trace = false;
  bool record = false;  ///< --record: primitive (replayable) trace capture
  std::string trace_out;
  bool trace_out_set = false;
  std::string trace_csv;
};

/// Scans argv for --config / -k / --dump-config, parses the file (with
/// overrides applied), and returns the resolved table — or nullopt when no
/// --config was given. --dump-config prints the table and exits 0 here,
/// before any schema consumption (the dump is the parser's view).
std::optional<conf::Table> load_config(int first, int argc, char** argv) {
  std::string path;
  std::vector<conf::Override> overrides;
  bool dump = false;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--config") {
      if (i + 1 >= argc) usage_error("missing value for --config");
      path = argv[++i];
    } else if (a == "-k") {
      if (i + 1 >= argc) usage_error("missing value for -k");
      try {
        overrides.push_back(conf::parse_override(argv[++i]));
      } catch (const std::invalid_argument& e) {
        usage_error(e.what());
      }
    } else if (a == "--dump-config") {
      dump = true;
    }
  }
  if (path.empty()) {
    if (dump) usage_error("--dump-config requires --config");
    if (!overrides.empty()) usage_error("-k overrides require --config");
    return std::nullopt;
  }
  conf::Table t = conf::parse_file(path, overrides);
  if (dump) {
    t.dump(std::cout);
    std::exit(0);
  }
  return t;
}

Options parse_args(int argc, char** argv) {
  Options o;
  auto need = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage_error(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  int first = 1;
  if (argc > 1 && std::strcmp(argv[1], "check") == 0) {
    o.check = true;
    first = 2;
  } else if (argc > 1 && std::strcmp(argv[1], "trace") == 0) {
    o.trace = true;
    first = 2;
  } else if (argc > 1 && std::strcmp(argv[1], "run") == 0) {
    first = 2;  // `run` is the (optional) name of the default mode
  }
  if (const auto t = load_config(first, argc, argv)) {
    const conf::Scenario sc = conf::resolve_scenario(*t);
    t->expect_all_consumed({"diff", "model", "chaos"});
    o.machine = sc.machine;
    o.config_workload = sc.workload;
    o.workload = sc.workload.kind;
    o.from_config = true;
  }
  // The flags only some modes read: any other mode rejects them, so a
  // flag is never silently ignored.
  const std::pair<std::string_view, std::string_view> mode_flags[] = {
      {"--seeds", "check"},          {"--first-seed", "check"},
      {"--record", "trace"},         {"--trace-out", "trace"},
      {"--trace-csv", "trace"},      {"--trace-capacity", "check trace"},
      {"--workload", "run trace"},   {"--tasks", "run trace"},
      {"--grain", "run trace"},      {"--iters", "run trace"},
      {"--csv", "run trace"},        {"--report", "run trace"}};
  const std::string mode = o.check ? "check" : o.trace ? "trace" : "run";
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    for (const auto& [flag, modes] : mode_flags) {
      if (a == flag && modes.find(mode) == std::string_view::npos) {
        usage_error("`bcsim " + mode + "` does not read " + a);
      }
    }
    if (a == "--config" || a == "-k") ++i;  // handled by load_config
    else if (a == "--dump-config") {}       // handled by load_config
    else if (a == "--nodes") o.machine.nodes = conf::parse_u32(a, need(i));
    else if (a == "--machine") o.machine.flavor = need(i);
    else if (a == "--consistency") o.machine.consistency = need(i);
    else if (a == "--lock") o.machine.lock = need(i);
    else if (a == "--barrier") o.machine.barrier = need(i);
    else if (a == "--network") o.machine.network = need(i);
    else if (a == "--buffer-depth") o.machine.buffer_depth = conf::parse_u32(a, need(i));
    else if (a == "--dir-limit") o.machine.dir_limit = conf::parse_u32(a, need(i));
    else if (a == "--dir-overflow") o.machine.dir_overflow = need(i);
    else if (a == "--dir-region") o.machine.dir_region = conf::parse_u32(a, need(i));
    else if (a == "--block-words") o.machine.block_words = conf::parse_u32(a, need(i));
    else if (a == "--workload") { o.workload = need(i); o.workload_set = true; }
    else if (a == "--tasks") { o.tasks = conf::parse_u32(a, need(i)); o.tasks_set = true; }
    else if (a == "--grain") { o.grain = conf::parse_u32(a, need(i)); o.grain_set = true; }
    else if (a == "--iters") { o.iters = conf::parse_u32(a, need(i)); o.iters_set = true; }
    else if (a == "--seed") o.machine.seed = conf::parse_u64(a, need(i));
    else if (a == "--schedule-seed") o.machine.schedule_seed = conf::parse_u64(a, need(i));
    else if (a == "--check-invariants") o.machine.invariants = need(i);
    else if (a == "--fault-plan") o.machine.fault_plan = need(i);
    else if (a == "--watchdog") o.machine.watchdog = conf::parse_u64(a, need(i));
    else if (a == "--trace-dump") o.machine.trace_dump = conf::parse_u64(a, need(i));
    else if (a == "--seeds") o.seeds = conf::parse_u64(a, need(i));
    else if (a == "--first-seed") o.first_seed = conf::parse_u64(a, need(i));
    else if (a == "--csv") o.csv = need(i);
    else if (a == "--report") o.report = true;
    else if (a == "--record") o.record = true;
    else if (a == "--trace-out") { o.trace_out = need(i); o.trace_out_set = true; }
    else if (a == "--trace-csv") o.trace_csv = need(i);
    else if (a == "--trace-capacity") o.machine.trace_capacity = conf::parse_u64(a, need(i));
    else usage_error("unknown flag '" + a + "'");
  }
  // The event-trace recorder serves the Chrome-JSON mode; primitive
  // recording (--record) must leave the machine identical to a plain run
  // so the captured digest matches a replay's.
  o.machine.trace = o.trace && !o.record;
  if (!o.trace_out_set) o.trace_out = o.record ? "trace.tr" : "trace.json";
  return o;
}

// ---------------------------------------------------------------------------
// `diff` / `model` / `chaos` flags. A knob every cell shares (nodes, phases,
// fabric, directory, watchdog, budget) is a ref::cell_keys() row: flag
// `--<name>`, config key `<harness>.<name>` ('_' for '-'), one range. The
// sweep knobs below follow the same spelling rule. The same rows parse
// flags and config keys (so the two always agree on a range) and render
// replay lines (so a replay line carries every knob of its cell).
// ---------------------------------------------------------------------------

using tool::Harness;
using tool::HarnessOptions;

template <typename T>
using Field = T HarnessOptions::*;

template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

constexpr unsigned kDiff = ref::bit(Harness::kDiff);
constexpr unsigned kModel = ref::bit(Harness::kModel);
constexpr unsigned kChaos = ref::bit(Harness::kChaos);
constexpr unsigned kAll = kDiff | kModel | kChaos;

struct Knob {
  const char* name;
  unsigned harnesses;
  std::variant<Field<std::uint64_t>, Field<bool>, Field<std::string>,
               Field<std::vector<std::string>>, Field<std::vector<ref::Flavor>>,
               Field<std::vector<core::NetworkKind>>>
      field;
  std::uint64_t min = 0;  ///< numeric knobs
  bool replayed = true;   ///< false: sweep-wide, never on a one-cell replay line
  bool single = false;    ///< a list knob that takes one value, the last one given
};

const Knob kKnobs[] = {
    {"tests", kModel, &HarnessOptions::tests},
    {"plans", kChaos, &HarnessOptions::plans},
    {"flavors", kAll, &HarnessOptions::flavors},
    {"network", kDiff, &HarnessOptions::networks, 0, true, true},
    {"networks", kModel | kChaos, &HarnessOptions::networks},
    {"seeds", kModel | kChaos, &HarnessOptions::seeds, 1},
    {"first-seed", kModel | kChaos, &HarnessOptions::first_seed},
    {"programs", kDiff | kChaos, &HarnessOptions::programs, 1},
    {"first-program", kDiff | kChaos, &HarnessOptions::first_program},
    {"schedules", kDiff, &HarnessOptions::seeds, 1},
    {"first-schedule", kDiff, &HarnessOptions::first_seed},
    {"inject-fault", kDiff | kModel, &HarnessOptions::inject_fault},
    {"corpus", kDiff | kChaos, &HarnessOptions::corpus, 0, false},
    {"print-allowed", kModel, &HarnessOptions::print_allowed, 0, false},
    {"require-complete", kModel, &HarnessOptions::require_complete, 0, false},
};

/// Sets one sweep knob from its text (a flag value or a config value). A
/// list knob appends.
void apply(HarnessOptions& o, const Knob& k, const std::string& text) {
  const auto each = [&](auto& list, auto parse) {
    if (k.single) {
      list = {parse(text)};
      return;
    }
    conf::split_list(text, [&](const std::string& s) { list.push_back(parse(s)); });
  };
  std::visit(Overloaded{
                 [&](Field<std::uint64_t> f) {
                   o.*f = conf::parse_u64(k.name, text);
                   if (o.*f < k.min) {
                     usage_error(std::string(k.name) + " " + text + " is out of range [" +
                                 std::to_string(k.min) + ", " +
                                 std::to_string(std::numeric_limits<std::uint64_t>::max()) + "]");
                   }
                 },
                 [&](Field<bool> f) { o.*f = true; },
                 [&](Field<std::string> f) { o.*f = text; },
                 [&](Field<std::vector<std::string>> f) {
                   each(o.*f, [](const std::string& s) { return s; });
                 },
                 [&](Field<std::vector<ref::Flavor>> f) {
                   each(o.*f, [](const std::string& s) {
                     const auto flavor = ref::parse_flavor(s);
                     if (!flavor) usage_error("unknown flavor '" + s + "' (wbi, ru, cbl)");
                     return *flavor;
                   });
                 },
                 [&](Field<std::vector<core::NetworkKind>> f) { each(o.*f, conf::parse_network); },
             },
             k.field);
}

/// A sweep knob's value as flag text ("" when a replay line should omit it).
std::string render(const HarnessOptions& o, const Knob& k) {
  const auto join = [](const auto& list, auto name) {
    std::string s;
    for (const auto& item : list) {
      if (!s.empty()) s += ',';
      s += name(item);
    }
    return s;
  };
  return std::visit(
      Overloaded{
          [&](Field<std::uint64_t> f) { return std::to_string(o.*f); },
          [&](Field<bool>) { return std::string(); },
          [&](Field<std::string> f) { return o.*f; },
          [&](Field<std::vector<std::string>> f) {
            return join(o.*f, [](const std::string& s) { return s; });
          },
          [&](Field<std::vector<ref::Flavor>> f) {
            return join(o.*f, [](ref::Flavor x) { return ref::to_string(x); });
          },
          [&](Field<std::vector<core::NetworkKind>> f) {
            return join(o.*f, [](core::NetworkKind x) { return core::to_string(x); });
          },
      },
      k.field);
}

/// A knob's config key: `<harness>.<name>` with '_' for '-'.
std::string config_key(Harness h, std::string name) {
  std::replace(name.begin(), name.end(), '-', '_');
  return std::string(ref::to_string(h)) + "." + name;
}

/// A config value as flag text; a numeric knob's value must be an integer.
std::string config_text(const conf::Table& t, const std::string& key, bool numeric) {
  return numeric ? std::to_string(t.get_int(key, 0)) : t.get_string(key, "");
}

HarnessOptions parse_harness_args(Harness h, int argc, char** argv) {
  HarnessOptions o = tool::harness_defaults(h);
  const std::string section = ref::to_string(h);
  if (const auto t = load_config(2, argc, argv)) {
    // One pass per table; a value's error names its file:line.
    const auto each_key = [&](const char* name, unsigned harnesses, auto set) {
      const std::string key = config_key(h, name);
      if ((harnesses & ref::bit(h)) == 0 || !t->has(key)) return;
      try {
        set(key);
      } catch (const conf::UsageError& e) {
        throw conf::ConfError(t->loc(key), e.what());
      }
    };
    for (const Knob& k : kKnobs) {
      each_key(k.name, k.harnesses, [&](const std::string& key) {
        if (std::holds_alternative<Field<bool>>(k.field)) {
          o.*std::get<Field<bool>>(k.field) = t->get_bool(key, false);
        } else {
          apply(o, k, config_text(*t, key, std::holds_alternative<Field<std::uint64_t>>(k.field)));
        }
      });
    }
    for (const ref::CellKey& k : ref::cell_keys()) {
      each_key(k.name, k.harnesses, [&](const std::string& key) {
        const bool numeric = std::holds_alternative<std::uint64_t ref::Cell::*>(k.field) ||
                             std::holds_alternative<std::uint32_t ref::Cell::*>(k.field);
        ref::set_key(o.cell, k, config_text(*t, key, numeric));
      });
    }
    std::vector<std::string_view> others = {"machine", "workload"};
    for (const Harness x : {Harness::kDiff, Harness::kModel, Harness::kChaos}) {
      if (x != h) others.push_back(ref::to_string(x));
    }
    t->expect_all_consumed(others);
  }
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--config" || a == "-k") {
      ++i;  // handled by load_config
      continue;
    }
    if (a == "--dump-config") continue;
    const auto named = [&](const char* name, unsigned harnesses) {
      return a == std::string("--") + name && (harnesses & ref::bit(h)) != 0;
    };
    const auto value = [&] {
      if (i + 1 >= argc) usage_error("missing value for " + a);
      return std::string(argv[++i]);
    };
    const Knob* knob = nullptr;
    for (const Knob& k : kKnobs) {
      if (named(k.name, k.harnesses)) knob = &k;
    }
    const ref::CellKey* key = nullptr;
    for (const ref::CellKey& k : ref::cell_keys()) {
      if (named(k.name, k.harnesses)) key = &k;
    }
    if (knob != nullptr) {
      apply(o, *knob, std::holds_alternative<Field<bool>>(knob->field) ? "" : value());
    } else if (key != nullptr) {
      ref::set_key(o.cell, *key, value());
    } else {
      usage_error("unknown " + section + " flag '" + a + "'");
    }
  }
  return o;
}

}  // namespace

std::string tool::command_line(const HarnessOptions& o) {
  std::string s = std::string("bcsim ") + ref::to_string(o.harness);
  const auto flag = [&](const char* name, const std::string& v) {
    if (v.empty()) return;
    // Quote values a shell would split or expand (inline fault specs).
    const bool plain = v.find_first_not_of(
                           "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
                           "_.,:=+-/") == std::string::npos;
    s += std::string(" --") + name + " " + (plain ? v : "'" + v + "'");
  };
  for (const Knob& k : kKnobs) {
    if ((k.harnesses & ref::bit(o.harness)) != 0 && k.replayed) flag(k.name, render(o, k));
  }
  for (const ref::CellKey& k : ref::cell_keys()) {
    if ((k.harnesses & ref::bit(o.harness)) != 0) flag(k.name, ref::key_text(o.cell, k));
  }
  return s;
}

namespace {

/// Resolves the run's WorkloadSpec: the config file's [workload] (or the
/// defaults) overlaid with the legacy flag knobs. Flag-only runs apply
/// --tasks/--grain/--iters unconditionally (the historical mapping, which
/// e.g. set stencil sweeps to --iters' default 8); with a config file only
/// explicitly-passed flags override the resolved values.
conf::WorkloadSpec workload_spec(const Options& o) {
  conf::WorkloadSpec wl = o.config_workload;
  wl.kind = o.workload;
  const bool all = !o.from_config;
  if (all || o.tasks_set) {
    wl.work_queue.total_tasks = o.tasks;
    wl.sync_model.tasks_per_proc = std::max(1u, o.tasks / std::max(1u, o.machine.nodes));
  }
  if (all || o.grain_set) {
    wl.work_queue.grain = o.grain;
    wl.sync_model.grain = o.grain;
  }
  if (all || o.iters_set) {
    wl.solver.iterations = o.iters;
    wl.stencil.sweeps = o.iters;
    wl.grid.sweeps = o.iters;
  }
  return wl;
}

// ---------------------------------------------------------------------------
// `check` subcommand: schedule-seed sweep with full invariant checking.
//
// Each program in the battery runs under every schedule seed on both
// machines with InvariantLevel::kFull (entry-local checks after every
// directory transition + a whole-machine sweep at the end), verifies its
// functional result, and runs twice to prove the seed is deterministic.
// The sweep is ascending, so the first failure is the smallest seed.
// ---------------------------------------------------------------------------

struct CaseResult {
  bool ok = true;
  std::string detail;
  Tick completion = 0;
  std::uint64_t messages = 0;
};

constexpr Tick kCheckBudget = 100'000'000;

/// Queued-lock counter: the classic mutual-exclusion workout (enqueue,
/// handoff, drain, and re-lock races). The lock's own block carries the
/// counter, so the data rides the grant messages.
CaseResult case_lock_counter(const core::MachineConfig& cfg) {
  core::Machine m(cfg);
  const Addr lock = 16;
  constexpr int kIters = 6;
  struct Prog {
    Addr lock;
    sim::Task operator()(core::Processor& p) const {
      for (int k = 0; k < kIters; ++k) {
        co_await p.write_lock(lock);
        const Word v = co_await p.read(lock + 1);
        co_await p.write(lock + 1, v + 1);
        co_await p.unlock(lock);
      }
    }
  } prog{lock};
  for (NodeId i = 0; i < cfg.n_nodes; ++i) m.spawn(prog(m.processor(i)));
  CaseResult r;
  r.completion = m.run(kCheckBudget);
  r.messages = m.stats().counter_value("net.messages");
  const Word want = static_cast<Word>(cfg.n_nodes) * kIters;
  if (!m.all_done() || !m.quiescent()) {
    r.ok = false;
    r.detail = "programs stuck or protocol not quiescent";
  } else if (m.peek_memory(lock + 1) != want) {
    r.ok = false;
    r.detail = "lost increment: counter " + std::to_string(m.peek_memory(lock + 1)) +
               ", expected " + std::to_string(want);
  }
  return r;
}

/// Readers-writer lock: read-holder groups, mid-group reader drop-outs, and
/// writer promotion — the orchestrated (directory-decided) release paths the
/// write-lock counter never touches.
CaseResult case_rw_lock(const core::MachineConfig& cfg) {
  core::Machine m(cfg);
  const Addr lock = 16;
  constexpr int kIters = 4;
  struct Writer {
    Addr lock;
    sim::Task operator()(core::Processor& p) const {
      for (int k = 0; k < kIters; ++k) {
        co_await p.write_lock(lock);
        const Word v = co_await p.read(lock + 1);
        co_await p.compute(2);
        co_await p.write(lock + 1, v + 1);
        co_await p.unlock(lock);
      }
    }
  } writer{lock};
  struct Reader {
    Addr lock;
    bool& torn;
    sim::Task operator()(core::Processor& p) const {
      for (int k = 0; k < kIters; ++k) {
        co_await p.read_lock(lock);
        const Word a = co_await p.read(lock + 1);
        co_await p.compute(1 + (p.id() % 3));  // staggered: mid-group drop-outs
        const Word b = co_await p.read(lock + 1);
        if (a != b) torn = true;  // a writer slipped inside the read group
        co_await p.unlock(lock);
      }
    }
  };
  bool torn = false;
  Reader reader{lock, torn};
  m.spawn(writer(m.processor(0)));
  for (NodeId i = 1; i < cfg.n_nodes; ++i) m.spawn(reader(m.processor(i)));
  CaseResult r;
  r.completion = m.run(kCheckBudget);
  r.messages = m.stats().counter_value("net.messages");
  if (!m.all_done() || !m.quiescent()) {
    r.ok = false;
    r.detail = "programs stuck or protocol not quiescent";
  } else if (torn) {
    r.ok = false;
    r.detail = "write observed inside a read-holder critical section";
  } else if (m.peek_memory(lock + 1) != kIters) {
    r.ok = false;
    r.detail = "lost increment under readers: counter " +
               std::to_string(m.peek_memory(lock + 1)) + ", expected " +
               std::to_string(kIters);
  }
  return r;
}

/// Message passing under the CP-Synch discipline: data must never trail the
/// flag past a flush. Uses the machine's native operations (subscriptions
/// on read-update, coherent reads on WBI).
CaseResult case_message_passing(const core::MachineConfig& cfg) {
  core::Machine m(cfg);
  const bool ru = cfg.data_protocol == core::DataProtocol::kReadUpdate;
  const Addr data = 0;  // home 0
  const Addr flag = 4;  // block 1 -> home 1
  Word seen = 0;
  struct Writer {
    Addr data, flag;
    bool ru;
    sim::Task operator()(core::Processor& p) const {
      co_await p.compute(50);
      if (ru) {
        co_await p.write_global(data, 42);
        co_await p.flush_buffer();  // CP-Synch: data globally performed first
        co_await p.write_global(flag, 1);
        co_await p.flush_buffer();
      } else {
        co_await p.write(data, 42);  // SC write: performed before it returns
        co_await p.write(flag, 1);
      }
    }
  } writer{data, flag, ru};
  struct Reader {
    Addr data, flag;
    bool ru;
    Word& seen;
    sim::Task operator()(core::Processor& p) const {
      if (ru) {
        co_await p.read_update(flag);
        co_await p.read_update(data);
      }
      for (;;) {
        const Word f = ru ? co_await p.read_update(flag) : co_await p.read(flag);
        if (f == 1) break;
        co_await p.wait_word_change(flag, f);
      }
      seen = ru ? co_await p.read_update(data) : co_await p.read(data);
    }
  } reader{data, flag, ru, seen};
  m.spawn(writer(m.processor(0)));
  m.spawn(reader(m.processor(cfg.n_nodes - 1)));
  // A couple of bystander subscribers/sharers lengthen the delivery chains.
  struct Bystander {
    Addr data;
    bool ru;
    sim::Task operator()(core::Processor& p) const {
      if (ru) {
        co_await p.read_update(data);
      } else {
        co_await p.read(data);
      }
    }
  } bystander{data, ru};
  for (NodeId i = 1; i + 1 < cfg.n_nodes && i <= 2; ++i) {
    m.spawn(bystander(m.processor(i)));
  }
  CaseResult r;
  r.completion = m.run(kCheckBudget);
  r.messages = m.stats().counter_value("net.messages");
  if (!m.all_done() || !m.quiescent()) {
    r.ok = false;
    r.detail = "programs stuck or protocol not quiescent";
  } else if (seen != 42) {
    r.ok = false;
    r.detail = "stale data (" + std::to_string(seen) + ") observed past the flag";
  }
  return r;
}

/// Hardware barrier separating two phases: every phase-1 write must be
/// visible to every phase-2 reader.
CaseResult case_barrier_phases(const core::MachineConfig& cfg) {
  core::Machine m(cfg);
  const Addr bar = 16;
  const Addr base = 64;
  const std::uint32_t n = cfg.n_nodes;
  std::vector<Word> sums(n, 0);
  struct Prog {
    Addr bar, base;
    std::uint32_t n;
    std::vector<Word>& sums;
    sim::Task operator()(core::Processor& p) const {
      co_await p.write_global(base + p.id(), p.id() + 1);
      co_await p.flush_buffer();  // barrier is CP-Synch
      co_await p.barrier_arrive(bar, n);
      Word s = 0;
      for (NodeId j = 0; j < n; ++j) s += co_await p.read_global(base + j);
      sums[p.id()] = s;
    }
  } prog{bar, base, n, sums};
  for (NodeId i = 0; i < n; ++i) m.spawn(prog(m.processor(i)));
  CaseResult r;
  r.completion = m.run(kCheckBudget);
  r.messages = m.stats().counter_value("net.messages");
  const Word want = static_cast<Word>(n) * (n + 1) / 2;
  if (!m.all_done() || !m.quiescent()) {
    r.ok = false;
    r.detail = "programs stuck or protocol not quiescent";
    return r;
  }
  for (NodeId i = 0; i < n; ++i) {
    if (sums[i] != want) {
      r.ok = false;
      r.detail = "node " + std::to_string(i) + " summed " + std::to_string(sums[i]) +
                 ", expected " + std::to_string(want) + " after the barrier";
      return r;
    }
  }
  return r;
}

/// Random well-formed program (hierarchical locks, global/local traffic,
/// subscriptions, flushes) — must terminate and quiesce under every
/// schedule with every invariant intact.
CaseResult case_fuzz(const core::MachineConfig& cfg) {
  core::Machine m(cfg);
  const bool ru = cfg.data_protocol == core::DataProtocol::kReadUpdate;
  struct Prog {
    std::vector<Addr> locks;
    int steps;
    bool ru;
    sim::Task operator()(core::Processor& p) const {
      auto& rng = p.rng();
      std::vector<std::size_t> held;
      for (int s = 0; s < steps; ++s) {
        const double dice = rng.next_double();
        if (dice < 0.25) {
          const std::size_t next = held.empty() ? rng.next_below(2) : held.back() + 1;
          if (next < locks.size() && held.size() < 2) {
            co_await p.write_lock(locks[next]);
            held.push_back(next);
          } else {
            co_await p.compute(3);
          }
        } else if (dice < 0.45) {
          if (!held.empty()) {
            const Addr a = locks[held.back()] + 1 + rng.next_below(2);
            const Word v = co_await p.read(a);
            co_await p.write(a, v + 1);
            co_await p.unlock(locks[held.back()]);
            held.pop_back();
          } else {
            co_await p.compute(2);
          }
        } else if (dice < 0.65) {
          const Addr a = 256 + rng.next_below(64);
          if (ru) {
            if (rng.chance(0.5)) {
              co_await p.write_global(a, rng.next_u64());
            } else {
              co_await p.read_update(a);
            }
          } else {
            if (rng.chance(0.5)) {
              co_await p.write(a, rng.next_u64());
            } else {
              co_await p.read(a);
            }
          }
        } else if (dice < 0.75) {
          if (ru && rng.chance(0.5)) {
            co_await p.reset_update(256 + rng.next_below(64));
          } else {
            co_await p.fetch_add(512 + rng.next_below(8), 1);
          }
        } else if (dice < 0.85) {
          co_await p.flush_buffer();
        } else {
          co_await p.compute(1 + rng.next_below(15));
        }
      }
      while (!held.empty()) {
        co_await p.unlock(locks[held.back()]);
        held.pop_back();
      }
      co_await p.flush_buffer();
    }
  } prog{{0, 16, 32}, 60, ru};
  for (NodeId i = 0; i < cfg.n_nodes; ++i) m.spawn(prog(m.processor(i)));
  CaseResult r;
  r.completion = m.run(kCheckBudget);
  r.messages = m.stats().counter_value("net.messages");
  if (!m.all_done() || !m.quiescent()) {
    r.ok = false;
    r.detail = "programs stuck or protocol not quiescent";
  }
  return r;
}

int run_check(const Options& o) {
  using CaseFn = CaseResult (*)(const core::MachineConfig&);
  struct Entry {
    const char* machine;
    const char* program;
    CaseFn fn;
  };
  // Both machines: the paper's (read-update + BC + CBL) and the WBI
  // baseline (with CBL synchronization so the lock/barrier engines are
  // exercised against the invalidate directory too).
  const Entry battery[] = {
      {"paper", "lock-counter", case_lock_counter},
      {"paper", "rw-lock", case_rw_lock},
      {"paper", "message-passing", case_message_passing},
      {"paper", "barrier", case_barrier_phases},
      {"paper", "fuzz", case_fuzz},
      {"cbl-on-wbi", "lock-counter", case_lock_counter},
      {"cbl-on-wbi", "rw-lock", case_rw_lock},
      {"cbl-on-wbi", "message-passing", case_message_passing},
      {"cbl-on-wbi", "barrier", case_barrier_phases},
      {"cbl-on-wbi", "fuzz", case_fuzz},
  };
  const auto config_for = [&](const char* machine, std::uint64_t schedule_seed) {
    conf::MachineSpec spec = o.machine;
    spec.flavor = machine;
    spec.invariants = "full";
    spec.schedule_seed = schedule_seed;
    return conf::build_machine(spec);
  };
  if (o.seeds == 0) usage_error("check needs --seeds >= 1");
  // message-passing and rw-lock put their writer and readers on different
  // processors, and a processor runs one program.
  if (o.machine.nodes < 2) {
    usage_error("check needs --nodes >= 2, --nodes is " + std::to_string(o.machine.nodes));
  }
  std::printf("check: %llu schedule seeds x %zu programs, nodes=%u, invariants=full\n",
              static_cast<unsigned long long>(o.seeds), std::size(battery),
              o.machine.nodes);
  for (std::uint64_t s = o.first_seed; s < o.first_seed + o.seeds; ++s) {
    for (const Entry& e : battery) {
      const auto cfg = config_for(e.machine, s);
      CaseResult r1;
      try {
        r1 = e.fn(cfg);
        if (r1.ok) {
          // Same seed, fresh machine: the schedule must replay exactly.
          const CaseResult r2 = e.fn(cfg);
          if (r2.completion != r1.completion || r2.messages != r1.messages) {
            r1.ok = false;
            r1.detail = "nondeterministic: reruns disagree on completion time or traffic";
          }
        }
      } catch (const std::exception& ex) {
        r1.ok = false;
        r1.detail = ex.what();
      }
      if (!r1.ok) {
        std::printf("check: FAILED\n");
        std::printf("  smallest failing schedule seed: %llu\n",
                    static_cast<unsigned long long>(s));
        std::printf("  machine=%s program=%s\n  %s\n", e.machine, e.program,
                    r1.detail.c_str());
        // Every MachineSpec knob the case's machine was built from.
        const conf::MachineSpec& m = o.machine;
        std::string knobs = " --consistency " + m.consistency;
        if (!m.lock.empty()) knobs += " --lock " + m.lock;
        if (!m.barrier.empty()) knobs += " --barrier " + m.barrier;
        if (!m.fault_plan.empty()) knobs += " --fault-plan '" + m.fault_plan + "'";
        std::printf(
            "  replay: bcsim check --nodes %u%s --network %s --buffer-depth %u --dir-limit %u "
            "--dir-overflow %s --dir-region %u --block-words %u --seed %llu --watchdog %llu "
            "--trace-dump %zu --first-seed %llu --seeds 1\n",
            m.nodes, knobs.c_str(), m.network.c_str(), m.buffer_depth, m.dir_limit,
            m.dir_overflow.c_str(), m.dir_region, m.block_words,
            static_cast<unsigned long long>(m.seed), static_cast<unsigned long long>(m.watchdog),
            m.trace_dump, static_cast<unsigned long long>(s));
        // Replay the failing case with the event-trace recorder on: when
        // the failure is an invariant violation, the machine prints the
        // tail of the interleaving that led there next to the diagnostic
        // (docs/OBSERVABILITY.md). Functional failures replay silently.
        std::printf("  replaying with event tracing enabled...\n");
        std::fflush(stdout);
        auto traced = cfg;
        traced.trace = true;
        traced.trace_capacity = o.machine.trace_capacity;
        try {
          (void)e.fn(traced);
        } catch (const std::exception&) {
          // The diagnostic and trace tail already went to stderr.
        }
        return 1;
      }
    }
  }
  std::printf("check: OK (seeds %llu..%llu, all invariants held, all results exact)\n",
              static_cast<unsigned long long>(o.first_seed),
              static_cast<unsigned long long>(o.first_seed + o.seeds - 1));
  return 0;
}

/// `bcsim trace --record`: run the scenario with the primitive recorder
/// attached and write a replayable trace file. The machine is configured
/// exactly like a plain run (no event-trace recorder), so the digest
/// printed here is what a replay must reproduce.
int run_record(const Options& o) {
  core::Machine m(conf::build_machine(o.machine));
  conf::WorkloadInstance w(m, workload_spec(o));
  workload::TraceRecorder rec(m);
  const Tick t = m.run();
  rec.detach();
  std::ofstream out(o.trace_out);
  if (!out) {
    std::fprintf(stderr, "bcsim: cannot write %s\n", o.trace_out.c_str());
    return 1;
  }
  rec.trace().write(out);
  std::printf("machine=%s workload=%s nodes=%u seed=%llu\n", o.machine.flavor.c_str(),
              w.kind().c_str(), o.machine.nodes,
              static_cast<unsigned long long>(o.machine.seed));
  std::printf("completion: %llu cycles\n", static_cast<unsigned long long>(t));
  std::printf("digest:     %016llx\n",
              static_cast<unsigned long long>(m.stats_digest()));
  std::printf("data:       %016llx\n", static_cast<unsigned long long>(m.data_digest()));
  std::printf("recorded:   %zu primitive records -> %s\n", rec.trace().size(),
              o.trace_out.c_str());
  std::printf("replay:     bcsim --nodes %u --workload trace ... (config: source = "
              "trace:%s)\n",
              o.machine.nodes, o.trace_out.c_str());
  return 0;
}

int run(const Options& o) {
  core::Machine m(conf::build_machine(o.machine));
  conf::WorkloadInstance w(m, workload_spec(o));

  const Tick t = m.run();
  std::printf("machine=%s workload=%s nodes=%u seed=%llu\n", o.machine.flavor.c_str(),
              w.kind().c_str(), o.machine.nodes,
              static_cast<unsigned long long>(o.machine.seed));
  std::printf("completion: %llu cycles\n", static_cast<unsigned long long>(t));
  std::printf("network:    %llu messages, %llu contention cycles\n",
              static_cast<unsigned long long>(m.stats().counter_value("net.messages")),
              static_cast<unsigned long long>(
                  m.stats().counter_value("net.contention_cycles")));
  std::printf("digest:     %016llx\n",
              static_cast<unsigned long long>(m.stats_digest()));
  std::printf("data:       %016llx\n", static_cast<unsigned long long>(m.data_digest()));
  if (auto* wq = w.work_queue()) {
    std::printf("work queue: %llu tasks executed\n",
                static_cast<unsigned long long>(wq->tasks_executed(m)));
  }
  if (auto* solver = w.solver()) {
    std::printf("solver:     residual %.3e, bit-exact vs host: %s\n", solver->residual(m),
                solver->solution(m) == solver->reference() ? "yes" : "NO");
  }
  if (auto* stencil = w.stencil()) {
    std::printf("stencil:    bit-exact vs host: %s\n",
                stencil->result(m) == stencil->reference() ? "yes" : "NO");
  }
  if (auto* grid = w.grid()) {
    std::printf("grid:       bit-exact vs host: %s\n",
                grid->result(m) == grid->reference() ? "yes" : "NO");
  }
  if (auto* fft = w.fft()) {
    std::printf("fft:        bit-exact vs host: %s\n",
                fft->actual(m) == fft->expected() ? "yes" : "NO");
  }
  if (o.trace) {
    const auto& tr = m.simulator().trace();
    std::ofstream out(o.trace_out);
    if (!out) {
      std::fprintf(stderr, "bcsim: cannot write %s\n", o.trace_out.c_str());
      return 1;
    }
    tr.write_chrome_json(out);
    std::printf("trace:      %zu records retained (%llu recorded, %llu dropped) -> %s\n",
                tr.size(), static_cast<unsigned long long>(tr.recorded()),
                static_cast<unsigned long long>(tr.dropped()), o.trace_out.c_str());
    if (!o.trace_csv.empty()) {
      std::ofstream csv(o.trace_csv);
      if (!csv) {
        std::fprintf(stderr, "bcsim: cannot write %s\n", o.trace_csv.c_str());
        return 1;
      }
      tr.write_csv(csv);
      std::printf("trace csv:  %s\n", o.trace_csv.c_str());
    }
  }
  if (o.report) {
    m.stats().report(std::cout);
  }
  if (!o.csv.empty()) {
    std::ofstream out(o.csv);
    if (!out) {
      std::fprintf(stderr, "bcsim: cannot write %s\n", o.csv.c_str());
      return 1;
    }
    m.stats().write_csv(out);
    std::printf("stats written to %s\n", o.csv.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    for (const Harness h : {Harness::kDiff, Harness::kModel, Harness::kChaos}) {
      if (argc > 1 && std::strcmp(argv[1], ref::to_string(h)) == 0) {
        return tool::run_harness(parse_harness_args(h, argc, argv));
      }
    }
    const Options o = parse_args(argc, argv);
    if (o.check) return run_check(o);
    if (o.record) return run_record(o);
    return run(o);
  } catch (const conf::UsageError& e) {
    std::fprintf(stderr, "bcsim: %s\n(see the header of tools/bcsim_cli.cpp for flags)\n",
                 e.what());
    return 2;
  } catch (const conf::ConfError& e) {
    std::fprintf(stderr, "bcsim: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bcsim: %s\n", e.what());
    return 1;
  }
}
