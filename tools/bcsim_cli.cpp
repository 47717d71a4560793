// bcsim — command-line experiment driver.
//
// One binary to configure the machine, pick a workload, run it, and dump
// results (human-readable report and/or CSV for plotting). A run is
// described by flags, by a config file, or by both. One key table
// (conf::scenario_keys()) reads the [machine]/[workload] keys and their
// flags: a flag is another spelling of its key, with the key's default and
// range, so a run given only flags is bit-identical to the config run with
// the same keys. docs/CONFIGS.md lists every key with its flag, default
// and range; --tasks, --grain and --iters spell the selected workload
// kind's keys. Flags win over the file and over -k.
//
//   bcsim --nodes 32 --machine paper --workload work-queue --grain 100 --report
//   bcsim run --config configs/paper-baseline.conf -k machine.nodes=64
//   bcsim run -k machine.nodes=8 --tasks 16
//
// Flags outside the table:
//   --config PATH        load a config file (docs/CONFIGS.md: INI sections,
//                        `include` layering, expressions, errors at file:line)
//   -k key=value         override one config key, after the file (repeatable)
//   --dump-config        print the resolved config table and exit
//   --csv PATH           write all statistics as CSV
//   --report             print the full statistics report
//
// A run prints its completion tick, its stats digest and `data:`, the hash
// of its final memory contents (Machine::data_digest).
//
// Subcommands:
//
// `run` and `trace` read only the table's flags and the flags above, plus
// their own: --record, --trace-out, --trace-csv and --trace-capacity are
// `trace` flags, and any other flag is a usage error naming the mode.
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
// [trace.tr] and prints a `replay:` line, `bcsim run` with every machine
// knob that differs from its default and `-k workload.source=trace:<file>`,
// which reproduces the run bit-identically — same digest, same retired-op
// counts. See docs/OBSERVABILITY.md, docs/CONFIGS.md.
//
//   bcsim diff [--flavors wbi,paper,cbl-on-wbi] [--networks omega,mesh]
//              [--seeds N] [--first-seed S] [--programs N]
//              [--first-program S] [--nodes N] [--phases P] [--corpus PATH]
//              [--inject-fault F] [--buffer-depth B] [--dir-limit K]
//              [--dir-overflow O] [--dir-region R] [--budget T]
//              [--config PATH]
//   bcsim model [--tests a,b,...] [--flavors wbi,paper,cbl-on-wbi]
//               [--networks omega,mesh] [--seeds N] [--first-seed S]
//               [--nodes N] [--inject-fault F] [--buffer-depth B]
//               [--dir-limit K] [--dir-overflow O] [--dir-region R]
//               [--print-allowed] [--require-complete] [--budget T]
//               [--config PATH]
//   bcsim chaos [--plans p1,p2,...] [--flavors wbi,paper,cbl-on-wbi]
//               [--networks omega,mesh] [--seeds N] [--first-seed S]
//               [--programs N] [--first-program S] [--nodes N]
//               [--phases P] [--watchdog T] [--stalls K] [--trace-dump N]
//               [--buffer-depth B] [--dir-limit K] [--dir-overflow O]
//               [--dir-region R] [--corpus PATH] [--budget T]
//               [--config PATH]
//   bcsim check [--tests a,b,...] [--flavors wbi,paper,cbl-on-wbi]
//               [--networks omega,mesh] [--seeds N] [--first-seed S]
//               [--nodes N] [--inject-fault F] [--buffer-depth B]
//               [--dir-limit K] [--dir-overflow O] [--dir-region R]
//               [--watchdog T] [--budget T] [--config PATH]
//
// The correctness harnesses, one grid driver (bcsim_harness.hpp): each
// sweeps fault plans x programs x networks x flavors x schedule seeds and
// judges every cell. A cell's machine is built by conf::build_machine, as a
// `run`'s is, from the flavors `--machine` names (paper, wbi, cbl-on-wbi):
// a clash of shared knobs is a usage error before the sweep, naming the
// harness's flags and keys, and a cell whose fault plan touches the network
// gets the 4096-tick watchdog a `run` gets. `diff` runs randomized
// data-race-free programs and requires each run to match the golden
// sequentially-consistent reference; `chaos` does the same with a fault
// plan armed and the liveness watchdog on, and also accepts a
// watchdog/invariant diagnosis; `model` runs the litmus battery and
// requires every observed outcome to be in the axiomatically allowed set,
// reporting per-outcome hit counts (--print-allowed dumps the golden
// tables and exits); `check` runs its battery (lock-counter, rw-lock,
// message-passing, barrier, fuzz; ref/check_battery.hpp) with full
// invariant checking, requires each run to match the SC reference, and
// runs each cell twice: the two runs must agree on completion tick, stats
// digest and data hash. --inject-fault F arms a fault plan on every
// diff/model/check cell, e.g. eager-flush, which breaks the write-buffer
// flush gate to prove the judges catch it.
// A failing cell prints a report and a replay line naming every knob of
// its machine, diff/chaos append it to --corpus (tests/cell_corpus.txt's
// format), and diff/model/check replay it with event tracing. Exit 1 on a
// failing cell. Defaults: all three flavors; diff 8 programs x 4 seeds,
// nodes 8, phases 3, omega; model 16 seeds, nodes 16; chaos 8 seeds x 2
// programs, nodes 8, phases 3, watchdog 4096, stalls 3, trace dump 64,
// budget 5e7 (1e8 otherwise); check 64 seeds, nodes 16 (below 2 is a usage
// error); model, chaos and check sweep omega + mesh. The same rows parse
// these flags and the [diff]/[model]/[chaos]/[check] config keys with one
// range per key: the sweep knobs below, the per-cell knobs in
// ref::cell_keys(), whose machine knobs take the [machine] rows' ranges.
// See docs/TESTING.md, "One program IR, one grid, four judges".
//
// The tool subcommands read their knobs from [diff]/[model]/[chaos]/[check]
// sections; a single preset file can carry a [machine]/[workload]
// description *and* a tool section (each consumer ignores the others').
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
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
  conf::Scenario scenario;
  std::string csv;
  bool report = false;
  // `trace` subcommand
  bool trace = false;
  bool record = false;    ///< --record: primitive (replayable) trace capture
  std::string trace_out;  ///< "" until given: trace.tr with --record, else trace.json
  std::string trace_csv;
};

/// The config table of every mode: the --config file if one is given (an
/// empty table otherwise), then the -k overrides. --dump-config prints the
/// table and exits 0 here, before any schema consumption (the dump is the
/// parser's view).
conf::Table load_table(int first, int argc, char** argv) {
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
  conf::Table t =
      path.empty() ? conf::parse_string("", overrides) : conf::parse_file(path, overrides);
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
  if (argc > 1 && std::strcmp(argv[1], "trace") == 0) {
    o.trace = true;
    first = 2;
  } else if (argc > 1 && std::strcmp(argv[1], "run") == 0) {
    first = 2;  // `run` is the (optional) name of the default mode
  }
  const conf::Table t = load_table(first, argc, argv);
  o.scenario = conf::resolve_scenario(t);
  t.expect_all_consumed({"diff", "model", "chaos", "check"});
  // The flags only `trace` reads: `run` rejects them, so a flag is never
  // silently ignored.
  const std::string_view trace_flags[] = {"--record", "--trace-out", "--trace-csv",
                                          "--trace-capacity"};
  const auto keys = conf::scenario_keys();
  std::vector<conf::Flag> flags;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (!o.trace && std::find(std::begin(trace_flags), std::end(trace_flags), a) !=
                        std::end(trace_flags)) {
      usage_error("`bcsim run` does not read " + a);
    }
    if (a == "--config" || a == "-k") ++i;  // read by load_table
    else if (a == "--dump-config") {}       // read by load_table
    else if (a == "--csv") o.csv = need(i);
    else if (a == "--report") o.report = true;
    else if (a == "--record") o.record = true;
    else if (a == "--trace-out") o.trace_out = need(i);
    else if (a == "--trace-csv") o.trace_csv = need(i);
    else if (a == "--trace-capacity") {
      o.scenario.machine.trace_capacity = conf::parse_u64(a, need(i));
    } else if (std::any_of(keys.begin(), keys.end(),
                           [&](const conf::ScenarioKey& k) { return k.flag == a; })) {
      flags.push_back({a, need(i)});
    } else {
      usage_error("unknown flag '" + a + "'");
    }
  }
  conf::apply_flags(o.scenario, flags);
  // The event-trace recorder serves the Chrome-JSON mode; primitive
  // recording (--record) must leave the machine identical to a plain run
  // so the captured digest matches a replay's.
  o.scenario.machine.trace = o.trace && !o.record;
  if (o.trace_out.empty()) o.trace_out = o.record ? "trace.tr" : "trace.json";
  return o;
}

/// A value as one shell word: quoted when a shell would split or expand it
/// (inline fault specs).
std::string shell_word(const std::string& v) {
  const bool plain = v.find_first_not_of(
                         "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
                         "_.,:=+-/") == std::string::npos;
  return plain ? v : "'" + v + "'";
}

// ---------------------------------------------------------------------------
// `diff` / `model` / `chaos` / `check` flags. A knob every cell shares
// (nodes, phases, fabric, directory, watchdog, budget) is a
// ref::cell_keys() row: flag `--<name>`, config key `<harness>.<name>`
// ('_' for '-'), one range (a machine knob's is its [machine] row's). The
// sweep knobs below follow the same spelling rule; --flavors and
// --networks check each name against the flavor and network rows. The
// same rows parse flags and config keys (so the two always agree on a
// range) and render replay lines (so a replay line carries every knob of
// its cell).
// ---------------------------------------------------------------------------

using tool::Harness;
using tool::HarnessOptions;

template <typename T>
using Field = T HarnessOptions::*;

constexpr unsigned kDiff = ref::bit(Harness::kDiff);
constexpr unsigned kModel = ref::bit(Harness::kModel);
constexpr unsigned kChaos = ref::bit(Harness::kChaos);
constexpr unsigned kCheck = ref::bit(Harness::kCheck);
constexpr unsigned kAll = kDiff | kModel | kChaos | kCheck;

struct Knob {
  const char* name;
  unsigned harnesses;
  std::variant<Field<std::uint64_t>, Field<bool>, Field<std::string>,
               Field<std::vector<std::string>>>
      field;
  std::uint64_t min = 0;  ///< numeric knobs
  bool replayed = true;   ///< false: sweep-wide, never on a one-cell replay line
  /// A list of a machine knob's values, each checked by the [machine] row
  /// of this config key (conf::scenario_keys()).
  const char* row = nullptr;
};

const Knob kKnobs[] = {
    {"tests", kModel | kCheck, &HarnessOptions::tests},
    {"plans", kChaos, &HarnessOptions::plans},
    {.name = "flavors", .harnesses = kAll, .field = &HarnessOptions::flavors,
     .row = "machine.flavor"},
    {.name = "networks", .harnesses = kAll, .field = &HarnessOptions::networks,
     .row = "machine.network"},
    {"seeds", kAll, &HarnessOptions::seeds, 1},
    {"first-seed", kAll, &HarnessOptions::first_seed},
    {"programs", kDiff | kChaos, &HarnessOptions::programs, 1},
    {"first-program", kDiff | kChaos, &HarnessOptions::first_program},
    {"inject-fault", kDiff | kModel | kCheck, &HarnessOptions::inject_fault},
    {"corpus", kDiff | kChaos, &HarnessOptions::corpus, 0, false},
    {"print-allowed", kModel, &HarnessOptions::print_allowed, 0, false},
    {"require-complete", kModel, &HarnessOptions::require_complete, 0, false},
};

/// Sets one sweep knob from its text (a flag value or a config value). A
/// list knob appends.
void apply(HarnessOptions& o, const Knob& k, const std::string& text) {
  std::visit(conf::Overloaded{
                 [&](Field<std::uint64_t> f) { o.*f = conf::parse_u64(k.name, text, k.min); },
                 [&](Field<bool> f) { o.*f = true; },
                 [&](Field<std::string> f) { o.*f = text; },
                 [&](Field<std::vector<std::string>> f) {
                   conf::split_list(text, [&](const std::string& s) {
                     if (k.row != nullptr) {
                       conf::Scenario scratch;
                       conf::set_key(scratch, conf::scenario_key(k.row), s, k.name);
                     }
                     (o.*f).push_back(s);
                   });
                 },
             },
             k.field);
}

/// A sweep knob's value as flag text ("" when a replay line should omit it).
std::string render(const HarnessOptions& o, const Knob& k) {
  return std::visit(conf::Overloaded{
                        [&](Field<std::uint64_t> f) { return std::to_string(o.*f); },
                        [&](Field<bool>) { return std::string(); },
                        [&](Field<std::string> f) { return o.*f; },
                        [&](Field<std::vector<std::string>> f) {
                          std::string s;
                          for (const std::string& item : o.*f) {
                            s += (s.empty() ? "" : ",") + item;
                          }
                          return s;
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
  const conf::Table t = load_table(2, argc, argv);
  // One pass per table; a value's error names its file:line.
  const auto each_key = [&](const char* name, unsigned harnesses, auto set) {
    const std::string key = config_key(h, name);
    if ((harnesses & ref::bit(h)) == 0 || !t.has(key)) return;
    try {
      set(key);
    } catch (const conf::UsageError& e) {
      throw conf::ConfError(t.loc(key), e.what());
    }
  };
  for (const Knob& k : kKnobs) {
    each_key(k.name, k.harnesses, [&](const std::string& key) {
      if (std::holds_alternative<Field<bool>>(k.field)) {
        o.*std::get<Field<bool>>(k.field) = t.get_bool(key, false);
      } else {
        apply(o, k, config_text(t, key, std::holds_alternative<Field<std::uint64_t>>(k.field)));
      }
    });
  }
  for (const ref::CellKey& k : ref::cell_keys()) {
    each_key(k.name, k.harnesses, [&](const std::string& key) {
      // A machine knob's value is text when its [machine] row holds a name.
      const auto* row = std::get_if<std::string_view>(&k.field);
      conf::Scenario scratch;
      const bool text = row != nullptr && std::holds_alternative<std::string*>(
                                              conf::scenario_key(*row).field(scratch));
      ref::set_key(o.cell, k, config_text(t, key, !text));
    });
  }
  std::vector<std::string_view> others = {"machine", "workload"};
  for (const Harness x : {Harness::kDiff, Harness::kModel, Harness::kChaos, Harness::kCheck}) {
    if (x != h) others.push_back(ref::to_string(x));
  }
  t.expect_all_consumed(others);
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--config" || a == "-k") {
      ++i;  // read by load_table
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

std::string tool::spelled(Harness h, std::string_view key) {
  for (const ref::CellKey& k : ref::cell_keys()) {
    const auto* row = std::get_if<std::string_view>(&k.field);
    if (row != nullptr && *row == key && (k.harnesses & ref::bit(h)) != 0) {
      return config_key(h, k.name) + " / --" + k.name;
    }
  }
  return std::string(key);
}

std::string tool::command_line(const HarnessOptions& o) {
  std::string s = std::string("bcsim ") + ref::to_string(o.harness);
  const auto flag = [&](const char* name, const std::string& v) {
    if (!v.empty()) s += std::string(" --") + name + " " + shell_word(v);
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

/// `bcsim trace --record`: run the scenario with the primitive recorder
/// attached and write a replayable trace file. The machine is configured
/// exactly like a plain run (no event-trace recorder), so the digest
/// printed here is what a replay must reproduce.
/// The line that replays a recorded run: `bcsim run`, every machine knob
/// that differs from its default (a key without a flag as `-k key=value`),
/// and the trace as the workload.
std::string replay_line(const conf::Scenario& s, const std::string& trace_file) {
  std::string line = "bcsim run";
  for (const conf::ScenarioKey& k : conf::scenario_keys()) {
    const std::string v = conf::key_text(s, k);
    if (!k.key.starts_with("machine.") || v == conf::key_text({}, k)) continue;
    line += k.flag.empty() ? " -k " + shell_word(std::string(k.key) + "=" + v)
                           : " " + std::string(k.flag) + " " + shell_word(v);
  }
  // A -k value is an expression: a path that is not a bare word (a space,
  // a '+') goes in as a quoted string literal.
  std::string source = "trace:" + trace_file;
  if (source.find_first_not_of("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
                               "_-.:/=;,") != std::string::npos) {
    conf::Value quoted;
    quoted.kind = conf::Value::Kind::kString;
    quoted.s = source;
    source = quoted.repr();
  }
  return line + " -k " + shell_word("workload.source=" + source);
}

int run_record(const Options& o) {
  const conf::MachineSpec& spec = o.scenario.machine;
  core::Machine m(conf::build_machine(spec));
  conf::WorkloadInstance w(m, o.scenario.workload);
  workload::TraceRecorder rec(m);
  const Tick t = m.run();
  rec.detach();
  std::ofstream out(o.trace_out);
  if (!out) {
    std::fprintf(stderr, "bcsim: cannot write %s\n", o.trace_out.c_str());
    return 1;
  }
  rec.trace().write(out);
  std::printf("machine=%s workload=%s nodes=%u seed=%llu\n", spec.flavor.c_str(),
              w.kind().c_str(), spec.nodes, static_cast<unsigned long long>(spec.seed));
  std::printf("completion: %llu cycles\n", static_cast<unsigned long long>(t));
  std::printf("digest:     %016llx\n",
              static_cast<unsigned long long>(m.stats_digest()));
  std::printf("data:       %016llx\n", static_cast<unsigned long long>(m.data_digest()));
  std::printf("recorded:   %zu primitive records -> %s\n", rec.trace().size(),
              o.trace_out.c_str());
  std::printf("replay:     %s\n", replay_line(o.scenario, o.trace_out).c_str());
  return 0;
}

int run(const Options& o) {
  const conf::MachineSpec& spec = o.scenario.machine;
  core::Machine m(conf::build_machine(spec));
  conf::WorkloadInstance w(m, o.scenario.workload);

  const Tick t = m.run();
  std::printf("machine=%s workload=%s nodes=%u seed=%llu\n", spec.flavor.c_str(),
              w.kind().c_str(), spec.nodes, static_cast<unsigned long long>(spec.seed));
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
    for (const Harness h : {Harness::kDiff, Harness::kModel, Harness::kChaos, Harness::kCheck}) {
      if (argc > 1 && std::strcmp(argv[1], ref::to_string(h)) == 0) {
        return tool::run_harness(parse_harness_args(h, argc, argv));
      }
    }
    const Options o = parse_args(argc, argv);
    if (o.record) return run_record(o);
    return run(o);
  } catch (const conf::UsageError& e) {
    std::fprintf(stderr, "bcsim: %s\n(flags: docs/CONFIGS.md, tools/bcsim_cli.cpp)\n", e.what());
    return 2;
  } catch (const conf::ConfError& e) {
    std::fprintf(stderr, "bcsim: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bcsim: %s\n", e.what());
    return 1;
  }
}
