// Parser battery for the declarative config format (src/conf, docs/CONFIGS.md):
// layering and override precedence, expression evaluation, strict-schema
// rejection of malformed input — every failure a ConfError naming the
// offending file:line — and the dump round-trip property. The CLI-level
// contract (every config error exits 2) is pinned by the conf_rejects_*
// ctest entries in tools/CMakeLists.txt.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "conf/conf.hpp"
#include "conf/scenario.hpp"
#include "conf/strict_parse.hpp"

namespace bcsim::conf {
namespace {

/// Runs `fn`, requires it to throw ConfError, and checks the message
/// contains every fragment (typically a "file:line" and the complaint).
template <typename Fn>
void expect_conf_error(Fn&& fn, std::initializer_list<std::string_view> fragments) {
  try {
    fn();
    FAIL() << "expected ConfError";
  } catch (const ConfError& e) {
    const std::string msg = e.what();
    for (const auto f : fragments) {
      EXPECT_NE(msg.find(f), std::string::npos)
          << "expected '" << f << "' in: " << msg;
    }
  }
}

/// Writes `text` to `dir/name` and returns the full path.
std::string write_file(const std::string& dir, const std::string& name,
                       const std::string& text) {
  const std::string path = dir + "/" + name;
  std::ofstream out(path);
  out << text;
  return path;
}

// ---------------------------------------------------------------------------
// Layering: later assignment wins; $(ref) is an eager macro.
// ---------------------------------------------------------------------------

TEST(ConfLayering, LaterAssignmentWins) {
  const Table t = parse_string("[a]\nx = 1\nx = 2\n");
  EXPECT_EQ(t.get_int("a.x", 0), 2);
}

TEST(ConfLayering, ReferencesSeeTheValueAtAssignmentTime) {
  // Eager macro semantics (SESC): y captured x = 2; reassigning x later
  // does not rewrite y.
  const Table t = parse_string("[a]\nx = 2\ny = $(x) * 10\nx = 3\n");
  EXPECT_EQ(t.get_int("a.x", 0), 3);
  EXPECT_EQ(t.get_int("a.y", 0), 20);
}

TEST(ConfLayering, BareReferencesResolveCurrentSectionFirst) {
  const Table t = parse_string(
      "n = 5\n[machine]\nn = 7\nx = $(n)\n[workload]\ny = $(n)\n");
  EXPECT_EQ(t.get_int("machine.x", 0), 7);  // [machine].n shadows global n
  EXPECT_EQ(t.get_int("workload.y", 0), 5); // falls back to the global
}

TEST(ConfLayering, CrossSectionReference) {
  const Table t = parse_string(
      "[machine]\nnodes = 16\n[workload]\ntasks = 16 * $(machine.nodes)\n");
  EXPECT_EQ(t.get_int("workload.tasks", 0), 256);
}

TEST(ConfLayering, IncludeLayersLaterFileOverBase) {
  const std::string dir = ::testing::TempDir();
  write_file(dir, "layer_base.conf", "[m]\nx = 1\ny = 2\n");
  const std::string top = write_file(
      dir, "layer_top.conf", "include \"layer_base.conf\"\n[m]\ny = 3\n");
  const Table t = parse_file(top);
  EXPECT_EQ(t.get_int("m.x", 0), 1);
  EXPECT_EQ(t.get_int("m.y", 0), 3);
}

TEST(ConfLayering, OverridesApplyAfterEveryFile) {
  const Table t =
      parse_string("[a]\nx = 1\n", {{"a.x", "5"}, {"a.y", "$(a.x) + 1"}});
  EXPECT_EQ(t.get_int("a.x", 0), 5);
  EXPECT_EQ(t.get_int("a.y", 0), 6);  // override expressions see prior overrides
}

TEST(ConfLayering, ParseOverrideSplitsAtFirstEquals) {
  const Override o = parse_override("workload.source=trace:a=b.tr");
  EXPECT_EQ(o.key, "workload.source");
  EXPECT_EQ(o.value, "trace:a=b.tr");
  EXPECT_THROW((void)parse_override("no-equals"), std::invalid_argument);
  EXPECT_THROW((void)parse_override("=value"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Expression evaluation.
// ---------------------------------------------------------------------------

TEST(ConfExpr, ArithmeticPrecedenceAndParentheses) {
  const Table t = parse_string(
      "[e]\na = 2 + 3 * 4\nb = (2 + 3) * 4\nc = 10 / 4\nd = 10 % 4\n"
      "e = -7 + 1\nf = 0x10\n");
  EXPECT_EQ(t.get_int("e.a", 0), 14);
  EXPECT_EQ(t.get_int("e.b", 0), 20);
  EXPECT_EQ(t.get_int("e.c", 0), 2);
  EXPECT_EQ(t.get_int("e.d", 0), 2);
  EXPECT_EQ(t.get_int("e.e", 0), -6);
  EXPECT_EQ(t.get_int("e.f", 0), 16);
}

TEST(ConfExpr, BooleansAndComparisons) {
  const Table t = parse_string(
      "[e]\na = true\nb = !false\nc = 3 < 4\nd = 2 + 2 == 4\n"
      "e = true && false\nf = true || false\ng = \"mesh\" == \"omega\"\n");
  EXPECT_TRUE(t.get_bool("e.a", false));
  EXPECT_TRUE(t.get_bool("e.b", false));
  EXPECT_TRUE(t.get_bool("e.c", false));
  EXPECT_TRUE(t.get_bool("e.d", false));
  EXPECT_FALSE(t.get_bool("e.e", true));
  EXPECT_TRUE(t.get_bool("e.f", false));
  EXPECT_FALSE(t.get_bool("e.g", true));
}

TEST(ConfExpr, BareWordsAreStringLiterals) {
  // Enum names, mnemonics, fault-plan specs, and paths need no quotes.
  const Table t = parse_string(
      "[s]\nkind = work-queue\nsource = trace:runs/foo.tr\n"
      "plan = drop:p=0.05;seed=3\nquoted = \"two words\"\n");
  EXPECT_EQ(t.get_string("s.kind", ""), "work-queue");
  EXPECT_EQ(t.get_string("s.source", ""), "trace:runs/foo.tr");
  EXPECT_EQ(t.get_string("s.plan", ""), "drop:p=0.05;seed=3");
  EXPECT_EQ(t.get_string("s.quoted", ""), "two words");
}

TEST(ConfExpr, CommentsStripOutsideQuotes) {
  const Table t = parse_string(
      "# full-line comment\n[s]\nx = 1 + 1  # trailing comment\n"
      "y = \"has # inside\"\n\n");
  EXPECT_EQ(t.get_int("s.x", 0), 2);
  EXPECT_EQ(t.get_string("s.y", ""), "has # inside");
}

// ---------------------------------------------------------------------------
// Malformed input: every rejection is a ConfError naming file:line.
// ---------------------------------------------------------------------------

TEST(ConfErrors, DivisionByZero) {
  expect_conf_error([] { (void)parse_string("[e]\nx = 1 / 0\n"); },
                    {"<string>:2", "division by zero"});
}

TEST(ConfErrors, IntegerOverflow) {
  expect_conf_error(
      [] { (void)parse_string("[e]\nx = 9223372036854775807 + 1\n"); },
      {"<string>:2", "overflow"});
}

TEST(ConfErrors, UndefinedReference) {
  expect_conf_error([] { (void)parse_string("[e]\nx = $(no.such.key)\n"); },
                    {"<string>:2", "$(no.such.key)", "not defined"});
}

TEST(ConfErrors, TrailingTextAfterExpression) {
  expect_conf_error([] { (void)parse_string("[e]\nx = 1 2\n"); },
                    {"<string>:2", "trailing text"});
}

TEST(ConfErrors, UnknownWordInExpression) {
  expect_conf_error([] { (void)parse_string("[e]\nx = mesh + 1\n"); },
                    {"<string>:2", "unknown word 'mesh'"});
}

TEST(ConfErrors, TypeMismatchInOperator) {
  expect_conf_error([] { (void)parse_string("[e]\nx = true + 1\n"); },
                    {"<string>:2", "'+' needs integer operands"});
}

TEST(ConfErrors, MalformedSectionHeader) {
  expect_conf_error([] { (void)parse_string("[machine\nnodes = 4\n"); },
                    {"<string>:1", "section"});
}

TEST(ConfErrors, InvalidKeyName) {
  expect_conf_error([] { (void)parse_string("[m]\n1bad = 2\n"); },
                    {"<string>:2", "invalid key name"});
}

TEST(ConfErrors, LineWithoutEquals) {
  expect_conf_error([] { (void)parse_string("[m]\njust some words\n"); },
                    {"<string>:2", "expected 'key = value'"});
}

TEST(ConfErrors, EmptyValue) {
  expect_conf_error([] { (void)parse_string("[m]\nx =\n"); },
                    {"<string>:2", "empty value"});
}

TEST(ConfErrors, MissingConfigFile) {
  expect_conf_error([] { (void)parse_file("/no/such/config.conf"); },
                    {"/no/such/config.conf", "cannot open"});
}

TEST(ConfErrors, MissingIncludeFile) {
  expect_conf_error(
      [] { (void)parse_string("include \"no-such-file.conf\"\n"); },
      {"<string>:1", "cannot open included file"});
}

TEST(ConfErrors, CyclicIncludeDiagnosed) {
  const std::string dir = ::testing::TempDir();
  const std::string a = write_file(dir, "cycle_a.conf",
                                   "include \"cycle_b.conf\"\n[m]\nx = 1\n");
  write_file(dir, "cycle_b.conf", "include \"cycle_a.conf\"\n");
  expect_conf_error([&] { (void)parse_file(a); },
                    {"cycle_b.conf:1", "cyclic include"});
}

TEST(ConfErrors, SelfIncludeDiagnosed) {
  const std::string dir = ::testing::TempDir();
  const std::string p =
      write_file(dir, "self.conf", "include \"self.conf\"\n");
  expect_conf_error([&] { (void)parse_file(p); },
                    {"self.conf:1", "cyclic include"});
}

// ---------------------------------------------------------------------------
// Typed getters and the strict-schema sweep.
// ---------------------------------------------------------------------------

TEST(ConfTable, GettersEnforceTypeNamingTheSource) {
  const Table t = parse_string("[m]\nname = mesh\nnum = 4\nflag = true\n");
  expect_conf_error([&] { (void)t.get_int("m.name", 0); },
                    {"<string>:2", "must be an integer", "string"});
  expect_conf_error([&] { (void)t.get_string("m.num", ""); },
                    {"<string>:3", "must be a string"});
  expect_conf_error([&] { (void)t.get_bool("m.num", false); },
                    {"<string>:3", "must be a boolean"});
  expect_conf_error([&] { (void)t.get_int("m.flag", 0); },
                    {"<string>:4", "must be an integer"});
}

TEST(ConfTable, UnknownKeyRejectedWithLocation) {
  const Table t = parse_string("[m]\nknown = 1\nbogus = 2\n");
  (void)t.get_int("m.known", 0);
  expect_conf_error([&] { t.expect_all_consumed(); },
                    {"<string>:3", "unknown key 'm.bogus'"});
}

TEST(ConfTable, IgnoredSectionsAreExemptFromTheSweep) {
  const Table t = parse_string("[m]\nknown = 1\n[chaos]\nplans = drop\n");
  (void)t.get_int("m.known", 0);
  t.expect_all_consumed({"chaos"});  // the other tool's preset block
}

TEST(ConfTable, DumpReparsesToTheSameValues) {
  const Table t = parse_string(
      "top = 1\n[m]\nname = mesh\nnum = 2 + 2\nflag = !false\n"
      "quoted = \"a \\\"b\\\" c\"\n[w]\nkind = work-queue\n");
  std::ostringstream os;
  t.dump(os);
  const Table again = parse_string(os.str());
  EXPECT_TRUE(t.same_values(again)) << "dump was:\n" << os.str();
}

// ---------------------------------------------------------------------------
// Scenario resolution (the [machine]/[workload] schema).
// ---------------------------------------------------------------------------

TEST(ConfScenario, ResolvesMachineAndWorkload) {
  const Table t = parse_string(
      "[machine]\nnodes = 8\nflavor = wbi\nnetwork = mesh\n"
      "net_buffer_depth = 2\ndir_limit = 4\ndir_overflow = coarse\n"
      "[workload]\nkind = sync-model\ntasks_per_proc = 6\ngrain = 30\n");
  const Scenario s = resolve_scenario(t);
  t.expect_all_consumed();
  EXPECT_EQ(s.machine.nodes, 8u);
  EXPECT_EQ(s.machine.flavor, "wbi");
  EXPECT_EQ(s.machine.network, "mesh");
  EXPECT_EQ(s.machine.buffer_depth, 2u);
  EXPECT_EQ(s.machine.dir_limit, 4u);
  EXPECT_EQ(s.machine.dir_overflow, "coarse");
  EXPECT_EQ(s.workload.kind, "sync-model");
  EXPECT_EQ(s.workload.sync_model.tasks_per_proc, 6u);
  EXPECT_EQ(s.workload.sync_model.grain, 30u);
}

TEST(ConfScenario, AbsentKeysKeepFlagDefaults) {
  // An empty config resolves to the Scenario's defaults, which are also
  // the defaults of a run given only flags.
  const Table t = parse_string("");
  const Scenario s = resolve_scenario(t);
  const MachineSpec d;
  EXPECT_EQ(s.machine.nodes, d.nodes);
  EXPECT_EQ(s.machine.flavor, d.flavor);
  EXPECT_EQ(s.machine.network, d.network);
  EXPECT_EQ(s.machine.seed, d.seed);
  EXPECT_EQ(s.workload.kind, "work-queue");
  EXPECT_EQ(s.workload.work_queue.total_tasks, 256u);
  EXPECT_EQ(s.workload.work_queue.grain, 100u);
}

TEST(ConfScenario, SourceForcesTraceKindAndToleratesModelKnobs) {
  // `-k workload.source=trace:f.tr` re-drives a config whose [workload]
  // still describes the recorded model; those knobs are provenance, not
  // schema violations.
  const Table t = parse_string(
      "[workload]\nkind = sync-model\ntasks_per_proc = 6\ngrain = 30\n"
      "source = trace:f.tr\n");
  const Scenario s = resolve_scenario(t);
  t.expect_all_consumed();
  EXPECT_EQ(s.workload.kind, "trace");
  EXPECT_EQ(s.workload.trace_file, "f.tr");
}

TEST(ConfScenario, SourceStillRangeChecksModelKnobs) {
  // Provenance knobs are not read, but each value must be one some kind's
  // row of its key accepts: a negative count is the error it is without
  // `source`, naming the -k.
  const Table t = parse_string("[workload]\nkind = work-queue\ntasks = 64\n",
                               {{"workload.source", "trace:f.tr"}, {"workload.tasks", "-5"}});
  expect_conf_error([&] { (void)resolve_scenario(t); },
                    {"-k workload.tasks", "non-negative integer, got '-5'"});
  const Table without = parse_string("[workload]\nkind = work-queue\ntasks = 64\n",
                                     {{"workload.tasks", "-5"}});
  expect_conf_error([&] { (void)resolve_scenario(without); },
                    {"-k workload.tasks", "non-negative integer, got '-5'"});
  // A value one kind's row of the key accepts passes: `sweeps` is the
  // stencil's and the grid's, `grain` the work queue's and the sync model's.
  const Table other_kind = parse_string(
      "[workload]\nkind = grid\nsweeps = 3\ngrain = 40\nsource = trace:f.tr\n");
  EXPECT_EQ(resolve_scenario(other_kind).workload.trace_file, "f.tr");
  other_kind.expect_all_consumed();
}

TEST(ConfScenario, BadSourcePrefixRejected) {
  const Table t = parse_string("[workload]\nsource = file.tr\n");
  expect_conf_error([&] { (void)resolve_scenario(t); },
                    {"<string>:2", "trace:<file>"});
}

TEST(ConfScenario, TraceKindNeedsAFile) {
  const Table t = parse_string("[workload]\nkind = trace\n");
  expect_conf_error([&] { (void)resolve_scenario(t); },
                    {"<string>:2", "source = trace:<file>"});
}

TEST(ConfScenario, UnknownFlavorListsTheChoices) {
  const Table t = parse_string("[machine]\nflavor = dragon\n");
  expect_conf_error([&] { (void)resolve_scenario(t); },
                    {"<string>:2", "dragon", "paper"});
}

TEST(ConfScenario, EveryUnknownNameListsTheChoices) {
  // Every name key (each machine enum, the flavor, the workload kind)
  // rejects an unknown name listing its choices: as a key naming
  // file:line, as a flag naming the flag, and as a MachineSpec field
  // handed to build_machine.
  std::size_t seen = 0;
  for (const ScenarioKey& k : scenario_keys()) {
    if (k.names.empty()) continue;
    ++seen;
    SCOPED_TRACE(std::string(k.key));
    const auto expect_choices = [&](const std::string& msg) {
      EXPECT_NE(msg.find("dragon"), std::string::npos) << msg;
      for (const std::string_view name : k.names) {
        EXPECT_NE(msg.find(name), std::string::npos) << "'" << name << "' missing from: " << msg;
      }
    };
    const std::string section(k.key.substr(0, k.key.find('.')));
    const Table t = parse_string("[" + section + "]\n" +
                                 std::string(k.key.substr(section.size() + 1)) + " = dragon\n");
    try {
      (void)resolve_scenario(t);
      ADD_FAILURE() << "the key accepted 'dragon'";
    } catch (const ConfError& e) {
      EXPECT_NE(std::string(e.what()).find("<string>:2"), std::string::npos) << e.what();
      expect_choices(e.what());
    }
    Scenario s;
    try {
      apply_flags(s, {{std::string(k.flag), "dragon"}});
      ADD_FAILURE() << "the flag accepted 'dragon'";
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find(k.flag), std::string::npos) << e.what();
      expect_choices(e.what());
    }
    if (!k.key.starts_with("machine.")) continue;
    *std::get<std::string*>(k.field(s)) = "dragon";
    try {
      (void)build_machine(s.machine);
      ADD_FAILURE() << "build_machine accepted 'dragon'";
    } catch (const UsageError& e) {
      expect_choices(e.what());
    }
  }
  EXPECT_EQ(seen, 8u) << "flavor, consistency, lock, barrier, network, dir_overflow, "
                         "invariants and the workload kind";
}

TEST(ConfScenario, EveryFlagIsAnotherSpellingOfItsKey) {
  // For every row with a flag: a sample value gives the same Scenario as
  // a flag and as a key (with the row's kind selected), and a value out of
  // the key's range, or an unknown name, is rejected both ways.
  const auto by_flag = [](const ScenarioKey& k, const std::string& text) {
    Scenario s;
    std::vector<Flag> flags;
    if (!k.kind.empty()) flags.push_back({"--workload", std::string(k.kind)});
    flags.push_back({std::string(k.flag), text});
    apply_flags(s, flags);
    return s;
  };
  const auto by_key = [](const ScenarioKey& k, const std::string& text) {
    std::vector<Override> keys;
    if (!k.kind.empty()) keys.push_back({"workload.kind", std::string(k.kind)});
    keys.push_back({std::string(k.key), text});
    const Table t = parse_string("", keys);
    const Scenario s = resolve_scenario(t);
    t.expect_all_consumed();
    return s;
  };
  const auto rejected = [](auto make) {
    try {
      const Scenario s = make();
      (void)build_machine(s.machine);
    } catch (const UsageError&) {
      return true;
    } catch (const ConfError&) {
      return true;
    }
    return false;
  };
  const Scenario defaults;
  std::size_t seen = 0;
  for (const ScenarioKey& k : scenario_keys()) {
    if (k.flag.empty()) continue;
    ++seen;
    SCOPED_TRACE(std::string(k.flag) + " / " + std::string(k.key));
    Scenario probe;
    const KeyField f = k.field(probe);
    std::string sample;
    std::vector<std::string> bad;
    if (std::holds_alternative<std::string*>(f)) {
      sample = k.names.empty() ? "drop" : std::string(k.names[1]);
      bad = {k.names.empty() ? "no-such-plan" : "dragon"};
    } else {
      sample = std::to_string(k.min + 2);
      bad = {"-1", "4x"};
      if (k.min > 0 && !k.per_proc) bad.push_back(std::to_string(k.min - 1));
      const std::uint64_t max = std::holds_alternative<std::uint32_t*>(f)
                                    ? std::min<std::uint64_t>(k.max, UINT32_MAX)
                                    : k.max;
      if (max < UINT64_MAX) bad.push_back(std::to_string(max + 1));
    }
    // --tasks on the sync model counts tasks machine-wide: 16 nodes.
    const std::string flag_sample =
        k.per_proc ? std::to_string((k.min + 2) * defaults.machine.nodes) : sample;
    const Scenario a = by_flag(k, flag_sample);
    const Scenario b = by_key(k, sample);
    EXPECT_EQ(key_text(b, k), sample);
    EXPECT_NE(key_text(b, k), key_text(defaults, k)) << "the sample is the default";
    for (const ScenarioKey& r : scenario_keys()) {
      EXPECT_EQ(key_text(a, r), key_text(b, r)) << r.key;
    }
    for (const std::string& v : bad) {
      EXPECT_TRUE(rejected([&] { return by_flag(k, v); })) << "flag accepted " << v;
      EXPECT_TRUE(rejected([&] { return by_key(k, v); })) << "key accepted " << v;
    }
  }
  EXPECT_EQ(seen, 25u);  // 17 machine flags, --workload and 7 kind rows
}

TEST(ConfScenario, AFlagTheKindDoesNotReadIsAUsageError) {
  for (const auto& [kind, flag] : {std::pair{"solver", "--tasks"}, std::pair{"stencil", "--grain"},
                                   std::pair{"work-queue", "--iters"}}) {
    Scenario s;
    try {
      apply_flags(s, {{flag, "5"}, {"--workload", kind}});
      ADD_FAILURE() << kind << " read " << flag;
    } catch (const UsageError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(flag), std::string::npos) << msg;
      EXPECT_NE(msg.find(kind), std::string::npos) << msg;
    }
  }
  Scenario s;
  EXPECT_THROW(apply_flags(s, {{"--workload", "trace"}}), UsageError);
  EXPECT_THROW(apply_flags(s, {{"--bogus", "1"}}), UsageError);
}

TEST(ConfScenario, FlagsWinOverKeys) {
  const Table t = parse_string("[machine]\nnodes = 4\n[workload]\nkind = sync-model\n"
                               "tasks_per_proc = 6\n");
  Scenario s = resolve_scenario(t);
  apply_flags(s, {{"--tasks", "64"}, {"--nodes", "8"}});
  EXPECT_EQ(s.machine.nodes, 8u);
  EXPECT_EQ(s.workload.sync_model.tasks_per_proc, 8u);  // 64 tasks over the final 8 nodes
}

TEST(ConfScenario, ConsistencyIsAFlavorDefault) {
  EXPECT_EQ(build_machine({.flavor = "paper"}).consistency, core::Consistency::kBuffered);
  EXPECT_EQ(build_machine({.flavor = "wbi"}).consistency, core::Consistency::kSequential);
  EXPECT_EQ(build_machine({.flavor = "cbl-on-wbi"}).consistency, core::Consistency::kSequential);
  EXPECT_EQ(build_machine({.flavor = "paper", .consistency = "sc"}).consistency,
            core::Consistency::kSequential);
  // A given consistency applies on every flavor, so BC on WBI is rejected
  // rather than ignored.
  EXPECT_THROW((void)build_machine({.flavor = "wbi", .consistency = "bc"}), UsageError);
  EXPECT_THROW((void)build_machine({.flavor = "cbl-on-wbi", .consistency = "bc"}), UsageError);
}

TEST(ConfScenario, MachineConflictsNameTheKeysAndFlags) {
  // A combination the machine cannot run names every knob it involves,
  // both as a config key and as a flag.
  const auto expect_usage = [](const MachineSpec& o,
                               std::initializer_list<std::string_view> fragments,
                               const Spelling& spelled = {}) {
    try {
      (void)build_machine(o, spelled);
      FAIL() << "expected UsageError";
    } catch (const UsageError& e) {
      const std::string msg = e.what();
      for (const auto f : fragments) {
        EXPECT_NE(msg.find(f), std::string::npos) << "expected '" << f << "' in: " << msg;
      }
    }
  };
  expect_usage({.flavor = "wbi", .consistency = "bc"},
               {"machine.consistency", "--consistency", "machine.flavor", "--machine", "'bc'",
                "'wbi'"});
  expect_usage({.flavor = "paper", .lock = "tts"},
               {"machine.lock", "--lock", "machine.flavor", "--machine", "'tts'", "'cbl'"});
  expect_usage({.dir_overflow = "coarse"},
               {"machine.dir_overflow", "--dir-overflow", "machine.dir_limit", "--dir-limit"});
  // A caller whose users spell the knobs their own way names them so.
  expect_usage({.dir_overflow = "coarse"},
               {"<machine.dir_overflow> 'coarse' needs <machine.dir_limit>"},
               [](std::string_view key) { return "<" + std::string(key) + ">"; });
}

TEST(ConfScenario, AKeyNoRowNamesIsALogicError) {
  EXPECT_EQ(scenario_key("machine.net_buffer_depth").flag, "--buffer-depth");
  EXPECT_THROW((void)scenario_key("machine.buffer_depth"), std::logic_error);
}

TEST(ConfScenario, ZeroNodesOutOfRange) {
  const Table t = parse_string("[machine]\nnodes = 0\n");
  expect_conf_error([&] { (void)resolve_scenario(t); },
                    {"<string>:2", "out of range"});
}

TEST(ConfScenario, PercentKnobsAreWholePercentages) {
  const Table t = parse_string("[workload]\nkind = work-queue\nread_pct = 85\n");
  const Scenario s = resolve_scenario(t);
  EXPECT_DOUBLE_EQ(s.workload.work_queue.read_ratio, 0.85);
  const Table bad = parse_string("[workload]\nkind = work-queue\nread_pct = 120\n");
  expect_conf_error([&] { (void)resolve_scenario(bad); },
                    {"<string>:3", "out of range", "[0, 100]"});
}

}  // namespace
}  // namespace bcsim::conf
