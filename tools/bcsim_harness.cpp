#include "bcsim_harness.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>

#include "conf/strict_parse.hpp"
#include "ir/run.hpp"
#include "model/battery.hpp"
#include "model/bc_model.hpp"
#include "ref/check_battery.hpp"
#include "ref/ref_machine.hpp"
#include "sim/fault_plan.hpp"

namespace bcsim::tool {

HarnessOptions harness_defaults(Harness h) {
  HarnessOptions o;
  o.harness = h;
  switch (h) {
    case Harness::kDiff:
      o.programs = 8;
      o.seeds = 4;
      o.cell.machine.nodes = 8;
      break;
    case Harness::kModel:
      o.seeds = 16;
      break;
    case Harness::kChaos:
      o.programs = 2;
      o.seeds = 8;
      o.cell.machine.nodes = 8;
      o.cell.machine.watchdog = 4096;
      o.cell.budget = 50'000'000;
      break;
    case Harness::kCheck:
      o.seeds = 64;
      break;
  }
  return o;
}

namespace {

std::string join(const std::vector<std::string>& items) {
  std::string s;
  for (const std::string& item : items) {
    if (!s.empty()) s += ",";
    s += item;
  }
  return s;
}

/// The one-cell options that replay `c` (running battery program `test`
/// for model and check).
HarnessOptions narrow(const HarnessOptions& o, const ref::Cell& c, const std::string& test) {
  HarnessOptions one = o;
  one.cell = c;
  if (!test.empty()) one.tests = {test};
  if (o.harness == Harness::kChaos) one.plans = {c.machine.fault_plan};
  one.flavors = {c.machine.flavor};
  one.networks = {c.machine.network};
  one.seeds = 1;
  one.first_seed = c.machine.schedule_seed;
  one.programs = 1;
  one.first_program = c.program_seed;
  return one;
}

/// Appends a failing cell to the regression corpus (tests/cell_corpus.txt
/// replays every line).
void record(const HarnessOptions& o, const ref::CorpusEntry& e) {
  if (o.corpus.empty()) return;
  std::ofstream out(o.corpus, std::ios::app);
  if (!out) {
    std::fprintf(stderr, "bcsim %s: cannot append to corpus %s\n", to_string(o.harness),
                 o.corpus.c_str());
    return;
  }
  out << ref::format_corpus_line(e) << '\n';
  std::printf("  recorded in corpus: %s\n", o.corpus.c_str());
}

/// The machine a harness runs a cell on. check runs every cell, and its
/// traced replay, with full invariant checking: entry-local checks after
/// every directory transition and the whole-machine sweep at the end.
core::MachineConfig machine_config(Harness h, const ref::Cell& c) {
  core::MachineConfig cfg = ref::cell_config(c);
  if (h == Harness::kCheck) cfg.invariants = sim::InvariantLevel::kFull;
  return cfg;
}

/// Replays a failing cell with the event-trace recorder on: the tail of
/// the interleaving goes to stderr (docs/OBSERVABILITY.md).
void replay_traced(Harness h, const ir::Program& prog, const ref::Cell& c) {
  std::printf("  replaying with event tracing enabled...\n");
  std::fflush(stdout);
  core::MachineConfig cfg = machine_config(h, c);
  cfg.trace = true;
  (void)ir::run_program(prog, cfg, c.budget, &std::cerr);
}

void print_violation(const ir::Program& t, const std::vector<model::Outcome>& allowed,
                     const ir::RunResult& run, const ref::Cell& c) {
  std::printf("model: SOUNDNESS VIOLATION\n");
  std::printf("  litmus=%s flavor=%s network=%s schedule_seed=%llu\n", t.name.c_str(),
              c.machine.flavor.c_str(), c.machine.network.c_str(),
              static_cast<unsigned long long>(c.machine.schedule_seed));
  if (!run.error.empty()) {
    std::printf("  machine error: %s\n", run.error.c_str());
    return;
  }
  const model::Outcome got = model::outcome_of(run.loads, run.final_locs);
  std::printf("  observed: %s\n", model::render_outcome(t, got).c_str());
  const int div = model::first_divergence(allowed, got);
  std::vector<ir::Observation> loads;
  for (const auto& per_thread : run.loads) {
    loads.insert(loads.end(), per_thread.begin(), per_thread.end());
  }
  if (div >= 0 && static_cast<std::size_t>(div) < loads.size()) {
    const ir::Observation& l = loads[static_cast<std::size_t>(div)];
    std::printf(
        "  first divergent read: %s = %llu at tick %llu — no allowed outcome matches "
        "the observed loads up to this point\n",
        model::load_label(t, static_cast<std::size_t>(div)).c_str(),
        static_cast<unsigned long long>(l.value), static_cast<unsigned long long>(l.tick));
  } else {
    std::printf(
        "  every observed load prefix is allowed; the final memory state matches no "
        "allowed outcome with these loads\n");
  }
}

}  // namespace

int run_harness(const HarnessOptions& o) {
  const Harness h = o.harness;
  const char* name = to_string(h);
  const bool model = h == Harness::kModel;
  // model and check run a fixed battery; diff and chaos a range of DRF
  // program seeds.
  const bool battery_axis = model || h == Harness::kCheck;
  const auto usage = [&](const std::string& msg) {
    std::fprintf(stderr, "bcsim %s: %s\n", name, msg.c_str());
    return 2;
  };

  // Fault plans: chaos sweeps a list — by default one plan per fault class,
  // plus a retries-off plan whose cells must come back *diagnosed* — while
  // diff and model arm one (or none) on every cell. Each is resolved up
  // front so a typo is a usage error, not a failure half-way through.
  std::vector<std::string> plans = {o.inject_fault};
  if (h == Harness::kChaos) {
    plans = o.plans;
    if (plans.empty()) plans = {"drop", "dup", "delay", "corrupt", "stall", "drop-noretry"};
  }
  std::vector<sim::FaultPlan> resolved;
  for (const std::string& p : plans) {
    try {
      resolved.push_back(p.empty() ? sim::FaultPlan{} : sim::resolve_fault_plan(p));
    } catch (const std::invalid_argument& e) {
      return usage(e.what());
    }
  }
  std::vector<std::string> flavors = o.flavors;
  if (flavors.empty()) flavors = {"wbi", "paper", "cbl-on-wbi"};
  // Uniform-cost omega vs the mesh's distance-dependent paths stress
  // different reorder windows (docs/TESTING.md).
  std::vector<std::string> networks = o.networks;
  if (networks.empty()) networks = {"omega"};
  if (o.networks.empty() && h != Harness::kDiff) networks.push_back("mesh");

  // The program axis: the selected litmus tests or check programs, or a
  // range of DRF seeds. rw-lock and message-passing put their writer and
  // readers on different processors, and a processor runs one program.
  const std::uint32_t nodes = o.cell.machine.nodes;
  if (h == Harness::kCheck && nodes < 2) {
    return usage("check needs --nodes >= 2, --nodes is " + std::to_string(nodes));
  }
  const std::vector<ir::Program> battery =
      model ? model::litmus_battery()
            : h == Harness::kCheck ? ref::check_battery(nodes) : std::vector<ir::Program>{};
  std::vector<const ir::Program*> tests;
  for (const ir::Program& t : battery) {
    if (o.tests.empty()) tests.push_back(&t);
  }
  for (const std::string& test : o.tests) {
    const ir::Program* t = model::find_litmus(battery, test);
    if (t == nullptr) {
      return usage(std::string(model ? "unknown litmus test '" : "unknown check program '") +
                   test + "'");
    }
    tests.push_back(t);
  }
  if (o.print_allowed) {
    for (const ir::Program* t : tests) {
      std::fputs(model::render_allowed(*t, model::enumerate_allowed(*t)).c_str(), stdout);
    }
    return 0;
  }
  for (const ir::Program* t : tests) {
    if (t->threads.size() > nodes) {
      return usage("litmus '" + t->name + "' needs " + std::to_string(t->threads.size()) +
                   " nodes, --nodes is " + std::to_string(nodes));
    }
  }
  const std::uint64_t n_programs = battery_axis ? tests.size() : o.programs;

  const auto cell_at = [&](std::size_t pi, std::uint64_t ps, const std::string& network,
                           const std::string& flavor, std::uint64_t s) {
    ref::Cell c = o.cell;
    c.machine.flavor = flavor;
    c.machine.network = network;
    c.program_seed = ps;
    c.machine.schedule_seed = s;
    c.machine.fault_plan = plans[pi];
    // chaos: the fault seed doubles as the schedule seed, so each lottery
    // pattern also runs under a distinct interleaving.
    c.fault_seed = h == Harness::kChaos ? s : resolved[pi].seed;
    return c;
  };
  // Knobs every cell shares may clash (a coarse directory needs a pointer
  // budget): a usage error naming this harness's keys, before the sweep
  // starts. Each plan's first machine also shows the watchdog the plan's
  // cells run under: build_machine arms its default for a network plan.
  std::vector<std::string> watchdogs;
  try {
    for (std::size_t pi = 0; pi < plans.size(); ++pi) {
      const ref::Cell first = cell_at(pi, o.first_program, networks[0], flavors[0], o.first_seed);
      const core::MachineConfig cfg = conf::build_machine(
          first.machine, [&](std::string_view key) { return spelled(h, key); });
      watchdogs.push_back(std::to_string(cfg.watchdog_interval));
    }
  } catch (const conf::UsageError& e) {
    return usage(e.what());
  }
  const bool one_watchdog = std::all_of(watchdogs.begin(), watchdogs.end(),
                                        [&](const std::string& w) { return w == watchdogs[0]; });

  const std::string flavor_list = join(flavors);
  const std::string network_list = join(networks);
  const std::string fault =
      o.inject_fault.empty() ? std::string() : ", injected fault: " + o.inject_fault;
  const auto llu = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };
  switch (h) {
    case Harness::kDiff:
      std::printf("diff: %llu programs x %llu schedules x {%s}, nodes=%u, phases=%u%s\n",
                  llu(o.programs), llu(o.seeds), flavor_list.c_str(), nodes, o.cell.phases,
                  fault.c_str());
      break;
    case Harness::kModel:
      std::printf("model: %zu litmus tests x {%s} x {%s} x %llu seeds, nodes=%u%s\n",
                  tests.size(), flavor_list.c_str(), network_list.c_str(), llu(o.seeds), nodes,
                  fault.c_str());
      break;
    case Harness::kChaos:
      // One watchdog per plan, in plan order, when the plans differ.
      std::printf("chaos: {%s} x %zu flavors x %zu networks x %llu seeds x %llu programs, "
                  "nodes=%u, phases=%u, watchdog=%s\n",
                  join(plans).c_str(), flavors.size(), networks.size(), llu(o.seeds),
                  llu(o.programs), nodes, o.cell.phases,
                  (one_watchdog ? watchdogs[0] : "{" + join(watchdogs) + "}").c_str());
      break;
    case Harness::kCheck:
      std::printf("check: %zu programs x {%s} x {%s} x %llu seeds, nodes=%u, invariants=full%s\n",
                  tests.size(), flavor_list.c_str(), network_list.c_str(), llu(o.seeds), nodes,
                  fault.c_str());
      break;
  }

  std::uint64_t cells = 0;
  std::uint64_t bad = 0;
  bool incomplete = false;
  std::map<ref::Verdict, std::uint64_t> counts;
  for (std::size_t pi = 0; pi < plans.size(); ++pi) {
    std::map<ref::Verdict, std::uint64_t> plan_counts;
    for (std::uint64_t k = 0; k < n_programs; ++k) {
      // The program and its judge's ground truth: the allowed outcome set,
      // or the SC reference run.
      const std::uint64_t ps = o.first_program + k;
      const ir::Program prog =
          battery_axis ? *tests[k]
                       : ref::cell_program(cell_at(pi, ps, networks[0], flavors[0], o.first_seed));
      std::vector<model::Outcome> allowed;
      std::map<model::Outcome, std::uint64_t> hits;
      ref::RefResult sc;
      if (model) {
        allowed = model::enumerate_allowed(prog);
      } else {
        // A generator self-check too: a DRF program's comparison stream
        // must not depend on the reference schedule.
        sc = ref::RefMachine(prog, 1).run();
        const ref::RefResult sc2 = ref::RefMachine(prog, 0x9e3779b97f4a7c15ULL).run();
        if (sc.deadlocked || !ref::ref_results_agree(sc, sc2)) {
          const std::string which = battery_axis ? prog.name : "program seed " + std::to_string(ps);
          std::printf("%s: GENERATOR BUG at %s\n", name, which.c_str());
          std::printf(
              "  two reference schedules disagree (or deadlock) — the program is not "
              "DRF; fix the generator before trusting any comparison\n");
          return 1;
        }
      }
      for (const std::string& network : networks) {
        for (const std::string& flavor : flavors) {
          for (std::uint64_t s = o.first_seed; s < o.first_seed + o.seeds; ++s) {
            ref::Cell cell = cell_at(pi, ps, network, flavor, s);
            const core::MachineConfig cfg = machine_config(h, cell);
            // The cell's line and replay show the watchdog its machine
            // runs under (build_machine arms one for network faults).
            cell.machine.watchdog = cfg.watchdog_interval;
            ++cells;
            const auto replay = [&] {
              return command_line(narrow(o, cell, battery_axis ? prog.name : std::string()));
            };

            if (model) {
              const ir::Program warm = model::with_warmup(prog, s);
              const ir::RunResult run = ir::run_program(warm, cfg, cell.budget);
              const model::Outcome got = model::outcome_of(run.loads, run.final_locs);
              if (run.error.empty() && model::outcome_allowed(allowed, got)) {
                ++hits[got];
                continue;
              }
              print_violation(prog, allowed, run, cell);
              std::printf("  replay: %s\n", replay().c_str());
              replay_traced(h, warm, cell);
              return 1;
            }
            const ir::RunResult run = ir::run_program(prog, cfg, cell.budget);
            ref::CellOutcome out = ref::judge(sc, run, cfg.block_words);
            if (h == Harness::kCheck && out.verdict == ref::Verdict::kTransparent) {
              // The same cell on a fresh machine must replay exactly.
              const ir::RunResult again = ir::run_program(prog, cfg, cell.budget);
              if (again.completion != run.completion || again.digest != run.digest ||
                  again.data != run.data) {
                out = {ref::Verdict::kWrong,
                       "nondeterministic: two runs of the cell differ in completion tick, stats "
                       "digest or data hash"};
              }
            }
            ++plan_counts[out.verdict];
            ++counts[out.verdict];
            // chaos also accepts a diagnosed cell; diff and check only a
            // transparent one.
            const bool fails = h == Harness::kChaos ? out.verdict == ref::Verdict::kWrong ||
                                                          out.verdict == ref::Verdict::kHung
                                                    : out.verdict != ref::Verdict::kTransparent;
            if (!fails) continue;
            ++bad;
            if (h == Harness::kCheck) {
              // A corpus line would name a DRF program; this cell runs a
              // battery program.
              std::printf("check: %s cell: program=%s flavor=%s network=%s schedule=%llu\n",
                          ref::to_string(out.verdict), prog.name.c_str(),
                          cell.machine.flavor.c_str(), cell.machine.network.c_str(), llu(s));
            } else {
              std::printf("%s: %s cell\n", name, ref::to_string(out.verdict));
              std::printf("  cell: %s\n", ref::format_corpus_line({cell, out.verdict}).c_str());
            }
            std::printf("  %s\n", out.detail.c_str());
            std::printf("  replay: %s\n", replay().c_str());
            if (h == Harness::kChaos) {
              record(o, {cell, out.verdict});
              continue;
            }
            // diff pins the fault-free scenario, which must be transparent
            // (check has no corpus).
            ref::Cell scenario = cell;
            scenario.machine.fault_plan.clear();
            scenario.fault_seed = 0;
            scenario.machine.watchdog = 0;
            record(o, {scenario, ref::Verdict::kTransparent});
            replay_traced(h, prog, cell);
            return 1;
          }
        }
      }
      if (!model) continue;
      std::size_t hit = 0;
      for (const model::Outcome& a : allowed) hit += hits.contains(a) ? 1 : 0;
      std::printf("  %-16s sound; %zu/%zu allowed outcomes observed\n", prog.name.c_str(), hit,
                  allowed.size());
      for (const model::Outcome& a : allowed) {
        const auto it = hits.find(a);
        const std::uint64_t n = it == hits.end() ? 0 : it->second;
        std::printf("    %8llu  %s%s\n", llu(n), model::render_outcome(prog, a).c_str(),
                    n == 0 ? "   [unhit]" : "");
        if (n == 0) incomplete = true;
      }
    }
    if (h != Harness::kChaos) continue;
    std::printf("chaos: plan %-14s transparent=%llu diagnosed=%llu wrong=%llu hung=%llu\n",
                plans[pi].c_str(), llu(plan_counts[ref::Verdict::kTransparent]),
                llu(plan_counts[ref::Verdict::kDiagnosed]),
                llu(plan_counts[ref::Verdict::kWrong]), llu(plan_counts[ref::Verdict::kHung]));
  }

  switch (h) {
    case Harness::kDiff:
      std::printf("diff: OK (%llu comparisons, every one matched the SC reference)\n",
                  llu(cells));
      return 0;
    case Harness::kModel:
      if (o.require_complete && incomplete) {
        std::printf(
            "model: INCOMPLETE — allowed outcomes above are marked [unhit]; raise --seeds "
            "or drop --require-complete\n");
        return 1;
      }
      std::printf("model: OK (%llu runs, every observed outcome was allowed)\n", llu(cells));
      return 0;
    case Harness::kCheck:
      std::printf(
          "check: OK (%llu cells, each matched the SC reference twice with every invariant "
          "intact)\n",
          llu(cells));
      return 0;
    case Harness::kChaos:
      break;
  }
  std::printf("chaos: %llu cells: %llu transparent, %llu diagnosed, %llu wrong, %llu hung\n",
              llu(cells), llu(counts[ref::Verdict::kTransparent]),
              llu(counts[ref::Verdict::kDiagnosed]), llu(counts[ref::Verdict::kWrong]),
              llu(counts[ref::Verdict::kHung]));
  if (bad != 0) {
    std::printf("chaos: FAIL — %llu cell(s) neither transparent nor diagnosed\n", llu(bad));
    return 1;
  }
  std::printf("chaos: every cell transparent or diagnosed\n");
  return 0;
}

}  // namespace bcsim::tool
