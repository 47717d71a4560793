// `bcsim diff`, `model`, `chaos`, `check` — one grid driver for the four
// correctness harnesses (docs/TESTING.md, "One program IR, one grid, four
// judges").
//
// Every harness sweeps the same grid, fault plans x programs x networks x
// flavors x schedule seeds, builds each machine through ref::cell_config
// (conf::build_machine, as `bcsim run` does) and runs each program through
// ir::run_program. They differ in the program axis and the judge:
//
//   * diff  — seeded DRF programs (ref/drf_program.hpp) judged against the
//     golden SC reference; only a transparent cell passes. The first other
//     cell prints a divergence report naming node/op/location/address/
//     block/tick, a replay line, is appended to --corpus, and is replayed
//     with event tracing on.
//   * chaos — the same programs and judge with a fault plan armed and the
//     liveness watchdog on; transparent and diagnosed cells pass, every
//     wrong/hung cell prints a replay line and is appended to --corpus.
//   * model — the litmus battery (model/battery.hpp), each run judged by
//     membership in the BC allowed set (model/bc_model.hpp), with
//     per-outcome hit counts; a violation prints the first divergent read
//     and a replay line and is replayed with tracing on.
//   * check — the check battery (ref/check_battery.hpp) judged against the
//     SC reference at full invariant level; each cell runs twice and must
//     repeat its completion tick, stats digest and data hash. The first
//     failing cell prints its program, the divergence or diagnosis and a
//     replay line, and is replayed with tracing on.
//
// Replay lines are rendered from the failing cell through the flag table
// (command_line), so every knob that built the cell's machine is on them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ref/cell.hpp"

namespace bcsim::tool {

using ref::Harness;

/// The options of all four harnesses. A field a harness has no flag for
/// keeps its default there.
struct HarnessOptions {
  Harness harness = Harness::kDiff;
  /// The knobs every cell shares (nodes, phases, fabric, directory,
  /// watchdog, budget: the keys ref::cell_keys() gives flags); the sweep
  /// sets each cell's flavor, network, program, schedule and fault plan.
  ref::Cell cell;
  std::vector<std::string> tests;  ///< model, check: battery subset; empty = all
  std::vector<std::string> plans;  ///< chaos: fault plans; empty = the default battery
  /// diff/model/check: one fault plan (registry name or inline spec)
  /// armed on every cell; "" = none. Proves the judges catch a broken
  /// flush gate.
  std::string inject_fault;
  /// Flavor names; empty = wbi, paper, cbl-on-wbi.
  std::vector<std::string> flavors;
  std::vector<std::string> networks;  ///< empty = omega (diff), omega + mesh
  std::uint64_t seeds = 0;        ///< schedule seeds per point (chaos: also fault seeds)
  std::uint64_t first_seed = 0;
  std::uint64_t programs = 0;     ///< DRF program seeds (diff, chaos)
  std::uint64_t first_program = 0;
  std::string corpus;              ///< diff/chaos: append failing cells here
  bool print_allowed = false;      ///< model: print the golden tables and exit
  bool require_complete = false;   ///< model: unhit allowed outcomes fail the run
};

/// Each harness's defaults (the values its flags and config keys start from).
[[nodiscard]] HarnessOptions harness_defaults(Harness h);

/// The `bcsim <harness> ...` command line that reproduces `o`. Defined
/// next to the flag table in bcsim_cli.cpp.
[[nodiscard]] std::string command_line(const HarnessOptions& o);

/// How `h`'s usage errors name the knob of [machine] config key `key`: the
/// harness key and flag of the cell key `h` reads through that row
/// ("check.dir_limit / --dir-limit"), else `key` itself. Defined next to
/// the flag table in bcsim_cli.cpp.
[[nodiscard]] std::string spelled(Harness h, std::string_view key);

/// Runs the sweep. Exit code: 0 when every cell passed its judge, 1 on a
/// failing cell (or an unmet --require-complete), 2 on bad options.
int run_harness(const HarnessOptions& o);

}  // namespace bcsim::tool
