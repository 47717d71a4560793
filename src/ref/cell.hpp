// One grid cell of the correctness harnesses, its machine configuration,
// its verdict against the SC reference, and the corpus line that pins it
// (docs/TESTING.md, "One program IR, one grid, four judges").
//
// `bcsim diff`, `model`, `chaos` and `check` sweep the same grid — fault
// plans x programs x networks x flavors x schedule seeds — and build every
// machine through cell_config(), which builds it with conf::build_machine
// as `bcsim run` does. A DRF cell (diff, chaos) or a check cell is judged
// against the golden SC reference:
//
//   * transparent — the run completed and is indistinguishable from the
//     reference; retries/NACKs masked every injected fault. DRF
//     observations are schedule-independent, so delay and retransmission
//     noise cannot produce false alarms;
//   * diagnosed — the run terminated with a liveness-watchdog or
//     invariant diagnosis (e.g. retries disabled and a message lost);
//   * wrong — the run completed but diverged from the reference;
//   * hung — the run died without a diagnosis (bare budget exhaustion,
//     unexpected exception): the watchdog missed it.
//
// diff and check accept only transparent; chaos accepts transparent or
// diagnosed. A litmus cell (model) is judged by BC allowed-set membership
// instead (model/bc_model.hpp). A model or check cell runs a program of a
// fixed battery, so its program seed and phases are unused.
//
// Each field has one name and one range (cell_keys()): a corpus line, a
// harness flag, a config key and a replay line all spell it the same way,
// and a machine knob takes the range or names of its [machine] row
// (conf::scenario_keys()).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "conf/scenario.hpp"
#include "core/config.hpp"
#include "ref/diff.hpp"

namespace bcsim::ref {

/// Every field that builds the cell's run: its machine, built by
/// conf::build_machine like a `run`'s, the DRF program it runs and the
/// tick budget it runs under.
struct Cell {
  /// Flavor, network, nodes, schedule seed, fault plan, and the fabric,
  /// directory and watchdog knobs. A network fault plan with watchdog 0
  /// runs under build_machine's default watchdog.
  conf::MachineSpec machine;
  std::uint64_t program_seed = 0;
  std::uint32_t phases = 3;
  std::uint64_t fault_seed = 0;  ///< replaces the fault plan's lottery seed
  Tick budget = 100'000'000;     ///< a run still going at this tick is hung
};

/// The harnesses that sweep cells (tools/bcsim_harness.hpp).
enum class Harness : std::uint8_t { kDiff, kModel, kChaos, kCheck };

[[nodiscard]] const char* to_string(Harness h) noexcept;

[[nodiscard]] constexpr unsigned bit(Harness h) noexcept {
  return 1u << static_cast<unsigned>(h);
}

/// One Cell field under its one name: the corpus key `<name>=`, and for
/// the harnesses in `harnesses` also the flag `--<name>` and the config
/// key `<harness>.<name>` (with '_' for '-'). Every spelling shares the
/// key's range.
struct CellKey {
  const char* name;
  /// A machine knob: the config key of its conf::scenario_keys() row, whose
  /// range or name set it takes. Otherwise a field of the cell's own.
  std::variant<std::string_view, std::uint64_t Cell::*, std::uint32_t Cell::*> field;
  unsigned harnesses = 0;  ///< 0: a swept axis, which only a corpus line names
  bool always = false;     ///< required on a corpus line
  std::uint32_t min = 0;   ///< the cell's own numeric fields; the maximum is the type's
};

/// Every cell key, in corpus-line order.
[[nodiscard]] std::span<const CellKey> cell_keys() noexcept;

/// Sets a key's field from its text. Throws conf::UsageError for a
/// malformed or out-of-range value (or an unknown flavor, network, plan).
void set_key(Cell& c, const CellKey& k, const std::string& text);

/// A key's field as text, the value a corpus line or replay flag carries.
[[nodiscard]] std::string key_text(const Cell& c, const CellKey& k);

/// The cell's machine, conf::build_machine's, with the cell's fault seed
/// and quiescent-level invariants (the judge is the whole-execution check;
/// the invariant sweep is a cheap backstop). Throws conf::UsageError where
/// build_machine does (a coarse directory without a pointer limit).
[[nodiscard]] core::MachineConfig cell_config(const Cell& c);

enum class Verdict : std::uint8_t { kTransparent, kDiagnosed, kWrong, kHung };

[[nodiscard]] const char* to_string(Verdict v) noexcept;

struct CellOutcome {
  Verdict verdict = Verdict::kHung;
  std::string detail;  ///< divergence, diagnosis headline or error text
};

/// The SC-reference judge: classifies one machine run of a DRF program.
[[nodiscard]] CellOutcome judge(const RefResult& ref, const ir::RunResult& run,
                                std::uint32_t block_words);

/// The cell's DRF program (ref/drf_program.hpp): program seed, nodes, phases.
[[nodiscard]] ir::Program cell_program(const Cell& c);

/// Runs the cell's DRF program on the cell's machine within the cell's
/// budget and judges it against the program's SC reference run.
/// Simulation failures never throw (they classify the cell); a machine
/// cell_config rejects does.
[[nodiscard]] CellOutcome run_cell(const Cell& c);

/// One corpus line: a cell and the verdict it must reproduce.
struct CorpusEntry {
  Cell cell;
  Verdict expected = Verdict::kTransparent;
};

/// Corpus line format (whitespace-separated, '#' comments):
///   <verdict> key=value ...
/// with the cell_keys() names. flavor, network, nodes, program, phases and
/// schedule are required; an absent optional key keeps the Cell default,
/// and format writes one only when it differs from the default. parse
/// returns nullopt for comments/blank lines and throws
/// std::invalid_argument on a malformed line (unknown, repeated or missing
/// key, bad value, unknown plan).
[[nodiscard]] std::optional<CorpusEntry> parse_corpus_line(const std::string& line);
[[nodiscard]] std::string format_corpus_line(const CorpusEntry& e);

/// Loads every entry of a corpus file; throws std::runtime_error when the
/// file cannot be opened, std::invalid_argument on a malformed line (with
/// its line number).
[[nodiscard]] std::vector<CorpusEntry> load_corpus(const std::string& path);

}  // namespace bcsim::ref
