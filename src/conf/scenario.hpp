// Scenario: the one construction path from a declarative description —
// `run`/`trace` flags or a resolved config Table — to a live MachineConfig
// and workload. One key table (scenario_keys()) reads both: each
// [machine]/[workload] knob is one row naming its config key, its flag
// spelling (if it has one), its field and its one range or name set, so a
// flag-built run is bit-identical to the config run with the same keys
// (tests/test_configs.cpp and the conf_*_matches_flags ctest entries pin
// this). docs/CONFIGS.md lists the rows.
#pragma once

#include <functional>
#include <iosfwd>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "conf/conf.hpp"
#include "core/config.hpp"
#include "workload/fft_phases.hpp"
#include "workload/grid_stencil.hpp"
#include "workload/linear_solver.hpp"
#include "workload/stencil.hpp"
#include "workload/sync_model.hpp"
#include "workload/trace.hpp"
#include "workload/work_queue_model.hpp"

namespace bcsim::conf {

/// Machine description in flag vocabulary (names, not enums); the
/// defaults are the [machine] keys' defaults.
struct MachineSpec {
  std::uint32_t nodes = 16;
  std::string flavor = "paper";  ///< paper | wbi | cbl-on-wbi
  std::string consistency{};     ///< empty: the flavor's default
  std::string lock{};            ///< empty: the flavor's default
  std::string barrier{};         ///< empty: the flavor's default
  std::string network = "omega";
  std::uint32_t buffer_depth = 0;
  std::uint32_t dir_limit = 0;
  std::string dir_overflow = "broadcast";
  std::uint32_t dir_region = 4;
  std::uint32_t block_words = 4;
  std::uint64_t seed = 1;
  std::uint64_t schedule_seed = 0;
  std::string invariants = "off";
  std::string fault_plan{};
  std::uint64_t watchdog = 0;
  std::uint32_t watchdog_stalls = 3;
  std::uint64_t trace_dump = 64;
  bool trace = false;  ///< event-trace recorder (the `trace` subcommand)
  std::size_t trace_capacity = std::size_t{1} << 16;
};

/// How a usage error names the knob of a [machine] config key, for a
/// caller whose users spell the knobs their own way.
using Spelling = std::function<std::string(std::string_view key)>;

/// Resolves a MachineSpec into a validated MachineConfig: the flavor sets
/// the data protocol and the default consistency, lock and barrier; a
/// given consistency, lock or barrier replaces its default. Unknown names
/// and a configuration cfg.validate() rejects (BC on a WBI flavor, a
/// software lock on the paper machine) throw UsageError, which names each
/// knob by `spelled` ("machine.lock / --lock" when none is given).
[[nodiscard]] core::MachineConfig build_machine(const MachineSpec& spec,
                                                const Spelling& spelled = {});

/// Workload description: one of the six built-in models (each carrying
/// its full knob struct) or a trace replay.
struct WorkloadSpec {
  std::string kind = "work-queue";
  std::string trace_file;  ///< kind == "trace": path to the replay trace
  workload::WorkQueueConfig work_queue;
  workload::SyncModelConfig sync_model;
  workload::LinearSolverConfig solver;
  workload::StencilConfig stencil;
  workload::GridStencilConfig grid;
  workload::FftPhasesConfig fft;
};

struct Scenario {
  MachineSpec machine;
  WorkloadSpec workload;
};

/// A knob's field: a number, a whole percentage (held as a ratio), a
/// boolean, or a name or text.
using KeyField = std::variant<std::uint32_t*, std::uint64_t*, double*, bool*, std::string*>;

/// One [machine] or [workload] knob. resolve_scenario() reads its config
/// key through the row and apply_flags() its flag, so the two spellings
/// share one default (the Scenario's) and one range.
struct ScenarioKey {
  std::string_view key;   ///< "machine.nodes"
  std::string_view flag;  ///< "--nodes"; "" when only the key spells it
  std::string_view kind;  ///< the workload kind that reads it; "" for every run
  KeyField (*field)(Scenario&);
  /// A name's choices; a name key also accepts its default, so an empty
  /// lock, barrier or consistency keeps the flavor's.
  std::span<const std::string_view> names{};
  std::uint64_t min = 0;  ///< numbers; a percentage is also at most 100
  std::uint64_t max = std::numeric_limits<std::uint64_t>::max();  ///< capped by the field's type
  /// The flag counts tasks machine-wide and the key per processor: the
  /// key is max(1, flag / nodes).
  bool per_proc = false;
};

/// Every row: the machine keys, `workload.kind`, then each kind's keys.
[[nodiscard]] std::span<const ScenarioKey> scenario_keys() noexcept;

/// The first row of config key `key`; a [machine] key has exactly one.
/// Throws std::logic_error when no row names `key`.
[[nodiscard]] const ScenarioKey& scenario_key(std::string_view key);

/// A row's field as text, the value its flag or key takes.
[[nodiscard]] std::string key_text(Scenario s, const ScenarioKey& k);

/// Sets a row's field from its text, the value its flag takes. Throws
/// UsageError naming `what` for a malformed, out-of-range or unknown value.
void set_key(Scenario& s, const ScenarioKey& k, const std::string& text, const std::string& what);

/// Resolves the [machine] and [workload] sections of a parsed config into
/// a Scenario, consuming every key it understands. Schema violations
/// (bad type, out of range, unknown enum name) throw ConfError naming
/// the offending key's file:line. The caller finishes with
/// Table::expect_all_consumed to reject unknown keys.
[[nodiscard]] Scenario resolve_scenario(const Table& t);

/// A `run`/`trace` flag and its value text.
struct Flag {
  std::string name;  ///< "--nodes"
  std::string value;
};

/// Applies flags over a resolved Scenario through the rows (flags win over
/// the file and -k): the machine flags and --workload first, then each
/// flag of the selected kind, so --tasks on the sync model divides by the
/// final node count. Throws UsageError naming the flag for a bad value, a
/// flag no row spells, a flag the selected kind does not read, or a trace
/// kind without a file.
void apply_flags(Scenario& s, const std::vector<Flag>& flags);

/// Constructs the selected workload on a machine and registers its
/// programs (spawn_all). Keeps the workload object alive for post-run
/// queries; the typed accessors return nullptr for the other kinds.
class WorkloadInstance {
 public:
  /// Throws UsageError for an unknown kind, std::invalid_argument for an
  /// unreadable/malformed trace file.
  WorkloadInstance(core::Machine& m, const WorkloadSpec& spec);

  [[nodiscard]] const std::string& kind() const noexcept { return kind_; }
  [[nodiscard]] workload::WorkQueueWorkload* work_queue() noexcept { return wq_.get(); }
  [[nodiscard]] workload::SyncModelWorkload* sync_model() noexcept { return sm_.get(); }
  [[nodiscard]] workload::LinearSolverWorkload* solver() noexcept { return solver_.get(); }
  [[nodiscard]] workload::StencilWorkload* stencil() noexcept { return stencil_.get(); }
  [[nodiscard]] workload::GridStencilWorkload* grid() noexcept { return grid_.get(); }
  [[nodiscard]] workload::FftPhasesWorkload* fft() noexcept { return fft_.get(); }
  [[nodiscard]] workload::TraceWorkload* trace() noexcept { return trace_.get(); }

 private:
  std::string kind_;
  std::unique_ptr<workload::WorkQueueWorkload> wq_;
  std::unique_ptr<workload::SyncModelWorkload> sm_;
  std::unique_ptr<workload::LinearSolverWorkload> solver_;
  std::unique_ptr<workload::StencilWorkload> stencil_;
  std::unique_ptr<workload::GridStencilWorkload> grid_;
  std::unique_ptr<workload::FftPhasesWorkload> fft_;
  std::unique_ptr<workload::TraceWorkload> trace_;
};

}  // namespace bcsim::conf
