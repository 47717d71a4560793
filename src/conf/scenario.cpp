#include "conf/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "conf/strict_parse.hpp"
#include "sim/fault_plan.hpp"

namespace bcsim::conf {

namespace {

/// What a flavor sets: its data protocol, and the consistency, lock and
/// barrier a run keeps unless it names its own.
struct FlavorDefaults {
  std::string_view name;
  core::DataProtocol protocol;
  core::Consistency consistency;
  core::LockImpl lock;
  core::BarrierImpl barrier;
};

constexpr std::string_view to_string(const FlavorDefaults& f) noexcept { return f.name; }

constexpr FlavorDefaults kFlavors[] = {
    {"paper", core::DataProtocol::kReadUpdate, core::Consistency::kBuffered,
     core::LockImpl::kCbl, core::BarrierImpl::kCbl},
    {"wbi", core::DataProtocol::kWbi, core::Consistency::kSequential, core::LockImpl::kTts,
     core::BarrierImpl::kCentral},
    {"cbl-on-wbi", core::DataProtocol::kWbi, core::Consistency::kSequential,
     core::LockImpl::kCbl, core::BarrierImpl::kCbl},
};

constexpr std::string_view kKinds[] = {"work-queue", "sync-model", "solver", "stencil",
                                       "grid",       "fft",        "trace"};
constexpr std::string_view kBools[] = {"false", "true"};
constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

template <typename T, typename C>
C class_of(T C::*);

/// A row's field: member F of the part of the Scenario of F's class.
template <auto F>
KeyField field(Scenario& s) {
  auto parts = std::tie(s.machine, s.workload, s.workload.work_queue, s.workload.sync_model,
                        s.workload.solver, s.workload.stencil, s.workload.grid, s.workload.fft);
  return &(std::get<decltype(class_of(F))&>(parts).*F);
}

using M = MachineSpec;
using W = WorkloadSpec;
using WQ = workload::WorkQueueConfig;
using SM = workload::SyncModelConfig;
using LS = workload::LinearSolverConfig;
using ST = workload::StencilConfig;
using GS = workload::GridStencilConfig;
using FP = workload::FftPhasesConfig;

const ScenarioKey kKeys[] = {
    {"machine.nodes", "--nodes", "", field<&M::nodes>, {}, 1},
    {"machine.flavor", "--machine", "", field<&M::flavor>, kNames<kFlavors>},
    {"machine.consistency", "--consistency", "", field<&M::consistency>, kNames<kConsistencies>},
    {"machine.lock", "--lock", "", field<&M::lock>, kNames<kLocks>},
    {"machine.barrier", "--barrier", "", field<&M::barrier>, kNames<kBarriers>},
    {"machine.network", "--network", "", field<&M::network>, kNames<kNetworks>},
    {"machine.net_buffer_depth", "--buffer-depth", "", field<&M::buffer_depth>},
    {"machine.dir_limit", "--dir-limit", "", field<&M::dir_limit>},
    {"machine.dir_overflow", "--dir-overflow", "", field<&M::dir_overflow>, kNames<kDirOverflows>},
    {"machine.dir_region", "--dir-region", "", field<&M::dir_region>, {}, 1},
    {"machine.block_words", "--block-words", "", field<&M::block_words>, {}, 1, 32},
    {"machine.seed", "--seed", "", field<&M::seed>},
    {"machine.schedule_seed", "--schedule-seed", "", field<&M::schedule_seed>},
    {"machine.invariants", "--check-invariants", "", field<&M::invariants>,
     kNames<kInvariantLevels>},
    {"machine.fault_plan", "--fault-plan", "", field<&M::fault_plan>},
    {"machine.watchdog", "--watchdog", "", field<&M::watchdog>},
    {"machine.watchdog_stalls", "", "", field<&M::watchdog_stalls>, {}, 1},
    {"machine.trace_dump", "--trace-dump", "", field<&M::trace_dump>},
    {"workload.kind", "--workload", "", field<&W::kind>, kKinds},
    {"workload.tasks", "--tasks", "work-queue", field<&WQ::total_tasks>, {}, 1},
    {"workload.grain", "--grain", "work-queue", field<&WQ::grain>},
    {"workload.initial_tasks", "", "work-queue", field<&WQ::initial_tasks>},
    {"workload.shared_blocks", "", "work-queue", field<&WQ::n_shared_blocks>, {}, 1},
    {"workload.shared_pct", "", "work-queue", field<&WQ::shared_ratio>},
    {"workload.read_pct", "", "work-queue", field<&WQ::read_ratio>},
    {"workload.spawn_pct", "", "work-queue", field<&WQ::spawn_prob>},
    {"workload.tasks_per_proc", "--tasks", "sync-model", field<&SM::tasks_per_proc>, {}, 1, kMax,
     true},
    {"workload.grain", "--grain", "sync-model", field<&SM::grain>},
    {"workload.shared_blocks", "", "sync-model", field<&SM::n_shared_blocks>, {}, 1},
    {"workload.locks", "", "sync-model", field<&SM::n_locks>, {}, 1},
    {"workload.cs_references", "", "sync-model", field<&SM::cs_references>},
    {"workload.shared_pct", "", "sync-model", field<&SM::shared_ratio>},
    {"workload.read_pct", "", "sync-model", field<&SM::read_ratio>},
    {"workload.lock_pct", "", "sync-model", field<&SM::lock_ratio>},
    {"workload.schedule_seed", "", "sync-model", field<&SM::schedule_seed>},
    {"workload.iterations", "--iters", "solver", field<&LS::iterations>, {}, 1},
    {"workload.matrix_seed", "", "solver", field<&LS::matrix_seed>},
    {"workload.separate_x_blocks", "", "solver", field<&LS::separate_x_blocks>},
    {"workload.cells_per_proc", "", "stencil", field<&ST::cells_per_proc>, {}, 1},
    {"workload.sweeps", "--iters", "stencil", field<&ST::sweeps>, {}, 1},
    {"workload.data_seed", "", "stencil", field<&ST::data_seed>},
    {"workload.grid", "", "grid", field<&GS::grid>, {}, 2},
    {"workload.sweeps", "--iters", "grid", field<&GS::sweeps>, {}, 1},
    {"workload.data_seed", "", "grid", field<&GS::data_seed>},
    {"workload.words_per_region", "", "fft", field<&FP::words_per_region>, {}, 1},
    {"workload.data_seed", "", "fft", field<&FP::data_seed>},
    {"workload.file", "", "trace", field<&W::trace_file>},
};

/// How a `run` user writes the knob of config key `key`: "key / --flag".
std::string run_spelling(std::string_view key) {
  return std::string(key) + " / " + std::string(scenario_key(key).flag);
}

}  // namespace

const ScenarioKey& scenario_key(std::string_view key) {
  const auto* row = std::find_if(std::begin(kKeys), std::end(kKeys),
                                 [&](const ScenarioKey& k) { return k.key == key; });
  if (row == std::end(kKeys)) throw std::logic_error("no scenario key '" + std::string(key) + "'");
  return *row;
}

core::MachineConfig build_machine(const MachineSpec& o, const Spelling& spelling) {
  const auto spelled = [&](std::string_view key) {
    return spelling ? spelling(key) : run_spelling(key);
  };
  core::MachineConfig cfg;
  cfg.n_nodes = o.nodes;
  cfg.block_words = o.block_words;
  cfg.network = parse_enum<kNetworks>("machine.network", o.network);
  cfg.net_buffer_depth = o.buffer_depth;
  cfg.dir_pointer_limit = o.dir_limit;
  cfg.dir_overflow = parse_enum<kDirOverflows>("machine.dir_overflow", o.dir_overflow);
  cfg.dir_region_nodes = o.dir_region;
  cfg.seed = o.seed;
  cfg.schedule_seed = o.schedule_seed;
  cfg.invariants = parse_enum<kInvariantLevels>("machine.invariants", o.invariants);
  cfg.trace = o.trace;
  cfg.trace_capacity = o.trace_capacity;
  cfg.trace_dump = o.trace_dump;
  cfg.watchdog_interval = o.watchdog;
  cfg.watchdog_stalls = o.watchdog_stalls;
  if (!o.fault_plan.empty()) {
    sim::FaultPlan plan;
    try {
      plan = sim::resolve_fault_plan(o.fault_plan);
    } catch (const std::invalid_argument& e) {
      throw UsageError(e.what());
    }
    cfg.fault_plan = plan;
    // An unreliable fabric without a watchdog can hang silently; arm a
    // default interval unless the user picked one.
    if (plan.has_net_rules() && cfg.watchdog_interval == 0) {
      cfg.watchdog_interval = 4096;
    }
  }
  const FlavorDefaults flavor = parse_enum<kFlavors>("machine.flavor", o.flavor);
  cfg.data_protocol = flavor.protocol;
  cfg.consistency = o.consistency.empty()
                        ? flavor.consistency
                        : parse_enum<kConsistencies>("machine.consistency", o.consistency);
  cfg.lock_impl = o.lock.empty() ? flavor.lock : parse_enum<kLocks>("machine.lock", o.lock);
  cfg.barrier_impl =
      o.barrier.empty() ? flavor.barrier : parse_enum<kBarriers>("machine.barrier", o.barrier);
  // The combinations validate() rejects by the config's field names, named
  // here by what the user writes.
  const bool read_update = cfg.data_protocol == core::DataProtocol::kReadUpdate;
  if (read_update && cfg.lock_impl != core::LockImpl::kCbl) {
    throw UsageError(spelled("machine.lock") + " '" + o.lock + "' cannot run on " +
                     spelled("machine.flavor") + " '" + o.flavor +
                     "': the read-update machine has no coherent plain writes to spin on; "
                     "its locks are 'cbl'");
  }
  if (!read_update && cfg.consistency == core::Consistency::kBuffered) {
    throw UsageError(spelled("machine.consistency") + " 'bc' cannot run on " +
                     spelled("machine.flavor") + " '" + o.flavor +
                     "': buffered consistency orders the read-update machine's global "
                     "writes, which only 'paper' makes");
  }
  if (cfg.dir_overflow == core::DirOverflow::kCoarse && cfg.dir_pointer_limit == 0) {
    throw UsageError(spelled("machine.dir_overflow") + " 'coarse' needs " +
                     spelled("machine.dir_limit") + " > 0: a full map never overflows");
  }
  try {
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }
  return cfg;
}

std::span<const ScenarioKey> scenario_keys() noexcept { return kKeys; }

std::string key_text(Scenario s, const ScenarioKey& k) {
  return std::visit(Overloaded{
                        [](std::string* f) { return *f; },
                        [](bool* f) { return std::string(kBools[*f ? 1 : 0]); },
                        [](double* f) { return std::to_string(std::llround(*f * 100)); },
                        [](auto* f) { return std::to_string(*f); },
                    },
                    k.field(s));
}

void set_key(Scenario& s, const ScenarioKey& k, const std::string& text, const std::string& what) {
  const auto number = [&](std::uint64_t type_max) {
    return parse_u64(what, text, k.min, std::min(k.max, type_max));
  };
  std::visit(Overloaded{
                 [&]<typename T>(T* f) {
                   *f = static_cast<T>(number(std::numeric_limits<T>::max()));
                 },
                 [&](double* f) { *f = static_cast<double>(number(100)) / 100.0; },
                 [&](bool* f) { *f = name_index(what, text, kBools) == 1; },
                 [&](std::string* f) {
                   if (!k.names.empty() && text != key_text(Scenario{}, k)) {
                     (void)name_index(what, text, k.names);
                   }
                   *f = text;
                 },
             },
             k.field(s));
}

Scenario resolve_scenario(const Table& t) {
  Scenario s;
  // A config value enters its row as the text its flag would take, so the
  // two spellings share one range check; its error names file:line.
  const auto read = [&](Scenario& into, const ScenarioKey& k) {
    if (!t.has(k.key)) return;
    const std::string text = std::visit(
        Overloaded{
            [&](std::string*) { return t.get_string(k.key, ""); },
            [&](bool*) { return std::string(kBools[t.get_bool(k.key, false) ? 1 : 0]); },
            [&](auto*) { return std::to_string(t.get_int(k.key, 0)); },
        },
        k.field(into));
    try {
      set_key(into, k, text, std::string(k.key));
    } catch (const UsageError& e) {
      throw ConfError(t.loc(k.key), e.what());
    }
  };
  for (const ScenarioKey& k : kKeys) {
    if (k.kind.empty()) read(s, k);
  }
  WorkloadSpec& w = s.workload;
  const std::string source = t.get_string("workload.source", "");
  if (!source.empty()) {
    constexpr std::string_view kPrefix = "trace:";
    if (source.rfind(kPrefix, 0) != 0 || source.size() == kPrefix.size()) {
      throw ConfError(t.loc("workload.source"),
                      "key 'workload.source' must be 'trace:<file>', got '" + source +
                          "'");
    }
    w.kind = "trace";
    w.trace_file = source.substr(kPrefix.size());
  }
  // `source` usually arrives as a -k override re-driving a config whose
  // [workload] describes the run the trace was recorded from; those model
  // knobs are part of the provenance, not schema violations. Each must
  // still be a value that some kind's row of its key accepts, or it is the
  // error it would be without `source` (the first such row's).
  const auto check_provenance = [&](const ScenarioKey& k) {
    std::optional<ConfError> rejected;
    for (const ScenarioKey& row : kKeys) {
      if (row.key != k.key) continue;
      try {
        Scenario scratch;
        read(scratch, row);
        return;
      } catch (const ConfError& e) {
        if (!rejected) rejected = e;
      }
    }
    throw *rejected;
  };
  for (const ScenarioKey& k : kKeys) {
    if (k.kind.empty()) continue;
    if (!source.empty()) {
      if (t.has(k.key)) check_provenance(k);
    } else if (k.kind == w.kind) {
      read(s, k);
    }
  }
  if (w.kind == "trace" && w.trace_file.empty()) {
    throw ConfError(t.has("workload.kind") ? t.loc("workload.kind") : SourceLoc{},
                    "workload kind 'trace' needs 'source = trace:<file>'");
  }
  return s;
}

void apply_flags(Scenario& s, const std::vector<Flag>& flags) {
  // Machine flags and --workload first: a kind's flags see the final kind
  // and node count.
  for (const bool kind_pass : {false, true}) {
    for (const Flag& f : flags) {
      const ScenarioKey* row = nullptr;
      bool kind_flag = false;
      for (const ScenarioKey& k : kKeys) {
        if (k.flag != f.name) continue;
        kind_flag = !k.kind.empty();
        if (k.kind.empty() || k.kind == s.workload.kind) row = &k;
      }
      if (kind_flag != kind_pass) continue;
      if (row == nullptr) {
        throw UsageError(kind_flag ? f.name + " is not read by workload kind '" +
                                         s.workload.kind + "'"
                                   : "unknown flag '" + f.name + "'");
      }
      std::string text = f.value;
      if (row->per_proc) {
        const std::uint64_t tasks =
            parse_u64(f.name, f.value, 0, std::numeric_limits<std::uint32_t>::max());
        text = std::to_string(std::max<std::uint64_t>(1, tasks / std::max(1u, s.machine.nodes)));
      }
      set_key(s, *row, text, f.name);
    }
  }
  if (s.workload.kind == "trace" && s.workload.trace_file.empty()) {
    throw UsageError("--workload trace needs -k workload.source=trace:<file>");
  }
}

WorkloadInstance::WorkloadInstance(core::Machine& m, const WorkloadSpec& spec)
    : kind_(spec.kind) {
  if (spec.kind == "work-queue") {
    wq_ = std::make_unique<workload::WorkQueueWorkload>(m, spec.work_queue);
    wq_->spawn_all(m);
  } else if (spec.kind == "sync-model") {
    sm_ = std::make_unique<workload::SyncModelWorkload>(m, spec.sync_model);
    sm_->spawn_all(m);
  } else if (spec.kind == "solver") {
    solver_ = std::make_unique<workload::LinearSolverWorkload>(m, spec.solver);
    solver_->spawn_all(m);
  } else if (spec.kind == "stencil") {
    stencil_ = std::make_unique<workload::StencilWorkload>(m, spec.stencil);
    stencil_->spawn_all(m);
  } else if (spec.kind == "grid") {
    grid_ = std::make_unique<workload::GridStencilWorkload>(m, spec.grid);
    grid_->spawn_all(m);
  } else if (spec.kind == "fft") {
    fft_ = std::make_unique<workload::FftPhasesWorkload>(m, spec.fft);
    fft_->spawn_all(m);
  } else if (spec.kind == "trace") {
    std::ifstream in(spec.trace_file);
    if (!in) {
      throw std::invalid_argument("trace: cannot open '" + spec.trace_file + "'");
    }
    workload::Trace tr = workload::Trace::parse(in);
    trace_ = std::make_unique<workload::TraceWorkload>(m, std::move(tr));
    trace_->spawn_all(m);
  } else {
    throw UsageError("unknown workload '" + spec.kind + "'");
  }
}

}  // namespace bcsim::conf
