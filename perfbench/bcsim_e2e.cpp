// bcsim_e2e: the repository's end-to-end benchmark.
//
//   bcsim_e2e [--workload NAME]... [--seed S] [--reps N] [--seconds T]
//             [--trace 0|1] [--task-divisor D] [--out PATH]
//
// Runs each named workload (default: all five) on a fresh core::Machine per
// run: one untimed warm-up, at least eleven set-ups for setup_s, then timed
// runs until at least N runs and T seconds have passed, then (with --trace 1)
// three traced runs that split host time between the cache controllers, the
// directories and the rest. A fixed reference kernel runs after every run,
// and the end-to-end host times are given in multiples of its time (see
// reference_s()). Every run passes a correctness gate (see gate()); a failing
// run is counted, and the process exits 1 after printing and writing its
// results.
//
// Layers are measured from outside only, through public entry points: the
// traced run re-attaches the network sinks Machine's constructor installs,
// and this file replaces operator new/delete to count allocations and live
// heap bytes. The last line of stdout is one JSON object with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1); --out writes
// every metric of every workload to a BENCH_<rev>.json file.
// perfbench/README.md defines each workload and metric.
#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "core/machine.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "workload/work_queue_model.hpp"

// --- counting allocator ------------------------------------------------------
//
// Allocation counts are per thread (no shared cache line on the hot path);
// a thread folds its count into g_exited_allocs when it exits, which is how
// the sharded kernel's gang threads report after their Machine is destroyed.
// Live bytes are process-wide so the peak is exact across threads.

namespace {

thread_local std::uint64_t t_allocs = 0;
std::atomic<std::uint64_t> g_exited_allocs{0};
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};

struct ExitFold {
  ~ExitFold() { g_exited_allocs.fetch_add(t_allocs, std::memory_order_relaxed); }
};
thread_local ExitFold t_exit_fold;
thread_local bool t_fold_registered = false;

void note_alloc(void* p) noexcept {
  if (!t_fold_registered) {
    t_fold_registered = true;
    (void)&t_exit_fold;  // odr-use: registers the exit fold for this thread
  }
  ++t_allocs;
  const auto size = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live = g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  std::int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void* counted_alloc_aligned(std::size_t n, std::align_val_t al) {
  const auto a = static_cast<std::size_t>(al);
  void* p = std::aligned_alloc(a, (std::max<std::size_t>(n, 1) + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) { return counted_alloc_aligned(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return counted_alloc_aligned(n, al); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }

namespace {

using namespace bcsim;
using Clock = std::chrono::steady_clock;

constexpr Tick kTickBudget = 4'000'000'000ULL;
/// setup_s is the median of at least this many set-ups per workload, taken
/// over at least kSetupSeconds, so that millisecond set-ups get enough samples.
constexpr std::size_t kSetupSamples = 11;
constexpr double kSetupSeconds = 0.5;
/// The spans come from the middle one of this many traced runs, ranked by
/// wall time over reference time.
constexpr int kTracedRuns = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// --- delivery spans (traced run) ----------------------------------------------
//
// Totals are thread_local: the sharded kernel delivers on its gang threads.
// A gang thread folds its totals into g_exited_spans when it exits, i.e.
// when its Machine is destroyed; the main thread's totals are read directly.

struct Span {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  std::uint64_t allocs = 0;
  void add(const Span& o) {
    calls += o.calls;
    ns += o.ns;
    allocs += o.allocs;
  }
};

struct LayerSpans {
  Span cache;
  Span dir;
  void add(const LayerSpans& o) {
    cache.add(o.cache);
    dir.add(o.dir);
  }
};

std::mutex g_spans_mu;
LayerSpans g_exited_spans;  // guarded by g_spans_mu

struct ThreadSpans {
  LayerSpans s;
  ~ThreadSpans() {
    std::lock_guard<std::mutex> lk(g_spans_mu);
    g_exited_spans.add(s);
  }
};
thread_local ThreadSpans t_spans;

/// Times one sink call into `span` (a member of this thread's t_spans).
template <typename F>
void timed(Span& span, F&& call) {
  const std::uint64_t a0 = t_allocs;
  const auto t0 = Clock::now();
  call();
  span.ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
  span.allocs += t_allocs - a0;
  ++span.calls;
}

/// Replaces every node's sinks with timed copies of the lambdas Machine's
/// constructor installs.
void attach_spans(core::Machine& m) {
  for (NodeId i = 0; i < m.n_nodes(); ++i) {
    m.network().attach(i, net::Unit::kCache, [c = &m.cache_controller(i)](const net::Message& msg) {
      timed(t_spans.s.cache, [&] { c->on_message(msg); });
    });
    m.network().attach(i, net::Unit::kMemory, [d = &m.directory(i)](const net::Message& msg) {
      timed(t_spans.s.dir, [&] { d->on_message(msg); });
    });
  }
}

/// Collects and clears every thread's span totals. Call after the traced
/// Machine is destroyed, so its gang threads have exited and folded.
LayerSpans take_spans() {
  std::lock_guard<std::mutex> lk(g_spans_mu);
  LayerSpans total = g_exited_spans;
  total.add(t_spans.s);
  g_exited_spans = {};
  t_spans.s = {};
  return total;
}

// --- workloads ---------------------------------------------------------------

/// Sets the shard count where the kernel offers one; a tree without the
/// sharded kernel still builds this file and runs every workload serially.
template <typename Cfg>
void set_shards(Cfg& cfg, std::uint32_t n) {
  if constexpr (requires { cfg.n_shards; }) cfg.n_shards = n;
}

core::MachineConfig wbi_tts(std::uint32_t n) {
  core::MachineConfig cfg;
  cfg.n_nodes = n;
  cfg.lock_impl = core::LockImpl::kTts;
  cfg.barrier_impl = core::BarrierImpl::kCentral;
  cfg.network = core::NetworkKind::kOmega;
  return cfg;
}

core::MachineConfig wbi_cbl(std::uint32_t n) {
  core::MachineConfig cfg = wbi_tts(n);
  cfg.lock_impl = core::LockImpl::kCbl;
  cfg.barrier_impl = core::BarrierImpl::kCbl;
  return cfg;
}

core::MachineConfig paper(std::uint32_t n) {
  core::MachineConfig cfg = wbi_cbl(n);
  cfg.data_protocol = core::DataProtocol::kReadUpdate;
  cfg.consistency = core::Consistency::kBuffered;
  return cfg;
}

core::MachineConfig mesh_bounded(std::uint32_t n) {
  core::MachineConfig cfg = wbi_tts(n);
  cfg.network = core::NetworkKind::kMesh;
  cfg.net_buffer_depth = 1;
  cfg.dir_pointer_limit = 8;
  cfg.dir_overflow = core::DirOverflow::kCoarse;
  cfg.dir_region_nodes = 32;
  return cfg;
}

struct Workload {
  const char* name;
  const char* what;
  core::MachineConfig (*machine)(std::uint32_t nodes);
  std::uint32_t nodes;
  std::uint32_t shards;  ///< 1 = the serial kernel
  std::uint32_t tasks;
  std::uint32_t grain;
};

// perfbench/README.md gives the reason each workload is in the suite. Task
// counts keep one serial run under a second, so a measuring window holds
// dozens of runs for the medians.
constexpr Workload kWorkloads[] = {
    {"wq-wbi-512", "WBI data, TTS lock, central barrier, omega", wbi_tts, 512, 1, 256, 60},
    {"wq-ru-1024", "read-update + BC + CBL (the paper's machine), omega", paper, 1024, 1, 8192,
     100},
    {"wq-ru-1024-par2", "wq-ru-1024 on the sharded kernel, 2 shards", paper, 1024, 2, 8192, 100},
    {"wq-cbl-64-g1000", "WBI data, CBL lock and barrier, omega", wbi_cbl, 64, 1, 4096, 1000},
    {"mesh-bounded-512", "WBI + TTS, 2D mesh depth 1, Dir_8 coarse overflow (32-node regions)",
     mesh_bounded, 512, 1, 128, 20},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// --- one run -----------------------------------------------------------------

struct Options {
  std::vector<const Workload*> workloads;
  std::uint64_t seed = 1;
  std::uint32_t reps = 5;
  double seconds = 0;
  bool trace = true;
  std::uint32_t task_divisor = 1;
  std::string out;
};

// --- host speed reference ----------------------------------------------------
//
// The host shares its caches and memory with other tenants, and the speed of
// cache-bound code on it changes by up to 2x for minutes at a time (see
// perfbench/README.md, "Host speed and the reference kernel"). Every run is
// therefore followed by a fixed reference kernel on the same thread, and the
// end-to-end host times are given in multiples of its time. The kernel does
// the simulator's kind of work: a binary heap of pending keys and a hash map
// of about 200,000 counts. It uses only the standard library, so no change to
// src/ can move it.

double reference_s() {
  const auto t0 = Clock::now();
  std::priority_queue<std::uint64_t> pending;
  std::unordered_map<std::uint32_t, std::uint32_t> counts;
  std::uint64_t x = 7;
  for (int i = 0; i < 300'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    pending.push(x >> 20);
    ++counts[static_cast<std::uint32_t>((x >> 33) % 200'000)];
    if (pending.size() > 4096) pending.pop();
  }
  const double s = seconds_since(t0);
  if (pending.empty() || counts.empty()) std::abort();  // keeps the loop observable
  return s;
}

struct Run {
  std::string error;  ///< empty when the run passed the gate's own checks
  double wall_s = 0;
  double cpu_s = 0;
  double ref_s = 0;  ///< reference_s(), measured right after the run
  double heap_peak_mb = 0;
  std::uint64_t run_allocs = 0;
  Tick ticks = 0;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t ops = 0;
  std::unique_ptr<sim::StatsRegistry> stats;  ///< the machine's statistics after the run
  LayerSpans spans;                           ///< traced runs only
};

std::uint32_t task_count(const Workload& w, const Options& o) {
  return std::max<std::uint32_t>(1, w.tasks / o.task_divisor);
}

core::MachineConfig machine_config(const Workload& w, const Options& o, std::uint32_t shards) {
  core::MachineConfig cfg = w.machine(w.nodes);
  cfg.seed = o.seed;
  set_shards(cfg, shards);
  return cfg;
}

workload::WorkQueueConfig workload_config(const Workload& w, const Options& o) {
  workload::WorkQueueConfig wq;
  wq.total_tasks = task_count(w, o);
  wq.grain = w.grain;
  return wq;
}

/// Set-up only: builds the machine and the workload, spawns, and tears down.
double setup_only(const Workload& w, const Options& o) {
  const auto cfg = machine_config(w, o, w.shards);
  const auto wq = workload_config(w, o);
  const auto t0 = Clock::now();
  core::Machine m(cfg);
  workload::WorkQueueWorkload wl(m, wq);
  wl.spawn_all(m);
  return seconds_since(t0);
}

Run run_once(const Workload& w, const Options& o, std::uint32_t shards, bool traced) {
  Run r;
  const auto cfg = machine_config(w, o, shards);
  const auto wq = workload_config(w, o);

  const std::int64_t live0 = g_live_bytes.load(std::memory_order_relaxed);
  g_peak_bytes.store(live0, std::memory_order_relaxed);
  const std::uint64_t exited0 = g_exited_allocs.load(std::memory_order_relaxed);
  {
    core::Machine m(cfg);
    workload::WorkQueueWorkload wl(m, wq);
    wl.spawn_all(m);
    if (traced) attach_spans(m);

    const std::uint64_t allocs0 = t_allocs;
    const double cpu0 = process_cpu_s();
    const auto t1 = Clock::now();
    try {
      r.ticks = m.run(kTickBudget);
    } catch (const std::exception& e) {
      r.error = std::string("run threw: ") + e.what();
    }
    r.wall_s = seconds_since(t1);
    r.cpu_s = process_cpu_s() - cpu0;
    r.run_allocs = t_allocs - allocs0;
    r.heap_peak_mb =
        static_cast<double>(g_peak_bytes.load(std::memory_order_relaxed) - live0) / 1e6;

    if (r.error.empty()) {
      const std::uint64_t executed = wl.tasks_executed(m);
      if (!m.all_done()) {
        r.error = "not every program finished";
      } else if (!m.quiescent()) {
        r.error = "protocol state did not quiesce";
      } else if (executed != wq.total_tasks) {
        r.error = "executed " + std::to_string(executed) + " of " +
                  std::to_string(wq.total_tasks) + " tasks";
      }
    }
    r.digest = m.stats_digest();
    r.events = m.simulator().events_processed();
    r.ops = m.ops_retired_total();
    r.stats = std::make_unique<sim::StatsRegistry>();
    r.stats->absorb(m.stats());
    // Destroying the machine joins any gang threads, folding their counts.
  }
  r.run_allocs += g_exited_allocs.load(std::memory_order_relaxed) - exited0;
  if (traced) r.spans = take_spans();
  r.ref_s = reference_s();
  return r;
}

// --- statistics --------------------------------------------------------------

/// Quartiles the way Python's statistics.quantiles(v, n=4) computes them
/// (the "exclusive" method), plus the median.
struct Summary {
  double p25 = 0;
  double median = 0;
  double p75 = 0;
  std::size_t n = 0;
};

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    if (v.size() == 1) return v[0];
    const double pos = q * static_cast<double>(v.size() + 1) - 1;
    if (pos <= 0) return v.front();
    const auto i = static_cast<std::size_t>(pos);
    if (i + 1 >= v.size()) return v.back();
    return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
  };
  s.p25 = at(0.25);
  s.p75 = at(0.75);
  const std::size_t mid = v.size() / 2;
  s.median = v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
  return s;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct Metric {
  std::string name;
  std::string unit;
  Summary s;  ///< single-valued metrics have n == 1
};

Metric single(std::string name, std::string unit, double v) {
  Summary s;
  s.p25 = s.median = s.p75 = v;
  s.n = 1;
  return {std::move(name), std::move(unit), s};
}

// --- net.send_ns -------------------------------------------------------------

/// ns per Network::send (routing + delivery dispatch) on a fresh network of
/// the workload's kind, node count and buffer depth, fed a fixed-seed
/// uniform stream in batches of 64; best of 3 windows of 50 ms.
double net_send_ns(const Workload& w) {
  const core::MachineConfig cfg = w.machine(w.nodes);
  sim::Simulator simulator;
  sim::StatsRegistry stats;
  std::unique_ptr<net::Network> network;
  if (cfg.network == core::NetworkKind::kMesh) {
    network = std::make_unique<net::MeshNetwork>(simulator, stats, cfg.n_nodes,
                                                 cfg.switch_delay, cfg.net_buffer_depth);
  } else {
    network = std::make_unique<net::OmegaNetwork>(simulator, stats, cfg.n_nodes,
                                                  cfg.switch_delay, cfg.net_buffer_depth);
  }
  network->set_block_words(cfg.block_words);
  std::uint64_t delivered = 0;
  for (NodeId d = 0; d < cfg.n_nodes; ++d) {
    network->attach(d, net::Unit::kMemory, [&delivered](const net::Message&) { ++delivered; });
    network->attach(d, net::Unit::kCache, [&delivered](const net::Message&) { ++delivered; });
  }
  sim::Rng rng(9);
  const auto batch = [&] {
    for (int i = 0; i < 64; ++i) {
      net::Message m;
      m.src = static_cast<NodeId>(rng.next_below(cfg.n_nodes));
      m.dst = static_cast<NodeId>(rng.next_below(cfg.n_nodes));
      m.unit = net::Unit::kMemory;
      network->send(std::move(m));
    }
    simulator.run();
  };
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    batch();
    std::uint64_t sends = 0;
    const auto t0 = Clock::now();
    double s = 0;
    do {
      batch();
      sends += 64;
      s = seconds_since(t0);
    } while (s < 0.05);
    const double ns = s * 1e9 / static_cast<double>(sends);
    if (rep == 0 || ns < best) best = ns;
  }
  return best;
}

// --- one workload ------------------------------------------------------------

struct Result {
  const Workload* w = nullptr;
  std::uint32_t tasks = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
};

Result bench_workload(const Workload& w, const Options& o) {
  Result res;
  res.w = &w;
  res.tasks = task_count(w, o);
  const auto hex = [](std::uint64_t v) {
    char buf[19];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  // Counts the run and applies the gate: every run must reproduce the
  // warm-up run's digest, ticks and message count.
  Run first;
  const auto gate = [&](const Run& r, const char* label) {
    ++res.attempted;
    std::string why = r.error;
    if (why.empty() && r.digest != first.digest) {
      why = "digest " + hex(r.digest) + " differs from " + hex(first.digest);
    }
    if (why.empty() &&
        (r.ticks != first.ticks ||
         r.stats->counter_value("net.messages") != first.stats->counter_value("net.messages"))) {
      why = "ticks or messages differ from the warm-up run";
    }
    if (!why.empty()) {
      ++res.failed;
      std::printf("  FAIL %s run: %s\n", label, why.c_str());
    }
  };

  // Warm-up (untimed): also the run every later one must reproduce.
  first = run_once(w, o, w.shards, false);
  gate(first, "warm-up");
  res.digest = first.digest;

  // Back-to-back set-ups, so every sample starts from the same heap state.
  std::vector<double> setups;
  const auto setup0 = Clock::now();
  while (setups.size() < kSetupSamples || seconds_since(setup0) < kSetupSeconds) {
    setups.push_back(setup_only(w, o));
  }

  // The sharded kernel must be bit-identical to the serial one.
  std::vector<double> serial_rel;
  if (w.shards > 1) {
    for (int i = 0; i < (o.trace ? 3 : 1); ++i) {
      const Run s = run_once(w, o, 1, false);
      gate(s, "serial-reference");
      serial_rel.push_back(s.wall_s / s.ref_s);
    }
  }

  std::vector<double> wall_rel, cpu_rel, wall, cpu, ref, ops_per_s, heap, allocs;
  const auto t0 = Clock::now();
  while (wall.size() < o.reps || seconds_since(t0) < o.seconds) {
    const Run r = run_once(w, o, w.shards, false);
    gate(r, "timed");
    wall_rel.push_back(r.wall_s / r.ref_s);
    cpu_rel.push_back(r.cpu_s / r.ref_s);
    wall.push_back(r.wall_s);
    cpu.push_back(r.cpu_s);
    ref.push_back(r.ref_s);
    ops_per_s.push_back(static_cast<double>(r.ops) / r.wall_s);
    heap.push_back(r.heap_peak_mb);
    allocs.push_back(static_cast<double>(r.run_allocs));
  }
  const sim::StatsRegistry& st = *first.stats;
  const auto c = [&](const char* name) { return static_cast<double>(st.counter_value(name)); };
  const double messages = c("net.messages");
  const Summary wall_rel_s = summarize(wall_rel);
  res.e2e = {
      {"wall_rel", "ref", wall_rel_s},
      {"cpu_rel", "ref", summarize(cpu_rel)},
      {"setup_s", "s", summarize(setups)},
      {"heap_peak_mb", "MB", summarize(heap)},
      single("completion_ticks", "ticks", static_cast<double>(first.ticks)),
      single("messages", "msgs", messages),
  };
  if (!o.trace) return res;

  std::vector<Run> traced_runs;
  for (int i = 0; i < kTracedRuns; ++i) {
    traced_runs.push_back(run_once(w, o, w.shards, true));
    gate(traced_runs.back(), "traced");
  }
  std::sort(traced_runs.begin(), traced_runs.end(), [](const Run& a, const Run& b) {
    return a.wall_s / a.ref_s < b.wall_s / b.ref_s;
  });
  const Run& traced = traced_runs[kTracedRuns / 2];

  const double wall_s = summarize(wall).median;
  const auto events = static_cast<double>(first.events);
  const auto ops = static_cast<double>(first.ops);
  const Span& cs = traced.spans.cache;
  const Span& ds = traced.spans.dir;
  const double traced_ns = traced.wall_s * 1e9;
  const double cache_share = ratio(static_cast<double>(cs.ns), traced_ns);
  const double dir_share = ratio(static_cast<double>(ds.ns), traced_ns);
  const double hits = c("cache.hits");
  const double misses = c("cache.misses");
  const sim::Histogram* lat = st.find_histogram("net.latency");
  res.layer = {
      {"host.wall_s", "s", summarize(wall)},
      {"host.cpu_s", "s", summarize(cpu)},
      {"host.sim_ops_per_s", "ops/s", summarize(ops_per_s)},
      {"host.ref_s", "s", summarize(ref)},
      single("sim.events", "count", events),
      single("sim.events_per_op", "events/op", ratio(events, ops)),
      single("sim.ns_per_event", "ns", ratio(wall_s * 1e9, events)),
      single("sim.allocs_per_event", "allocs/event", ratio(summarize(allocs).median, events)),
      single("sim.residual_share", "share", 1 - cache_share - dir_share),
      single("sim.shard.speedup_x", "x",
             serial_rel.empty() ? 1.0 : ratio(summarize(serial_rel).median, wall_rel_s.median)),
      single("sim.shard.cpu_ratio", "x", ratio(summarize(cpu).median, wall_s)),
      single("net.messages", "msgs", messages),
      single("net.remote", "msgs", c("net.remote")),
      single("net.flits", "flits", c("net.flits")),
      single("net.sync_share", "share", ratio(c("net.sync_messages"), messages)),
      single("net.contention_cycles_per_msg", "ticks/msg",
             ratio(c("net.contention_cycles"), messages)),
      single("net.latency_mean_ticks", "ticks", lat != nullptr ? lat->mean() : 0.0),
      single("net.inject_stall_cycles", "ticks", c("net.inject_stall_cycles")),
      single("net.credit_stall_cycles", "ticks", c("net.credit_stall_cycles")),
      single("net.send_ns", "ns", net_send_ns(w)),
      single("proto.dir.calls", "count", static_cast<double>(ds.calls)),
      single("proto.dir.ns_per_call", "ns", ratio(static_cast<double>(ds.ns), ds.calls)),
      single("proto.dir.share", "share", dir_share),
      single("proto.dir.allocs_per_call", "allocs/call",
             ratio(static_cast<double>(ds.allocs), ds.calls)),
      single("proto.dir.deferred", "count", c("dir.deferred")),
      single("proto.dir.invs", "count", c("dir.invs")),
      single("proto.dir.coarse_invalidations", "count", c("dir.coarse_invalidations")),
      single("core.cache.calls", "count", static_cast<double>(cs.calls)),
      single("core.cache.ns_per_call", "ns", ratio(static_cast<double>(cs.ns), cs.calls)),
      single("core.cache.share", "share", cache_share),
      single("core.cache.allocs_per_call", "allocs/call",
             ratio(static_cast<double>(cs.allocs), cs.calls)),
      single("core.ops_retired", "ops", ops),
      single("cache.hits", "count", hits),
      single("cache.misses", "count", misses),
      single("cache.hit_ratio", "share", ratio(hits, hits + misses)),
      single("cache.invalidated", "count", c("cache.invalidated")),
      single("trace.overhead_pct", "%",
             (ratio(traced.wall_s / traced.ref_s, wall_rel_s.median) - 1) * 100),
  };
  return res;
}

// --- output ------------------------------------------------------------------

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    if (m.s.n > 1) {
      std::printf("  %-32s %14.6g %-12s p25 %.6g  p75 %.6g  n %zu\n", m.name.c_str(), m.s.median,
                  m.unit.c_str(), m.s.p25, m.s.p75, m.s.n);
    } else {
      std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.s.median, m.unit.c_str());
    }
  }
}

void json_metrics(std::FILE* f, const std::vector<Metric>& ms, const char* indent) {
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"", indent, m.name.c_str(),
                 m.s.median, m.unit.c_str());
    if (m.s.n > 1) {
      std::fprintf(f, ", \"p25\": %.17g, \"p75\": %.17g, \"n\": %zu", m.s.p25, m.s.p75, m.s.n);
    }
    std::fprintf(f, "}%s\n", i + 1 < ms.size() ? "," : "");
  }
}

bool write_bench_json(const std::string& path, const Options& o,
                      const std::vector<Result>& results, std::uint64_t attempted,
                      std::uint64_t failed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"schema\": 2,\n  \"bench\": \"bcsim_e2e\",\n");
  std::fprintf(f, "  \"seed\": %llu,\n  \"reps\": %u,\n  \"seconds\": %.17g,\n",
               static_cast<unsigned long long>(o.seed), o.reps, o.seconds);
  std::fprintf(f, "  \"task_divisor\": %u,\n  \"trace\": %d,\n  \"host_threads\": %u,\n",
               o.task_divisor, o.trace ? 1 : 0, std::thread::hardware_concurrency());
  std::fprintf(f, "  \"attempted\": %llu,\n  \"failed\": %llu,\n  \"workloads\": {\n",
               static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f, "    \"%s\": {\n      \"tasks\": %u,\n      \"digest\": \"%016llx\",\n",
                 r.w->name, r.tasks, static_cast<unsigned long long>(r.digest));
    std::fprintf(f, "      \"runs\": %llu,\n      \"failed_runs\": %llu,\n",
                 static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.failed));
    std::fprintf(f, "      \"end_to_end\": {\n");
    json_metrics(f, r.e2e, "        ");
    std::fprintf(f, "      },\n      \"per_layer\": {\n");
    json_metrics(f, r.layer, "        ");
    std::fprintf(f, "      }\n    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  return std::fclose(f) == 0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bcsim_e2e: %s\n"
               "usage: bcsim_e2e [--workload NAME]... [--seed S] [--reps N] [--seconds T]\n"
               "                 [--trace 0|1] [--task-divisor D] [--out PATH]\n"
               "workloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_uint(const char* flag, const char* s, std::uint64_t lo, std::uint64_t hi) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (s[0] < '0' || s[0] > '9' || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    usage((std::string(flag) + ": expected an integer in [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "], got '" + s + "'")
              .c_str());
  }
  return v;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage((flag + ": missing value").c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      const Workload* w = find_workload(v);
      if (w == nullptr) usage((std::string("unknown workload '") + v + "'").c_str());
      o.workloads.push_back(w);
    } else if (flag == "--seed") {
      o.seed = parse_uint("--seed", v, 0, UINT64_MAX);
    } else if (flag == "--reps") {
      o.reps = static_cast<std::uint32_t>(parse_uint("--reps", v, 1, 1000));
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_uint("--seconds", v, 0, 3600));
    } else if (flag == "--trace") {
      o.trace = parse_uint("--trace", v, 0, 1) == 1;
    } else if (flag == "--task-divisor") {
      o.task_divisor = static_cast<std::uint32_t>(parse_uint("--task-divisor", v, 1, 1 << 20));
    } else if (flag == "--out") {
      o.out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workloads.empty()) {
    for (const Workload& w : kWorkloads) o.workloads.push_back(&w);
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  // Every run allocates the way a fresh process does: blocks of 128 KiB and
  // more get newly mapped pages, and freed memory goes back to the system.
  // glibc would otherwise raise both thresholds after the first large free,
  // and later runs would reuse warm pages or not depending on what ran
  // before them (setup_s jumped between 0.04 s and 0.17 s on wq-ru-1024-par2).
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  std::vector<Result> results;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Workload* w : o.workloads) {
    std::printf("%s: %s, %u nodes, %u tasks, grain %u, seed %llu\n", w->name, w->what, w->nodes,
                task_count(*w, o), w->grain, static_cast<unsigned long long>(o.seed));
    std::fflush(stdout);
    results.push_back(bench_workload(*w, o));
    const Result& r = results.back();
    attempted += r.attempted;
    failed += r.failed;
    std::printf("  digest %016llx, %llu runs, %llu failed\n",
                static_cast<unsigned long long>(r.digest),
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    print_metrics(r.e2e);
    print_metrics(r.layer);
    std::fflush(stdout);
  }

  if (!o.out.empty()) {
    if (!write_bench_json(o.out, o, results, attempted, failed)) {
      std::fprintf(stderr, "bcsim_e2e: cannot write %s\n", o.out.c_str());
      return 1;
    }
    std::printf("results -> %s\n", o.out.c_str());
  }

  // Last line: one JSON object. A single workload reports its metrics by
  // name; several prefix each name with "<workload>/".
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const Result& r : results) {
    const std::string prefix = results.size() > 1 ? std::string(r.w->name) + "/" : "";
    for (const Metric& m : o.trace ? r.layer : r.e2e) {
      std::printf("%s\"%s%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, prefix.c_str(),
                  m.name.c_str(), m.s.median, m.unit.c_str());
      sep = ", ";
    }
  }
  std::printf("}}\n");
  return failed == 0 ? 0 : 1;
}
