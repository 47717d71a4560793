// Google-benchmark microbenchmarks of the simulator substrate: event queue
// throughput, PRNG, cache lookup, Omega routing, and end-to-end simulated
// cycles per host second. These guard the simulator's own performance —
// figure benches sweep hundreds of configurations, so substrate regressions
// directly hurt experiment turnaround.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>

#include "cache/cache.hpp"
#include "core/machine.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "workload/work_queue_model.hpp"

namespace {

using namespace bcsim;

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue q;
  sim::Rng rng(1);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) q.push(rng.next_below(1000), [] {});
    while (!q.empty()) {
      auto [t, fn] = q.pop();
      sink += t;
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueuePushPop);

void BM_EventQueueSameTickBurst(benchmark::State& state) {
  // Many events on one tick: one slot's list grows and drains (an
  // all-events heap's worst case: log n sifts of fat items through a
  // same-priority plateau).
  sim::EventQueue q;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) q.push(7, [] {});
    while (!q.empty()) {
      auto [t, fn] = q.pop();
      sink += t;
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_EventQueueSameTickBurst);

void BM_EventQueueWideSpread(benchmark::State& state) {
  // The shape of the 512-node WBI spin storm (perfbench's wq-wbi-512):
  // about 1000 events pending, pushed 0-2560 ticks ahead, about 1.7 of them
  // firing per occupied tick. Each iteration pops the earliest event and
  // pushes one more, so the window slides while the pending count holds.
  sim::EventQueue q;
  sim::Rng rng(5);
  const auto distance = [&rng] {
    return rng.chance(0.6) ? rng.next_below(2561) : rng.next_below(256);
  };
  for (int i = 0; i < 1000; ++i) q.push(distance(), [] {});
  Tick now = 0;
  std::uint64_t ticks = 0;
  for (auto _ : state) {
    auto [t, fn] = q.pop();
    if (t != now) ++ticks;
    now = t;
    q.push(now + distance(), [] {});
  }
  benchmark::DoNotOptimize(now);
  state.counters["events_per_tick"] = static_cast<double>(state.iterations()) /
                                      static_cast<double>(std::max<std::uint64_t>(ticks, 1));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueWideSpread);

void BM_RngNextBelow(benchmark::State& state) {
  sim::Rng rng(7);
  std::uint64_t sink = 0;
  for (auto _ : state) sink += rng.next_below(12345);
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNextBelow);

void BM_CacheLookup(benchmark::State& state) {
  cache::Cache c(1024, 4, 4);
  for (BlockId b = 0; b < 512; ++b) {
    auto* v = c.pick_victim(b);
    v->block = b;
    v->valid = true;
  }
  sim::Rng rng(3);
  std::uint64_t hits = 0;
  for (auto _ : state) {
    hits += c.find(rng.next_below(1024)) != nullptr ? 1 : 0;
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLookup);

void BM_OmegaSend(benchmark::State& state) {
  sim::Simulator simulator;
  sim::StatsRegistry stats;
  net::OmegaNetwork network(simulator, stats, 64, 1);
  std::uint64_t delivered = 0;
  for (NodeId d = 0; d < 64; ++d) {
    network.attach(d, net::Unit::kMemory, [&delivered](const net::Message&) { ++delivered; });
    network.attach(d, net::Unit::kCache, [&delivered](const net::Message&) { ++delivered; });
  }
  sim::Rng rng(9);
  for (auto _ : state) {
    net::Message m;
    m.src = static_cast<NodeId>(rng.next_below(64));
    m.dst = static_cast<NodeId>(rng.next_below(64));
    m.unit = net::Unit::kMemory;
    network.send(std::move(m));
    simulator.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OmegaSend);

void BM_WorkQueueSimulation(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    core::MachineConfig cfg;
    cfg.n_nodes = n;
    cfg.network = core::NetworkKind::kOmega;
    core::Machine m(cfg);
    workload::WorkQueueConfig wq;
    wq.total_tasks = 64;
    wq.grain = 50;
    workload::WorkQueueWorkload w(m, wq);
    w.spawn_all(m);
    cycles += m.run(1'000'000'000ULL);
  }
  state.counters["sim_cycles"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WorkQueueSimulation)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_MachineConstruction(benchmark::State& state) {
  for (auto _ : state) {
    core::MachineConfig cfg;
    cfg.n_nodes = 64;
    core::Machine m(cfg);
    benchmark::DoNotOptimize(&m);
  }
}
BENCHMARK(BM_MachineConstruction)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
