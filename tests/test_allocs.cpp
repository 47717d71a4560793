// Heap allocations, counted exactly.
//
// This executable replaces every form of the global operator new (single
// and array, default-aligned and over-aligned, throwing and nothrow) with a
// counting one, so the counter affects no other test. All of them must be
// replaced: libstdc++'s array forms call the single one, but ASan's runtime
// defines `operator new[]` itself, so a count that relied on the forwarding
// would differ between the Release and the sanitizer build.
//
// The OpAllocs cases run one program on processor 0: a read that caches
// the probed block, a warm-up of kOps operations, then kOps more
// operations between two counter snapshots. Every operation there
// completes inside the node (a hit, a delay, an empty flush, a no-op
// unsubscribe, an already-changed word) or waits for one acknowledgment
// (a flush behind a global write), so anything above zero is bookkeeping
// cost: a future's shared state, a type-erased callback, a waiter list.
// RunAllocs bounds the whole runs of run_cells.hpp, where a new
// allocation per message or per event breaks every ceiling, and checks
// that a work queue's private references allocate nothing however many
// there are.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "run_cells.hpp"
#include "test_util.hpp"

namespace {
std::uint64_t g_allocs = 0;

void* counted(std::size_t n) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* counted(std::size_t n, std::align_val_t align) noexcept {
  ++g_allocs;
  // aligned_alloc takes a size that is a multiple of the alignment.
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (std::max<std::size_t>(n, 1) + a - 1) / a * a);
}
void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

// Every new is malloc() or aligned_alloc() and every delete is free().
// All are out of line: where g++ inlines them it pairs the malloc() of one
// with the operator delete of another, or operator new with the free(),
// and -Wmismatched-new-delete fires under -fsanitize=address (a false
// positive).
[[gnu::noinline]] void* operator new(std::size_t n) { return or_throw(counted(n)); }
[[gnu::noinline]] void* operator new[](std::size_t n) { return or_throw(counted(n)); }
[[gnu::noinline]] void* operator new(std::size_t n, std::align_val_t a) {
  return or_throw(counted(n, a));
}
[[gnu::noinline]] void* operator new[](std::size_t n, std::align_val_t a) {
  return or_throw(counted(n, a));
}
[[gnu::noinline]] void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n);
}
[[gnu::noinline]] void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n);
}
[[gnu::noinline]] void* operator new(std::size_t n, std::align_val_t a,
                                     const std::nothrow_t&) noexcept {
  return counted(n, a);
}
[[gnu::noinline]] void* operator new[](std::size_t n, std::align_val_t a,
                                       const std::nothrow_t&) noexcept {
  return counted(n, a);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace bcsim {
namespace {

using core::Machine;
using core::Processor;

constexpr int kOps = 1000;
constexpr Addr kAddr = 64;

/// Runs `op(p, i)` 2 x `ops` times on processor 0 of a 2-node machine (WBI
/// unless `cfg` says otherwise) and returns the heap allocations made by
/// the second `ops`.
template <typename Op>
sim::Task probe(Processor& p, Op op, int ops, std::uint64_t& allocs) {
  co_await p.read(kAddr);
  for (int i = 0; i < ops; ++i) co_await op(p, i);
  const std::uint64_t before = g_allocs;
  for (int i = 0; i < ops; ++i) co_await op(p, i);
  allocs = g_allocs - before;
}

template <typename Op>
std::uint64_t allocs_over_ops(Op op, const core::MachineConfig& cfg = test::small_config(2),
                              int ops = kOps) {
  Machine m(cfg);
  std::uint64_t allocs = ~std::uint64_t{0};
  m.spawn(probe(m.processor(0), op, ops, allocs));
  test::run_all(m);
  return allocs;
}

TEST(OpAllocs, ReadHit) {
  EXPECT_EQ(allocs_over_ops([](Processor& p, int) { return p.read(kAddr); }), 0u);
}

TEST(OpAllocs, WriteHitOnModifiedLine) {
  // The first warm-up write upgrades the line to M; the rest hit.
  EXPECT_EQ(allocs_over_ops([](Processor& p, int i) {
              return p.write(kAddr, static_cast<Word>(i));
            }),
            0u);
}

TEST(OpAllocs, Compute) {
  EXPECT_EQ(allocs_over_ops([](Processor& p, int) { return p.compute(1); }), 0u);
}

TEST(OpAllocs, FlushOfAnEmptyBuffer) {
  EXPECT_EQ(allocs_over_ops([](Processor& p, int) { return p.flush_buffer(); }), 0u);
}

TEST(OpAllocs, FlushParkedOnAGlobalWrite) {
  // kOps pairs on the paper machine: a BC WRITE-GLOBAL, then a FLUSH-BUFFER
  // that parks until the write's acknowledgment arrives.
  EXPECT_EQ(allocs_over_ops(
                [](Processor& p, int i) {
                  return i % 2 == 0 ? p.write_global(kAddr, static_cast<Word>(i))
                                    : p.flush_buffer();
                },
                test::paper_config(2), 2 * kOps),
            0u);
}

TEST(OpAllocs, ResetUpdateWithoutSubscription) {
  EXPECT_EQ(allocs_over_ops([](Processor& p, int) { return p.reset_update(kAddr); }), 0u);
}

TEST(OpAllocs, WaitForAWordThatAlreadyChanged) {
  // The cached word is 0, so a wait for it to differ from 1 completes at once.
  EXPECT_EQ(allocs_over_ops([](Processor& p, int) { return p.wait_word_change(kAddr, 1); }),
            0u);
}

/// Heap allocations inside Machine::run.
std::uint64_t run_allocs(const conf::MachineSpec& machine, const conf::WorkloadSpec& workload) {
  Machine m(conf::build_machine(machine));
  conf::WorkloadInstance w(m, workload);
  const std::uint64_t before = g_allocs;
  m.run(100'000'000);
  return g_allocs - before;
}

TEST(RunAllocs, RunsStayUnderTheirCeilings) {
  for (const test::RunCell& c : test::kRunCells) {
    EXPECT_LE(run_allocs(c.machine, test::workload(c)), c.max_allocs) << c.name;
  }
}

TEST(RunAllocs, PrivateReferencesAllocateNothing) {
  // One node, eight tasks, no shared references: quadrupling the grain
  // adds 24000 private references and must add no allocation.
  for (const char* flavor : {"wbi", "cbl-on-wbi", "paper"}) {
    const auto allocs = [flavor](std::uint32_t grain) {
      conf::WorkloadSpec w = test::work_queue(8, grain);
      w.work_queue.shared_ratio = 0;
      return run_allocs({.nodes = 1, .flavor = flavor}, w);
    };
    EXPECT_EQ(allocs(4000), allocs(1000)) << flavor;
  }
}

}  // namespace
}  // namespace bcsim
