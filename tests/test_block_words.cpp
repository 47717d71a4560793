// Pins the work-queue model at every configurable block size.
//
// bench/baseline.json and the perf benchmark gate 4-word blocks only. This
// grid runs the section 5.2 work queue (16 nodes, 64 tasks, grain 20) at
// every block_words in {1, 2, 4, 8, 16, 32}, on the three machines the
// benchmark uses (WBI + TTS lock + central barrier, WBI + CBL, and the
// paper's read-update + buffered consistency + CBL) and on both the omega
// and the mesh fabric. Each cell pins its completion tick and stats digest.
// Each cell must also execute all 64 tasks: the queue's counters live in
// simulated memory, which the digest does not cover, so a write-back that
// stores nothing (a zero dirty mask at 32 words) shows up only here.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/config.hpp"
#include "core/machine.hpp"
#include "workload/work_queue_model.hpp"
#include "test_util.hpp"

namespace bcsim {
namespace {

enum class Flavor { kWbiTts, kWbiCbl, kPaper };
using enum Flavor;
using enum core::NetworkKind;

struct Cell {
  std::uint32_t block_words;
  Flavor flavor;
  core::NetworkKind network;
  Tick ticks;
  std::uint64_t digest;
};

// Ticks and digests were captured from the simulator that still stored
// every payload and frame as a 32-word array, so they pin that storage
// change as behaviour-neutral. The digest covers no memory contents, so
// the 32-word CBL cells pin the same values with and without the
// full-block write-back mask; only their task counts depend on it.
constexpr Cell kCells[] = {
    {1, kWbiTts, kOmega, 25375, 0x85d4bb084d6eec8c},
    {1, kWbiTts, kMesh, 23610, 0x647a4f5444babf58},
    {1, kWbiCbl, kOmega, 12258, 0xfeff585f854ea1d5},
    {1, kWbiCbl, kMesh, 9745, 0x95b7bce478326ca4},
    {1, kPaper, kOmega, 7311, 0xd8a438316c9d8d30},
    {1, kPaper, kMesh, 6105, 0x4a5c5001dd09033a},
    {2, kWbiTts, kOmega, 23776, 0x02b6bedf82213939},
    {2, kWbiTts, kMesh, 22542, 0xd4c5c2c9f4dff748},
    {2, kWbiCbl, kOmega, 9010, 0xa698f0701d78ec1d},
    {2, kWbiCbl, kMesh, 7305, 0x60c07c5b8edd2efb},
    {2, kPaper, kOmega, 7142, 0x9949100da45625e5},
    {2, kPaper, kMesh, 5897, 0x55a9289d1b7ac590},
    {4, kWbiTts, kOmega, 23499, 0xbcf0d5cf6cdf6583},
    {4, kWbiTts, kMesh, 22926, 0xd1cb042d5df53eb2},
    {4, kWbiCbl, kOmega, 3875, 0xb213da1fce1c5be7},
    {4, kWbiCbl, kMesh, 3152, 0xc6230db7002044a3},
    {4, kPaper, kOmega, 2844, 0x78a698851f8e84f0},
    {4, kPaper, kMesh, 2301, 0xc9dfc2a66f9431a2},
    {8, kWbiTts, kOmega, 25408, 0xe8a5b849c079a49f},
    {8, kWbiTts, kMesh, 29743, 0x9027199ca5d4a0e3},
    {8, kWbiCbl, kOmega, 4852, 0x731855fb99381230},
    {8, kWbiCbl, kMesh, 4138, 0x0c16bd032d6418b3},
    {8, kPaper, kOmega, 3220, 0x5ac353820bdec1d6},
    {8, kPaper, kMesh, 2658, 0x2f44af74d194e3e0},
    {16, kWbiTts, kOmega, 31911, 0x80a327e52dfde7e5},
    {16, kWbiTts, kMesh, 41281, 0x778527aa40a39c08},
    {16, kWbiCbl, kOmega, 6859, 0x7a59f01a32fcad36},
    {16, kWbiCbl, kMesh, 6088, 0xe5faa7df27cb580d},
    {16, kPaper, kOmega, 4037, 0xe8176e20c6317c74},
    {16, kPaper, kMesh, 3390, 0x655d1829f1a710ee},
    {32, kWbiTts, kOmega, 48612, 0x02d410059f11fbfd},
    {32, kWbiTts, kMesh, 61803, 0xc6f43c8f88ec00a2},
    {32, kWbiCbl, kOmega, 11158, 0xa692d67c147cac19},
    {32, kWbiCbl, kMesh, 10134, 0xfb10730fdf47a4d5},
    {32, kPaper, kOmega, 5690, 0x2ecf6834ec1f5c57},
    {32, kPaper, kMesh, 4877, 0xee621f9507cb3182},
};

core::MachineConfig cell_config(const Cell& c) {
  core::MachineConfig cfg;
  cfg.n_nodes = 16;
  cfg.block_words = c.block_words;
  cfg.network = c.network;
  cfg.lock_impl = c.flavor == kWbiTts ? core::LockImpl::kTts : core::LockImpl::kCbl;
  cfg.barrier_impl = c.flavor == kWbiTts ? core::BarrierImpl::kCentral : core::BarrierImpl::kCbl;
  if (c.flavor == kPaper) {
    cfg.data_protocol = core::DataProtocol::kReadUpdate;
    cfg.consistency = core::Consistency::kBuffered;
  }
  return cfg;
}

const char* name(Flavor f) {
  switch (f) {
    case kWbiTts: return "wbi+tts+central";
    case kWbiCbl: return "wbi+cbl";
    case kPaper: return "ru+bc+cbl";
  }
  return "?";
}

TEST(BlockWords, EveryBlockSizeKeepsItsTickDigestAndTaskCount) {
  for (const Cell& c : kCells) {
    SCOPED_TRACE(testing::Message() << "block_words=" << c.block_words << " " << name(c.flavor)
                                    << (c.network == kOmega ? " omega" : " mesh"));
    core::Machine m(cell_config(c));
    workload::WorkQueueConfig wq;
    wq.total_tasks = 64;
    wq.grain = 20;
    workload::WorkQueueWorkload wl(m, wq);
    wl.spawn_all(m);
    EXPECT_EQ(test::run_all(m), c.ticks);
    EXPECT_EQ(m.stats_digest(), c.digest);
    EXPECT_EQ(wl.tasks_executed(m), 64u);
  }
}

}  // namespace
}  // namespace bcsim
