// Network layer tests: delivery, local bypass, FIFO per source-destination
// pair, Omega contention, flit accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace bcsim::net {
namespace {

struct NetFixture : ::testing::Test {
  sim::Simulator simulator;
  sim::StatsRegistry stats;

  Message make_msg(NodeId src, NodeId dst, MsgType t = MsgType::kGetS) {
    Message m;
    m.src = src;
    m.dst = dst;
    m.unit = Unit::kMemory;
    m.type = t;
    return m;
  }
};

TEST_F(NetFixture, IdealDeliversAtFixedLatency) {
  IdealNetwork net(simulator, stats, 4, 7);
  std::vector<Tick> arrivals;
  net.attach(2, Unit::kMemory, [&](const Message&) { arrivals.push_back(simulator.now()); });
  net.send(make_msg(0, 2));
  simulator.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 7u);
}

TEST_F(NetFixture, LocalTrafficBypassesNetwork) {
  IdealNetwork net(simulator, stats, 4, 50);
  Tick arrival = 0;
  net.attach(1, Unit::kCache, [&](const Message&) { arrival = simulator.now(); });
  Message m = make_msg(1, 1, MsgType::kDataS);
  m.unit = Unit::kCache;
  net.send(std::move(m));
  simulator.run();
  EXPECT_EQ(arrival, Network::kLocalLatency);
  EXPECT_EQ(stats.counter_value("net.local"), 1u);
  EXPECT_EQ(stats.counter_value("net.remote"), 0u);
}

TEST_F(NetFixture, UnattachedEndpointThrows) {
  IdealNetwork net(simulator, stats, 2, 1);
  net.send(make_msg(0, 1));
  EXPECT_THROW(simulator.run(), std::logic_error);
}

TEST_F(NetFixture, OmegaHeaderLatencyIsStagesTimesSwitchDelay) {
  // 8 endpoints -> 3 stages; control message = 1 flit.
  OmegaNetwork net(simulator, stats, 8, 2);
  Tick arrival = 0;
  net.attach(5, Unit::kMemory, [&](const Message&) { arrival = simulator.now(); });
  net.send(make_msg(0, 5));
  simulator.run();
  EXPECT_EQ(arrival, 3u * 2u);  // 3 stages x switch_delay 2, 1-flit message
}

TEST_F(NetFixture, OmegaSerializesConflictingMessages) {
  // Both messages target node 3: they share at least the final output
  // port, so the second must queue behind the first.
  OmegaNetwork net(simulator, stats, 8, 1);
  std::vector<Tick> arrivals;
  net.attach(3, Unit::kMemory, [&](const Message&) { arrivals.push_back(simulator.now()); });
  net.send(make_msg(0, 3));
  net.send(make_msg(4, 3));
  simulator.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_GT(arrivals[1], arrivals[0]);
  EXPECT_GT(stats.counter_value("net.contention_cycles"), 0u);
}

TEST_F(NetFixture, OmegaDisjointPathsDontConflict) {
  OmegaNetwork net(simulator, stats, 8, 1);
  std::vector<Tick> arrivals;
  for (NodeId d : {1u, 6u}) {
    net.attach(d, Unit::kMemory, [&](const Message&) { arrivals.push_back(simulator.now()); });
  }
  net.send(make_msg(0, 1));
  net.send(make_msg(7, 6));
  simulator.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], arrivals[1]);  // no shared port on these paths
}

TEST_F(NetFixture, SameSrcDstPairIsFifo) {
  // FIFO per (src,dst) is a protocol correctness requirement (e.g. DataS
  // before a later Inv); verify it holds under load.
  OmegaNetwork net(simulator, stats, 16, 1);
  std::vector<Word> order;
  net.attach(9, Unit::kCache, [&](const Message& m) { order.push_back(m.value); });
  for (Word i = 0; i < 50; ++i) {
    Message m = make_msg(2, 9, MsgType::kDataS);
    m.unit = Unit::kCache;
    m.value = i;
    if (i % 3 == 0) m.data.count = 4;  // mix sizes
    net.send(std::move(m));
  }
  simulator.run();
  ASSERT_EQ(order.size(), 50u);
  for (Word i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST_F(NetFixture, BlockMessagesChargeMoreFlits) {
  OmegaNetwork net(simulator, stats, 4, 1);
  net.set_block_words(4);
  net.attach(2, Unit::kMemory, [](const Message&) {});
  Message small = make_msg(1, 2);
  Message big = make_msg(1, 2, MsgType::kDataS);
  big.data.count = 4;
  EXPECT_EQ(net.flits_of(small), 1u);
  EXPECT_EQ(net.flits_of(big), 5u);  // 1 header + 4 words
  Message word = make_msg(1, 2, MsgType::kWriteGlobal);
  EXPECT_EQ(net.flits_of(word), 2u);
}

TEST_F(NetFixture, CrossbarContendsOnlyAtDestination) {
  CrossbarNetwork net(simulator, stats, 8, 3);
  std::vector<Tick> arrivals;
  net.attach(5, Unit::kMemory, [&](const Message&) { arrivals.push_back(simulator.now()); });
  net.attach(6, Unit::kMemory, [&](const Message&) { arrivals.push_back(simulator.now()); });
  net.send(make_msg(0, 5));
  net.send(make_msg(1, 6));  // different destinations: no conflict
  simulator.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], arrivals[1]);

  arrivals.clear();
  net.send(make_msg(0, 5));
  net.send(make_msg(1, 5));  // same destination: serialized
  simulator.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_GT(arrivals[1], arrivals[0]);
}

TEST_F(NetFixture, MessageCountersTrackTypes) {
  IdealNetwork net(simulator, stats, 4, 1);
  net.attach(1, Unit::kMemory, [](const Message&) {});
  net.send(make_msg(0, 1, MsgType::kGetS));
  net.send(make_msg(0, 1, MsgType::kGetX));
  net.send(make_msg(0, 1, MsgType::kGetS));
  simulator.run();
  EXPECT_EQ(stats.counter_value("net.messages"), 3u);
  EXPECT_EQ(stats.counter_value("net.msg.GetS"), 2u);
  EXPECT_EQ(stats.counter_value("net.msg.GetX"), 1u);
}

// Property sweep: routing must deliver between every src/dst pair for a
// range of network widths, including non-power-of-two node counts.
class OmegaAllPairs : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(OmegaAllPairs, EveryPairDelivers) {
  const std::uint32_t n = GetParam();
  sim::Simulator simulator;
  sim::StatsRegistry stats;
  OmegaNetwork net(simulator, stats, n, 1);
  std::vector<int> received(n, 0);
  for (NodeId d = 0; d < n; ++d) {
    net.attach(d, Unit::kMemory, [&received, d](const Message& m) {
      EXPECT_EQ(m.dst, d);
      ++received[d];
    });
  }
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      Message m;
      m.src = s;
      m.dst = d;
      m.unit = Unit::kMemory;
      net.send(std::move(m));
    }
  }
  simulator.run();
  for (NodeId d = 0; d < n; ++d) EXPECT_EQ(received[d], static_cast<int>(n));
}

INSTANTIATE_TEST_SUITE_P(Widths, OmegaAllPairs,
                         ::testing::Values(2u, 3u, 4u, 7u, 8u, 16u, 33u, 64u));

// --- 2D mesh ---

TEST_F(NetFixture, MeshLatencyIsManhattanDistance) {
  MeshNetwork net(simulator, stats, 16, 1);  // 4x4 grid
  ASSERT_EQ(net.columns(), 4u);
  ASSERT_EQ(net.rows(), 4u);
  Tick arrival = 0;
  // node 0 = (0,0), node 15 = (3,3): 6 hops.
  net.attach(15, Unit::kMemory, [&](const Message&) { arrival = simulator.now(); });
  net.send(make_msg(0, 15));
  simulator.run();
  EXPECT_EQ(arrival, 6u);
}

TEST_F(NetFixture, MeshSharedLinkSerializes) {
  MeshNetwork net(simulator, stats, 16, 1);
  std::vector<Tick> arrivals;
  net.attach(3, Unit::kMemory, [&](const Message&) { arrivals.push_back(simulator.now()); });
  // Both routes traverse the (2,0)->(3,0) +x link under XY routing.
  net.send(make_msg(0, 3));
  net.send(make_msg(1, 3));
  simulator.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_GT(arrivals[1], arrivals[0]);
  EXPECT_GT(stats.counter_value("net.contention_cycles"), 0u);
}

TEST_F(NetFixture, MeshDisjointRowsDontConflict) {
  MeshNetwork net(simulator, stats, 16, 1);
  std::vector<Tick> arrivals;
  net.attach(1, Unit::kMemory, [&](const Message&) { arrivals.push_back(simulator.now()); });
  net.attach(5, Unit::kMemory, [&](const Message&) { arrivals.push_back(simulator.now()); });
  net.send(make_msg(0, 1));  // row 0
  net.send(make_msg(4, 5));  // row 1
  simulator.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], arrivals[1]);
}

class MeshAllPairs : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MeshAllPairs, EveryPairDelivers) {
  const std::uint32_t n = GetParam();
  sim::Simulator simulator;
  sim::StatsRegistry stats;
  MeshNetwork net(simulator, stats, n, 1);
  std::vector<int> received(n, 0);
  for (NodeId d = 0; d < n; ++d) {
    net.attach(d, Unit::kMemory, [&received, d](const Message& m) {
      EXPECT_EQ(m.dst, d);
      ++received[d];
    });
  }
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      Message m;
      m.src = s;
      m.dst = d;
      m.unit = Unit::kMemory;
      net.send(std::move(m));
    }
  }
  simulator.run();
  for (NodeId d = 0; d < n; ++d) EXPECT_EQ(received[d], static_cast<int>(n));
}

INSTANTIATE_TEST_SUITE_P(Widths, MeshAllPairs, ::testing::Values(2u, 5u, 9u, 16u, 63u));

// --- port occupancy with a slow switch (regression) ---
//
// A port must stay occupied until max(flits, switch_delay): the header
// only leaves the switch after switch_delay cycles, so with switch_delay >
// flits the old `free_at = t + flits` freed the port while the previous
// message was still inside it, letting back-to-back messages pipeline at
// flit spacing instead of switch spacing.

TEST_F(NetFixture, OmegaSlowSwitchHoldsPortUntilHeaderLeaves) {
  OmegaNetwork net(simulator, stats, 8, /*switch_delay=*/3);
  std::vector<Tick> arrivals;
  net.attach(3, Unit::kMemory, [&](const Message&) { arrivals.push_back(simulator.now()); });
  net.send(make_msg(0, 3));  // 1-flit control messages
  net.send(make_msg(0, 3));
  simulator.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 9u);   // 3 stages x delay 3
  // The follower queues a full switch_delay behind the leader at every
  // stage: entry 3/6/9, arrival 12. The pre-fix pipeline spacing was 1
  // (arrival 10).
  EXPECT_EQ(arrivals[1], 12u);
}

TEST_F(NetFixture, MeshSlowRouterHoldsLinkUntilHeaderLeaves) {
  MeshNetwork net(simulator, stats, 16, /*hop_delay=*/3);
  std::vector<Tick> arrivals;
  net.attach(1, Unit::kMemory, [&](const Message&) { arrivals.push_back(simulator.now()); });
  net.send(make_msg(0, 1));  // one +x hop
  net.send(make_msg(0, 1));
  simulator.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 3u);
  EXPECT_EQ(arrivals[1], 6u);  // pre-fix: 4 (link freed after 1 flit)
}

// --- degenerate geometry ---

TEST_F(NetFixture, OneNodeNetworksHandleLocalTraffic) {
  // n=1 pads the omega to 2 wires / 1 stage and the mesh to a 1x1 grid;
  // all traffic is local, but construction and the local path must work.
  OmegaNetwork omega(simulator, stats, 1, 1);
  MeshNetwork mesh(simulator, stats, 1, 1);
  EXPECT_EQ(mesh.columns(), 1u);
  EXPECT_EQ(mesh.rows(), 1u);
  int delivered = 0;
  omega.attach(0, Unit::kMemory, [&](const Message&) { ++delivered; });
  mesh.attach(0, Unit::kMemory, [&](const Message&) { ++delivered; });
  omega.send(make_msg(0, 0));
  mesh.send(make_msg(0, 0));
  simulator.run();
  EXPECT_EQ(delivered, 2);
}

TEST_F(NetFixture, TwoNodeMeshIsOneByTwo) {
  MeshNetwork net(simulator, stats, 2, 1);  // 2x1 grid: a single row
  EXPECT_EQ(net.columns(), 2u);
  EXPECT_EQ(net.rows(), 1u);
  std::vector<Tick> arrivals;
  net.attach(0, Unit::kMemory, [&](const Message&) { arrivals.push_back(simulator.now()); });
  net.attach(1, Unit::kMemory, [&](const Message&) { arrivals.push_back(simulator.now()); });
  net.send(make_msg(0, 1));
  net.send(make_msg(1, 0));
  simulator.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 1u);  // opposite directed links: no conflict
  EXPECT_EQ(arrivals[1], 1u);
}

// 1024-node machines must not trip any shift/index edge case; all-pairs
// would be a million messages, so sample the extreme pairs instead.
class BigFabric : public ::testing::TestWithParam<bool> {};

TEST_P(BigFabric, ExtremePairsDeliverAt1024Nodes) {
  const bool use_mesh = GetParam();
  sim::Simulator simulator;
  sim::StatsRegistry stats;
  std::unique_ptr<Network> net;
  if (use_mesh) {
    net = std::make_unique<MeshNetwork>(simulator, stats, 1024, 1);
  } else {
    net = std::make_unique<OmegaNetwork>(simulator, stats, 1024, 1);
  }
  int delivered = 0;
  for (NodeId d : {0u, 1u, 511u, 512u, 1022u, 1023u}) {
    net->attach(d, Unit::kMemory, [&](const Message&) { ++delivered; });
  }
  const std::pair<NodeId, NodeId> pairs[] = {
      {0, 1023}, {1023, 0}, {511, 512}, {512, 511}, {0, 1}, {1022, 1023}};
  for (const auto& [s, d] : pairs) {
    Message m;
    m.src = s;
    m.dst = d;
    m.unit = Unit::kMemory;
    net->send(std::move(m));
  }
  simulator.run();
  EXPECT_EQ(delivered, 6);
}

INSTANTIATE_TEST_SUITE_P(Topologies, BigFabric, ::testing::Values(false, true));

// --- bounded fabric: credit-based flow control ---

TEST_F(NetFixture, BoundedOmegaExactBackpressureTimings) {
  // n=4 -> 2 stages, depth 1: each port has a single slot, and the slot's
  // credit is usable again one switch traversal after the tail drains.
  OmegaNetwork net(simulator, stats, 4, 1, /*buffer_depth=*/1);
  std::vector<Tick> arrivals;
  net.attach(3, Unit::kMemory, [&](const Message&) { arrivals.push_back(simulator.now()); });
  net.send(make_msg(0, 3));
  net.send(make_msg(0, 3));
  net.send(make_msg(0, 3));
  simulator.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], 2u);
  EXPECT_EQ(arrivals[1], 4u);  // credit-return spacing: 2 (vs 1 unbounded)
  EXPECT_EQ(arrivals[2], 6u);
  EXPECT_GT(net.inject_stall_cycles(), 0u);
  EXPECT_EQ(stats.counter_value("net.inject_stall_cycles"), net.inject_stall_cycles());
}

TEST_F(NetFixture, UnboundedOmegaTimingsUnchangedByDepthZero) {
  // Depth 0 takes the exact legacy code path: same arrivals, and the
  // credit-stall counters are never even registered, so the stats digest
  // is bit-identical to pre-bounded-fabric builds.
  OmegaNetwork net(simulator, stats, 4, 1, /*buffer_depth=*/0);
  std::vector<Tick> arrivals;
  net.attach(3, Unit::kMemory, [&](const Message&) { arrivals.push_back(simulator.now()); });
  net.send(make_msg(0, 3));
  net.send(make_msg(0, 3));
  net.send(make_msg(0, 3));
  simulator.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], 2u);
  EXPECT_EQ(arrivals[1], 3u);
  EXPECT_EQ(arrivals[2], 4u);
  EXPECT_EQ(net.inject_stall_cycles(), 0u);
  EXPECT_EQ(net.credit_stall_cycles(), 0u);
  // Registering the bounded counters would change the digest; depth 0
  // must not have registered them (counter_value reads without creating).
  EXPECT_EQ(stats.counter_value("net.credit_stall_cycles"), 0u);
  EXPECT_EQ(stats.counter_value("net.inject_stall_cycles"), 0u);
}

TEST_F(NetFixture, BoundedMeshBackpressurePropagatesUpstream) {
  // 2x2 grid, depth 1, 5-flit block messages all targeting node 3: every
  // message takes the same DOR path 0 -> 1 -> 3, the second link saturates,
  // and the credit waits must show up upstream and finally as injection
  // stalls at the source.
  MeshNetwork net(simulator, stats, 4, 1, /*buffer_depth=*/1);
  ASSERT_EQ(net.columns(), 2u);
  net.set_block_words(4);
  std::vector<Tick> arrivals;
  net.attach(3, Unit::kMemory, [&](const Message&) { arrivals.push_back(simulator.now()); });
  for (int i = 0; i < 4; ++i) {
    Message m = make_msg(0, 3, MsgType::kDataS);
    m.data.count = 4;  // 5 flits
    net.send(std::move(m));
  }
  simulator.run();
  ASSERT_EQ(arrivals.size(), 4u);
  for (std::size_t i = 1; i < arrivals.size(); ++i) EXPECT_GT(arrivals[i], arrivals[i - 1]);
  EXPECT_GT(net.inject_stall_cycles() + net.credit_stall_cycles(), 0u);
}

TEST_F(NetFixture, BoundedFabricDeliversAllPairsUnderLoad) {
  // Saturation sanity at depth 1: every message still arrives (the
  // analytic credit walk cannot deadlock), and arrivals respect the
  // min_remote_latency bound.
  for (const bool use_mesh : {false, true}) {
    sim::Simulator s2;
    sim::StatsRegistry st2;
    std::unique_ptr<Network> net;
    if (use_mesh) {
      net = std::make_unique<MeshNetwork>(s2, st2, 16, 1, 1);
    } else {
      net = std::make_unique<OmegaNetwork>(s2, st2, 16, 1, 1);
    }
    int delivered = 0;
    for (NodeId d = 0; d < 16; ++d) {
      net->attach(d, Unit::kMemory, [&](const Message&) { ++delivered; });
    }
    for (NodeId s = 0; s < 16; ++s) {
      for (NodeId d = 0; d < 16; ++d) {
        if (s == d) continue;
        Message m;
        m.src = s;
        m.dst = d;
        m.unit = Unit::kMemory;
        if ((s + d) % 3 == 0) m.data.count = 4;
        net->send(std::move(m));
      }
    }
    s2.run();
    EXPECT_EQ(delivered, 16 * 15);
  }
}

// --- send_at: pooled once, injected later ---

TEST(NetSendAt, DelayedSendsOnOneLinkArriveInOrderUnderEverySeed) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    sim::Simulator simulator;
    simulator.set_schedule_seed(seed);
    sim::StatsRegistry stats;
    OmegaNetwork net(simulator, stats, 8, 1);
    std::vector<std::uint64_t> order;
    for (NodeId d = 0; d < 8; ++d) {
      net.attach(d, Unit::kMemory, [&](const Message& m) {
        if (m.src == 0) order.push_back(m.txn);
      });
    }
    // Two delayed sends on link 0 -> 3, injected at the same tick as
    // racing sends on other links, so a schedule seed has same-tick events
    // to permute.
    for (std::uint64_t txn = 1; txn <= 2; ++txn) {
      for (NodeId src : {0u, 5u, 6u}) {
        Message m;
        m.src = src;
        m.dst = 3;
        m.unit = Unit::kMemory;
        m.txn = txn;
        net.send_at(5, std::move(m));
      }
    }
    simulator.run();
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2})) << "schedule seed " << seed;
  }
}

TEST_F(NetFixture, SendAtCountsAndTracesEachMessageOnceAtItsInjectionTick) {
  IdealNetwork net(simulator, stats, 4, 3);
  simulator.trace().enable(64);
  std::vector<Tick> arrivals;
  for (NodeId d = 0; d < 4; ++d) {
    net.attach(d, Unit::kMemory, [&](const Message&) { arrivals.push_back(simulator.now()); });
  }
  net.send_at(10, make_msg(0, 2, MsgType::kGetX));  // remote
  net.send_at(20, make_msg(1, 1, MsgType::kGetS));  // local
  EXPECT_EQ(stats.counter_value("net.messages"), 0u) << "counted at injection, not before";
  simulator.run();
  EXPECT_EQ(arrivals, (std::vector<Tick>{13, 20 + Network::kLocalLatency}));
  EXPECT_EQ(stats.counter_value("net.messages"), 2u);
  EXPECT_EQ(stats.counter_value("net.data_messages"), 2u);
  EXPECT_EQ(stats.counter_value("net.msg.GetX"), 1u);
  EXPECT_EQ(stats.counter_value("net.msg.GetS"), 1u);
  EXPECT_EQ(stats.counter_value("net.remote"), 1u);
  EXPECT_EQ(stats.counter_value("net.local"), 1u);
  std::vector<Tick> sent_at;
  simulator.trace().for_each([&](const sim::TraceRecord& r) {
    if (r.kind == sim::TraceKind::kMsgSend) sent_at.push_back(r.tick);
  });
  EXPECT_EQ(sent_at, (std::vector<Tick>{10, 20}));
}

TEST_F(NetFixture, SendAtDeliversThePayloadAndChainItWasGiven) {
  IdealNetwork net(simulator, stats, 4, 2);
  Message got;
  net.attach(2, Unit::kCache, [&](const Message& m) { got = m; });
  Message m = make_msg(0, 2, MsgType::kRuUpdate);
  m.unit = Unit::kCache;
  m.data.count = 3;
  m.data.words[0] = 11;
  m.data.words[1] = 22;
  m.data.words[2] = 33;
  const std::vector<NodeId> rest{3, 1};
  m.chain = Chain(rest.begin(), rest.end());
  net.send_at(4, std::move(m));
  simulator.run();
  ASSERT_EQ(got.data.count, 3u);
  EXPECT_EQ(got.data[0], 11u);
  EXPECT_EQ(got.data[1], 22u);
  EXPECT_EQ(got.data[2], 33u);
  ASSERT_FALSE(got.chain.empty());
  EXPECT_EQ(got.chain.front(), 3u);
  got.chain.pop_front();
  EXPECT_EQ(got.chain.front(), 1u);
}

TEST(BlockData, CopiesCarryTheValidWords) {
  BlockData a;
  a.count = 3;
  a.words[0] = 1;
  a.words[1] = 2;
  a.words[2] = 3;
  const BlockData b = a;
  BlockData c;
  c = b;
  for (const BlockData& d : {b, c}) {
    ASSERT_EQ(d.count, 3u);
    for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(d[i], a[i]);
  }
  EXPECT_TRUE(BlockData{}.empty());
}

TEST(Chain, HopsShareOneSnapshotAndAdvanceTheirOwnIndex) {
  const std::vector<NodeId> list{4, 7, 9};
  const Chain chain(list.begin(), list.end());
  Chain hop = chain;  // what a forwarding cache does with its copy
  hop.pop_front();
  EXPECT_EQ(chain.front(), 4u) << "a hop must not advance the chain it copied";
  EXPECT_EQ(hop.front(), 7u);
  hop.pop_front();
  EXPECT_EQ(hop.front(), 9u);
  hop.pop_front();
  EXPECT_TRUE(hop.empty());
  EXPECT_TRUE(Chain(list.end(), list.end()).empty());
  EXPECT_TRUE(Chain{}.empty());
}

TEST_F(NetFixture, FabricReportNamesTheBackpressuredPort) {
  OmegaNetwork bounded(simulator, stats, 4, 1, 1);
  std::vector<Tick> arrivals;
  bounded.attach(3, Unit::kMemory, [&](const Message&) { arrivals.push_back(simulator.now()); });
  for (int i = 0; i < 8; ++i) bounded.send(make_msg(0, 3));
  simulator.run();
  std::ostringstream os;
  bounded.fabric_report(os);
  EXPECT_NE(os.str().find("buffer depth 1"), std::string::npos);
  EXPECT_NE(os.str().find("most backpressured port"), std::string::npos);

  // Unbounded fabrics have no credit state to diagnose: report is empty.
  sim::StatsRegistry other;
  OmegaNetwork unbounded(simulator, other, 4, 1);
  std::ostringstream empty;
  unbounded.fabric_report(empty);
  EXPECT_TRUE(empty.str().empty());
}

// --- the shared walks against the fabrics' own walks they replaced ---

/// The omega and mesh as each timed a message before the two fabrics shared
/// one contention walk and one credit walk: a walk of each kind per fabric,
/// with the bounded state in four vectors per fabric (busy-until, a ring of
/// B credit times, the ring's head, credit-wait cycles). Test-only, and
/// kept as it was, like FlatCache in test_cache.cpp: FabricDifferential
/// holds the fabrics' timing and accounting to it.
class RefLedger {
 public:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  void init(std::size_t n_ports, std::uint32_t depth) {
    depth_ = depth;
    if (depth == 0) return;
    ring_.assign(n_ports * depth, 0);
    head_.assign(n_ports, 0);
  }
  [[nodiscard]] bool bounded() const noexcept { return depth_ > 0; }
  [[nodiscard]] std::uint32_t depth() const noexcept { return depth_; }
  [[nodiscard]] Tick available_at(std::size_t port) const noexcept {
    return ring_[port * depth_ + head_[port]];
  }
  [[nodiscard]] std::size_t claim(std::size_t port) noexcept {
    std::uint32_t& h = head_[port];
    const std::size_t slot = port * depth_ + h;
    h = (h + 1 == depth_) ? 0 : h + 1;
    return slot;
  }
  void set(std::size_t slot, Tick credit_back) noexcept { ring_[slot] = credit_back; }

 private:
  std::uint32_t depth_ = 0;
  std::vector<Tick> ring_;
  std::vector<std::uint32_t> head_;
};

class RefOmega final : public Network {
 public:
  RefOmega(sim::Simulator& simulator, sim::StatsRegistry& stats, std::uint32_t n_nodes,
           Tick switch_delay, std::uint32_t buffer_depth)
      : Network(simulator, stats, n_nodes), switch_delay_(switch_delay) {
    width_ = std::bit_ceil(n_nodes < 2 ? 2u : n_nodes);
    stages_ = static_cast<std::uint32_t>(std::bit_width(width_) - 1);
    const std::size_t n_ports = static_cast<std::size_t>(stages_) * width_;
    port_free_.assign(n_ports, 0);
    credits_.init(n_ports, buffer_depth);
    if (credits_.bounded()) {
      port_stall_.assign(n_ports, 0);
      enable_credit_counters();
    }
  }
  [[nodiscard]] Tick min_remote_latency() const noexcept override {
    return static_cast<Tick>(stages_) * switch_delay_;
  }
  void fabric_report(std::ostream& os) const override {
    if (!credits_.bounded()) return;
    os << "fabric: omega, " << n_nodes() << " nodes (" << stages_ << " stages x " << width_
       << " wires), buffer depth " << credits_.depth() << "\n"
       << "  inject stall cycles:  " << inject_stall_cycles() << "\n"
       << "  credit stall cycles:  " << credit_stall_cycles() << "\n";
    std::size_t worst = 0;
    for (std::size_t p = 1; p < port_stall_.size(); ++p) {
      if (port_stall_[p] > port_stall_[worst]) worst = p;
    }
    if (port_stall_[worst] > 0) {
      os << "  most backpressured port: stage " << worst / width_ << ", wire "
         << worst % width_ << " (" << port_stall_[worst] << " credit-wait cycles)\n";
    }
  }

 protected:
  Tick route(const Message& m, Tick now) override {
    const Tick flits = flits_of(m);
    if (credits_.bounded()) return route_bounded(m, now, flits);
    std::uint32_t wire = m.src;
    Tick t = now;
    Tick waited = 0;
    for (std::uint32_t s = 0; s < stages_; ++s) {
      wire = rotl_bits(wire);
      const std::uint32_t sw = wire >> 1;
      const std::uint32_t out = (m.dst >> (stages_ - 1 - s)) & 1u;
      wire = (sw << 1) | out;
      Tick& free_at = port_free_[static_cast<std::size_t>(s) * width_ + wire];
      if (free_at > t) {
        waited += free_at - t;
        t = free_at;
      }
      free_at = t + std::max(flits, switch_delay_);
      t += switch_delay_;
    }
    if (waited > 0) count_contention(waited);
    return t + (flits - 1);
  }

 private:
  Tick route_bounded(const Message& m, Tick now, Tick flits) {
    std::uint32_t wire = m.src;
    Tick t = now;
    Tick waited = 0;
    std::size_t prev_slot = RefLedger::kNoSlot;
    Tick* prev_free = nullptr;
    for (std::uint32_t s = 0; s < stages_; ++s) {
      wire = rotl_bits(wire);
      const std::uint32_t sw = wire >> 1;
      const std::uint32_t out = (m.dst >> (stages_ - 1 - s)) & 1u;
      wire = (sw << 1) | out;
      const std::size_t port = static_cast<std::size_t>(s) * width_ + wire;
      Tick& free_at = port_free_[port];
      Tick entry = t;
      if (free_at > entry) {
        waited += free_at - entry;
        entry = free_at;
      }
      const Tick credit_at = credits_.available_at(port);
      if (credit_at > entry) {
        const Tick stall = credit_at - entry;
        port_stall_[port] += stall;
        if (s == 0) {
          count_inject_stall(stall);
        } else {
          count_credit_stall(stall);
        }
        entry = credit_at;
      }
      if (prev_slot != RefLedger::kNoSlot) {
        const Tick exit = entry + flits - 1;
        *prev_free = exit;
        credits_.set(prev_slot, exit + switch_delay_);
      }
      prev_slot = credits_.claim(port);
      prev_free = &free_at;
      t = entry + switch_delay_;
    }
    const Tick arrive = t + (flits - 1);
    *prev_free = arrive;
    credits_.set(prev_slot, arrive + switch_delay_);
    if (waited > 0) count_contention(waited);
    return arrive;
  }
  [[nodiscard]] std::uint32_t rotl_bits(std::uint32_t w) const noexcept {
    return ((w << 1) | (w >> (stages_ - 1))) & (width_ - 1);
  }

  std::uint32_t width_;
  std::uint32_t stages_;
  Tick switch_delay_;
  std::vector<Tick> port_free_;
  RefLedger credits_;
  std::vector<std::uint64_t> port_stall_;
};

class RefMesh final : public Network {
 public:
  RefMesh(sim::Simulator& simulator, sim::StatsRegistry& stats, std::uint32_t n_nodes,
          Tick hop_delay, std::uint32_t buffer_depth)
      : Network(simulator, stats, n_nodes), hop_delay_(hop_delay) {
    cols_ = 1;
    while (cols_ * cols_ < n_nodes) ++cols_;
    rows_ = (n_nodes + cols_ - 1) / cols_;
    const std::size_t n_links = static_cast<std::size_t>(cols_) * rows_ * 4;
    link_free_.assign(n_links, 0);
    credits_.init(n_links, buffer_depth);
    if (credits_.bounded()) {
      port_stall_.assign(n_links, 0);
      enable_credit_counters();
    }
  }
  [[nodiscard]] Tick min_remote_latency() const noexcept override { return hop_delay_; }
  void fabric_report(std::ostream& os) const override {
    if (!credits_.bounded()) return;
    os << "fabric: mesh, " << n_nodes() << " nodes (" << cols_ << "x" << rows_
       << "), buffer depth " << credits_.depth() << "\n"
       << "  inject stall cycles:  " << inject_stall_cycles() << "\n"
       << "  credit stall cycles:  " << credit_stall_cycles() << "\n";
    std::size_t worst = 0;
    for (std::size_t p = 1; p < port_stall_.size(); ++p) {
      if (port_stall_[p] > port_stall_[worst]) worst = p;
    }
    if (port_stall_[worst] > 0) {
      static constexpr const char* kDir[] = {"+x", "-x", "+y", "-y"};
      const std::size_t router = worst / 4;
      os << "  most backpressured link: (" << router % cols_ << "," << router / cols_ << ") "
         << kDir[worst % 4] << " (" << port_stall_[worst] << " credit-wait cycles)\n";
    }
  }

 protected:
  Tick route(const Message& m, Tick now) override {
    const Tick flits = flits_of(m);
    if (credits_.bounded()) return route_bounded(m, now, flits);
    std::uint32_t x = m.src % cols_;
    std::uint32_t y = m.src / cols_;
    const std::uint32_t dx = m.dst % cols_;
    const std::uint32_t dy = m.dst / cols_;
    Tick t = now;
    Tick waited = 0;
    auto traverse = [&](std::uint32_t dir) {
      Tick& free_at = link_free_[link_index(x, y, dir)];
      if (free_at > t) {
        waited += free_at - t;
        t = free_at;
      }
      free_at = t + std::max(flits, hop_delay_);
      t += hop_delay_;
    };
    while (x != dx) {
      traverse((dx > x) ? 0u : 1u);
      x = (dx > x) ? x + 1 : x - 1;
    }
    while (y != dy) {
      traverse((dy > y) ? 2u : 3u);
      y = (dy > y) ? y + 1 : y - 1;
    }
    if (waited > 0) count_contention(waited);
    return t + (flits - 1);
  }

 private:
  Tick route_bounded(const Message& m, Tick now, Tick flits) {
    std::uint32_t x = m.src % cols_;
    std::uint32_t y = m.src / cols_;
    const std::uint32_t dx = m.dst % cols_;
    const std::uint32_t dy = m.dst / cols_;
    Tick t = now;
    Tick waited = 0;
    std::size_t prev_slot = RefLedger::kNoSlot;
    Tick* prev_free = nullptr;
    auto traverse = [&](std::uint32_t dir) {
      const std::size_t link = link_index(x, y, dir);
      Tick& free_at = link_free_[link];
      Tick entry = t;
      if (free_at > entry) {
        waited += free_at - entry;
        entry = free_at;
      }
      const Tick credit_at = credits_.available_at(link);
      if (credit_at > entry) {
        const Tick stall = credit_at - entry;
        port_stall_[link] += stall;
        if (prev_slot == RefLedger::kNoSlot) {
          count_inject_stall(stall);
        } else {
          count_credit_stall(stall);
        }
        entry = credit_at;
      }
      if (prev_slot != RefLedger::kNoSlot) {
        const Tick exit = entry + flits - 1;
        *prev_free = exit;
        credits_.set(prev_slot, exit + hop_delay_);
      }
      prev_slot = credits_.claim(link);
      prev_free = &free_at;
      t = entry + hop_delay_;
    };
    while (x != dx) {
      traverse((dx > x) ? 0u : 1u);
      x = (dx > x) ? x + 1 : x - 1;
    }
    while (y != dy) {
      traverse((dy > y) ? 2u : 3u);
      y = (dy > y) ? y + 1 : y - 1;
    }
    const Tick arrive = t + (flits - 1);
    *prev_free = arrive;
    credits_.set(prev_slot, arrive + hop_delay_);
    if (waited > 0) count_contention(waited);
    return arrive;
  }
  [[nodiscard]] std::size_t link_index(std::uint32_t x, std::uint32_t y,
                                       std::uint32_t d) const noexcept {
    return (static_cast<std::size_t>(y) * cols_ + x) * 4 + d;
  }

  std::uint32_t cols_;
  std::uint32_t rows_;
  Tick hop_delay_;
  std::vector<Tick> link_free_;
  RefLedger credits_;
  std::vector<std::uint64_t> port_stall_;
};

/// One fabric under test: its own simulator and stats, every endpoint
/// attached, each delivery recorded as (message id, tick).
struct DiffRun {
  sim::Simulator simulator;
  sim::StatsRegistry stats;
  std::unique_ptr<Network> net;
  std::vector<std::pair<Word, Tick>> deliveries;

  void attach_all(std::uint32_t n_nodes) {
    for (NodeId d = 0; d < n_nodes; ++d) {
      for (const Unit u : {Unit::kCache, Unit::kMemory}) {
        net->attach(d, u, [this](const Message& m) {
          deliveries.emplace_back(m.value, simulator.now());
        });
      }
    }
  }
};

/// Seeded bursts: each burst injects at one tick, from random sources, to
/// random destinations or all to one hot spot (which backs credits up to
/// the sources), mixing control, word and block messages.
std::vector<std::pair<Tick, Message>> bursts(std::uint32_t n_nodes, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto below = [&](std::uint64_t n) { return rng() % n; };
  std::vector<std::pair<Tick, Message>> out;
  Tick at = 0;
  Word id = 0;
  for (int b = 0; b < 12; ++b) {
    at += below(40);
    const bool hot = below(3) == 0;
    const NodeId hot_dst = static_cast<NodeId>(below(n_nodes));
    const std::uint64_t count = 1 + below(std::min<std::uint64_t>(3 * n_nodes, 96));
    for (std::uint64_t i = 0; i < count; ++i) {
      Message m;
      m.src = static_cast<NodeId>(below(n_nodes));
      m.dst = hot ? hot_dst : static_cast<NodeId>(below(n_nodes));
      if (m.src == m.dst) m.src = (m.src + 1) % n_nodes;
      m.unit = below(2) == 0 ? Unit::kCache : Unit::kMemory;
      const std::uint64_t size = below(3);
      m.type = size == 0 ? MsgType::kGetS : size == 1 ? MsgType::kWriteGlobal : MsgType::kDataS;
      if (size == 2) m.data.count = 1;  // control, word or block flits
      m.value = id++;
      out.emplace_back(at, std::move(m));
    }
  }
  return out;
}

TEST(FabricDifferential, MatchesTheParentWalks) {
  std::uint64_t cell = 0;
  std::uint64_t contention = 0;
  std::uint64_t inject = 0;
  std::uint64_t credit = 0;
  std::uint64_t reports = 0;  // bounded reports that name a port
  for (const bool mesh : {false, true}) {
    for (const std::uint32_t depth : {0u, 1u, 2u, 3u, 4u}) {
      for (const std::uint32_t n : {2u, 3u, 5u, 10u, 12u, 63u, 64u, 512u}) {
        for (const Tick delay : {Tick{1}, Tick{3}}) {
          for (const Tick words : {Tick{1}, Tick{4}, Tick{32}}) {
            const std::string where = std::string(mesh ? "mesh" : "omega") + " depth " +
                                      std::to_string(depth) + " nodes " + std::to_string(n) +
                                      " delay " + std::to_string(delay) + " block_words " +
                                      std::to_string(words);
            DiffRun now_run;
            DiffRun ref_run;
            if (mesh) {
              now_run.net = std::make_unique<MeshNetwork>(now_run.simulator, now_run.stats, n,
                                                          delay, depth);
              ref_run.net =
                  std::make_unique<RefMesh>(ref_run.simulator, ref_run.stats, n, delay, depth);
            } else {
              now_run.net = std::make_unique<OmegaNetwork>(now_run.simulator, now_run.stats,
                                                           n, delay, depth);
              ref_run.net =
                  std::make_unique<RefOmega>(ref_run.simulator, ref_run.stats, n, delay, depth);
            }
            const auto sends = bursts(n, ++cell);
            for (DiffRun* r : {&now_run, &ref_run}) {
              r->net->set_block_words(words);
              r->attach_all(n);
              for (const auto& [at, msg] : sends) {
                r->simulator.schedule_at(at,
                                         [r, m = msg]() mutable { r->net->send(std::move(m)); });
              }
              r->simulator.run();
              std::sort(r->deliveries.begin(), r->deliveries.end());
            }
            ASSERT_EQ(now_run.deliveries.size(), sends.size()) << where;
            ASSERT_EQ(now_run.deliveries, ref_run.deliveries) << where;
            EXPECT_EQ(now_run.stats.counter_value("net.contention_cycles"),
                      ref_run.stats.counter_value("net.contention_cycles"))
                << where;
            EXPECT_EQ(now_run.net->inject_stall_cycles(), ref_run.net->inject_stall_cycles())
                << where;
            EXPECT_EQ(now_run.net->credit_stall_cycles(), ref_run.net->credit_stall_cycles())
                << where;
            std::ostringstream now_report;
            std::ostringstream ref_report;
            now_run.net->fabric_report(now_report);
            ref_run.net->fabric_report(ref_report);
            EXPECT_EQ(now_report.str(), ref_report.str()) << where;
            EXPECT_EQ(now_run.stats.digest(), ref_run.stats.digest()) << where;
            contention += now_run.stats.counter_value("net.contention_cycles");
            inject += now_run.net->inject_stall_cycles();
            credit += now_run.net->credit_stall_cycles();
            reports += now_report.str().find("most backpressured") != std::string::npos;
          }
        }
      }
    }
  }
  // The bursts reach every path the walks take: queueing, a stall at the
  // first hop and at a later one, and a report naming a port.
  EXPECT_GT(contention, 0u);
  EXPECT_GT(inject, 0u);
  EXPECT_GT(credit, 0u);
  EXPECT_GT(reports, 0u);
}

}  // namespace
}  // namespace bcsim::net
