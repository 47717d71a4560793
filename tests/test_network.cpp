// Network layer tests: delivery, local bypass, FIFO per source-destination
// pair, Omega contention, flit accounting.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
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

}  // namespace
}  // namespace bcsim::net
