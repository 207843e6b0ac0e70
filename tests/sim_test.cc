#include "sim/network.h"
#include "sim/simulator.h"

#include <gtest/gtest.h>

namespace scab::sim {
namespace {

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, TieBrokenByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5, [&] { order.push_back(1); });
  sim.schedule_at(5, [&] { order.push_back(2); });
  sim.schedule_at(5, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, HandlersCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 5) sim.schedule_after(10, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), 40u);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  SimTime seen = 0;
  sim.schedule_at(100, [&] {
    sim.schedule_at(50, [&] { seen = sim.now(); });  // "in the past"
  });
  sim.run();
  EXPECT_EQ(seen, 100u);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  for (SimTime t : {10u, 20u, 30u, 40u}) {
    sim.schedule_at(t, [&] { ++count; });
  }
  sim.run_until(25);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 25u);
  EXPECT_FALSE(sim.idle());
  sim.run();
  EXPECT_EQ(count, 4);
}

TEST(Simulator, RunWhilePredicate) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(i * 10, [&] { ++count; });
  }
  EXPECT_TRUE(sim.run_while([&] { return count >= 4; }));
  EXPECT_EQ(count, 4);
  EXPECT_FALSE(sim.run_while([&] { return count >= 100; }));
  EXPECT_EQ(count, 10);
}

// ---------------------------------------------------------------------------

class Recorder : public host::Node {
 public:
  Recorder(Network& net, NodeId id) : net_(net), id_(id) {}

  void on_message(NodeId from, BytesView msg) override {
    received.emplace_back(from, Bytes(msg.begin(), msg.end()),
                          net_.sim().now());
    if (cost_per_message > 0) net_.charge(id_, cost_per_message);
  }

  struct Rx {
    NodeId from;
    Bytes msg;
    SimTime at;
    Rx(NodeId f, Bytes m, SimTime t) : from(f), msg(std::move(m)), at(t) {}
  };
  std::vector<Rx> received;
  SimTime cost_per_message = 0;

 private:
  Network& net_;
  NodeId id_;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(sim_, NetworkProfile::ideal()) {
    for (NodeId i = 0; i < 3; ++i) {
      nodes_.push_back(std::make_unique<Recorder>(net_, i));
      net_.attach(i, nodes_.back().get());
    }
  }

  Simulator sim_;
  Network net_;
  std::vector<std::unique_ptr<Recorder>> nodes_;
};

TEST_F(NetworkTest, PointToPointDelivery) {
  net_.send(0, 1, to_bytes("hello"));
  sim_.run();
  ASSERT_EQ(nodes_[1]->received.size(), 1u);
  EXPECT_EQ(nodes_[1]->received[0].from, 0u);
  EXPECT_EQ(to_string(nodes_[1]->received[0].msg), "hello");
  EXPECT_TRUE(nodes_[0]->received.empty());
}

TEST_F(NetworkTest, UnknownDestinationIsDroppedSilently) {
  net_.send(0, 99, to_bytes("x"));
  sim_.run();
  EXPECT_EQ(net_.messages_delivered(), 0u);
}

TEST_F(NetworkTest, CrashedNodeNeitherSendsNorReceives) {
  net_.faults().crash(1);
  net_.send(0, 1, to_bytes("to-crashed"));
  net_.send(1, 2, to_bytes("from-crashed"));
  sim_.run();
  EXPECT_TRUE(nodes_[1]->received.empty());
  EXPECT_TRUE(nodes_[2]->received.empty());

  net_.faults().restart(1);
  net_.send(0, 1, to_bytes("back"));
  sim_.run();
  EXPECT_EQ(nodes_[1]->received.size(), 1u);
}

TEST_F(NetworkTest, CutLinkIsDirectional) {
  net_.faults().cut(0, 1);
  net_.send(0, 1, to_bytes("x"));
  net_.send(1, 0, to_bytes("y"));
  sim_.run();
  EXPECT_TRUE(nodes_[1]->received.empty());
  EXPECT_EQ(nodes_[0]->received.size(), 1u);
  net_.faults().heal(0, 1);
  net_.send(0, 1, to_bytes("x2"));
  sim_.run();
  EXPECT_EQ(nodes_[1]->received.size(), 1u);
}

TEST_F(NetworkTest, TamperHookModifiesAndDrops) {
  net_.faults().set_tamper([](NodeId, NodeId to, BytesView msg) -> std::optional<Bytes> {
    if (to == 1) return std::nullopt;  // drop to node 1
    Bytes m(msg.begin(), msg.end());
    m[0] ^= 0xff;  // corrupt to others
    return m;
  });
  net_.send(0, 1, to_bytes("x"));
  net_.send(0, 2, to_bytes("x"));
  sim_.run();
  EXPECT_TRUE(nodes_[1]->received.empty());
  ASSERT_EQ(nodes_[2]->received.size(), 1u);
  EXPECT_NE(nodes_[2]->received[0].msg[0], 'x');
}

TEST(NetworkTiming, LatencyIsApplied) {
  Simulator sim;
  NetworkProfile p;  // ideal + explicit latency
  p.link.latency = 5 * kMillisecond;
  Network net(sim, p);
  Recorder a(net, 0), b(net, 1);
  net.attach(0, &a);
  net.attach(1, &b);
  net.send(0, 1, to_bytes("m"));
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].at, 5 * kMillisecond);
}

TEST(NetworkTiming, BandwidthSerializesLargeMessages) {
  Simulator sim;
  NetworkProfile p;
  p.link.bandwidth_bps = 1'000'000;  // 1 MB/s: 1000 bytes take 1 ms
  Network net(sim, p);
  Recorder a(net, 0), b(net, 1);
  net.attach(0, &a);
  net.attach(1, &b);
  net.send(0, 1, Bytes(1000, 0));
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].at, kMillisecond);
}

TEST(NetworkTiming, BackToBackMessagesQueueOnTheLink) {
  Simulator sim;
  NetworkProfile p;
  p.link.bandwidth_bps = 1'000'000;
  Network net(sim, p);
  Recorder a(net, 0), b(net, 1);
  net.attach(0, &a);
  net.attach(1, &b);
  net.send(0, 1, Bytes(1000, 0));
  net.send(0, 1, Bytes(1000, 0));
  sim.run();
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_EQ(b.received[0].at, kMillisecond);
  EXPECT_EQ(b.received[1].at, 2 * kMillisecond);  // queued behind the first
}

TEST(NetworkTiming, EgressPipeSharedAcrossDestinations) {
  // Single-NIC model: two messages to distinct receivers still serialize on
  // the sender's egress pipe.
  Simulator sim;
  NetworkProfile p;
  p.link.bandwidth_bps = 1'000'000;
  Network net(sim, p);
  Recorder a(net, 0), b(net, 1), c(net, 2);
  net.attach(0, &a);
  net.attach(1, &b);
  net.attach(2, &c);
  net.send(0, 1, Bytes(1000, 0));
  net.send(0, 2, Bytes(1000, 0));
  sim.run();
  EXPECT_EQ(b.received[0].at, kMillisecond);
  EXPECT_EQ(c.received[0].at, 2 * kMillisecond);
}

TEST(NetworkTiming, DistinctSendersDoNotInterfere) {
  Simulator sim;
  NetworkProfile p;
  p.link.bandwidth_bps = 1'000'000;
  Network net(sim, p);
  Recorder a(net, 0), b(net, 1), c(net, 2);
  net.attach(0, &a);
  net.attach(1, &b);
  net.attach(2, &c);
  net.send(0, 2, Bytes(1000, 0));
  net.send(1, 2, Bytes(1000, 0));
  sim.run();
  ASSERT_EQ(c.received.size(), 2u);
  EXPECT_EQ(c.received[0].at, kMillisecond);
  EXPECT_EQ(c.received[1].at, kMillisecond);
}

TEST(NetworkTiming, ReceiverCpuSerializesHandlers) {
  Simulator sim;
  Network net(sim, NetworkProfile{});  // literal zero latency
  Recorder a(net, 0), b(net, 1);
  b.cost_per_message = 10 * kMillisecond;
  net.attach(0, &a);
  net.attach(1, &b);
  net.send(0, 1, to_bytes("m1"));
  net.send(0, 1, to_bytes("m2"));
  net.send(0, 1, to_bytes("m3"));
  sim.run();
  ASSERT_EQ(b.received.size(), 3u);
  EXPECT_EQ(b.received[0].at, 0u);
  EXPECT_EQ(b.received[1].at, 10 * kMillisecond);
  EXPECT_EQ(b.received[2].at, 20 * kMillisecond);
}

TEST(NetworkTiming, SenderCpuDelaysDeparture) {
  Simulator sim;
  Network net(sim, NetworkProfile{});  // literal zero latency
  Recorder a(net, 0), b(net, 1);
  net.attach(0, &a);
  net.attach(1, &b);
  // Node 0 does 7 ms of work, then sends (as a protocol handler would).
  sim.schedule_at(0, [&] {
    net.charge(0, 7 * kMillisecond);
    net.send(0, 1, to_bytes("after-work"));
  });
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].at, 7 * kMillisecond);
}

TEST(NetworkTiming, JitterIsBoundedAndDeterministic) {
  auto run_once = [](uint64_t seed) {
    Simulator sim;
    NetworkProfile p;
    p.link.jitter = kMillisecond;
    Network net(sim, p, seed);
    Recorder a(net, 0), b(net, 1);
    net.attach(0, &a);
    net.attach(1, &b);
    std::vector<SimTime> arrivals;
    for (int i = 0; i < 10; ++i) net.send(0, 1, to_bytes("m"));
    sim.run();
    for (const auto& rx : b.received) arrivals.push_back(rx.at);
    return arrivals;
  };
  const auto a1 = run_once(42);
  const auto a2 = run_once(42);
  const auto b1 = run_once(43);
  EXPECT_EQ(a1, a2);  // deterministic per seed
  EXPECT_NE(a1, b1);  // seed-dependent
  for (SimTime t : a1) EXPECT_LT(t, kMillisecond);
}

TEST(CostModel, ZeroModelChargesNothing) {
  const host::CostModel m = host::CostModel::zero();
  EXPECT_EQ(m.cost(host::Op::kTdh2Encrypt, 100000), 0u);
}

TEST(CostModel, PerByteScaling) {
  host::CostModel m;
  m.set(host::Op::kHash, {100, 1024});  // 1 ns/byte at 1/1024 granularity
  EXPECT_EQ(m.cost(host::Op::kHash, 0), 100u);
  EXPECT_EQ(m.cost(host::Op::kHash, 2048), 100u + 2048u);
}

TEST(CostModel, DefaultEraSeparatesSymmetricFromThreshold) {
  const host::CostModel m = host::CostModel::default_symmetric_era();
  // The entire premise of the paper: threshold ops are ~1000x symmetric ops.
  EXPECT_GT(m.cost(host::Op::kTdh2ShareDec), 1000 * m.cost(host::Op::kMac, 64));
}

}  // namespace
}  // namespace scab::sim
