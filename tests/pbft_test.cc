// Integration tests for the PBFT substrate: normal case, batching, total
// order, checkpoints, view changes, catch-up, and the fairness watchdog.
#include <gtest/gtest.h>

#include "apps/kvstore.h"
#include "bft/client.h"
#include "bft/envelope.h"
#include "bft/keyring.h"
#include "bft/replica.h"
#include "causal/harness.h"
#include "causal/plain.h"
#include "sim/sim_host.h"

namespace scab::causal {
namespace {

using bft::NodeId;
using sim::kMillisecond;
using sim::kSecond;

ClusterOptions base_options(uint32_t f = 1) {
  ClusterOptions o;
  o.protocol = Protocol::kPbft;
  o.bft = bft::BftConfig::for_f(f);
  o.bft.batch_delay = 100 * sim::kMicrosecond;
  o.profile = sim::NetworkProfile::ideal();
  o.seed = 7;
  return o;
}

TEST(Pbft, SingleRequestRoundTrip) {
  Cluster cluster(base_options());
  const auto result = cluster.run_one(0, to_bytes("hello"));
  ASSERT_TRUE(result.has_value());
  for (uint32_t i = 0; i < cluster.n(); ++i) {
    EXPECT_EQ(cluster.replica(i).executed_requests(), 1u) << "replica " << i;
  }
}

TEST(Pbft, SequentialRequestsAllComplete) {
  Cluster cluster(base_options());
  auto& client = cluster.client(0);
  client.run_closed_loop([](uint64_t i) { return to_bytes("op" + std::to_string(i)); },
                         25);
  cluster.sim().run_while([&] { return client.completed_ops() >= 25; });
  EXPECT_EQ(client.completed_ops(), 25u);
  for (uint32_t i = 0; i < cluster.n(); ++i) {
    EXPECT_EQ(cluster.replica(i).executed_requests(), 25u);
  }
}

TEST(Pbft, KvStateConsistentAcrossReplicas) {
  auto opts = base_options();
  opts.num_clients = 3;
  opts.service_factory = [] { return std::make_unique<apps::KvStore>(); };
  Cluster cluster(opts);

  for (uint32_t c = 0; c < 3; ++c) {
    cluster.client(c).run_closed_loop(
        [c](uint64_t i) {
          return apps::KvStore::put("key-" + std::to_string(c) + "-" + std::to_string(i),
                                    to_bytes("v" + std::to_string(i)));
        },
        10);
  }
  cluster.sim().run_while([&] {
    for (uint32_t c = 0; c < 3; ++c) {
      if (cluster.client(c).completed_ops() < 10) return false;
    }
    return true;
  });

  for (uint32_t i = 0; i < cluster.n(); ++i) {
    auto& kv = dynamic_cast<apps::KvStore&>(cluster.service(i));
    EXPECT_EQ(kv.size(), 30u) << "replica " << i;
  }
  // Reads return the written values.
  const auto v = cluster.run_one(0, apps::KvStore::get("key-1-5"));
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, to_bytes("v5"));
}

TEST(Pbft, ConcurrentClientsAreBatched) {
  auto opts = base_options();
  opts.num_clients = 8;
  Cluster cluster(opts);
  for (uint32_t c = 0; c < 8; ++c) {
    cluster.client(c).run_closed_loop([](uint64_t) { return Bytes(64, 1); }, 10);
  }
  cluster.sim().run_while([&] {
    for (uint32_t c = 0; c < 8; ++c) {
      if (cluster.client(c).completed_ops() < 10) return false;
    }
    return true;
  });
  // 80 requests executed in (far) fewer than 80 consensus slots.
  EXPECT_EQ(cluster.replica(1).executed_requests(), 80u);
  EXPECT_LT(cluster.replica(1).last_executed_seq(), 60u);
}

TEST(Pbft, CheckpointsAdvanceTheWatermark) {
  auto opts = base_options();
  opts.bft.checkpoint_interval = 8;
  opts.bft.max_batch = 1;  // one request per slot -> predictable seqnos
  Cluster cluster(opts);
  auto& client = cluster.client(0);
  client.run_closed_loop([](uint64_t) { return Bytes(8, 2); }, 20);
  cluster.sim().run_while([&] { return client.completed_ops() >= 20; });
  for (uint32_t i = 0; i < cluster.n(); ++i) {
    EXPECT_GE(cluster.replica(i).low_watermark(), 16u) << "replica " << i;
  }
}

// A bound replica that has not started may not have replayed its kAccept
// and kVote records yet, so a vote now could contradict one it cast before
// a crash.  scabd and perfbench bind the replica before their posted
// recover(); start() runs, and peers may already be sending: everything
// that arrives before start() must be dropped.
TEST(Pbft, BoundReplicaDropsTrafficUntilStarted) {
  sim::Simulator sim;
  sim::Network net(sim, sim::NetworkProfile::ideal());
  sim::SimHost host(net);
  struct Peer final : host::Node {
    void on_message(NodeId, BytesView) override { ++received; }
    uint64_t received = 0;
  };
  const NodeId peer_ids[] = {0, 2, 3};
  Peer peers[3];
  for (int k = 0; k < 3; ++k) host.bind(peer_ids[k], &peers[k]);

  const bft::BftConfig cfg = bft::BftConfig::for_f(1);
  const bft::KeyRing keys(to_bytes("pre-start"), {0, 1, 2, 3});
  obs::MetricsRegistry metrics;
  PlainReplicaApp app(std::make_unique<EchoService>(0));
  bft::Replica replica(host, 1, cfg, keys, host::CostModel::zero(), &app,
                       crypto::Drbg(to_bytes("replica-1")), &metrics);

  // A valid pre-prepare from the view-0 primary.
  bft::PrePrepare pp;
  pp.view = 0;
  pp.seq = 1;
  pp.batch = {bft::Request{Cluster::client_id(0), 1, to_bytes("op")}};
  const Bytes wire = bft::seal_envelope(
      keys, bft::Channel::kBft, 0, 1,
      bft::tag_bft(bft::BftMsgType::kPrePrepare, pp.serialize()));

  replica.on_message(0, wire);
  sim.run();
  EXPECT_EQ(metrics.counter_value("bft.pre_prepares_accepted"), 0u);
  EXPECT_EQ(net.messages_sent(), 0u) << "the unstarted replica voted";

  // Once started, the same message is accepted and answered with PREPAREs.
  replica.start();
  replica.on_message(0, wire);
  sim.run_until(sim.now() + 10 * kMillisecond);
  EXPECT_EQ(metrics.counter_value("bft.pre_prepares_accepted"), 1u);
  for (const Peer& p : peers) EXPECT_EQ(p.received, 1u);
}

TEST(Pbft, SurvivesBackupCrash) {
  Cluster cluster(base_options());
  cluster.faults().crash(2);  // one backup; f = 1 tolerated
  auto& client = cluster.client(0);
  client.run_closed_loop([](uint64_t) { return Bytes(16, 3); }, 15);
  cluster.sim().run_while([&] { return client.completed_ops() >= 15; });
  EXPECT_EQ(client.completed_ops(), 15u);
  EXPECT_EQ(cluster.replica(0).view_changes_completed(), 0u);
}

TEST(Pbft, PrimaryCrashTriggersViewChangeAndRecovers) {
  auto opts = base_options();
  opts.bft.request_timeout = 1 * kSecond;
  opts.bft.watchdog_period = 200 * kMillisecond;
  Cluster cluster(opts);

  cluster.faults().crash(0);  // the view-0 primary is dead
  const auto result = cluster.run_one(0, to_bytes("survive"), 60 * kSecond);
  ASSERT_TRUE(result.has_value());
  for (uint32_t i = 1; i < cluster.n(); ++i) {
    EXPECT_GE(cluster.replica(i).view(), 1u) << "replica " << i;
    EXPECT_EQ(cluster.replica(i).executed_requests(), 1u);
  }
}

TEST(Pbft, RepeatedPrimaryFailuresAdvanceViews) {
  auto opts = base_options();
  opts.bft.request_timeout = 1 * kSecond;
  opts.bft.watchdog_period = 200 * kMillisecond;
  Cluster cluster(opts);

  // Kill primaries of views 0 and 1: the cluster must reach view >= 2.
  cluster.faults().crash(0);
  cluster.faults().crash(1);
  // f = 1 but two crashed replicas: the remaining 2 < 2f+1 cannot commit.
  // So instead: recover 1 after the first view change.
  const auto unreachable = cluster.run_one(0, to_bytes("x"), 3 * kSecond);
  EXPECT_FALSE(unreachable.has_value());
  cluster.faults().restart(1);
  const auto result = cluster.run_one(0, to_bytes("y"), 60 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_GE(cluster.replica(2).view(), 1u);
}

TEST(Pbft, LaggingReplicaCatchesUpViaFetch) {
  auto opts = base_options();
  opts.bft.checkpoint_interval = 8;
  Cluster cluster(opts);

  // Isolate replica 3's inbound links: it misses everything.
  for (NodeId r = 0; r < 3; ++r) cluster.faults().cut(r, 3);
  cluster.faults().cut(Cluster::client_id(0), 3);

  auto& client = cluster.client(0);
  client.run_closed_loop([](uint64_t) { return Bytes(8, 4); }, 30);
  cluster.sim().run_while([&] { return client.completed_ops() >= 30; });
  EXPECT_EQ(cluster.replica(3).executed_requests(), 0u);

  // Heal and push more traffic so new checkpoints reach replica 3.
  for (NodeId r = 0; r < 3; ++r) cluster.faults().heal(r, 3);
  cluster.faults().heal(Cluster::client_id(0), 3);
  client.run_closed_loop([](uint64_t) { return Bytes(8, 5); }, 30);
  const bool caught_up = cluster.sim().run_while([&] {
    return cluster.replica(3).executed_requests() >= 50 ||
           cluster.sim().now() > 300 * kSecond;
  });
  ASSERT_TRUE(caught_up);
  EXPECT_GE(cluster.replica(3).executed_requests(), 50u);
}

TEST(Pbft, FairnessWatchdogDemotesStarvingPrimary) {
  // The primary drops client 1's requests (selective starvation).  The
  // fairness monitor must eventually demote it even though other clients
  // are being served.
  auto opts = base_options();
  opts.num_clients = 2;
  opts.bft.request_timeout = 1 * kSecond;
  opts.bft.watchdog_period = 200 * kMillisecond;
  opts.profile = sim::NetworkProfile::lan();  // realistic pacing
  Cluster cluster(opts);

  cluster.faults().cut(Cluster::client_id(1), 0);  // primary never sees c1

  auto& happy = cluster.client(0);
  happy.run_closed_loop([](uint64_t) { return Bytes(8, 6); }, 0);

  auto& starved = cluster.client(1);
  // Do not let the client retransmit around the cut primary: it would mask
  // the fairness property we want to observe... except retransmission IS
  // the mechanism that informs backups. Keep the default.
  starved.submit(to_bytes("starved-op"));

  const bool served = cluster.sim().run_while([&] {
    return starved.completed_ops() >= 1 ||
           cluster.sim().now() > 120 * kSecond;
  });
  ASSERT_TRUE(served);
  EXPECT_EQ(starved.completed_ops(), 1u);
  EXPECT_GE(cluster.replica(2).view(), 1u);  // the old primary was demoted
}

// An issued operation's retry timer holds its slot, so the slots cannot be
// replaced once one was issued.
TEST(Pbft, ClientRefusesSetPipelineAfterAnOperation) {
  Cluster cluster(base_options());
  bft::Client& client = cluster.client(0);
  ASSERT_TRUE(cluster.run_one(0, to_bytes("first")).has_value());
  EXPECT_THROW(client.set_pipeline(
                   [] { return make_client_protocol(StackContext{}); }, 4, 1),
               std::logic_error);
  // The refused call changed nothing: the client still runs operations, and
  // both operations' retry timers fire against the slot they hold.
  EXPECT_TRUE(cluster.run_one(0, to_bytes("second")).has_value());
  cluster.sim().run_until(cluster.sim().now() + 2 * kSecond);
  EXPECT_EQ(client.completed_ops(), 2u);
}

// Forwards to a slot's protocol and counts the replies it is handed.
class ReplyCounter final : public bft::ClientProtocol {
 public:
  ReplyCounter(std::unique_ptr<bft::ClientProtocol> inner, uint64_t& calls)
      : inner_(std::move(inner)), calls_(calls) {}

  void start(uint64_t client_seq, BytesView op,
             bft::ClientContext& ctx) override {
    inner_->start(client_seq, op, ctx);
  }
  void on_reply(NodeId replica, const bft::ReplyMsg& reply,
                bft::ClientContext& ctx) override {
    ++calls_;
    inner_->on_reply(replica, reply, ctx);
  }
  void on_causal_message(NodeId from, BytesView body,
                         bft::ClientContext& ctx) override {
    inner_->on_causal_message(from, body, ctx);
  }
  void on_retransmit(bft::ClientContext& ctx) override {
    inner_->on_retransmit(ctx);
  }

 private:
  std::unique_ptr<bft::ClientProtocol> inner_;
  uint64_t& calls_;
};

TEST(Pbft, PipelinedClientHandsEachReplyToTheSlotThatSentIt) {
  constexpr uint64_t kOps = 256;
  for (const Protocol protocol : {Protocol::kPbft, Protocol::kCp3}) {
    SCOPED_TRACE(protocol_name(protocol));
    auto opts = base_options();
    opts.protocol = protocol;
    Cluster cluster(opts);
    bft::Client& client = cluster.client(0);
    uint64_t calls = 0;
    client.set_pipeline(
        [protocol, &calls] {
          StackContext ctx;
          ctx.protocol = protocol;
          return std::make_unique<ReplyCounter>(make_client_protocol(ctx),
                                                calls);
        },
        /*inflight=*/32, /*batch=*/1);
    client.run_closed_loop(
        [](uint64_t i) { return to_bytes("op" + std::to_string(i)); }, kOps);
    const host::Time stop_at = cluster.sim().now() + 60 * kSecond;
    cluster.sim().run_while([&] {
      return client.completed_ops() >= kOps || cluster.sim().now() >= stop_at;
    });
    ASSERT_EQ(client.completed_ops(), kOps);
    // One call per replica's reply at most; handing every reply to every
    // in-flight slot made this grow with the window.
    EXPECT_LE(calls, cluster.n() * kOps);
    EXPECT_GE(calls, (opts.bft.f + 1) * kOps);
  }
}

TEST(Pbft, LanProfileLatencyIsSubMillisecond) {
  auto opts = base_options();
  opts.profile = sim::NetworkProfile::lan();
  Cluster cluster(opts);
  auto& client = cluster.client(0);
  client.run_closed_loop([](uint64_t) { return Bytes(4096, 7); }, 10);
  cluster.sim().run_while([&] { return client.completed_ops() >= 10; });
  const double mean_ms =
      static_cast<double>(client.total_latency()) / 10 / kMillisecond;
  // 5 message delays of ~0.05 ms plus batching delay: well under 2 ms.
  EXPECT_LT(mean_ms, 2.0);
  EXPECT_GT(mean_ms, 0.1);
}

TEST(Pbft, WanProfileLatencyIsHundredsOfMilliseconds) {
  auto opts = base_options();
  opts.profile = sim::NetworkProfile::wan();
  Cluster cluster(opts);
  auto& client = cluster.client(0);
  client.set_retry_timeout(5 * kSecond);
  client.run_closed_loop([](uint64_t) { return Bytes(4096, 8); }, 5);
  cluster.sim().run_while([&] { return client.completed_ops() >= 5; });
  const double mean_ms =
      static_cast<double>(client.total_latency()) / 5 / kMillisecond;
  // 5 hops x 60 ms one-way = ~300 ms, as in the paper's Table III.
  EXPECT_GT(mean_ms, 200.0);
  EXPECT_LT(mean_ms, 600.0);
}

}  // namespace
}  // namespace scab::causal
