// Active-adversary tests: an equivocating primary, forged protocol
// messages, and lossy networks.  The test crafts Byzantine traffic with the
// cluster's own key ring (the simulated adversary controls its corrupted
// node's keys, exactly as in the threat model).
#include <gtest/gtest.h>

#include "apps/kvstore.h"
#include "bft/client.h"
#include "bft/replica.h"
#include "causal/cp0.h"
#include "causal/cp1.h"
#include "causal/harness.h"
#include "crypto/aead.h"
#include "secretshare/arss.h"

namespace scab::causal {
namespace {

using bft::NodeId;
using sim::kMillisecond;
using sim::kSecond;

ClusterOptions byz_options() {
  ClusterOptions o;
  o.protocol = Protocol::kPbft;
  o.bft = bft::BftConfig::for_f(1);
  o.bft.request_timeout = 1 * kSecond;
  o.bft.watchdog_period = 200 * kMillisecond;
  o.profile = sim::NetworkProfile::ideal();
  o.seed = 23;
  o.service_factory = [] { return std::make_unique<apps::KvStore>(); };
  return o;
}

// The primary equivocates: replica 2 receives a DIFFERENT batch than
// replicas 1 and 3 for the same (view, seq).  Safety must hold (no two
// correct replicas execute different operations at the same position) and
// liveness must recover.
TEST(Byzantine, EquivocatingPrimaryCannotSplitState) {
  auto opts = byz_options();
  opts.bft.checkpoint_interval = 8;  // quick catch-up for the lagging replica
  Cluster cluster(opts);

  cluster.faults().set_tamper(
      [&](NodeId from, NodeId to, BytesView msg) -> std::optional<Bytes> {
        if (from != 0 || to != 2) return Bytes(msg.begin(), msg.end());
        // Only rewrite PRE-PREPAREs from the primary to replica 2.
        auto env = bft::open_envelope(cluster.keys(), to, msg);
        if (!env || env->channel != bft::Channel::kBft) {
          return Bytes(msg.begin(), msg.end());
        }
        auto tagged = bft::untag_bft(env->body);
        if (!tagged || tagged->first != bft::BftMsgType::kPrePrepare) {
          return Bytes(msg.begin(), msg.end());
        }
        auto pp = bft::PrePrepare::parse(tagged->second);
        if (!pp) return Bytes(msg.begin(), msg.end());
        // Substitute a conflicting operation (the equivocation).
        for (auto& req : pp->batch) {
          if (!req.is_null()) {
            req.payload = apps::KvStore::put("stolen", to_bytes("evil"));
          }
        }
        const Bytes body =
            bft::tag_bft(bft::BftMsgType::kPrePrepare, pp->serialize());
        return bft::seal_envelope(cluster.keys(), bft::Channel::kBft, from, to,
                                  body);
      });

  const auto result = cluster.run_one(
      0, apps::KvStore::put("honest", to_bytes("value")), 60 * kSecond);

  // The request eventually executes: the equivocated replica 2 cannot
  // prepare (its digest conflicts with the quorum's), but 0, 1 and 3 are a
  // 2f+1 quorum on the honest batch.
  ASSERT_TRUE(result.has_value());

  // Drive enough further traffic for a stable checkpoint; replica 2 then
  // detects it is behind and catches up via fetch — with the HONEST batch.
  cluster.faults().clear_tamper();
  auto& client = cluster.client(0);
  client.run_closed_loop(
      [](uint64_t i) {
        return apps::KvStore::put("fill" + std::to_string(i), to_bytes("x"));
      },
      12);
  cluster.sim().run_while([&] {
    return cluster.replica(2).executed_requests() >= 13 ||
           cluster.sim().now() > 120 * kSecond;
  });

  for (uint32_t i = 0; i < cluster.n(); ++i) {
    auto& kv = dynamic_cast<apps::KvStore&>(cluster.service(i));
    EXPECT_TRUE(kv.execute(0, apps::KvStore::get("stolen")).empty())
        << "replica " << i << " executed the equivocated op";
    EXPECT_EQ(kv.execute(0, apps::KvStore::get("honest")), to_bytes("value"))
        << "replica " << i;
  }
}

// A Byzantine backup floods forged votes claiming other replicas' ids; the
// envelope MACs make them undeliverable, and protocol-level identity checks
// reject votes whose claimed replica differs from the authenticated sender.
TEST(Byzantine, ForgedVotesAreIgnored) {
  auto opts = byz_options();
  Cluster cluster(opts);

  // Replica 3 (Byzantine) claims to be replica 1 inside its PREPAREs.
  bft::PhaseVote forged;
  forged.type = bft::BftMsgType::kPrepare;
  forged.view = 0;
  forged.seq = 1;
  forged.digest = Bytes(32, 0xee);
  forged.replica = 1;  // lie
  const Bytes body =
      bft::tag_bft(bft::BftMsgType::kPrepare, forged.serialize());
  for (NodeId to = 0; to < 3; ++to) {
    cluster.net().send(3, to,
                       bft::seal_envelope(cluster.keys(), bft::Channel::kBft,
                                          3, to, body));
  }
  // The cluster still works and no spurious view change happens.
  const auto r = cluster.run_one(0, apps::KvStore::put("k", to_bytes("v")));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(cluster.replica(1).view_changes_completed(), 0u);
}

// Random message loss between replicas: the protocol stays safe, and with
// client retransmission plus view changes it stays live.
TEST(Byzantine, SurvivesLossyReplicaLinks) {
  auto opts = byz_options();
  opts.profile = sim::NetworkProfile::lan();
  Cluster cluster(opts);

  uint64_t rng_state = 0x12345678;
  cluster.faults().set_tamper(
      [&](NodeId from, NodeId to, BytesView msg) -> std::optional<Bytes> {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        // Drop 5% of replica-to-replica traffic.
        if (from < 4 && to < 4 && rng_state % 100 < 5) return std::nullopt;
        return Bytes(msg.begin(), msg.end());
      });

  auto& client = cluster.client(0);
  client.set_retry_timeout(300 * kMillisecond);
  client.run_closed_loop(
      [](uint64_t i) {
        return apps::KvStore::put("k" + std::to_string(i), to_bytes("v"));
      },
      20);
  const bool done = cluster.sim().run_while([&] {
    return client.completed_ops() >= 20 || cluster.sim().now() > 300 * kSecond;
  });
  ASSERT_TRUE(done);
  EXPECT_EQ(client.completed_ops(), 20u);

  // Drain in-flight work, then compare state divergence-free across the
  // replicas that executed everything.
  cluster.faults().clear_tamper();
  cluster.sim().run_until(cluster.sim().now() + 100 * kMillisecond);
  std::size_t max_size = 0;
  for (uint32_t i = 0; i < cluster.n(); ++i) {
    auto& kv = dynamic_cast<apps::KvStore&>(cluster.service(i));
    max_size = std::max(max_size, kv.size());
  }
  EXPECT_EQ(max_size, 20u);
}

// CP1 under an equivocation-free but payload-garbling adversary: forged
// reveal openings never execute.
TEST(Byzantine, Cp1ForgedOpeningRejected) {
  auto opts = byz_options();
  opts.protocol = Protocol::kCp1;
  Cluster cluster(opts);

  // The honest client schedules a commitment.
  auto& proto = dynamic_cast<Cp1ClientProtocol&>(cluster.client_protocol(0));
  proto.set_crash_before_reveal(true);  // it never reveals
  cluster.client(0).submit(to_bytes("hidden operation"));
  cluster.sim().run_until(cluster.sim().now() + 10 * kMillisecond);

  // A Byzantine node (replica 3's key) submits a forged reveal for the
  // honest client's ID with a guessed message.
  Writer w;
  w.u8(1);  // Cp1Phase::kReveal
  RequestId{Cluster::client_id(0), 1}.write(w);
  w.bytes(to_bytes("guessed operation"));
  w.bytes(Bytes(32, 0x11));  // bogus opening
  bft::ClientRequestMsg evil;
  evil.client_seq = 77;
  evil.payload = std::move(w).take();
  const Bytes body = evil.serialize();
  // Unsealed spoofed bytes are dropped at the envelope layer.
  for (NodeId r = 0; r < cluster.n(); ++r) {
    cluster.net().send(Cluster::client_id(0), r, body);
  }
  // A properly sealed forgery from the corrupt replica 3's own identity:
  // the reveal's header names client 100, the sender is 3 -> rejected.
  for (NodeId r = 0; r < cluster.n(); ++r) {
    if (r == 3) continue;
    cluster.net().send(
        3, r,
        bft::seal_envelope(cluster.keys(), bft::Channel::kClientRequest, 3, r,
                           body));
  }
  cluster.sim().run_until(cluster.sim().now() + 50 * kMillisecond);

  for (uint32_t i = 0; i < cluster.n(); ++i) {
    // The commitment is still tentative: the forged opening was rejected
    // (a valid opening would have removed it and executed the request).
    auto& app = dynamic_cast<Cp1ReplicaApp&>(cluster.replica_app(i));
    EXPECT_EQ(app.tentative_count(), 1u) << "replica " << i;
    auto& kv = dynamic_cast<apps::KvStore&>(cluster.service(i));
    EXPECT_EQ(kv.size(), 0u) << "replica " << i;
  }
}

// A reveal ordered without admission meets CP1's opening check only at
// delivery: a Byzantine primary can skip its own check, and backups never
// validate pre-prepared requests.  Every replica must reject the forged
// opening there, keep the request tentative and execute nothing.
TEST(Byzantine, Cp1ForgedOpeningFromPrimaryIsRejectedAtDelivery) {
  auto opts = byz_options();
  opts.protocol = Protocol::kCp1;
  opts.num_clients = 2;
  Cluster cluster(opts);
  auto& proto = dynamic_cast<Cp1ClientProtocol&>(cluster.client_protocol(0));
  proto.set_crash_before_reveal(true);  // schedules seq 1, never reveals
  cluster.client(0).submit(apps::KvStore::put("hidden", to_bytes("op")));
  cluster.sim().run_until(cluster.sim().now() + 50 * kMillisecond);

  Writer w;
  w.u8(static_cast<uint8_t>(Cp1Phase::kReveal));
  RequestId{Cluster::client_id(0), 1}.write(w);
  w.bytes(apps::KvStore::put("guessed", to_bytes("op")));
  w.bytes(Bytes(32, 0x11));  // bogus opening
  cluster.replica(0).admit_foreign_request(Cluster::client_id(0), 2,
                                           std::move(w).take());
  cluster.sim().run_until(cluster.sim().now() + 50 * kMillisecond);

  for (uint32_t i = 0; i < cluster.n(); ++i) {
    EXPECT_EQ(cluster.replica_metrics(i).counter_value("cp1.openings_rejected"),
              1u)
        << "replica " << i;
    EXPECT_EQ(cluster.replica_metrics(i).counter_value("cp1.opened"), 0u)
        << "replica " << i;
    auto& app = dynamic_cast<Cp1ReplicaApp&>(cluster.replica_app(i));
    EXPECT_EQ(app.tentative_count(), 1u) << "replica " << i;
    EXPECT_EQ(dynamic_cast<apps::KvStore&>(cluster.service(i)).size(), 0u)
        << "replica " << i;
  }

  // The rejected reveal blocks nobody: another client's op completes.
  const auto result = cluster.run_one(
      1, apps::KvStore::put("k", to_bytes("v")), 10 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, to_bytes("ok"));
  cluster.sim().run_until(cluster.sim().now() + 50 * kMillisecond);
  for (uint32_t i = 0; i < cluster.n(); ++i) {
    auto& kv = dynamic_cast<apps::KvStore&>(cluster.service(i));
    EXPECT_EQ(kv.size(), 1u) << "replica " << i;
  }
}

// CP0 under a share-flooding adversary: a Byzantine replica broadcasts
// decryption shares for RequestIds that never existed.  Regression for the
// unbounded-pending bug, where every such message created a PendingReveal
// entry keyed by the attacker-chosen id — state that was never reclaimed.
// Now pre-delivery shares live in a bounded per-sender stash.
TEST(Byzantine, Cp0BogusShareFloodCannotGrowState) {
  auto opts = byz_options();
  opts.protocol = Protocol::kCp0;
  Cluster cluster(opts);

  const NodeId attacker = 3;
  const int kFlood = 500;
  for (int i = 0; i < kFlood; ++i) {
    Writer w;
    RequestId{Cluster::client_id(7), static_cast<uint64_t>(1000 + i)}.write(w);
    w.bytes(to_bytes("not-a-share-" + std::to_string(i)));
    const Bytes body = std::move(w).take();
    for (NodeId r = 0; r < cluster.n(); ++r) {
      if (r == attacker) continue;
      cluster.net().send(attacker, r,
                         bft::seal_envelope(cluster.keys(), bft::Channel::kCausal,
                                            attacker, r, body));
    }
  }
  cluster.sim().run_until(cluster.sim().now() + 100 * kMillisecond);

  for (uint32_t i = 0; i < cluster.n(); ++i) {
    if (i == attacker) continue;
    auto& app = dynamic_cast<Cp0ReplicaApp&>(cluster.replica_app(i));
    // No reveal state was created for undelivered ids, and the stash is
    // capped per sender regardless of flood volume.
    EXPECT_EQ(app.pending_count(), 0u) << "replica " << i;
    EXPECT_LE(app.early_share_count(), RevealEngine::kMaxEarlySharesPerSender)
        << "replica " << i;
  }

  // Liveness is unaffected: an honest request still round-trips.
  auto r = cluster.run_one(0, apps::KvStore::put("k", to_bytes("v")));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, to_bytes("ok"));
}

// Genuinely-early shares from correct peers still count once the request
// is delivered: the stash is adopted, not dropped.
TEST(Byzantine, Cp0EarlyShareStashStillServesCorrectPeers) {
  auto opts = byz_options();
  opts.protocol = Protocol::kCp0;
  Cluster cluster(opts);

  // Normal operation exercises the stash whenever one replica's delivery
  // races another's reveal broadcast; just confirm end-to-end liveness and
  // that no stash entries leak after the run.
  auto& client = cluster.client(0);
  client.run_closed_loop(
      [](uint64_t i) { return apps::KvStore::put("k" + std::to_string(i), to_bytes("v")); },
      6);
  const bool done =
      cluster.sim().run_while([&] { return client.completed_ops() >= 6; });
  ASSERT_TRUE(done);
  cluster.sim().run_until(cluster.sim().now() + 100 * kMillisecond);
  for (uint32_t i = 0; i < cluster.n(); ++i) {
    auto& app = dynamic_cast<Cp0ReplicaApp&>(cluster.replica_app(i));
    EXPECT_EQ(app.early_share_count(), 0u) << "replica " << i;
    EXPECT_EQ(app.pending_count(), 0u) << "replica " << i;
  }
}

// Runs `ops` closed-loop KV puts from client 0, then lets the cluster run
// 20 more seconds so every replica can finish its reveals.
void run_puts_and_settle(Cluster& cluster, int ops) {
  auto& client = cluster.client(0);
  client.run_closed_loop(
      [](uint64_t i) {
        return apps::KvStore::put("k" + std::to_string(i), to_bytes("v"));
      },
      static_cast<uint64_t>(ops));
  const host::Time stop_at = cluster.sim().now() + 60 * kSecond;
  cluster.sim().run_while([&] {
    return client.completed_ops() >= static_cast<uint64_t>(ops) ||
           cluster.sim().now() >= stop_at;
  });
  ASSERT_EQ(client.completed_ops(), static_cast<uint64_t>(ops));
  cluster.sim().run_until(cluster.sim().now() + 20 * kSecond);
}

// Sends `share` from `attacker` to `victim` as its share of client 0's
// request `seq`, ahead of the request itself.
void presend_share(Cluster& cluster, NodeId attacker, NodeId victim,
                   uint64_t seq, BytesView x) {
  Writer w;
  RequestId{Cluster::client_id(0), seq}.write(w);
  w.bytes(x);
  cluster.net().send(attacker, victim,
                     bft::seal_envelope(cluster.keys(), bft::Channel::kCausal,
                                        attacker, victim, std::move(w).take()));
}

// A share claiming another replica's index must not crowd the real one out.
// Regression: ARSS2 keeps the first share per index, so a forged share with
// replica 1's index that reached replica 0 before delivery turned replica
// 1's real share into a duplicate; with replica 3's own share cut off,
// replica 0 never held f + 2 consistent shares.  The client completed
// through replicas 1 and 2, so nothing reported the stalled replica.
TEST(Byzantine, Cp3ShareClaimingAnotherIndexCannotStallAReplica) {
  auto opts = byz_options();
  opts.protocol = Protocol::kCp3;
  Cluster cluster(opts);
  const NodeId attacker = 3;
  const NodeId victim = 0;
  constexpr int kOps = 6;

  crypto::Drbg rng(to_bytes("forged-shares"));
  for (int i = 0; i < kOps; ++i) {
    // Shaped like the real op's shares, but from a sharing of its own.
    const Bytes op = apps::KvStore::put("k" + std::to_string(i), to_bytes("v"));
    const auto forged =
        secretshare::arss2_share(op, cluster.f(), cluster.n(), rng).at(1);
    ASSERT_EQ(forged.index, 2u);  // replica 1's
    const RequestId id{Cluster::client_id(0), static_cast<uint64_t>(i + 1)};
    const Bytes box =
        crypto::aead_seal(cluster.keys().channel_key(attacker, victim),
                          id.encode(), forged.serialize(), rng);
    presend_share(cluster, attacker, victim, id.seq, box);
  }
  cluster.faults().cut(attacker, victim);

  run_puts_and_settle(cluster, kOps);
  for (NodeId r : {victim, NodeId{2}}) {
    EXPECT_EQ(dynamic_cast<apps::KvStore&>(cluster.service(r)).size(),
              static_cast<std::size_t>(kOps))
        << "replica " << r;
  }
}

// A verified share set can still fail to combine; the reveal must then wait
// for one more share instead of wedging.  Regression: replica 3 pre-sent
// replica 0 replica 0's OWN share as its own, so the first flush verified
// two shares with one index, the combine failed, and later shares were never
// verified because the flush only ran below the threshold.
TEST(Byzantine, Cp0DuplicateIndexShareCannotWedgeAReveal) {
  auto opts = byz_options();
  opts.protocol = Protocol::kCp0;
  opts.cp0_modeled = true;
  Cluster cluster(opts);
  const NodeId attacker = 3;
  const NodeId victim = 0;
  constexpr int kOps = 6;

  ModeledThresholdBackend backend(cluster.f() + 1, cluster.n());
  crypto::Drbg rng(to_bytes("replayed-shares"));
  for (int i = 0; i < kOps; ++i) {
    const RequestId id{Cluster::client_id(0), static_cast<uint64_t>(i + 1)};
    const auto own =
        backend.decryption_share_preverified(victim + 1, {}, id.encode(), rng);
    ASSERT_TRUE(own.has_value());
    presend_share(cluster, attacker, victim, id.seq, *own);
  }

  run_puts_and_settle(cluster, kOps);
  EXPECT_EQ(dynamic_cast<apps::KvStore&>(cluster.service(victim)).size(),
            static_cast<std::size_t>(kOps));
  EXPECT_EQ(
      dynamic_cast<RevealEngine&>(cluster.replica_app(victim)).pending_count(),
      0u);
}

// Runs client 0's put after an undecryptable CP0 request was ordered, and
// checks that every replica executes it: the undecryptable request must
// execute nothing and must not hold back the execution queue.
void expect_next_put_executes(Cluster& cluster) {
  const auto result = cluster.run_one(
      0, apps::KvStore::put("k", to_bytes("v")), 60 * kSecond);
  ASSERT_TRUE(result.has_value()) << "stalled behind the undecryptable request";
  EXPECT_EQ(*result, to_bytes("ok"));
  auto drained = [&](uint32_t i) {
    return cluster.replica_executed(i) >= 2 &&
           cluster.replica_metrics(i).gauge_value("cp0.pending") == 0;
  };
  const host::Time stop_at = cluster.sim().now() + 10 * kSecond;
  cluster.sim().run_while([&] {
    for (uint32_t i = 0; i < cluster.n(); ++i) {
      if (!drained(i)) return cluster.sim().now() >= stop_at;
    }
    return true;
  });
  for (uint32_t i = 0; i < cluster.n(); ++i) {
    EXPECT_TRUE(drained(i)) << "replica " << i;
    EXPECT_EQ(dynamic_cast<apps::KvStore&>(cluster.service(i)).size(), 1u)
        << "replica " << i;
  }
}

// A valid KEM over a box that does not open.  hybrid_verify checks only the
// KEM proof and the box length, so every replica admits and orders the
// request; the seed then combines, but the box fails its tag.  Regression:
// each replica waited for one more share forever, and since requests
// execute in delivery order, no later request of any client executed.
TEST(Byzantine, Cp0UndecryptableBoxCannotStallLaterRequests) {
  auto opts = byz_options();
  opts.protocol = Protocol::kCp0;
  opts.num_clients = 2;
  Cluster cluster(opts);
  const NodeId cheater = Cluster::client_id(1);
  cluster.faults().set_tamper(
      [&](NodeId from, NodeId to, BytesView msg) -> std::optional<Bytes> {
        Bytes out(msg.begin(), msg.end());
        if (from != cheater) return out;
        auto env = bft::open_envelope(cluster.keys(), to, msg);
        if (!env || env->channel != bft::Channel::kClientRequest) return out;
        auto req = bft::ClientRequestMsg::parse(env->body);
        if (!req) return out;
        req->payload.back() ^= 0x01;  // the box is the wire's last field
        return bft::seal_envelope(cluster.keys(), bft::Channel::kClientRequest,
                                  from, to, req->serialize());
      });
  cluster.client(1).submit(apps::KvStore::put("x", to_bytes("y")));
  cluster.sim().run_until(cluster.sim().now() + 50 * kMillisecond);

  expect_next_put_executes(cluster);
  // Every correct replica replied the same marker, so the cheater's
  // operation completed too.
  EXPECT_EQ(cluster.client(1).completed_ops(), 1u);
  EXPECT_EQ(cluster.client(1).last_result(), kUndecryptableReply);
}

// The same stall from bytes that are not a ciphertext at all.  Backups never
// validate pre-prepared requests, so a Byzantine primary can order them;
// no replica then produces a share.
TEST(Byzantine, Cp0NonCiphertextFromPrimaryCannotStallLaterRequests) {
  auto opts = byz_options();
  opts.protocol = Protocol::kCp0;
  opts.num_clients = 2;  // the forged request names client 1
  opts.durability = ClusterOptions::Durability::kMem;
  Cluster cluster(opts);
  cluster.replica(0).admit_foreign_request(Cluster::client_id(1), 1,
                                           to_bytes("not a ciphertext"));
  cluster.sim().run_until(cluster.sim().now() + 50 * kMillisecond);

  expect_next_put_executes(cluster);
  // A restarted replica replays the empty outcome without waiting either.
  cluster.crash_replica(2);
  cluster.restart_replica(2);
  cluster.sim().run_until(cluster.sim().now() + 1 * kSecond);
  EXPECT_EQ(cluster.replica_metrics(2).gauge_value("cp0.pending"), 0);
  EXPECT_EQ(dynamic_cast<apps::KvStore&>(cluster.service(2)).size(), 1u);
}

// A Byzantine replica floods CHECKPOINT votes with distinct far-future
// sequence numbers.  Regression for the unbounded checkpoint_votes_ map:
// every vote used to create an entry keyed by the attacker-chosen seq.  Now
// seqs beyond low_watermark + 2 * watermark_window are rejected, and the
// bft.checkpoint_votes_tracked gauge's high-water mark proves the map never
// grew.
TEST(Byzantine, CheckpointFloodCannotGrowVoteMap) {
  auto opts = byz_options();
  Cluster cluster(opts);

  const NodeId attacker = 3;
  const int kFlood = 500;
  for (int i = 0; i < kFlood; ++i) {
    bft::Checkpoint cp;
    cp.seq = 1'000'000 + static_cast<uint64_t>(i) *
                             opts.bft.checkpoint_interval;  // all distinct
    cp.state_digest = Bytes(32, 0xab);
    cp.replica = attacker;
    const Bytes body =
        bft::tag_bft(bft::BftMsgType::kCheckpoint, cp.serialize());
    for (NodeId r = 0; r < cluster.n(); ++r) {
      if (r == attacker) continue;
      cluster.net().send(attacker, r,
                         bft::seal_envelope(cluster.keys(), bft::Channel::kBft,
                                            attacker, r, body));
    }
  }
  cluster.sim().run_until(cluster.sim().now() + 100 * kMillisecond);

  for (uint32_t i = 0; i < cluster.n(); ++i) {
    if (i == attacker) continue;
    // Every flooded seq is beyond the watermark bound, so not one vote was
    // stored (the gauge tracks the lifetime maximum of the map size).
    EXPECT_EQ(
        cluster.replica_metrics(i).gauge_max("bft.checkpoint_votes_tracked"),
        0)
        << "replica " << i;
  }

  // Liveness is unaffected.
  const auto r = cluster.run_one(0, apps::KvStore::put("k", to_bytes("v")));
  ASSERT_TRUE(r.has_value());
}

// A Byzantine replica floods properly signed VIEW-CHANGEs for hundreds of
// distinct future views.  Regression for two bugs at once: the
// view_change_votes_ map grew by one entry per flooded view, and the f+1
// join rule counted the same sender once per view — so a single Byzantine
// replica could both exhaust memory and force correct replicas into a
// spurious view change.  Now only the sender's highest view is kept.
TEST(Byzantine, ViewChangeFloodKeepsOneVotePerSender) {
  auto opts = byz_options();
  Cluster cluster(opts);

  const NodeId attacker = 3;
  for (uint64_t v = 2; v < 300; ++v) {
    bft::ViewChange vc;
    vc.new_view = v;
    vc.stable_seq = 0;
    vc.replica = attacker;
    vc.signature = cluster.keys().sign(attacker, vc.signed_body());
    const Bytes body =
        bft::tag_bft(bft::BftMsgType::kViewChange, vc.serialize());
    for (NodeId r = 0; r < cluster.n(); ++r) {
      if (r == attacker) continue;
      cluster.net().send(attacker, r,
                         bft::seal_envelope(cluster.keys(), bft::Channel::kBft,
                                            attacker, r, body));
    }
  }
  cluster.sim().run_until(cluster.sim().now() + 100 * kMillisecond);

  for (uint32_t i = 0; i < cluster.n(); ++i) {
    if (i == attacker) continue;
    // One vote per sender: the map never held more than n entries (here,
    // exactly the attacker's single refreshed vote).
    EXPECT_LE(
        cluster.replica_metrics(i).gauge_max("bft.view_change_votes_tracked"),
        static_cast<int64_t>(cluster.n()))
        << "replica " << i;
    // The lone Byzantine sender counts once toward the f+1 join rule, so no
    // correct replica joined a view change.
    EXPECT_EQ(
        cluster.replica_metrics(i).counter_value("bft.view_changes_started"),
        0u)
        << "replica " << i;
    EXPECT_EQ(cluster.replica(i).view_changes_completed(), 0u)
        << "replica " << i;
  }

  const auto r = cluster.run_one(0, apps::KvStore::put("k", to_bytes("v")));
  ASSERT_TRUE(r.has_value());
}

// A Byzantine primary orders the SAME request with client_seq == 0 at two
// sequence numbers.  Regression for the replay bypass: the dedup map was
// consulted with a zero-initialized default entry, so `client_seq <= last`
// never held for seq 0 and the request executed twice.  Presence in the map
// now means "has executed", which catches seq 0.
TEST(Byzantine, ClientSeqZeroReplayExecutesOnce) {
  auto opts = byz_options();
  opts.service_factory = [] { return std::make_unique<EchoService>(0); };
  Cluster cluster(opts);

  bft::Request req;
  req.client = Cluster::client_id(0);
  req.client_seq = 0;
  req.payload = to_bytes("op-zero");

  // The Byzantine primary (replica 0) proposes the identical request at
  // seq 1 and seq 2, to the three backups only; the backups are a 2f+1
  // quorum and commit both slots among themselves.
  for (uint64_t seq : {1ull, 2ull}) {
    bft::PrePrepare pp;
    pp.view = 0;
    pp.seq = seq;
    pp.batch = {req};
    const Bytes body =
        bft::tag_bft(bft::BftMsgType::kPrePrepare, pp.serialize());
    for (NodeId r = 1; r < cluster.n(); ++r) {
      cluster.net().send(0, r,
                         bft::seal_envelope(cluster.keys(), bft::Channel::kBft,
                                            0, r, body));
    }
  }
  cluster.sim().run_until(cluster.sim().now() + 200 * kMillisecond);

  for (uint32_t i = 1; i < cluster.n(); ++i) {
    // Both slots committed...
    EXPECT_GE(cluster.replica(i).executed_requests(), 1u) << "replica " << i;
    // ...but the request body ran exactly once; the replay was suppressed.
    EXPECT_EQ(dynamic_cast<EchoService&>(cluster.service(i)).executed(), 1u)
        << "replica " << i;
    EXPECT_EQ(
        cluster.replica_metrics(i).counter_value("bft.requests_executed"), 1u)
        << "replica " << i;
    EXPECT_EQ(
        cluster.replica_metrics(i).counter_value("bft.replays_suppressed"), 1u)
        << "replica " << i;
  }
}

}  // namespace
}  // namespace scab::causal
