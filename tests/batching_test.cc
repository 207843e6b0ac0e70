// The batched causal layer (DESIGN.md §10), end to end:
//
//  * BatchingEnvelope — the batched hybrid TDH2 envelope: roundtrip,
//    label binding (tamper / reorder / transplant), all-or-nothing open,
//    and the batch-of-one wire discriminator.
//  * BatchingOpFrame — the client-side operation batch framing.
//  * BatchingWire — seal_envelope_parts is bit-identical to sealing the
//    concatenated body (the zero-copy wire path needs no receiver changes).
//  * BatchingReplica — replica-side regressions: the maybe_send_batch
//    fallback-timer rearm (a full in-flight window must not strand a
//    queued request), late-share drops that never resurrect reveal state,
//    and the bounded early-share stash of CP2/CP3 under a flood.
//  * BatchingRuntime — cross-runtime equivalence of the batched CP0 path:
//    the simulator and the threaded runtime deliver the same plaintexts.
//  * MidBatchCrash — the primary dies while batched envelopes are in
//    flight; after the view change (and the primary's restart) every
//    logical payload executes exactly once, on both runtimes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bft/batch.h"
#include "bft/client.h"
#include "bft/envelope.h"
#include "bft/keyring.h"
#include "causal/cp0.h"
#include "causal/cp23.h"
#include "causal/harness.h"
#include "threshenc/hybrid.h"

namespace scab {
namespace {

using causal::Cluster;
using causal::ClusterOptions;
using causal::Protocol;
using causal::RuntimeKind;
using crypto::Drbg;
using crypto::ModGroup;

// ---------------------------------------------------------------------------
// BatchingEnvelope — threshenc::HybridBatchCiphertext unit coverage.

const ModGroup& test_group() {
  static const ModGroup grp = [] {
    Drbg rng(to_bytes("batching-test-group"));
    return ModGroup::generate(64, rng);
  }();
  return grp;
}

class BatchingEnvelope : public ::testing::Test {
 protected:
  BatchingEnvelope() : rng_(to_bytes("batching-envelope-test")) {
    keys_ = threshenc::tdh2_keygen(test_group(), 2, 4, rng_);
  }

  // Recovers the shared KEM seed the way replicas do: t = 2 decryption
  // shares against the full (digest-bound) label, then combine.
  Bytes recover_seed(const threshenc::HybridBatchCiphertext& ct,
                     BytesView full_label) {
    std::vector<threshenc::Tdh2DecryptionShare> shares;
    for (uint32_t i = 0; i < 2; ++i) {
      shares.push_back(*threshenc::tdh2_share_decrypt(
          keys_.pk, keys_.shares[i], ct.kem, full_label, rng_));
    }
    return *threshenc::tdh2_combine(keys_.pk, ct.kem, full_label, shares);
  }

  Drbg rng_;
  threshenc::Tdh2KeyMaterial keys_;
};

TEST_F(BatchingEnvelope, RoundTripThroughSerializeAndParse) {
  const std::vector<Bytes> messages = {to_bytes("first payload"), Bytes{},
                                       to_bytes("third, a bit longer than "
                                                "the others put together")};
  const Bytes prefix = to_bytes("client-100:7");
  const auto ct =
      threshenc::hybrid_encrypt_batch(keys_.pk, messages, prefix, rng_);
  ASSERT_EQ(ct.boxes.size(), messages.size());

  const Bytes label = threshenc::hybrid_batch_label(prefix, ct.boxes);
  EXPECT_TRUE(threshenc::hybrid_batch_verify(keys_.pk, ct, label));

  const Bytes wire = ct.serialize(test_group());
  EXPECT_TRUE(threshenc::is_hybrid_batch_wire(wire));
  const auto parsed =
      threshenc::HybridBatchCiphertext::parse(test_group(), wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(threshenc::hybrid_batch_verify(keys_.pk, *parsed, label));

  const Bytes seed = recover_seed(*parsed, label);
  const auto opened =
      threshenc::hybrid_batch_open(*parsed, prefix, label, seed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, messages);
}

TEST_F(BatchingEnvelope, SingleRequestWireIsNeverBatchFramed) {
  // Callers fall back to hybrid_encrypt for a batch of one; its wire must
  // not collide with the batch magic, or the legacy path would change.
  const auto single = threshenc::hybrid_encrypt(keys_.pk, to_bytes("solo"),
                                                to_bytes("L"), rng_);
  EXPECT_FALSE(threshenc::is_hybrid_batch_wire(single.serialize(test_group())));
}

TEST_F(BatchingEnvelope, BoxTamperShiftsTheLabelAndFailsVerification) {
  const std::vector<Bytes> messages = {to_bytes("aaaa"), to_bytes("bbbb")};
  const Bytes prefix = to_bytes("P");
  auto ct = threshenc::hybrid_encrypt_batch(keys_.pk, messages, prefix, rng_);
  const Bytes honest_label = threshenc::hybrid_batch_label(prefix, ct.boxes);

  ct.boxes[1][0] ^= 0x01;
  // The KEM proof is bound to the honest digest, so verification against
  // the recomputed (shifted) label fails before any share is produced...
  const Bytes shifted = threshenc::hybrid_batch_label(prefix, ct.boxes);
  EXPECT_NE(shifted, honest_label);
  EXPECT_FALSE(threshenc::hybrid_batch_verify(keys_.pk, ct, shifted));
  // ...and even with the honest label and seed, the AEAD tag catches it:
  // a batch with ANY bad box opens to nothing, never to a valid prefix.
  const auto opened = threshenc::hybrid_batch_open(
      ct, prefix, honest_label, recover_seed(ct, honest_label));
  EXPECT_FALSE(opened.has_value());
}

TEST_F(BatchingEnvelope, ReorderedBoxesFailEvenWithTheSeed) {
  const std::vector<Bytes> messages = {to_bytes("pos0"), to_bytes("pos1")};
  const Bytes prefix = to_bytes("P");
  auto ct = threshenc::hybrid_encrypt_batch(keys_.pk, messages, prefix, rng_);
  const Bytes honest_label = threshenc::hybrid_batch_label(prefix, ct.boxes);
  const Bytes seed = recover_seed(ct, honest_label);

  std::swap(ct.boxes[0], ct.boxes[1]);
  // Reordering shifts the digest, so the KEM check fails...
  EXPECT_FALSE(threshenc::hybrid_batch_verify(
      keys_.pk, ct, threshenc::hybrid_batch_label(prefix, ct.boxes)));
  // ...and the per-index AD binding rejects transplanted boxes even under
  // a leaked seed (same boxes, wrong positions).
  EXPECT_FALSE(
      threshenc::hybrid_batch_open(ct, prefix, honest_label, seed).has_value());
}

// ---------------------------------------------------------------------------
// BatchingOpFrame — bft/batch.h client-side operation framing.

TEST(BatchingOpFrame, EncodeDecodeRoundTrip) {
  const std::vector<Bytes> ops = {to_bytes("op-a"), Bytes{}, to_bytes("op-c")};
  const Bytes wire = bft::encode_op_batch(ops);
  EXPECT_TRUE(bft::is_op_batch(wire));
  const auto decoded = bft::decode_op_batch(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, ops);
}

TEST(BatchingOpFrame, RejectsNonBatchAndMalformedWires) {
  // A batch of one is submitted unframed, so arbitrary application payloads
  // must not be mistaken for frames.
  EXPECT_FALSE(bft::is_op_batch(to_bytes("PUT k v")));
  EXPECT_FALSE(bft::decode_op_batch(to_bytes("PUT k v")).has_value());
  // Truncation and trailing garbage are both malformed.
  Bytes wire = bft::encode_op_batch({to_bytes("a"), to_bytes("b")});
  Bytes truncated(wire.begin(), wire.end() - 1);
  EXPECT_FALSE(bft::decode_op_batch(truncated).has_value());
  wire.push_back(0x00);
  EXPECT_FALSE(bft::decode_op_batch(wire).has_value());
}

// ---------------------------------------------------------------------------
// BatchingWire — the scatter/gather seal path.

TEST(BatchingWire, SealPartsIsBitIdenticalToSealingTheConcatenation) {
  const bft::KeyRing keys(to_bytes("batching-wire-seed"), {0, 1, 2});
  const Bytes a = to_bytes("header");
  const Bytes b;  // empty parts must not perturb the framing
  const Bytes c = to_bytes("a longer body segment carried by reference");
  const Bytes body = concat(a, b, c);

  for (const auto channel : {bft::Channel::kBft, bft::Channel::kCausal}) {
    const Bytes gathered =
        bft::seal_envelope_parts(keys, channel, 0, 2, {a, b, c});
    const Bytes flat = bft::seal_envelope(keys, channel, 0, 2, body);
    EXPECT_EQ(gathered, flat);

    const auto opened = bft::open_envelope(keys, 2, gathered);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(opened->channel, channel);
    EXPECT_EQ(opened->sender, 0u);
    EXPECT_EQ(opened->body, body);
  }
}

// ---------------------------------------------------------------------------
// BatchingReplica — replica-side regressions in the simulator.

// With a window of ONE in-flight batch and a long fallback timer, every
// request that arrives while the window is full is queued; only the rearm
// chain in maybe_send_batch drains it.  The regression this guards: a
// transient condition (window full at timer fire) used to break the chain
// and strand the queue until the next client arrival — the tail op of a
// workload then only survived via client retransmission.
TEST(BatchingReplica, FallbackTimerDrainsQueuedRequestsWithoutClientRetries) {
  constexpr uint32_t kClients = 4;
  constexpr uint64_t kOpsPerClient = 6;

  ClusterOptions opts;
  opts.protocol = Protocol::kPbft;
  opts.bft = bft::BftConfig::for_f(1);
  opts.bft.max_inflight_batches = 1;
  opts.bft.batch_delay = 10 * host::kMillisecond;
  opts.num_clients = kClients;
  opts.seed = 17;
  Cluster cluster(opts);

  for (uint32_t c = 0; c < kClients; ++c) {
    cluster.client(c).run_closed_loop(
        [c](uint64_t i) {
          return to_bytes("c" + std::to_string(c) + "-" + std::to_string(i));
        },
        kOpsPerClient);
  }
  auto all_done = [&] {
    for (uint32_t c = 0; c < kClients; ++c) {
      if (cluster.client(c).completed_ops() < kOpsPerClient) return false;
    }
    return true;
  };
  const host::Time stop_at = cluster.sim().now() + 60 * host::kSecond;
  cluster.sim().run_while(
      [&] { return all_done() || cluster.sim().now() >= stop_at; });
  ASSERT_TRUE(all_done()) << "workload stalled with a full in-flight window";

  uint64_t retries = 0;
  for (uint32_t c = 0; c < kClients; ++c) {
    retries += cluster.client_metrics(c).counter("client.retries").value();
  }
  // The fallback timer — not client retransmission — must be what keeps
  // the queue moving; a single retry here means a request sat for the full
  // 500 ms client timeout, i.e. the rearm chain broke again.
  EXPECT_EQ(retries, 0u);
  for (uint32_t r = 0; r < cluster.n(); ++r) {
    EXPECT_LE(
        cluster.replica_metrics(r).histogram("bft.inflight_batches").max(), 1u)
        << "replica " << r << " violated max_inflight_batches";
  }
}

// The reveal engine metric `name` of `protocol` ("cp0.pending", ...).
std::string reveal_metric(Protocol protocol, const char* name) {
  const char* prefix = protocol == Protocol::kCp0   ? "cp0."
                       : protocol == Protocol::kCp2 ? "cp2."
                                                    : "cp3.";
  return prefix + std::string(name);
}

// Shares that arrive after a reveal completed are dropped on the floor and
// must never resurrect reveal state for a finished request.
TEST(BatchingReplica, LateSharesAreDroppedWithoutResurrectingRevealState) {
  for (Protocol protocol : {Protocol::kCp0, Protocol::kCp2, Protocol::kCp3}) {
    SCOPED_TRACE(causal::protocol_name(protocol));
    ClusterOptions opts;
    opts.protocol = protocol;
    opts.bft = bft::BftConfig::for_f(1);
    opts.num_clients = 1;
    opts.seed = 19;
    Cluster cluster(opts);

    // Replica 3's outbound traffic lags 50 ms: replicas 0-2 finish each
    // reveal among themselves, then 3's share lands on completed requests.
    for (uint32_t r = 0; r < 3; ++r) {
      cluster.faults().delay(3, r, 50 * host::kMillisecond);
    }
    constexpr int kOps = 12;
    for (int i = 0; i < kOps; ++i) {
      ASSERT_TRUE(
          cluster.run_one(0, to_bytes("op-" + std::to_string(i))).has_value())
          << i;
    }
    // Let the delayed shares land.
    const host::Time settle = cluster.sim().now() + 1 * host::kSecond;
    cluster.sim().run_while([&] { return cluster.sim().now() >= settle; });

    const std::string counter = reveal_metric(protocol, "late_shares_dropped");
    uint64_t dropped = 0;
    for (uint32_t r = 0; r < 3; ++r) {
      dropped += cluster.replica_metrics(r).counter(counter).value();
    }
    EXPECT_GT(dropped, 0u) << "the delay never produced a late share";
    for (uint32_t r = 0; r < cluster.n(); ++r) {
      const auto& app =
          dynamic_cast<causal::RevealEngine&>(cluster.replica_app(r));
      EXPECT_EQ(app.pending_count(), 0u)
          << "replica " << r << " resurrected reveal state for a finished op";
    }
  }
}

// The reveal engine stashes shares that arrive before their request
// delivers in a bounded per-sender FIFO (kMaxEarlySharesPerSender).
// Flooding one replica with shares for requests it cannot deliver yet (its
// BFT traffic is delayed) must leave the stash bounded — and the cluster
// must still converge once the links heal, exercising the share re-request
// recovery for the evicted entries.
class BatchingReplicaEarlyShares
    : public ::testing::TestWithParam<Protocol> {};

TEST_P(BatchingReplicaEarlyShares, StashStaysBoundedUnderFlood) {
  ClusterOptions opts;
  opts.protocol = GetParam();
  opts.bft = bft::BftConfig::for_f(1);
  opts.bft.checkpoint_interval = 8;
  opts.num_clients = 1;
  opts.seed = 29;
  Cluster cluster(opts);

  auto early_count = [&](uint32_t r) -> std::size_t {
    return dynamic_cast<causal::RevealEngine&>(cluster.replica_app(r))
        .early_share_count();
  };

  // Replica 3 hears replica 2 (and, in CP2/CP3, the client's dealing)
  // immediately, but the traffic of replicas 0 and 1 towards it (the
  // primary's pre-prepares included) lags a full second, so for the whole
  // burst it stashes shares for undelivered requests.
  for (uint32_t r = 0; r < 2; ++r) {
    cluster.faults().delay(r, 3, 1 * host::kSecond);
  }
  constexpr int kOps = 40;  // > kMaxEarlySharesPerSender: forces eviction
  constexpr std::size_t kCap = causal::RevealEngine::kMaxEarlySharesPerSender;
  static_assert(kOps > static_cast<int>(kCap));
  for (int i = 0; i < kOps; ++i) {
    ASSERT_TRUE(
        cluster.run_one(0, to_bytes("op-" + std::to_string(i))).has_value())
        << i;
  }

  // Whatever the senders contributed, no per-sender FIFO may exceed the
  // cap: n + 1 distinct senders (replicas + the client) bound the total.
  const std::size_t cap = kCap * (cluster.n() + 1);
  EXPECT_GT(early_count(3), 0u) << "the flood never stashed an early share";
  EXPECT_LE(early_count(3), cap);
  const obs::Gauge& stashed = cluster.replica_metrics(3).gauge(
      reveal_metric(GetParam(), "early_shares"));
  EXPECT_LE(static_cast<std::size_t>(stashed.max()), cap)
      << "the stash exceeded its bound at some point during the flood";

  // Heal and let replica 3 catch up: evicted shares force the reveal
  // re-request path, so convergence — every request delivered AND
  // revealed — proves eviction is recoverable.
  cluster.faults().clear_delays();
  auto converged = [&] {
    for (uint32_t r = 0; r < cluster.n(); ++r) {
      if (cluster.replica_executed(r) < static_cast<uint64_t>(kOps) ||
          cluster.replica_metrics(r).gauge_value(
              reveal_metric(GetParam(), "pending")) != 0) {
        return false;
      }
    }
    return true;
  };
  const host::Time stop_at = cluster.sim().now() + 120 * host::kSecond;
  cluster.sim().run_while(
      [&] { return converged() || cluster.sim().now() >= stop_at; });
  EXPECT_TRUE(converged()) << "replica 3 never recovered the evicted shares";
}

INSTANTIATE_TEST_SUITE_P(Protocols, BatchingReplicaEarlyShares,
                         ::testing::Values(Protocol::kCp0, Protocol::kCp2,
                                           Protocol::kCp3),
                         [](const auto& info) {
                           return std::string(
                               causal::protocol_name(info.param));
                         });

// ---------------------------------------------------------------------------
// Batched workloads: shared service + driver for the cross-runtime and
// mid-batch-crash tests.

// Records every executed plaintext in order.  The mutex keeps the log safe
// under rt::ThreadHost, where each replica executes on its own worker while
// the controlling thread polls.
class LogService : public causal::Service {
 public:
  Bytes execute(host::NodeId /*client*/, BytesView op) override {
    std::lock_guard<std::mutex> lk(mu_);
    log_.emplace_back(op.begin(), op.end());
    return to_bytes("ok");
  }
  std::vector<Bytes> log() const {
    std::lock_guard<std::mutex> lk(mu_);
    return log_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Bytes> log_;
};

Bytes marker(uint32_t client, uint64_t index) {
  return to_bytes("c" + std::to_string(client) + "-op" + std::to_string(index));
}

// Starts every client's pipelined closed loop (on its own worker under
// kThreads, directly under kSim).  `hook` sees every client's completions.
void start_loops(Cluster& cluster, uint64_t ops_per_client,
                 bft::Client::CompletionHook hook = nullptr) {
  for (uint32_t c = 0; c < cluster.num_clients(); ++c) {
    bft::Client& client = cluster.client(c);
    auto gen = [c](uint64_t i) { return marker(c, i); };
    if (cluster.options().runtime == RuntimeKind::kSim) {
      client.run_closed_loop(gen, ops_per_client, hook);
    } else {
      cluster.host().post(client.id(), [&client, gen, ops_per_client, hook] {
        client.run_closed_loop(gen, ops_per_client, hook);
      });
    }
  }
}

// Runs the cluster until `done` holds or the (virtual / wall) deadline
// passes; returns done().
template <typename Pred>
bool run_until(Cluster& cluster, Pred done, host::Time deadline) {
  if (cluster.options().runtime == RuntimeKind::kSim) {
    const host::Time stop_at = cluster.sim().now() + deadline;
    cluster.sim().run_while(
        [&] { return done() || cluster.sim().now() >= stop_at; });
  } else {
    const auto stop_at = std::chrono::steady_clock::now() +
                         std::chrono::nanoseconds(deadline);
    while (!done() && std::chrono::steady_clock::now() < stop_at) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return done();
}

// ---------------------------------------------------------------------------
// BatchingRuntime — cross-runtime equivalence of the batched CP0 path.

// Runs a batched+pipelined CP0 workload and returns the sorted multiset of
// plaintexts replica 0 executed (asserting every replica's multiset
// matches it first).
std::vector<Bytes> run_batched_workload(RuntimeKind runtime) {
  constexpr uint32_t kClients = 2;
  constexpr uint64_t kOpsPerClient = 16;

  ClusterOptions opts;
  opts.protocol = Protocol::kCp0;
  opts.runtime = runtime;
  opts.bft = bft::BftConfig::for_f(1);
  opts.num_clients = kClients;
  opts.seed = 7;
  opts.client_batch = 4;
  opts.client_inflight = 2;
  opts.service_factory = [] { return std::make_unique<LogService>(); };
  Cluster cluster(opts);

  start_loops(cluster, kOpsPerClient);
  auto all_done = [&] {
    for (uint32_t c = 0; c < kClients; ++c) {
      if (cluster.client(c).completed_ops() < kOpsPerClient) return false;
    }
    // The client completes on an f+1 quorum; wait for the stragglers too.
    // The BFT-layer executed counter is not enough here: CP0 executes the
    // payloads only after the reveal, so a straggler can match replica 0's
    // ordered-request count while its last envelope is still collecting
    // shares — poll the service log (payload granularity) instead.
    for (uint32_t r = 0; r < cluster.n(); ++r) {
      if (dynamic_cast<LogService&>(cluster.service(r)).log().size() !=
          kClients * kOpsPerClient) {
        return false;
      }
    }
    return true;
  };
  EXPECT_TRUE(run_until(cluster, all_done, 60 * host::kSecond))
      << "batched workload did not complete on "
      << (runtime == RuntimeKind::kSim ? "sim" : "threads");
  cluster.shutdown();

  // The batching path must actually have been exercised: at least one full
  // 4-payload envelope reached some replica.
  uint64_t widest_envelope = 0;
  for (uint32_t r = 0; r < cluster.n(); ++r) {
    widest_envelope =
        std::max(widest_envelope,
                 cluster.replica_metrics(r).histogram("cp0.batch_size").max());
  }
  EXPECT_GE(widest_envelope, 4u) << "no full batched envelope was delivered";

  std::vector<Bytes> reference =
      dynamic_cast<LogService&>(cluster.service(0)).log();
  std::sort(reference.begin(), reference.end());
  for (uint32_t r = 1; r < cluster.n(); ++r) {
    std::vector<Bytes> log =
        dynamic_cast<LogService&>(cluster.service(r)).log();
    std::sort(log.begin(), log.end());
    EXPECT_EQ(log, reference) << "replica " << r << " diverged on "
                              << (runtime == RuntimeKind::kSim ? "sim"
                                                               : "threads");
  }
  return reference;
}

TEST(BatchingRuntime, SimAndThreadsDeliverTheSamePlaintexts) {
  const std::vector<Bytes> sim = run_batched_workload(RuntimeKind::kSim);
  const std::vector<Bytes> threads =
      run_batched_workload(RuntimeKind::kThreads);
  EXPECT_EQ(sim, threads);

  // And the delivered set is exactly the submitted set — nothing dropped,
  // nothing invented, nothing doubled by the batching path.
  std::vector<Bytes> expected;
  for (uint32_t c = 0; c < 2; ++c) {
    for (uint64_t i = 0; i < 16; ++i) expected.push_back(marker(c, i));
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(sim, expected);
}

// ---------------------------------------------------------------------------
// MidBatchCrash — the primary dies while batched envelopes are in flight.

class MidBatchCrash : public ::testing::TestWithParam<RuntimeKind> {};

TEST_P(MidBatchCrash, PrimaryCrashLosesNoPayloadAndExecutesNoneTwice) {
  const RuntimeKind runtime = GetParam();
  constexpr uint32_t kClients = 2;
  constexpr uint64_t kOpsPerClient = 24;  // 6 four-payload envelopes each
  constexpr uint64_t kTotal = kClients * kOpsPerClient;

  ClusterOptions opts;
  opts.protocol = Protocol::kCp0;
  opts.runtime = runtime;
  opts.bft = bft::BftConfig::for_f(1);
  opts.bft.checkpoint_interval = 4;
  opts.bft.request_timeout = 300 * host::kMillisecond;
  opts.bft.watchdog_period = 50 * host::kMillisecond;
  opts.num_clients = kClients;
  opts.seed = 23;
  opts.client_batch = 4;
  opts.client_inflight = 2;
  opts.service_factory = [] { return std::make_unique<LogService>(); };
  // Declared before the cluster: the client workers that run the hook stop
  // before these die.
  std::atomic<uint64_t> hooked{0};
  std::atomic<bool> clients_cut{false};
  Cluster cluster(opts);

  auto completed = [&] {
    uint64_t total = 0;
    for (uint32_t c = 0; c < kClients; ++c) {
      total += cluster.client(c).completed_ops();
    }
    return total;
  };
  auto for_each_client_link = [&](auto&& fn) {
    for (uint32_t c = 0; c < kClients; ++c) {
      for (uint32_t r = 0; r < cluster.n(); ++r) fn(Cluster::client_id(c), r);
    }
  };

  // Phase 1: once 8 payloads completed, the completion hook cuts every
  // client -> replica link before the client refills its slot.  Only the
  // envelopes already in flight (2 clients x 2 slots x 4 payloads) can
  // finish after that, so the primary dies with batched envelopes in
  // flight and most of the workload still to go.
  start_loops(cluster, kOpsPerClient,
              [&](uint64_t, host::Time, host::Time) {
                if (hooked.fetch_add(1) + 1 != 8) return;
                for_each_client_link([&](host::NodeId from, host::NodeId to) {
                  cluster.faults().cut(from, to);
                });
                clients_cut = true;
              });
  ASSERT_TRUE(run_until(cluster, [&] { return clients_cut.load(); },
                        60 * host::kSecond))
      << "workload never started";
  ASSERT_LT(completed(), kTotal) << "workload finished before the crash";
  cluster.crash_replica(0);  // view-0 primary
  for_each_client_link([&](host::NodeId from, host::NodeId to) {
    cluster.faults().heal(from, to);
  });

  // Phase 2: the watchdog demotes the dead primary; progress resumes in
  // view 1 on the surviving 2f + 1 quorum.  Once past the halfway mark,
  // bring the old primary back (it rejoins via checkpoint catch-up).
  ASSERT_TRUE(run_until(cluster, [&] { return completed() >= kTotal / 2; },
                        120 * host::kSecond))
      << "no progress after the primary crash (view change stalled)";
  cluster.restart_replica(0);

  // Phase 3: everything completes and every survivor executed it.  CP0
  // executes a payload only after its reveal, which a survivor may still be
  // collecting shares for when the client has its f + 1 replies, so poll
  // the service logs, not the BFT delivery counter.
  auto done = [&] {
    if (completed() < kTotal) return false;
    for (uint32_t r = 1; r < cluster.n(); ++r) {
      if (dynamic_cast<LogService&>(cluster.service(r)).log().size() <
          kTotal) {
        return false;
      }
    }
    return true;
  };
  ASSERT_TRUE(run_until(cluster, done, 120 * host::kSecond))
      << "workload did not finish after the restart ("
      << completed() << "/" << kTotal << " payloads)";
  cluster.shutdown();

  // Exactly-once: on every surviving replica each logical payload of every
  // envelope — including the ones mid-flight at the crash — appears exactly
  // once; the restarted replica (whose fresh log starts at its catch-up
  // point) must at least never double-execute.
  std::vector<Bytes> expected;
  for (uint32_t c = 0; c < kClients; ++c) {
    for (uint64_t i = 0; i < kOpsPerClient; ++i) {
      expected.push_back(marker(c, i));
    }
  }
  for (uint32_t r = 0; r < cluster.n(); ++r) {
    const std::vector<Bytes> log =
        dynamic_cast<LogService&>(cluster.service(r)).log();
    for (const Bytes& m : expected) {
      const auto copies = std::count(log.begin(), log.end(), m);
      if (r == 0) {
        EXPECT_LE(copies, 1)
            << "restarted replica executed " << to_string(m) << " twice";
      } else {
        EXPECT_EQ(copies, 1)
            << "replica " << r << " executed " << to_string(m) << " "
            << copies << " times";
      }
    }
  }
  // The survivors executed the same totally-ordered sequence.
  const std::vector<Bytes> ref =
      dynamic_cast<LogService&>(cluster.service(1)).log();
  for (uint32_t r = 2; r < cluster.n(); ++r) {
    EXPECT_EQ(dynamic_cast<LogService&>(cluster.service(r)).log(), ref)
        << "surviving replicas diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(Runtimes, MidBatchCrash,
                         ::testing::Values(RuntimeKind::kSim,
                                           RuntimeKind::kThreads),
                         [](const auto& info) {
                           return info.param == RuntimeKind::kSim ? "Sim"
                                                                  : "Threads";
                         });

}  // namespace
}  // namespace scab
