// Reproducibility guarantees: the whole point of the simulator substrate is
// that every run is bit-deterministic given the seed (DESIGN.md §4,
// "Determinism first").  These tests pin that property for full protocol
// stacks — if an unordered container or a wall-clock sneaks into a code
// path, these are the tests that catch it.
#include <gtest/gtest.h>

#include "apps/kvstore.h"
#include "bft/client.h"
#include "bft/replica.h"
#include "causal/harness.h"
#include "common/serialize.h"
#include "crypto/sha256.h"
#include "host/storage.h"

namespace scab::causal {
namespace {

struct RunSignature {
  uint64_t completed = 0;
  sim::SimTime finished_at = 0;
  sim::SimTime total_latency = 0;
  uint64_t events = 0;
  uint64_t messages = 0;
  Bytes last_result;

  bool operator==(const RunSignature&) const = default;
};

RunSignature run_stack(Protocol protocol, Engine engine, uint64_t seed,
                       uint32_t worker_threads = 0) {
  ClusterOptions opts;
  opts.protocol = protocol;
  opts.engine = engine;
  opts.bft = bft::BftConfig::for_f(1);
  opts.profile = sim::NetworkProfile::lan();
  opts.costs = host::CostModel::default_symmetric_era();
  opts.num_clients = 2;
  opts.seed = seed;
  opts.worker_threads = worker_threads;
  opts.service_factory = [] { return std::make_unique<apps::KvStore>(); };
  Cluster cluster(opts);

  for (uint32_t c = 0; c < 2; ++c) {
    cluster.client(c).run_closed_loop(
        [c](uint64_t i) {
          return apps::KvStore::put(std::to_string(c) + "/" + std::to_string(i),
                                    to_bytes("v" + std::to_string(i)));
        },
        6);
  }
  cluster.sim().run_while([&] {
    return (cluster.client(0).completed_ops() >= 6 &&
            cluster.client(1).completed_ops() >= 6) ||
           cluster.sim().now() > 600 * sim::kSecond;
  });

  RunSignature sig;
  sig.completed =
      cluster.client(0).completed_ops() + cluster.client(1).completed_ops();
  sig.finished_at = cluster.sim().now();
  sig.total_latency =
      cluster.client(0).total_latency() + cluster.client(1).total_latency();
  sig.events = cluster.sim().events_processed();
  sig.messages = cluster.net().messages_sent();
  sig.last_result = cluster.client(0).last_result();
  return sig;
}

class DeterminismTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(DeterminismTest, SameSeedSameExecutionToTheNanosecond) {
  const RunSignature a = run_stack(GetParam(), Engine::kPbftEngine, 77);
  const RunSignature b = run_stack(GetParam(), Engine::kPbftEngine, 77);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.completed, 12u);
}

TEST_P(DeterminismTest, WorkerThreadKnobDoesNotPerturbSimRuns) {
  // The crypto worker-pool knob (ClusterOptions::worker_threads, DESIGN.md
  // §12) is a no-op under the simulator: SimHost keeps the Host::submit
  // default, which runs offloaded jobs and their continuations inline on
  // the owner's executor.  A sim run with threads=8 must therefore replay
  // BIT-IDENTICALLY against threads=0 — the property that lets the same
  // protocol sources run deterministic repro and multicore deployment.
  const RunSignature a = run_stack(GetParam(), Engine::kPbftEngine, 77,
                                   /*worker_threads=*/0);
  const RunSignature b = run_stack(GetParam(), Engine::kPbftEngine, 77,
                                   /*worker_threads=*/8);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.completed, 12u);
}

TEST_P(DeterminismTest, DifferentSeedsDifferentTimings) {
  const RunSignature a = run_stack(GetParam(), Engine::kPbftEngine, 77);
  const RunSignature b = run_stack(GetParam(), Engine::kPbftEngine, 78);
  // Both complete the workload, but jitter/coins land differently.
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_NE(a.finished_at, b.finished_at);
}

INSTANTIATE_TEST_SUITE_P(Protocols, DeterminismTest,
                         ::testing::Values(Protocol::kPbft, Protocol::kCp0,
                                           Protocol::kCp1, Protocol::kCp2,
                                           Protocol::kCp3),
                         [](const auto& info) {
                           return std::string(protocol_name(info.param));
                         });

TEST(Determinism, AsyncEngineIsDeterministicToo) {
  // The async engine adds coin flips and epoch races — all seeded.
  const RunSignature a = run_stack(Protocol::kCp2, Engine::kAsyncEngine, 5);
  const RunSignature b = run_stack(Protocol::kCp2, Engine::kAsyncEngine, 5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.completed, 12u);
}

// ---------------------------------------------------------------------------
// Pinned fingerprints: a refactor that claims to leave the simulator's
// output alone must reproduce these digests exactly.  A change that alters
// the protocol on purpose re-pins them and says so in CHANGES.md.  Each
// case pins two digests: the full one, and a behaviour digest of the same
// run without the storage bytes, which a change of the on-disk format alone
// leaves in place.

struct FingerprintCase {
  const char* name;
  Protocol protocol;
  Engine engine;
  uint32_t client_batch;
  uint32_t client_inflight;
  const char* digest;     // hex SHA-256 over everything below
  const char* behaviour;  // the same, without the storage bytes
};

struct Fingerprint {
  std::string digest;
  std::string behaviour;
};

// Metric prefix of the protocols with a reveal step after delivery.
const char* reveal_prefix(Protocol p) {
  switch (p) {
    case Protocol::kCp0:
      return "cp0";
    case Protocol::kCp2:
      return "cp2";
    case Protocol::kCp3:
      return "cp3";
    default:
      return "";
  }
}

void mix_u64(crypto::Sha256& h, uint64_t v) {
  Writer w;
  w.u64(v);
  h.update(std::move(w).take());
}

void mix_bytes(crypto::Sha256& h, BytesView b) {
  mix_u64(h, b.size());
  h.update(b);
}

// One seeded LAN run with calibrated costs and in-memory durability.  On
// the PBFT engine replica 3 misses six ops and catches up (its reveals
// then retry, and its peers answer share re-requests from their completed
// caches), and a full-cluster crash recovers every replica from storage.
// The digest covers every reply, the virtual time after each phase, the
// clients' total latency, the event and message counts, and each replica's
// storage: blobs sorted by key, then the WAL records.  The behaviour digest
// stops before the storage.
Fingerprint fingerprint(const FingerprintCase& c, obs::MetricsRegistry* merged) {
  ClusterOptions opts;
  opts.protocol = c.protocol;
  opts.engine = c.engine;
  opts.bft = bft::BftConfig::for_f(1);
  opts.bft.checkpoint_interval = 4;
  opts.profile = sim::NetworkProfile::lan();
  opts.costs = host::CostModel::default_symmetric_era();
  opts.num_clients = 2;
  opts.seed = 77;
  opts.durability = ClusterOptions::Durability::kMem;
  opts.client_batch = c.client_batch;
  opts.client_inflight = c.client_inflight;
  opts.service_factory = [] { return std::make_unique<apps::KvStore>(); };
  Cluster cluster(opts);
  sim::Simulator& sim = cluster.sim();

  crypto::Sha256 h;
  uint64_t target = 0;  // ops per client so far
  // Both clients run `per_client` more ops concurrently; every reply is
  // hashed in completion order.
  auto run = [&](uint64_t per_client) {
    target += per_client;
    for (uint32_t ci = 0; ci < 2; ++ci) {
      bft::Client& client = cluster.client(ci);
      client.run_closed_loop(
          [ci](uint64_t i) {
            return apps::KvStore::put(
                std::to_string(ci) + "/" + std::to_string(i % 5),
                to_bytes("v" + std::to_string(i)));
          },
          per_client,
          [&h, &client, ci](uint64_t index, host::Time start, host::Time end) {
            mix_u64(h, ci);
            mix_u64(h, index);
            mix_u64(h, end - start);
            mix_bytes(h, client.last_result());
          });
    }
    const host::Time stop_at = sim.now() + 120 * host::kSecond;
    sim.run_while([&] {
      return (cluster.client(0).completed_ops() >= target &&
              cluster.client(1).completed_ops() >= target) ||
             sim.now() >= stop_at;
    });
    EXPECT_EQ(cluster.client(0).completed_ops(), target) << c.name;
    EXPECT_EQ(cluster.client(1).completed_ops(), target) << c.name;
    mix_u64(h, sim.now());
  };

  run(2);
  if (c.engine == Engine::kPbftEngine) {
    cluster.crash_replica(3);
    run(3);
    cluster.restart_replica(3);
    // Only a later checkpoint shows replica 3 its lag, so keep the clients
    // going one op at a time until it has caught up: delivered everything
    // replica 0 delivered, and revealed all of it.
    const std::string pending = std::string(reveal_prefix(c.protocol)) + ".pending";
    auto caught_up = [&] {
      return cluster.replica_executed(3) >= cluster.replica_executed(0) &&
             cluster.replica_metrics(3).gauge_value(pending) == 0;
    };
    for (int round = 0; round < 8 && !caught_up(); ++round) {
      run(1);
      const host::Time stop_at = sim.now() + 2 * host::kSecond;
      sim.run_while([&] { return caught_up() || sim.now() >= stop_at; });
    }
    EXPECT_TRUE(caught_up()) << c.name << ": replica 3 never caught up";
    mix_u64(h, sim.now());
    for (uint32_t i = 0; i < cluster.n(); ++i) cluster.crash_replica(i);
    for (uint32_t i = 0; i < cluster.n(); ++i) cluster.restart_replica(i);
  } else {
    run(3);
  }
  run(3);

  mix_u64(h, cluster.client(0).total_latency() +
                 cluster.client(1).total_latency());
  mix_u64(h, sim.events_processed());
  mix_u64(h, cluster.net().messages_sent());
  crypto::Sha256 behaviour = h;
  for (uint32_t i = 0; i < cluster.n(); ++i) {
    auto* disk = dynamic_cast<host::MemStorage*>(cluster.host().storage(i));
    if (disk == nullptr) {
      ADD_FAILURE() << c.name << ": replica " << i << " has no MemStorage";
      continue;
    }
    for (const std::string& key : disk->keys()) {
      mix_bytes(h, to_bytes(key));
      mix_bytes(h, *disk->get(key));
    }
    mix_u64(h, disk->log_records());
    disk->replay([&h](BytesView rec) { mix_bytes(h, rec); });
  }
  if (merged != nullptr) *merged = cluster.merged_metrics();
  const auto hex = [](crypto::Sha256& hasher) {
    const auto digest = hasher.digest();
    return hex_encode(BytesView(digest.data(), digest.size()));
  };
  return {hex(h), hex(behaviour)};
}

TEST(DeterminismTest, MatchesPinnedFingerprint) {
  const FingerprintCase kCases[] = {
      {"PBFT", Protocol::kPbft, Engine::kPbftEngine, 1, 1,
       "0fb85506e1ef732a61d69f2cabae0e9833ccb6412427b806242b7a5c979eac52",
       "23695a7142a43f0dbc7fbdfb8d4cbedf2872db96897ed6c3d66ab3cef6bebe3d"},
      {"CP0", Protocol::kCp0, Engine::kPbftEngine, 1, 1,
       "cfb5eaf393ec45490b260a35b38bf76f7ae5055890eaa9a6eeaa6e94da5951c0",
       "61801277548157f569dc937330b63b0397a318209f2de7fbf4f0624e20e87edd"},
      {"CP0-batched", Protocol::kCp0, Engine::kPbftEngine, 4, 2,
       "23e86f81e033d1efd6464a36b127d6959cebebe9e37954b79bea3d93c7ad4f21",
       "6b0c800228b123e815a2a4b31b03d8b5cf9f9e8c40066244f4826e68b6b2e9a8"},
      {"CP1", Protocol::kCp1, Engine::kPbftEngine, 1, 1,
       "f89f8c14c598c4a50f9cc3e656314238403454eb086aceafdac648645f909617",
       "b4bcd2d4b248d08f03e1e77689f55913e33ad79191bac75208b3e7d6aa5504f3"},
      {"CP2", Protocol::kCp2, Engine::kPbftEngine, 1, 1,
       "d85839f80136ebac447c85c7485400c99d3a5b23fb29afe070e16064c4f3449c",
       "cb0518f873b9df92fa864f5bec8e4c08c826c1d8d6560e846f5ce292d6e52c3a"},
      {"CP3", Protocol::kCp3, Engine::kPbftEngine, 1, 1,
       "a1ab8d274d8cc347d1e0fec49f16adfda64a985e87be5353b975139391f1b897",
       "b19aa1d49868f6cbf80432f45374d41f3e0993f35b9efabcec24683d1b6d6579"},
      {"CP2-async", Protocol::kCp2, Engine::kAsyncEngine, 1, 1,
       "b77241687747a8dd0e40e4153cbdfe77cba26013f13a62dc33d080b0af740a95",
       "463ee35c1cb4a59ef6420a58836a95d107f8fd0504dc1fee1284a4983ea4e038"},
  };
  for (const FingerprintCase& c : kCases) {
    obs::MetricsRegistry merged;
    const Fingerprint fp = fingerprint(c, &merged);
    EXPECT_EQ(fp.behaviour, c.behaviour) << c.name;
    EXPECT_EQ(fp.digest, c.digest) << c.name;
    if (c.engine != Engine::kPbftEngine) continue;
    // The restart schedule must keep driving the paths it exists to pin.
    const std::string proto = reveal_prefix(c.protocol);
    EXPECT_GE(merged.counter_value("bft.recovery.snapshot_loaded"), 1u)
        << c.name;
    if (proto.empty()) continue;
    EXPECT_GT(merged.counter_value(proto + ".reveal_retries"), 0u) << c.name;
    EXPECT_GT(merged.counter_value(proto + ".share_rerequests_answered"), 0u)
        << c.name;
    if (c.client_batch > 1) {
      const obs::Histogram* payloads = merged.find_histogram("cp0.batch_size");
      ASSERT_NE(payloads, nullptr);
      EXPECT_GT(payloads->max(), 1u) << "no envelope packed two payloads";
    }
  }
}

}  // namespace
}  // namespace scab::causal
