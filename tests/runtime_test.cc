// Cross-runtime equivalence: the same cluster assembled on the
// deterministic simulator (RuntimeKind::kSim) and on the real-time threaded
// runtime (RuntimeKind::kThreads) must deliver the same request set with
// identical plaintexts — the host abstraction (DESIGN.md §8) is supposed to
// be invisible to the protocol stack.  Plus a threaded soak (run under
// `cmake --preset tsan` in CI) and an rt::SocketTransport loopback smoke.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/kvstore.h"
#include "bft/client.h"
#include "bft/replica.h"
#include "causal/harness.h"
#include "rt/transport.h"

namespace scab::causal {
namespace {

constexpr int kRounds = 4;

// Scripted KV workload: client 0 PUTs, client 1 GETs the same key back.
// Returns every client-observed result in order; "<timeout>" marks an
// operation that missed its deadline, so the equivalence comparison fails
// loudly instead of comparing truncated runs.
std::vector<Bytes> run_workload(RuntimeKind runtime, Protocol protocol,
                                uint32_t worker_threads = 0) {
  ClusterOptions opts;
  opts.protocol = protocol;
  opts.runtime = runtime;
  opts.bft = bft::BftConfig::for_f(1);
  opts.num_clients = 2;
  opts.seed = 7;
  opts.worker_threads = worker_threads;
  opts.service_factory = [] { return std::make_unique<apps::KvStore>(); };
  Cluster cluster(opts);

  std::vector<Bytes> results;
  for (int i = 0; i < kRounds; ++i) {
    const std::string key = "k" + std::to_string(i);
    const std::string val = "value-" + std::to_string(i);
    auto put = cluster.run_one(0, apps::KvStore::put(key, to_bytes(val)));
    results.push_back(put.value_or(to_bytes("<timeout>")));
    auto get = cluster.run_one(1, apps::KvStore::get(key));
    results.push_back(get.value_or(to_bytes("<timeout>")));
  }
  // The client completes on an f+1 quorum, so the slowest replica may still
  // be executing the tail; let every replica catch up before quiescing.
  // replica_executed counts BFT deliveries, and CP0-CP3 execute only once
  // the reveal after delivery completes, so also wait for each replica's
  // reveal backlog (the cpN.pending gauge; absent, hence 0, elsewhere).
  // Both are atomic — safe to poll while workers run.
  std::string pending = protocol_name(protocol);
  std::transform(pending.begin(), pending.end(), pending.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  pending += ".pending";
  auto converged = [&] {
    const uint64_t e0 = cluster.replica_executed(0);
    if (e0 == 0) return false;
    for (uint32_t r = 0; r < cluster.n(); ++r) {
      if (cluster.replica_executed(r) != e0) return false;
      if (cluster.replica_metrics(r).gauge_value(pending) != 0) return false;
    }
    return true;
  };
  if (runtime == RuntimeKind::kSim) {
    const host::Time stop_at = cluster.sim().now() + 10 * host::kSecond;
    cluster.sim().run_while(
        [&] { return converged() || cluster.sim().now() >= stop_at; });
  } else {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!converged() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  cluster.shutdown();
  // Post-shutdown the workers are joined, so replica state is stable: every
  // correct replica must hold the full KV state (same request set applied).
  for (uint32_t r = 0; r < cluster.n(); ++r) {
    EXPECT_EQ(dynamic_cast<apps::KvStore&>(cluster.service(r)).size(),
              static_cast<std::size_t>(kRounds))
        << protocol_name(protocol) << " replica " << r << " runtime "
        << (runtime == RuntimeKind::kSim ? "sim" : "threads") << " pool "
        << worker_threads;
  }
  return results;
}

class RuntimeEquivalence : public ::testing::TestWithParam<Protocol> {};

TEST_P(RuntimeEquivalence, SimAndThreadsDeliverTheSamePlaintexts) {
  const std::vector<Bytes> sim = run_workload(RuntimeKind::kSim, GetParam());
  const std::vector<Bytes> threads =
      run_workload(RuntimeKind::kThreads, GetParam());
  ASSERT_EQ(sim.size(), threads.size());
  for (std::size_t i = 0; i < sim.size(); ++i) {
    EXPECT_EQ(sim[i], threads[i]) << "result #" << i;
  }
  // The GET results carry the actual plaintext values, so a causal protocol
  // that garbled a reveal on either runtime fails here, not just on counts.
  for (int i = 0; i < kRounds; ++i) {
    EXPECT_EQ(threads[2 * i + 1], to_bytes("value-" + std::to_string(i)));
  }
}

// The same workload with a real crypto worker pool: CP0's share
// verification runs on pool threads while new shares wait behind the one
// job in flight per request (DESIGN.md §12), the path every other test runs
// inline.  The other protocols use no pool, so theirs must match too.
TEST_P(RuntimeEquivalence, PoolThreadsDeliverTheSamePlaintexts) {
  const std::vector<Bytes> sim = run_workload(RuntimeKind::kSim, GetParam());
  const std::vector<Bytes> pooled =
      run_workload(RuntimeKind::kThreads, GetParam(), /*worker_threads=*/2);
  EXPECT_EQ(sim, pooled);
}

INSTANTIATE_TEST_SUITE_P(Protocols, RuntimeEquivalence,
                         ::testing::Values(Protocol::kPbft, Protocol::kCp0,
                                           Protocol::kCp1, Protocol::kCp2,
                                           Protocol::kCp3),
                         [](const auto& info) {
                           return std::string(protocol_name(info.param));
                         });

// Tallies every executed payload, so a payload executed twice (or never)
// shows.
class TallyService final : public Service {
 public:
  Bytes execute(host::NodeId /*client*/, BytesView op) override {
    std::lock_guard<std::mutex> lk(mu_);
    ++tally_[Bytes(op.begin(), op.end())];
    executed_.fetch_add(1, std::memory_order_relaxed);
    return {};
  }
  uint64_t executed() const {
    return executed_.load(std::memory_order_relaxed);
  }
  std::map<Bytes, int> tally() const {
    std::lock_guard<std::mutex> lk(mu_);
    return tally_;
  }

 private:
  mutable std::mutex mu_;
  std::map<Bytes, int> tally_;
  std::atomic<uint64_t> executed_{0};
};

// Two clients with four slots in flight each (batch 1) on a protocol the
// harness never pipelines: every replica executes every payload once.
void run_four_slot_clients(RuntimeKind runtime, Protocol protocol) {
  constexpr uint32_t kClients = 2;
  constexpr uint64_t kOpsPerClient = 40;
  const char* where = runtime == RuntimeKind::kSim ? "sim" : "threads";
  ClusterOptions opts;
  opts.protocol = protocol;
  opts.runtime = runtime;
  opts.bft = bft::BftConfig::for_f(1);
  opts.num_clients = kClients;
  opts.seed = 7;
  opts.service_factory = [] { return std::make_unique<TallyService>(); };
  Cluster cluster(opts);

  for (uint32_t c = 0; c < kClients; ++c) {
    bft::Client& client = cluster.client(c);
    auto start = [&client, protocol, c] {
      client.set_pipeline(
          [protocol] {
            StackContext ctx;
            ctx.protocol = protocol;
            return make_client_protocol(ctx);
          },
          /*inflight=*/4, /*batch=*/1);
      client.run_closed_loop(
          [c](uint64_t i) {
            return to_bytes(std::to_string(c) + "/" + std::to_string(i));
          },
          kOpsPerClient);
    };
    // Under threads the client is touched only from its own executor.
    if (runtime == RuntimeKind::kSim) {
      start();
    } else {
      cluster.host().post(client.id(), start);
    }
  }

  const uint64_t total = kClients * kOpsPerClient;
  auto all_executed = [&] {
    for (uint32_t c = 0; c < kClients; ++c) {
      if (cluster.client(c).completed_ops() < kOpsPerClient) return false;
    }
    for (uint32_t r = 0; r < cluster.n(); ++r) {
      if (dynamic_cast<TallyService&>(cluster.service(r)).executed() < total) {
        return false;
      }
    }
    return true;
  };
  if (runtime == RuntimeKind::kSim) {
    const host::Time stop_at = cluster.sim().now() + 60 * host::kSecond;
    cluster.sim().run_while(
        [&] { return all_executed() || cluster.sim().now() >= stop_at; });
  } else {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!all_executed() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  cluster.shutdown();
  for (uint32_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(cluster.client(c).completed_ops(), kOpsPerClient)
        << where << " client " << c;
  }
  for (uint32_t r = 0; r < cluster.n(); ++r) {
    const auto tally = dynamic_cast<TallyService&>(cluster.service(r)).tally();
    EXPECT_EQ(tally.size(), total) << where << " replica " << r;
    for (const auto& [op, count] : tally) {
      EXPECT_EQ(count, 1) << where << " replica " << r << " executed "
                          << std::string(op.begin(), op.end()) << " " << count
                          << " times";
    }
  }
}

class RuntimeEquivalenceSlots : public ::testing::TestWithParam<Protocol> {};

TEST_P(RuntimeEquivalenceSlots, FourSlotClientsExecuteEachPayloadOnce) {
  run_four_slot_clients(RuntimeKind::kSim, GetParam());
  run_four_slot_clients(RuntimeKind::kThreads, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Protocols, RuntimeEquivalenceSlots,
                         ::testing::Values(Protocol::kPbft, Protocol::kCp3),
                         [](const auto& info) {
                           return std::string(protocol_name(info.param));
                         });

// 4 replicas x 8 clients hammering CP1 concurrently on the threaded
// runtime.  Run under TSan (cmake --preset tsan) this validates the whole
// concurrency story: per-node workers, ChannelTransport, atomic metrics,
// the mutexed tracer, and the client stats accessors.
TEST(RuntimeSoak, ThreadedCp1ManyClients) {
  constexpr uint32_t kClients = 8;
  constexpr uint64_t kOpsPerClient = 5;

  ClusterOptions opts;
  opts.protocol = Protocol::kCp1;
  opts.runtime = RuntimeKind::kThreads;
  opts.bft = bft::BftConfig::for_f(1);
  opts.num_clients = kClients;
  opts.seed = 11;
  Cluster cluster(opts);

  // Kick every client's closed loop from its own worker; the controlling
  // thread only polls the atomic completion counters.
  for (uint32_t c = 0; c < kClients; ++c) {
    bft::Client& client = cluster.client(c);
    cluster.host().post(client.id(), [&client, c] {
      client.run_closed_loop(
          [c](uint64_t i) {
            return apps::KvStore::put(std::to_string(c) + "/" +
                                          std::to_string(i),
                                      to_bytes("v" + std::to_string(i)));
          },
          kOpsPerClient);
    });
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  auto all_done = [&] {
    for (uint32_t c = 0; c < kClients; ++c) {
      if (cluster.client(c).completed_ops() < kOpsPerClient) return false;
    }
    return true;
  };
  while (!all_done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(all_done()) << "soak did not finish within 30s";

  // Exercise the cross-thread introspection paths while workers are live.
  (void)cluster.merged_metrics().to_json();
  (void)cluster.tracer().breakdown();

  cluster.shutdown();
  for (uint32_t c = 0; c < kClients; ++c) {
    EXPECT_GE(cluster.client(c).completed_ops(), kOpsPerClient);
  }
}

// rt::SocketTransport loopback: two transports on 127.0.0.1 ephemeral
// ports, each the peer of the other; frames must arrive intact and carry
// the right (from, to).  Skipped where the sandbox forbids sockets.
TEST(SocketTransportSmoke, LoopbackRoundTrip) {
  rt::SocketTransport a(0);
  rt::SocketTransport b(0);
  if (!a.ok() || !b.ok()) {
    GTEST_SKIP() << "cannot bind loopback sockets in this environment";
  }
  a.add_peer(2, {"127.0.0.1", b.port()});
  b.add_peer(1, {"127.0.0.1", a.port()});

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::tuple<host::NodeId, host::NodeId, Bytes>> got_b;
  b.set_deliver([&](host::NodeId from, host::NodeId to, Bytes msg) {
    std::lock_guard<std::mutex> lk(mu);
    got_b.emplace_back(from, to, std::move(msg));
    cv.notify_one();
  });
  Bytes echoed;
  a.set_deliver([&](host::NodeId, host::NodeId, Bytes msg) {
    std::lock_guard<std::mutex> lk(mu);
    echoed = std::move(msg);
    cv.notify_one();
  });
  a.start();
  b.start();

  const Bytes payload = to_bytes("over-the-wire");
  a.send(1, 2, payload);                 // a -> b over TCP
  a.send(1, 7, to_bytes("local"));       // 7 not in peer table: loops back

  std::unique_lock<std::mutex> lk(mu);
  const bool ok = cv.wait_for(lk, std::chrono::seconds(5), [&] {
    return got_b.size() == 1 && !echoed.empty();
  });
  ASSERT_TRUE(ok) << "frames did not arrive within 5s";
  EXPECT_EQ(std::get<0>(got_b[0]), 1u);
  EXPECT_EQ(std::get<1>(got_b[0]), 2u);
  EXPECT_EQ(std::get<2>(got_b[0]), payload);
  EXPECT_EQ(echoed, to_bytes("local"));

  a.stop();
  b.stop();
}

}  // namespace
}  // namespace scab::causal
