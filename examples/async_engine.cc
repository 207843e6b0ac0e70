// Generality demo (paper §II: "our constructions are all general and can
// be built from any types of BFT protocols"): the SAME causal protocol,
// application, and client code running first on sequencer-based PBFT and
// then on the asynchronous consensus-based engine (reliable broadcast +
// common-coin binary agreement + common subset) — one enum changes.
#include <cstdio>

#include "apps/kvstore.h"
#include "abft/replica.h"
#include "bft/client.h"
#include "causal/harness.h"

namespace {

using namespace scab;

double run_once(causal::Engine engine) {
  causal::ClusterOptions opts;
  opts.protocol = causal::Protocol::kCp2;  // secret-shared causal requests
  opts.engine = engine;
  opts.bft = bft::BftConfig::for_f(1);
  opts.profile = sim::NetworkProfile::lan();
  opts.coin_group = crypto::ModGroup::modp_512();  // honest coin pricing
  opts.costs = host::CostModel::default_symmetric_era();
  opts.service_factory = [] { return std::make_unique<apps::KvStore>(); };
  causal::Cluster cluster(opts);

  const char* name =
      engine == causal::Engine::kPbftEngine ? "PBFT (sequencer)" : "async (ACS)";
  std::printf("--- CP2 on %s ---\n", name);

  auto& client = cluster.client(0);
  client.run_closed_loop(
      [](uint64_t i) {
        return apps::KvStore::put("key-" + std::to_string(i), to_bytes("v"));
      },
      5);
  cluster.sim().run_while([&] {
    return client.completed_ops() >= 5 ||
           cluster.sim().now() > 600 * sim::kSecond;
  });

  const double mean_ms = static_cast<double>(client.total_latency()) /
                         std::max<uint64_t>(1, client.completed_ops()) /
                         sim::kMillisecond;
  std::printf("completed %lu/5 requests, mean latency %.2f ms\n",
              static_cast<unsigned long>(client.completed_ops()), mean_ms);
  for (uint32_t i = 0; i < cluster.n(); ++i) {
    std::printf("  replica %u executed %lu requests\n", i,
                static_cast<unsigned long>(cluster.replica_executed(i)));
  }
  return mean_ms;
}

}  // namespace

int main() {
  const double pbft_ms = run_once(causal::Engine::kPbftEngine);
  std::printf("\n");
  const double async_ms = run_once(causal::Engine::kAsyncEngine);
  std::printf(
      "\nsame protocol, same app, same clients; the async engine pays\n"
      "threshold-coin exponentiations every agreement round (%.0fx slower\n"
      "here) — which is why the paper evaluates on PBFT, where the causal\n"
      "layers' own costs are visible.\n",
      async_ms / pbft_ms);
  return 0;
}
