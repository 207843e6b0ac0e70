// The paper's §I motivating scenario, staged end-to-end: a trading service
// where a Byzantine replica colludes with a client to front-run an honest
// client's order.
//
// Run 1 — plain PBFT: the request payload is cleartext, so the corrupt
//   replica reads the pending BUY and its colluding client buys first; the
//   price moves and the honest client pays more.
// Run 2 — CP1 (secure causal): the payload is a non-malleable commitment;
//   the adversary learns nothing it can act on and the honest client fills
//   at the unmanipulated price.
#include <cstdio>

#include "apps/trading.h"
#include "bft/client.h"
#include "bft/replica.h"
#include "causal/harness.h"

namespace {

using namespace scab;
using causal::Cluster;
using causal::ClusterOptions;
using causal::Protocol;

// Stage the race: the honest client's path to the primary is slow (its link
// is cut for a moment — in a real attack the Byzantine replica delays it),
// the colluding client reacts to what the corrupt replica observed.
uint64_t stage_attack(Protocol protocol) {
  ClusterOptions opts;
  opts.protocol = protocol;
  opts.bft = bft::BftConfig::for_f(1);
  opts.profile = sim::NetworkProfile::lan();
  opts.num_clients = 2;
  opts.service_factory = [] { return std::make_unique<apps::TradingService>(); };
  Cluster cluster(opts);

  const auto honest_order = apps::TradingService::buy("ACME", 100);

  // What can the corrupt replica see in the honest client's request?
  std::string observed;
  cluster.faults().set_tamper(
      [&](sim::NodeId from, sim::NodeId to, BytesView msg) -> std::optional<Bytes> {
        if (from == Cluster::client_id(0) && to == 3 && observed.empty()) {
          observed.assign(msg.begin(), msg.end());
        }
        return Bytes(msg.begin(), msg.end());
      });

  cluster.faults().cut(Cluster::client_id(0), 0);  // slow path to primary
  cluster.client(0).submit(honest_order);
  cluster.sim().run_until(cluster.sim().now() + 5 * sim::kMillisecond);

  // Does the observed wire data contain the order?  (Plain PBFT: yes.)
  const std::string needle = "ACME";
  const bool readable = observed.find(needle) != std::string::npos;
  std::printf("  corrupt replica can read the pending order: %s\n",
              readable ? "YES" : "no (commitment only)");

  if (readable) {
    // The colluding client front-runs with a copy of the order.
    auto fill = cluster.run_one(1, apps::TradingService::buy("ACME", 100));
    std::printf("  colluding client filled first: %s\n",
                fill ? to_string(*fill).c_str() : "(timeout)");
  }

  // The honest client's (delayed) order finally executes.
  cluster.faults().heal(Cluster::client_id(0), 0);
  cluster.sim().run_while(
      [&] { return cluster.client(0).completed_ops() >= 1; });
  std::printf("  honest client filled:          %s\n",
              to_string(cluster.client(0).last_result()).c_str());

  // Parse the honest fill price from "filled:100@<price>".
  const std::string result = to_string(cluster.client(0).last_result());
  return std::stoull(result.substr(result.find('@') + 1));
}

}  // namespace

int main() {
  using apps::TradingService;
  std::printf("initial ACME price: %lu cents\n\n",
              static_cast<unsigned long>(TradingService::kInitialPriceCents));

  std::printf("--- plain PBFT (no causality preservation) ---\n");
  const uint64_t pbft_price = stage_attack(Protocol::kPbft);

  std::printf("\n--- CP1 (secure causal atomic broadcast) ---\n");
  const uint64_t cp1_price = stage_attack(Protocol::kCp1);

  std::printf("\nhonest client paid %lu cents under PBFT, %lu under CP1\n",
              static_cast<unsigned long>(pbft_price),
              static_cast<unsigned long>(cp1_price));
  if (pbft_price > cp1_price) {
    std::printf("front-running succeeded against PBFT and failed against CP1.\n");
  }
  return pbft_price > cp1_price ? 0 : 1;
}
