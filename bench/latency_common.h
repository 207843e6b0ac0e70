// Shared driver for the latency tables (II, III, IV): one row per protocol,
// one column per f, 4/0 microbenchmark under no contention.
#pragma once

#include <cstdio>

#include "bench/bench_util.h"

namespace scab::bench {

inline causal::ClusterOptions latency_options(causal::Protocol protocol,
                                              uint32_t f,
                                              sim::NetworkProfile profile,
                                              const host::CostModel& costs) {
  causal::ClusterOptions o;
  o.protocol = protocol;
  o.bft = bft::BftConfig::for_f(f);
  o.profile = profile;
  o.costs = costs;
  o.seed = 42;
  // WAN latencies plus request queueing can exceed the default 2 s
  // fairness timeout and trigger spurious view changes; deployments tune
  // this to the environment (Castro-Liskov do the same).
  o.bft.request_timeout = 60 * sim::kSecond;
  o.bft.watchdog_period = 5 * sim::kSecond;
  if (protocol == causal::Protocol::kCp0) {
    o.group = crypto::ModGroup::modp_1024();  // the paper's conservative setting
  }
  return o;
}

/// Table IV's fault model: f randomly-chosen replicas contribute corrupted
/// decryption/secret shares on every request.  Note this is a *Byzantine
/// signer* fault — shares are authenticated end to end, so it cannot be
/// expressed by a network-level injector (a wire tamper is rejected by the
/// envelope MAC and becomes a drop); the corruption has to happen at the
/// share producer, which is what Cluster::corrupt_replica_shares does.
/// Returns the mean request latency in ms, or a negative value on timeout.
inline double run_corrupt_latency_ms(causal::ClusterOptions opts, uint32_t f,
                                     uint64_t requests,
                                     std::string* obs_fields = nullptr) {
  // The corrupted set is drawn by seed (the paper corrupts "randomly").
  opts.num_clients = 1;
  causal::Cluster cluster(opts);
  crypto::Drbg pick(to_bytes("table4-pick"));
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < cluster.n(); ++i) ids.push_back(i);
  for (uint32_t k = 0; k < f; ++k) {
    const uint32_t j = k + static_cast<uint32_t>(pick.uniform(ids.size() - k));
    std::swap(ids[k], ids[j]);
    cluster.corrupt_replica_shares(ids[k]);
  }
  auto& client = cluster.client(0);
  client.set_retry_timeout(60 * sim::kSecond);
  client.run_closed_loop(
      [](uint64_t i) { return Bytes(4096, static_cast<uint8_t>(i)); },
      requests);
  cluster.sim().run_while([&] {
    return client.completed_ops() >= requests ||
           cluster.sim().now() > 600 * sim::kSecond;
  });
  const double ms = client.completed_ops() >= requests
                        ? static_cast<double>(client.total_latency()) /
                              requests / sim::kMillisecond
                        : -1.0;
  if (obs_fields) *obs_fields = obs_json_fields(cluster);
  return ms;
}

/// Runs the full latency table and prints it.  `corrupt_f_replicas` enables
/// Table IV's fault model (f randomly-chosen replicas send bad shares).
inline void run_latency_table(const char* title, sim::NetworkProfile profile,
                              const std::vector<causal::Protocol>& protocols,
                              bool corrupt_f_replicas) {
  print_header(title,
               "4/0 microbenchmark, single closed-loop client, mean over the "
               "run; CP0 = real TDH2 over the 1024-bit MODP group");
  print_row({"protocol", "f=1", "f=2", "f=3"});

  for (auto protocol : protocols) {
    std::vector<std::string> row{causal::protocol_name(protocol)};
    for (uint32_t f = 1; f <= 3; ++f) {
      const host::CostModel costs =
          calibrate_costs(crypto::ModGroup::modp_1024(), f);
      auto opts = latency_options(protocol, f, profile, costs);
      const uint64_t requests = protocol == causal::Protocol::kCp0 ? 8 : 30;

      const double ms = corrupt_f_replicas
                            ? run_corrupt_latency_ms(opts, f, requests)
                            : run_latency_ms(opts, 4096, requests);
      row.push_back(fmt_ms(ms));
    }
    print_row(row);
  }
}

}  // namespace scab::bench
