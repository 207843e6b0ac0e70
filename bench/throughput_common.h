// Shared driver for the throughput figures (4, 5, 6): closed-loop clients
// under contention, 4/0 microbenchmark, calibrated costs.  CP0 runs under
// the calibrated-cost oracle (DESIGN.md §3) so that sweeping to 100 clients
// does not require executing hundreds of thousands of real 1024-bit
// exponentiations.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "bench/bench_util.h"

namespace scab::bench {

inline causal::ClusterOptions throughput_options(causal::Protocol protocol,
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
  o.cp0_modeled = true;  // calibrated-cost oracle (costs still charged)
  return o;
}

inline ThroughputResult sweep_point(causal::Protocol protocol, uint32_t f,
                                    sim::NetworkProfile profile,
                                    const host::CostModel& costs,
                                    uint32_t clients,
                                    std::string* obs_fields = nullptr) {
  auto opts = throughput_options(protocol, f, profile, costs);
  // Scale the sample with the client count, bounded to keep the suite fast.
  const uint64_t warmup = std::min<uint64_t>(10ull * clients, 200);
  uint64_t measure = std::min<uint64_t>(40ull * clients, 1000);
  if (protocol == causal::Protocol::kCp0) {
    measure = std::min<uint64_t>(measure, 400);  // CP0 is ~100x slower
  }
  return run_throughput(opts, clients, 4096, warmup, measure,
                        3600 * sim::kSecond, obs_fields);
}

/// One sweep point as a JSON-lines record: headline numbers plus the
/// observability export ("trace" per-phase breakdown + merged "metrics").
/// Routed through emit_json_line, so records also land in the BENCH_*.json
/// artifact when one is open (open_json_artifact).
inline void print_sweep_point_json(const char* figure, causal::Protocol p,
                                   uint32_t f, uint32_t clients,
                                   const ThroughputResult& r,
                                   const std::string& obs_fields) {
  char head[320];
  std::snprintf(
      head, sizeof(head),
      "{\"figure\":\"%s\",\"protocol\":\"%s\",\"f\":%u,\"clients\":%u,"
      "\"ops_per_sec\":%.3f,\"mean_latency_ms\":%.4f,"
      "\"median_latency_ms\":%.4f,\"measured_ops\":%llu,",
      figure, causal::protocol_name(p), f, clients, r.ops_per_sec,
      r.mean_latency_ms, r.median_latency_ms,
      static_cast<unsigned long long>(r.measured_ops));
  emit_json_line(std::string(head) + obs_fields + "}");
}

inline void run_throughput_figure(const char* title, const char* figure_id,
                                  sim::NetworkProfile profile, uint32_t f,
                                  const std::vector<uint32_t>& client_counts,
                                  bool json = false) {
  if (!json) {
    print_header(title,
                 "4/0 microbenchmark, closed-loop clients, requests/s; CP0 "
                 "uses the calibrated-cost threshold oracle");
    std::vector<std::string> head{"clients"};
    for (auto p : {causal::Protocol::kPbft, causal::Protocol::kCp0,
                   causal::Protocol::kCp1, causal::Protocol::kCp2,
                   causal::Protocol::kCp3}) {
      head.push_back(causal::protocol_name(p));
    }
    print_row(head);
  }

  const host::CostModel costs =
      calibrate_costs(crypto::ModGroup::modp_1024(), f);
  for (uint32_t clients : client_counts) {
    std::vector<std::string> row{std::to_string(clients)};
    for (auto p : {causal::Protocol::kPbft, causal::Protocol::kCp0,
                   causal::Protocol::kCp1, causal::Protocol::kCp2,
                   causal::Protocol::kCp3}) {
      if (json) {
        std::string obs;
        const ThroughputResult r =
            sweep_point(p, f, profile, costs, clients, &obs);
        print_sweep_point_json(figure_id, p, f, clients, r, obs);
      } else {
        row.push_back(
            fmt_tput(sweep_point(p, f, profile, costs, clients).ops_per_sec));
      }
    }
    if (!json) print_row(row);
  }
}

/// True when `flag` appears among the arguments.
inline bool parse_flag(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == flag) return true;
  }
  return false;
}

/// Shared `--json` flag handling for the figure benches.
inline bool parse_json_flag(int argc, char** argv) {
  return parse_flag(argc, argv, "--json");
}

}  // namespace scab::bench
