// Peak throughput of the batched causal layer (DESIGN.md §10): sweep the
// client-side aggregation factor (payloads per amortized TDH2 envelope)
// against the per-client pipelining window (in-flight envelope slots) for
// CP0 at f = 1 on the LAN profile, and report throughput plus the exact
// median latency at every grid point.
//
// Acceptance bound (checked here, exit status != 0 on violation): a
// batched configuration must deliver at least kMinSpeedup x the strict
// closed loop's (batch = inflight = 1) throughput at equal median latency.
// Closed-loop queueing makes the full-concurrency grid points carry more
// in-flight payloads than the baseline, so after the grid a latency-
// matching stage re-runs the best batch factor at decreasing client
// counts until its median drops to the baseline's — that matched point is
// the acceptance comparison (same frontier methodology as the paper's
// peak-throughput figures).  `--json` additionally writes the sweep and
// the summary verdict to BENCH_pipeline.json (validated by bench_smoke
// against metrics_schema.json's "required_pipeline" paths).
#include "bench/throughput_common.h"

namespace {

constexpr double kMinSpeedup = 5.0;
// "Equal median latency" with a little room for the deterministic
// simulator's bucketing of one envelope more or less in flight.
constexpr double kLatencySlack = 1.05;

struct GridPoint {
  uint32_t batch;
  uint32_t inflight;
  uint32_t clients;
  scab::bench::ThroughputResult r;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace scab;
  using namespace scab::bench;
  using causal::Protocol;

  const bool json = parse_json_flag(argc, argv);
  open_json_artifact(json, "pipeline");

  const uint32_t f = 1;
  const uint32_t clients = 8;
  const std::size_t request_bytes = 4096;
  const host::CostModel costs =
      calibrate_costs(crypto::ModGroup::modp_1024(), f);

  if (!json) {
    print_header(
        "Peak pipeline — batched CP0 envelopes (LAN, f=1)",
        "client_batch payloads per TDH2 envelope x client_inflight slots; "
        "calibrated-cost threshold oracle");
    print_row({"batch", "inflight", "clients", "ops/s", "median ms",
               "mean ms"});
  }

  auto run_point = [&](uint32_t batch, uint32_t inflight,
                       uint32_t point_clients) {
    auto opts = throughput_options(Protocol::kCp0, f,
                                   sim::NetworkProfile::lan(), costs);
    opts.client_batch = batch;
    opts.client_inflight = inflight;
    // One "window" is clients x batch x inflight logical payloads in
    // flight at once; warm two windows, then measure a roughly constant
    // number of envelopes per point so every cell costs similar sim work.
    const uint64_t window = uint64_t{point_clients} * batch * inflight;
    const uint64_t warmup = 2 * window;
    const uint64_t measure = std::max<uint64_t>(400ull * batch, 4 * window);
    std::string obs;
    GridPoint pt{batch, inflight, point_clients,
                 run_throughput(opts, point_clients, request_bytes, warmup,
                                measure, 3600 * sim::kSecond, &obs)};
    if (json) {
      char head[320];
      std::snprintf(
          head, sizeof(head),
          "{\"figure\":\"peak_pipeline\",\"protocol\":\"CP0\",\"f\":%u,"
          "\"clients\":%u,\"batch\":%u,\"inflight\":%u,"
          "\"ops_per_sec\":%.3f,\"mean_latency_ms\":%.4f,"
          "\"median_latency_ms\":%.4f,\"measured_ops\":%llu,",
          f, point_clients, batch, inflight, pt.r.ops_per_sec,
          pt.r.mean_latency_ms, pt.r.median_latency_ms,
          static_cast<unsigned long long>(pt.r.measured_ops));
      emit_json_line(std::string(head) + obs + "}");
    } else {
      print_row({std::to_string(batch), std::to_string(inflight),
                 std::to_string(point_clients), fmt_tput(pt.r.ops_per_sec),
                 fmt_ms(pt.r.median_latency_ms),
                 fmt_ms(pt.r.mean_latency_ms)});
    }
    return pt;
  };

  std::vector<GridPoint> grid;
  for (uint32_t batch : {1u, 4u, 16u, 32u}) {
    for (uint32_t inflight : {1u, 4u, 8u}) {
      grid.push_back(run_point(batch, inflight, clients));
    }
  }

  // The strict closed loop is the first grid point.
  const GridPoint& base = grid.front();
  const double latency_bound = base.r.median_latency_ms * kLatencySlack;

  // Latency-matching stage: the biggest batch factor keeps per-payload
  // work lowest, so take the highest-throughput grid point's batch at
  // inflight = 1 and shed client concurrency until the median is back at
  // the baseline's.  Fewer large envelopes in flight means less queueing
  // per payload — throughput stays amortized while latency drops.
  const GridPoint* best_grid = &base;
  for (const GridPoint& pt : grid) {
    if (pt.r.ops_per_sec > best_grid->r.ops_per_sec) best_grid = &pt;
  }
  GridPoint matched = base;  // best point at (or under) the baseline median
  for (const GridPoint& pt : grid) {
    if (pt.r.median_latency_ms <= latency_bound &&
        pt.r.ops_per_sec > matched.r.ops_per_sec) {
      matched = pt;
    }
  }
  if (best_grid->batch > 1) {
    for (uint32_t point_clients : {4u, 2u, 1u}) {
      const GridPoint pt = run_point(best_grid->batch, 1, point_clients);
      if (pt.r.median_latency_ms <= latency_bound &&
          pt.r.ops_per_sec > matched.r.ops_per_sec) {
        matched = pt;
      }
      if (pt.r.median_latency_ms <= latency_bound) break;  // matched: done
    }
  }

  const double speedup =
      base.r.ops_per_sec > 0 ? matched.r.ops_per_sec / base.r.ops_per_sec : 0;
  const bool pass = speedup >= kMinSpeedup;

  char summary[640];
  std::snprintf(
      summary, sizeof(summary),
      "{\"figure\":\"peak_pipeline_summary\",\"protocol\":\"CP0\",\"f\":%u,"
      "\"baseline_clients\":%u,\"baseline_ops_per_sec\":%.3f,"
      "\"baseline_median_ms\":%.4f,\"peak_ops_per_sec\":%.3f,"
      "\"peak_median_ms\":%.4f,\"peak_batch\":%u,\"peak_inflight\":%u,"
      "\"peak_clients\":%u,\"speedup\":%.3f,\"min_speedup\":%.1f,"
      "\"latency_slack\":%.2f,\"pass\":%s}",
      f, clients, base.r.ops_per_sec, base.r.median_latency_ms,
      matched.r.ops_per_sec, matched.r.median_latency_ms, matched.batch,
      matched.inflight, matched.clients, speedup, kMinSpeedup, kLatencySlack,
      pass ? "true" : "false");
  if (json) {
    emit_json_line(summary);
  } else {
    std::printf("\nmatched peak %ux%u @ %u clients: %.0f ops/s vs baseline "
                "%.0f ops/s (%.2fx, median %.2f ms vs %.2f ms) — %s\n",
                matched.batch, matched.inflight, matched.clients,
                matched.r.ops_per_sec, base.r.ops_per_sec, speedup,
                matched.r.median_latency_ms, base.r.median_latency_ms,
                pass ? "PASS" : "FAIL");
  }
  return pass ? 0 : 1;
}
