// CI smoke check for the observability pipeline: run a tiny LAN
// throughput configuration, emit one bench JSON record, then validate it
// with the in-tree JSON reader:
//   1. every path listed in bench/metrics_schema.json "required" exists;
//   2. the tracer's per-phase means sum to the end-to-end mean within 5%
//      (the figure benches' acceptance bound; the tracer guarantees exact
//      telescoping, so a violation means a serialisation regression);
//   3. the run made progress (completed spans, measured operations);
//   4. a seeded chaos run (sim, CP2, a schedule that contains a
//      crash/restart pair) passes its safety/secrecy/liveness verdict and
//      emits a record whose recovery/chaos metrics satisfy the schema's
//      "required_chaos" paths;
//   5. (optional second argument) a BENCH_crypto.json produced by
//      bench_micro_crypto parses and carries the expected keys, so the CI
//      artifact is known-good before it is archived.
// Usage: bench_smoke <path/to/metrics_schema.json> [BENCH_crypto.json]
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench/throughput_common.h"
#include "chaos/chaos.h"
#include "obs/json.h"

int main(int argc, char** argv) {
  using namespace scab;
  using namespace scab::bench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <metrics_schema.json>\n", argv[0]);
    return 2;
  }

  causal::ClusterOptions opts;
  opts.protocol = causal::Protocol::kCp0;
  opts.cp0_modeled = true;  // oracle backend: no real exponentiations
  opts.bft = bft::BftConfig::for_f(1);
  opts.profile = sim::NetworkProfile::lan();
  opts.costs = host::CostModel::zero();  // virtual time from the network only
  opts.seed = 7;

  std::string obs;
  const ThroughputResult r =
      run_throughput(opts, /*clients=*/2, /*request_bytes=*/256,
                     /*warmup_ops=*/20, /*measure_ops=*/60, 60 * sim::kSecond,
                     &obs);
  char head[256];
  std::snprintf(head, sizeof(head),
                "{\"figure\":\"bench_smoke\",\"protocol\":\"CP0\","
                "\"clients\":2,\"ops_per_sec\":%.3f,\"mean_latency_ms\":%.4f,"
                "\"measured_ops\":%llu,",
                r.ops_per_sec, r.mean_latency_ms,
                static_cast<unsigned long long>(r.measured_ops));
  const std::string line = std::string(head) + obs + "}";
  std::printf("%s\n", line.c_str());

  int failures = 0;
  auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "bench_smoke: FAIL: %s\n", what.c_str());
    ++failures;
  };

  const auto doc = obs::json::parse(line);
  if (!doc) {
    fail("emitted JSON does not parse");
    return 1;
  }

  std::ifstream schema_file(argv[1]);
  if (!schema_file) {
    fail(std::string("cannot open schema ") + argv[1]);
    return 1;
  }
  std::stringstream ss;
  ss << schema_file.rdbuf();
  const auto schema = obs::json::parse(ss.str());
  if (!schema || !schema->get("required") ||
      !schema->get("required")->is_array()) {
    fail("schema does not parse or has no \"required\" array");
    return 1;
  }
  for (const auto& p : schema->get("required")->as_array()) {
    if (!p.is_string()) continue;
    if (!obs::json::find_path(*doc, p.as_string())) {
      fail("missing required path: " + p.as_string());
    }
  }

  // Phase means must telescope to the end-to-end mean (5% bound).
  const auto* e2e = obs::json::find_path(*doc, "trace/end_to_end_ms");
  const auto* phases = obs::json::find_path(*doc, "trace/phases");
  const auto* completed = obs::json::find_path(*doc, "trace/completed");
  if (!e2e || !phases || !phases->is_array() || !completed) {
    fail("trace breakdown missing");
  } else {
    double sum = 0;
    for (const auto& ph : phases->as_array()) {
      const auto* mean = ph.get("mean_ms");
      if (mean) sum += mean->as_number();
    }
    const double ref = e2e->as_number();
    if (ref <= 0 || completed->as_number() <= 0) {
      fail("no completed spans traced");
    } else if (std::fabs(sum - ref) > 0.05 * ref) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "phase means sum %.4f ms vs end-to-end %.4f ms (>5%%)",
                    sum, ref);
      fail(buf);
    }
  }

  if (r.measured_ops == 0) fail("no operations measured");

  // Pipeline smoke: the same tiny CP0 configuration with client-side
  // batching (4 payloads per amortized TDH2 envelope) and 2 in-flight
  // slots per client, validated against the schema's "required_pipeline"
  // paths — the record shape bench_peak_pipeline's sweep points share.
  {
    causal::ClusterOptions popts = opts;
    popts.client_batch = 4;
    popts.client_inflight = 2;
    std::string pobs;
    const ThroughputResult pr =
        run_throughput(popts, /*clients=*/2, /*request_bytes=*/256,
                       /*warmup_ops=*/16, /*measure_ops=*/64,
                       60 * sim::kSecond, &pobs);
    char phead[320];
    std::snprintf(phead, sizeof(phead),
                  "{\"figure\":\"pipeline_smoke\",\"protocol\":\"CP0\","
                  "\"clients\":2,\"batch\":4,\"inflight\":2,"
                  "\"ops_per_sec\":%.3f,\"mean_latency_ms\":%.4f,"
                  "\"median_latency_ms\":%.4f,\"measured_ops\":%llu,",
                  pr.ops_per_sec, pr.mean_latency_ms, pr.median_latency_ms,
                  static_cast<unsigned long long>(pr.measured_ops));
    const std::string pline = std::string(phead) + pobs + "}";
    std::printf("%s\n", pline.c_str());
    if (pr.measured_ops == 0) fail("pipeline smoke measured no operations");
    if (pr.median_latency_ms <= 0) {
      fail("pipeline smoke has no median latency");
    }
    const auto pdoc = obs::json::parse(pline);
    if (!pdoc) {
      fail("pipeline record does not parse as JSON");
    } else if (const auto* req = schema->get("required_pipeline");
               req && req->is_array()) {
      for (const auto& p : req->as_array()) {
        if (!p.is_string()) continue;
        if (!obs::json::find_path(*pdoc, p.as_string())) {
          fail("pipeline record missing required path: " + p.as_string());
        }
      }
      // The batched run must actually batch: the envelope-size histogram
      // has samples and its maximum matches the configured aggregation.
      const auto* bmax =
          obs::json::find_path(*pdoc, "metrics/histograms/cp0.batch_size/max");
      if (bmax && bmax->as_number() < 4) {
        fail("pipeline smoke never produced a full 4-payload envelope");
      }
    } else {
      fail("schema has no \"required_pipeline\" array");
    }
  }

  // Chaos smoke: the first seed whose schedule includes a crash (so the
  // record exercises the crash/restart path), run on the simulator.  The
  // scan is deterministic, so CI always validates the same schedule.
  {
    chaos::ChaosOptions copt;
    copt.protocol = causal::Protocol::kCp2;
    uint64_t chaos_seed = 0;
    for (uint64_t s = 1; s <= 64 && chaos_seed == 0; ++s) {
      for (const auto& ev : chaos::generate_schedule(s, copt)) {
        if (ev.kind == chaos::FaultKind::kCrash) {
          chaos_seed = s;
          break;
        }
      }
    }
    if (chaos_seed == 0) {
      fail("no chaos seed in 1..64 produced a crash event");
    } else {
      const chaos::ChaosReport cr = chaos::run_chaos(chaos_seed, copt);
      char chead[256];
      std::snprintf(chead, sizeof(chead),
                    "{\"figure\":\"chaos_smoke\",\"protocol\":\"CP2\","
                    "\"seed\":%llu,\"faults_injected\":%llu,"
                    "\"completed_ops\":%llu,\"expected_ops\":%llu,"
                    "\"metrics\":",
                    static_cast<unsigned long long>(chaos_seed),
                    static_cast<unsigned long long>(cr.faults_injected),
                    static_cast<unsigned long long>(cr.completed_ops),
                    static_cast<unsigned long long>(cr.expected_ops));
      const std::string cline =
          std::string(chead) + cr.metrics_json + "}";
      std::printf("%s\n", cline.c_str());
      if (!cr.ok()) fail("chaos run violated an invariant: " + cr.violation);
      const auto cdoc = obs::json::parse(cline);
      if (!cdoc) {
        fail("chaos record does not parse as JSON");
      } else if (const auto* req = schema->get("required_chaos");
                 req && req->is_array()) {
        for (const auto& p : req->as_array()) {
          if (!p.is_string()) continue;
          if (!obs::json::find_path(*cdoc, p.as_string())) {
            fail("chaos record missing required path: " + p.as_string());
          }
        }
      } else {
        fail("schema has no \"required_chaos\" array");
      }
    }
  }

  if (argc >= 3) {
    std::ifstream crypto_file(argv[2]);
    if (!crypto_file) {
      fail(std::string("cannot open crypto bench output ") + argv[2]);
    } else {
      std::stringstream cs;
      cs << crypto_file.rdbuf();
      const auto cdoc = obs::json::parse(cs.str());
      if (!cdoc) {
        fail("crypto bench output does not parse as JSON");
      } else {
        for (const char* path :
             {"single_verify_share_ns", "batch/0/k", "batch/0/per_share_ns",
              "batch/1/speedup", "batch/2/total_ns",
              "byzantine_detection/detected", "byzantine_detection/attributed",
              "byzantine_detection/bisection_splits", "pass"}) {
          if (!obs::json::find_path(*cdoc, path)) {
            fail(std::string("crypto bench output missing path: ") + path);
          }
        }
      }
    }
  }

  if (failures == 0) std::fprintf(stderr, "bench_smoke: PASS\n");
  return failures == 0 ? 0 : 1;
}
