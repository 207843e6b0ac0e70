// Shared infrastructure for the paper-reproduction benchmarks.
//
// Every benchmark binary follows the same recipe (DESIGN.md §3):
//   1. CALIBRATE — measure the real cryptographic implementations on this
//      machine (wall clock) and build a host::CostModel from the results.
//   2. SIMULATE — run the full protocol stack on the deterministic
//      simulator with those costs charged into virtual time, under the
//      paper's LAN/WAN network profiles and workloads.
//   3. PRINT — emit the same rows/series the paper's table or figure shows.
#pragma once

#include <string>
#include <vector>

#include "bft/client.h"
#include "bft/replica.h"
#include "causal/harness.h"
#include "threshenc/tdh2.h"

namespace scab::bench {

/// Measures the real crypto implementations and prices the cost model.
/// `group` is the threshold-cryptosystem group (pass modp_1024() for the
/// paper configuration); TDH2 prices depend on f (combine interpolates f+1
/// shares).  Symmetric prices are measured once and cached across calls.
host::CostModel calibrate_costs(const crypto::ModGroup& group, uint32_t f);

/// Per-operation TDH2 measurements in milliseconds (Fig. 3's series).
/// share_decrypt and combine are measured through the *preverified* entry
/// points: CP0 verifies every ciphertext once at admission and charges
/// kTdh2VerifyCt for it there, so pricing the reveal-pipeline ops with a
/// second (and third) proof check would double-bill the virtual clock.
struct ThreshEncProfile {
  double encrypt_ms = 0;
  double verify_ciphertext_ms = 0;
  double share_decrypt_ms = 0;
  double verify_share_ms = 0;
  // Randomized batch verification (DESIGN.md §4.3) at two batch sizes;
  // calibrate_costs fits kTdh2BatchVerifyShare's (fixed, per-share) price
  // from the k=4 and k=16 points.
  double batch_verify4_ms = 0;
  double batch_verify16_ms = 0;
  double combine_ms = 0;
};
ThreshEncProfile profile_threshenc(const crypto::ModGroup& group, uint32_t f,
                                   int reps = 5);

/// Runs a single-client closed loop of `requests` operations of
/// `request_bytes` each and returns the mean latency in milliseconds
/// (the paper's "latency under no contention").  Returns a negative value
/// if the run did not finish within the virtual deadline.
///
/// If `obs_fields` is non-null it receives the run's observability export:
/// two already-serialised JSON members, `"trace":{...},"metrics":{...}`
/// (no surrounding braces), ready to splice into a caller-assembled
/// object.  The trace member is the tracer's per-phase breakdown, whose
/// segment means telescope to the end-to-end mean (obs/trace.h); the
/// metrics member is the cluster-wide merged registry.
double run_latency_ms(causal::ClusterOptions opts, std::size_t request_bytes,
                      uint64_t requests,
                      sim::SimTime deadline = 600 * sim::kSecond,
                      std::string* obs_fields = nullptr);

struct ThroughputResult {
  double ops_per_sec = 0;
  double mean_latency_ms = 0;
  /// Exact median over the per-operation latencies completed inside the
  /// measurement window (not a histogram-bucket estimate) — the batching
  /// acceptance bound "peak throughput at equal median latency" needs the
  /// real order statistic.
  double median_latency_ms = 0;
  uint64_t measured_ops = 0;
};

/// Runs `clients` closed-loop clients under contention and measures
/// steady-state throughput: a warmup of `warmup_ops` completions, then
/// `measure_ops` completions (both totals across clients).
/// `obs_fields`: as in run_latency_ms.
ThroughputResult run_throughput(causal::ClusterOptions opts, uint32_t clients,
                                std::size_t request_bytes, uint64_t warmup_ops,
                                uint64_t measure_ops,
                                sim::SimTime deadline = 3600 * sim::kSecond,
                                std::string* obs_fields = nullptr);

/// The observability members for a finished cluster (used by the helpers
/// above and directly by benches that drive their own run loop).
std::string obs_json_fields(causal::Cluster& cluster);

/// --json artifact tee.  When `enabled`, every subsequent emit_json_line()
/// is mirrored to `BENCH_<name>.json` in the working directory (the repo
/// root under scripts/ci.sh), so JSON runs leave an archivable trajectory
/// artifact in addition to the stdout stream.  Opening a new artifact
/// closes the previous one; disabled mode closes without opening.
void open_json_artifact(bool enabled, const std::string& name);

/// Prints one complete JSON record (no trailing newline in `line`) to
/// stdout and, when an artifact is open, appends it there too.
void emit_json_line(const std::string& line);

/// Fixed-width table printing.
void print_header(const std::string& title, const std::string& note);
void print_row(const std::vector<std::string>& cells, int width = 12);
std::string fmt_ms(double ms);
std::string fmt_tput(double ops);

}  // namespace scab::bench
