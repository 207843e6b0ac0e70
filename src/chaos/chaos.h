// Seeded chaos harness (DESIGN.md §9).
//
// A chaos run is (seed, options) -> schedule -> verdict:
//
//  * generate_schedule derives a deterministic fault schedule from an
//    HMAC-DRBG seeded with the chaos seed: crash/restart pairs (at most one
//    replica down at a time), directed link cuts and heals, extra one-way
//    link delays, and link tampering, all inside a fault horizon.  Every
//    schedule is self-healing: crashed replicas are restarted and a
//    terminal heal-all event closes the horizon, so a correct protocol must
//    eventually deliver everything submitted.
//  * run_chaos assembles a causal::Cluster for the requested protocol and
//    runtime (the SAME schedule drives either), runs a closed-loop client
//    workload of high-entropy marker operations through the fault window
//    via host::FaultInjector, and checks
//      - safety:   per-replica execution logs are pairwise prefix-consistent
//                  (total order; a restarted replica that has not finished
//                  catching up simply has a shorter prefix),
//      - secrecy:  for CP0/CP2/CP3 no marker plaintext ever appears on the
//                  wire (inspected from the injector's tamper hook),
//      - liveness: every submitted operation completes within the deadline
//                  after the terminal heal.
//
// Under RuntimeKind::kSim event times are virtual nanoseconds and a run is
// bit-reproducible; under kThreads the same offsets are applied on the
// steady clock by the controlling thread.
#pragma once

#include <string>
#include <vector>

#include "causal/harness.h"

namespace scab::chaos {

enum class FaultKind : uint8_t {
  kCrash,       // full teardown of replica `a` (Cluster::crash_replica)
  kRestart,     // rebuild replica `a` with empty volatile state
  kCut,         // drop the directed link a -> b
  kHeal,        // restore the directed link a -> b
  kDelay,       // add `extra` ns of one-way delay on a -> b
  kTamper,      // corrupt every message on a -> b (dropped by authentication)
  kCrashAll,    // power loss: tear down EVERY replica at once
  kRestartAll,  // power restored: every replica recovers from its storage
  kHealAll,     // terminal: heal cuts, clear delays, stop tampering
};

const char* fault_kind_name(FaultKind k);

struct ChaosEvent {
  host::Time at = 0;  // offset from workload start (virtual or wall ns)
  FaultKind kind = FaultKind::kHealAll;
  host::NodeId a = 0;
  host::NodeId b = 0;
  host::Time extra = 0;  // kDelay only

  bool operator==(const ChaosEvent&) const = default;
};

/// Every run has f = 1 (n = 4), two clients, and protocol timers tuned
/// for quick recovery (chaos.cc).
struct ChaosOptions {
  causal::Protocol protocol = causal::Protocol::kPbft;
  causal::RuntimeKind runtime = causal::RuntimeKind::kSim;
  uint32_t ops_per_client = 6;
  uint32_t num_faults = 6;
  /// Fault window: every generated fault fires inside it and the terminal
  /// heal-all lands exactly on it.
  host::Time horizon = 2 * host::kSecond;
  /// Workload completion budget measured from the start of the run.
  host::Time deadline = 60 * host::kSecond;

  /// Full-cluster power loss (DESIGN.md §13): a crash-all event kills every
  /// replica mid-horizon and a restart-all brings them all back, each
  /// recovering from its attached storage.  Requires durability != kNone —
  /// with no storage every replica would lose its whole history at once and
  /// nothing could be recovered.  Single-replica crash events are disabled
  /// for these schedules (they would overlap the outage).
  bool full_restart = false;
  /// Storage attached to each replica (causal::ClusterOptions semantics).
  causal::ClusterOptions::Durability durability =
      causal::ClusterOptions::Durability::kNone;
  std::string data_dir;  // Durability::kFile only
};

/// Deterministic: the same (seed, options) always yields the same schedule.
std::vector<ChaosEvent> generate_schedule(uint64_t seed,
                                          const ChaosOptions& opt);

/// One line per event, for logs and golden tests.
std::string format_schedule(const std::vector<ChaosEvent>& schedule);

struct ChaosReport {
  bool safety_ok = false;
  bool secrecy_ok = false;
  bool liveness_ok = false;
  bool ok() const { return safety_ok && secrecy_ok && liveness_ok; }

  uint64_t faults_injected = 0;
  uint64_t completed_ops = 0;
  uint64_t expected_ops = 0;
  /// ns from the terminal heal to the first op completion after it (0 when
  /// the workload already finished inside the fault window).
  host::Time first_delivery_after_heal = 0;
  /// Human-readable description of the first violated invariant.
  std::string violation;

  /// Per-replica executed plaintexts (the final incarnation's log), in
  /// execution order — what the safety check compared.  Also the
  /// determinism witness: two sim runs with one seed produce equal logs.
  std::vector<std::vector<Bytes>> logs;

  /// Cluster-wide merged metrics registry as JSON (chaos.faults_injected.*,
  /// net.drops.*, bft.recovery.*, ...), for bench/CI schema validation.
  std::string metrics_json;
};

/// Generates the schedule for (seed, opt) and runs it to a verdict.
ChaosReport run_chaos(uint64_t seed, const ChaosOptions& opt);

}  // namespace scab::chaos
