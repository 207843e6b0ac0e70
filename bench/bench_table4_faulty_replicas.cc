// Table IV — latency in ms with f Byzantine replicas contributing faulty
// decryption/secret shares (LAN), for the share-based protocols — plus a
// crash/restart recovery drill per cell driven through host::FaultInjector.
//
// The two fault models are deliberately distinct:
//   * Faulty shares are a Byzantine *signer* fault (corrupt_replica_shares);
//     shares are authenticated, so no network-level injector can forge them.
//   * Crash + restart is a network/process fault and goes through the
//     runtime-agnostic injector (Cluster::crash_replica / restart_replica):
//     the reborn replica rejoins via the checkpoint catch-up fetch and the
//     drill reports bft.recovery.catchup_ms.
//
// `--json` emits one record per (protocol, f) cell with both the
// faulty-share latency and the recovery-latency columns.
#include <cstdio>

#include "bench/latency_common.h"
#include "bench/throughput_common.h"

namespace scab::bench {
namespace {

struct RecoveryCell {
  double catchup_ms = -1.0;  // mean of bft.recovery.catchup_ms on the victim
  uint64_t catchups = 0;     // completed catch-up rounds (expect >= 1)
};

// Crash a backup mid-run, keep the quorum serving, restart it, and measure
// how long the checkpoint catch-up takes once the next checkpoint
// certificate tells the reborn replica it is behind.
RecoveryCell run_recovery_drill(causal::Protocol protocol, uint32_t f,
                                sim::NetworkProfile profile,
                                const host::CostModel& costs,
                                std::string* obs_fields = nullptr) {
  auto opts = latency_options(protocol, f, profile, costs);
  // Low watermark interval so the drill recovers within a handful of
  // requests instead of the production default of 64.
  opts.bft.checkpoint_interval = 4;
  opts.num_clients = 1;
  causal::Cluster cluster(opts);
  cluster.client(0).set_retry_timeout(60 * sim::kSecond);

  const uint32_t victim = cluster.n() - 1;  // a backup: quorum survives
  auto op = [](uint64_t i) { return Bytes(512, static_cast<uint8_t>(i)); };

  RecoveryCell cell;
  uint64_t seq = 0;
  for (int i = 0; i < 2; ++i) {
    if (!cluster.run_one(0, op(seq++), 600 * sim::kSecond)) return cell;
  }
  cluster.crash_replica(victim);
  // Cross at least one checkpoint boundary while the victim is down so its
  // snapshot is genuinely stale on rebirth.
  for (int i = 0; i < 6; ++i) {
    if (!cluster.run_one(0, op(seq++), 600 * sim::kSecond)) return cell;
  }
  cluster.restart_replica(victim);

  auto& catchup = cluster.replica_metrics(victim)
                      .histogram("bft.recovery.catchup_ms");
  // Post-restart traffic advances the cluster to the next checkpoint, whose
  // certificate triggers the victim's fetch; stop as soon as it lands.
  for (int i = 0; i < 12 && catchup.count() == 0; ++i) {
    if (!cluster.run_one(0, op(seq++), 600 * sim::kSecond)) return cell;
  }
  cluster.sim().run_while([&] {
    return catchup.count() >= 1 || cluster.sim().now() > 600 * sim::kSecond;
  });

  cell.catchups = catchup.count();
  if (cell.catchups > 0) cell.catchup_ms = catchup.mean();
  if (obs_fields) *obs_fields = obs_json_fields(cluster);
  cluster.shutdown();
  return cell;
}

void run_table4(bool json) {
  const std::vector<causal::Protocol> protocols = {
      causal::Protocol::kCp0, causal::Protocol::kCp2, causal::Protocol::kCp3};
  const sim::NetworkProfile profile = sim::NetworkProfile::lan();

  if (!json) {
    run_latency_table("Table IV — latency with faulty replicas in ms (LAN)",
                      profile, protocols, /*corrupt_f_replicas=*/true);
    print_header("Table IV addendum — crash/restart recovery in ms (LAN)",
                 "one backup killed mid-run and restarted through "
                 "host::FaultInjector; checkpoint catch-up latency "
                 "(bft.recovery.catchup_ms, checkpoint interval 4)");
    print_row({"protocol", "f=1", "f=2", "f=3"});
  }

  for (auto protocol : protocols) {
    std::vector<std::string> row{causal::protocol_name(protocol)};
    for (uint32_t f = 1; f <= 3; ++f) {
      const host::CostModel costs =
          calibrate_costs(crypto::ModGroup::modp_1024(), f);
      if (json) {
        auto opts = latency_options(protocol, f, profile, costs);
        const uint64_t requests =
            protocol == causal::Protocol::kCp0 ? 8 : 30;
        const double faulty_ms = run_corrupt_latency_ms(opts, f, requests);
        std::string obs;
        const RecoveryCell rec =
            run_recovery_drill(protocol, f, profile, costs, &obs);
        std::printf(
            "{\"figure\":\"table4\",\"protocol\":\"%s\",\"f\":%u,"
            "\"faulty_latency_ms\":%.4f,\"recovery_catchup_ms\":%.4f,"
            "\"recovery_catchups\":%llu,%s}\n",
            causal::protocol_name(protocol), f, faulty_ms, rec.catchup_ms,
            static_cast<unsigned long long>(rec.catchups), obs.c_str());
        std::fflush(stdout);
      } else {
        const RecoveryCell rec =
            run_recovery_drill(protocol, f, profile, costs);
        row.push_back(fmt_ms(rec.catchup_ms));
      }
    }
    if (!json) print_row(row);
  }
}

}  // namespace
}  // namespace scab::bench

int main(int argc, char** argv) {
  const bool json = scab::bench::parse_json_flag(argc, argv);
  scab::bench::run_table4(json);
  return 0;
}
