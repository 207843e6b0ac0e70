// Fig. 6 — peak throughput for f = 1, 2, 3 (LAN): sweep the client count
// per protocol and report the maximum observed.
//
// `--json` also writes the sweep to BENCH_fig6_peak_throughput.json;
// `--quick` restricts to the f=1 column and two client counts (the CI
// configuration — full sweeps are for experiment runs).
#include "bench/throughput_common.h"

int main(int argc, char** argv) {
  using namespace scab;
  using namespace scab::bench;
  using causal::Protocol;

  const bool json = parse_json_flag(argc, argv);
  const bool quick = parse_flag(argc, argv, "--quick");
  open_json_artifact(json, "fig6_peak_throughput");
  const uint32_t f_max = quick ? 1 : 3;
  const std::vector<uint32_t> client_counts =
      quick ? std::vector<uint32_t>{10, 40}
            : std::vector<uint32_t>{10, 40, 80, 120};
  if (!json) {
    print_header("Fig 6 — peak throughput (requests/s), LAN",
                 "max over client counts {10, 40, 80, 120}");
    std::vector<std::string> head{"protocol"};
    for (uint32_t f = 1; f <= f_max; ++f) head.push_back("f=" + std::to_string(f));
    print_row(head);
  }

  for (auto p : {Protocol::kPbft, Protocol::kCp0, Protocol::kCp1,
                 Protocol::kCp2, Protocol::kCp3}) {
    std::vector<std::string> row{causal::protocol_name(p)};
    for (uint32_t f = 1; f <= f_max; ++f) {
      const host::CostModel costs =
          calibrate_costs(crypto::ModGroup::modp_1024(), f);
      double peak = 0;
      for (uint32_t clients : client_counts) {
        if (json) {
          // JSON mode emits every sweep point (the peak is derivable).
          std::string obs;
          const ThroughputResult r = sweep_point(
              p, f, sim::NetworkProfile::lan(), costs, clients, &obs);
          print_sweep_point_json("fig6_peak_throughput", p, f, clients, r, obs);
        } else {
          peak = std::max(
              peak,
              sweep_point(p, f, sim::NetworkProfile::lan(), costs, clients)
                  .ops_per_sec);
        }
      }
      row.push_back(fmt_tput(peak));
    }
    if (!json) print_row(row);
  }
  return 0;
}
