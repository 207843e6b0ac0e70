// Ablation — the "security parameter" knob the paper mentions for CP0: how
// the threshold-cryptosystem group size drives per-operation cost and CP0's
// end-to-end latency.  The paper deliberately ran CP0 with a conservative
// (<80-bit security) parameter and it STILL lost by orders of magnitude;
// this bench shows the gap only widens at honest parameters.
#include "bench/latency_common.h"

int main() {
  using namespace scab;
  using namespace scab::bench;

  struct GroupCase {
    const char* name;
    crypto::ModGroup group;
  };
  crypto::Drbg rng(to_bytes("ablation-256"));
  std::vector<GroupCase> cases;
  cases.push_back({"256-bit", crypto::ModGroup::generate(256, rng)});
  cases.push_back({"512-bit", crypto::ModGroup::modp_512()});
  cases.push_back({"1024-bit", crypto::ModGroup::modp_1024()});

  print_header("Ablation — TDH2 cost vs group modulus size (f=1)",
               "per-operation ms, plus CP0 end-to-end LAN latency");
  print_row({"group", "enc", "vrf-ct", "share-dec", "vrf-share", "combine",
             "CP0-lat"});

  for (auto& gc : cases) {
    const ThreshEncProfile p = profile_threshenc(gc.group, 1, 4);
    const host::CostModel costs = calibrate_costs(gc.group, 1);
    auto opts = latency_options(causal::Protocol::kCp0, 1,
                                sim::NetworkProfile::lan(), costs);
    opts.group = gc.group;
    const double lat = run_latency_ms(opts, 4096, 6);
    print_row({gc.name, fmt_ms(p.encrypt_ms), fmt_ms(p.verify_ciphertext_ms),
               fmt_ms(p.share_decrypt_ms), fmt_ms(p.verify_share_ms),
               fmt_ms(p.combine_ms), fmt_ms(lat)});
  }
  return 0;
}
