// Ablation — batching (a design choice the paper calls out: "All the
// protocols implement batching of concurrent requests to reduce
// cryptographic and communication overheads").  Throughput of PBFT and CP2
// at 40 clients as the maximum batch size varies.
#include "bench/throughput_common.h"

int main() {
  using namespace scab;
  using namespace scab::bench;

  const host::CostModel costs =
      calibrate_costs(crypto::ModGroup::modp_1024(), 1);
  print_header("Ablation — throughput vs max batch size (LAN, f=1, 40 clients)",
               "requests/s");
  print_row({"max_batch", "PBFT", "CP2"});

  for (uint32_t batch : {1u, 4u, 16u, 64u}) {
    std::vector<std::string> row{std::to_string(batch)};
    for (auto p : {causal::Protocol::kPbft, causal::Protocol::kCp2}) {
      auto opts = throughput_options(p, 1, sim::NetworkProfile::lan(), costs);
      opts.bft.max_batch = batch;
      row.push_back(fmt_tput(run_throughput(opts, 40, 4096, 200, 800).ops_per_sec));
    }
    print_row(row);
  }
  return 0;
}
