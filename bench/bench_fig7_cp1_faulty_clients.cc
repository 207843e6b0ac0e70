// Fig. 7 — CP1 throughput over time when clients turn faulty (LAN).
//
// Timeline (per the paper's experiment): clients run normally; at t_fail
// they stop sending witnesses (they keep scheduling — tentative requests
// pile up and execution throughput drops to zero); the primary's CLEANUP
// aborts the expired tentatives once the cleanup cycle elapses; the clients
// then recover and throughput resumes.  The run is reported as a time
// series of executed requests per second, for 5 and for 10 clients; the
// cleanup cycle scales with the client count, so the dead period is longer
// with 10 clients, exactly as in the paper.
#include <cstdio>

#include "bench/bench_util.h"

#include "bft/client.h"
#include "causal/cp1.h"

namespace {

using namespace scab;
using namespace scab::bench;
using sim::kMillisecond;
using sim::kSecond;

void run_timeline(uint32_t clients, bool json) {
  const host::CostModel costs =
      calibrate_costs(crypto::ModGroup::modp_1024(), 1);
  causal::ClusterOptions opts;
  opts.protocol = causal::Protocol::kCp1;
  opts.bft = bft::BftConfig::for_f(1);
  opts.profile = sim::NetworkProfile::lan();
  opts.costs = costs;
  opts.seed = 42;
  opts.num_clients = clients;
  // ~10x the per-latency delivery count, as in the paper's conservative
  // setting ("10 times average latency", measured in scheduled requests).
  opts.cp1.cleanup_cycle = 30ull * clients;

  causal::Cluster cluster(opts);
  for (uint32_t c = 0; c < clients; ++c) {
    cluster.client(c).set_retry_timeout(60 * kSecond);
    cluster.client(c).run_closed_loop(
        [](uint64_t i) { return Bytes(4096, static_cast<uint8_t>(i)); }, 0);
  }

  auto executed = [&] {
    return dynamic_cast<causal::EchoService&>(cluster.service(0)).executed();
  };
  auto set_faulty = [&](bool on) {
    for (uint32_t c = 0; c < clients; ++c) {
      dynamic_cast<causal::Cp1ClientProtocol&>(cluster.client_protocol(c))
          .set_schedule_only(on);
    }
  };

  const sim::SimTime bucket = 50 * kMillisecond;
  const sim::SimTime t_fail = 300 * kMillisecond;
  const sim::SimTime t_recover = 800 * kMillisecond;  // transient failure
  const sim::SimTime t_end = 1500 * kMillisecond;

  if (!json) {
    print_header(("Fig 7 — CP1 throughput timeline, " +
                  std::to_string(clients) + " clients (LAN, f=1)")
                     .c_str(),
                 "clients turn faulty (schedule without reveal) at t=300 ms; "
                 "recovery when the cleanup completes");
    print_row({"t_ms", "executed/s", "tentative", "cleaned"});
  }

  std::string timeline;  // JSON array members, built as the run progresses
  bool failed = false;
  bool recovered = false;
  uint64_t prev_exec = 0;
  for (sim::SimTime t = bucket; t <= t_end; t += bucket) {
    if (!failed && t > t_fail) {
      set_faulty(true);
      failed = true;
    }
    auto& app = dynamic_cast<causal::Cp1ReplicaApp&>(cluster.replica_app(0));
    if (failed && !recovered && t > t_recover) {
      set_faulty(false);  // the transient failure ends
      recovered = true;
    }
    cluster.sim().run_until(t);
    const uint64_t now_exec = executed();
    const double tput = static_cast<double>(now_exec - prev_exec) * kSecond /
                        static_cast<double>(bucket);
    prev_exec = now_exec;
    if (json) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"t_ms\":%llu,\"executed_per_s\":%.1f,"
                    "\"tentative\":%llu,\"cleaned\":%llu}",
                    timeline.empty() ? "" : ",",
                    static_cast<unsigned long long>(t / kMillisecond), tput,
                    static_cast<unsigned long long>(app.tentative_count()),
                    static_cast<unsigned long long>(app.cleaned_count()));
      timeline += buf;
    } else {
      print_row({std::to_string(t / kMillisecond), fmt_tput(tput),
                 std::to_string(app.tentative_count()),
                 std::to_string(app.cleaned_count())});
    }
  }
  if (json) {
    std::printf(
        "{\"figure\":\"fig7_cp1_faulty_clients\",\"clients\":%u,"
        "\"timeline\":[%s],%s}\n",
        clients, timeline.c_str(), obs_json_fields(cluster).c_str());
    std::fflush(stdout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") json = true;
  }
  run_timeline(5, json);
  run_timeline(10, json);
  return 0;
}
