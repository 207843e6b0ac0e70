// scab-perfbench — wall-clock benchmark of the replica stack.
//
//   scab-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out <dir>] [--quick] [--drop-exec <k>]
//
// One process assembles four replicas and one pipelined client (see
// cluster.h), sets the cluster up several times (setup_s is the median),
// warms up, and measures.  --trace 0 prints the end-to-end metrics;
// --trace 1 measures an untraced and then a traced assembly and prints the
// per-layer metrics, the tracing overhead between the two, the traced
// run's reconciliation of layer times against client latency, and the
// single-layer ceilings; on a workload with a failover drill it then
// crashes and rebuilds the primary of a third, traced assembly.  Every run
// ends with the correctness gate; a violation prints correct=false and
// exits 1.
//
// --quick shortens warm-up, set-up repeats and the drill for the
// benchmark's own test; --drop-exec k makes replica 2's Service skip its
// k-th execution, which the gate must catch.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ceilings.h"
#include "cluster.h"
#include "trace.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out = ".bench_build/run";
  bool quick = false;
  uint64_t drop_exec = 0;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--quick") {
      a->quick = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0') return false;
    } else if (k == "--trace") {
      a->trace = std::atoi(v);
    } else if (k == "--out") {
      a->out = v;
    } else if (k == "--drop-exec") {
      a->drop_exec = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

uint64_t splitmix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

Bytes make_payload(uint64_t seed) {
  std::mt19937_64 rng(splitmix(seed ^ 0x70a710adull));
  Bytes p(kOpBytes);
  for (std::size_t i = 0; i < p.size(); i += 8) {
    const uint64_t v = rng();
    std::memcpy(p.data() + i, &v, std::min<std::size_t>(8, p.size() - i));
  }
  return p;
}

// --- process-level probes -------------------------------------------------

struct Usage {
  double cpu_ms = 0;
  uint64_t ctxsw = 0;
  double maxrss_mb = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_ms = (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
             (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
  u.ctxsw = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  u.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

/// Host CPU jiffies from /proc/stat: {steal, total}.
std::pair<uint64_t, uint64_t> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t v[10] = {};
  for (uint64_t& x : v) in >> x;
  // user nice system idle iowait irq softirq steal (guest is inside user)
  uint64_t total = 0;
  for (int i = 0; i < 8; ++i) total += v[i];
  return {v[7], total};
}

int thread_count() {
  std::error_code ec;
  int n = 0;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

void sleep_until_ns(uint64_t t) {
  const uint64_t now = now_ns();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

template <class Pred>
bool wait_for(Pred pred, double seconds) {
  const uint64_t deadline = now_ns() + static_cast<uint64_t>(seconds * 1e9);
  while (!pred()) {
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(p * static_cast<double>(v.size() - 1))];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// --- timeline -------------------------------------------------------------

struct Timeline {
  // Set-ups before and after the measured phase: spreading them over the
  // run keeps one moment of host contention from setting the median.
  int setups_before;
  int setups_after;
  double warmup_s;
  double measure_s;
  // Failover drill: the primary dies crash_at_s into the drill and is
  // rebuilt from its data directory downtime_s later.
  double crash_at_s;
  double downtime_s;
  double recovery_cap_s;
};

Timeline timeline(const Args& a) {
  Timeline t;
  t.setups_before = a.quick ? 1 : 20;
  t.setups_after = a.quick ? 1 : 21;
  t.warmup_s = a.quick ? 0.5 : 2.0;
  t.measure_s = a.seconds;
  t.crash_at_s = a.quick ? 0.5 : 1.0;
  // About a second longer than the survivors' view change (2.6-3.0 s): a
  // primary rebuilt before they finished it left client ops uncommitted
  // (see NOTES.md).
  t.downtime_s = 4.0;
  t.recovery_cap_s = a.quick ? 2.0 : 5.0;
  return t;
}

// --- one measured phase ---------------------------------------------------

struct Phase {
  bool ok = true;
  std::string error;
  uint64_t t_a = 0, t_b = 0;  // measured window
  uint64_t ops = 0;           // logical ops completed in the window
  double ops_s = 0;
  double lat_p50_ms = 0, lat_p99_ms = 0;
  std::size_t p99_windows = 0;
  double lat_p99_whole_ms = 0;  // p99 of the whole phase, for the record
  double cpu_ms_per_op = 0;
  uint64_t ctxsw = 0;
  uint64_t attempted = 0, failed = 0;
  double steal = 0;
  int threads = 0;
  uint64_t retries = 0;
  uint64_t send_errors = 0;
  // failover drill
  uint64_t crash_ns = 0;
  double outage_ms = 0;
  double recovery_s = 0;
  bool recovered = false;
  double recover_ms = 0;
  double catchup_ms = 0;
  uint64_t wal_replayed = 0;
};

constexpr uint64_t kUnbounded = 1ull << 40;

// Independent latency samples per window of lat_p99_ms: at least ten lie
// beyond each window's p99.
constexpr uint64_t kWindowSamples = 1000;

/// Median over equal time windows of [t_a, t_b] of each window's p99, with
/// one window per kWindowSamples independent samples (at least one).  Host
/// steal comes in bursts of a few seconds; the median leaves out the few
/// windows a burst hits, which the whole phase's p99 would not.
double windowed_p99(const std::vector<std::pair<uint64_t, double>>& lat,
                    uint64_t t_a, uint64_t t_b, uint32_t batch,
                    std::size_t* windows) {
  const std::size_t k =
      std::max<std::size_t>(1, lat.size() / batch / kWindowSamples);
  std::vector<std::vector<double>> win(k);
  const double width = static_cast<double>(t_b - t_a) / static_cast<double>(k);
  for (const auto& [end_ns, ms] : lat) {
    const auto j = static_cast<std::size_t>(
        static_cast<double>(end_ns - t_a) / width);
    win[std::min(j, k - 1)].push_back(ms);
  }
  std::vector<double> p99;
  for (const std::vector<double>& w : win) {
    if (!w.empty()) p99.push_back(quantile(w, 0.99));
  }
  *windows = k;
  return median(p99);
}

void finish_phase(Cluster& c, Phase* p, const Usage& u_a,
                  std::pair<uint64_t, uint64_t> j_a, uint64_t retries_a,
                  uint64_t send_errors_a) {
  const Usage u_b = usage_now();
  const auto j_b = cpu_jiffies();
  p->threads = thread_count();
  p->steal = j_b.second > j_a.second
                 ? static_cast<double>(j_b.first - j_a.first) /
                       static_cast<double>(j_b.second - j_a.second)
                 : 0;
  p->retries = c.client_metrics().counter_value("client.retries") - retries_a;
  // Drain: every started op gets the same generous deadline to commit.
  wait_for([&] { return c.completed() >= c.started(); }, 30);
  p->attempted = c.started();
  p->failed = p->attempted - std::min(p->attempted, c.completed());
  p->send_errors = c.send_errors() - send_errors_a;

  std::vector<double> lat;
  std::vector<std::pair<uint64_t, double>> timed;
  for (const Completion& d : c.completions()) {
    if (d.end_ns < p->t_a || d.end_ns > p->t_b) continue;
    lat.push_back(static_cast<double>(d.lat_ns) / 1e6);
    timed.emplace_back(d.end_ns, lat.back());
  }
  p->ops = lat.size();
  const double window_s = static_cast<double>(p->t_b - p->t_a) / 1e9;
  p->ops_s = static_cast<double>(p->ops) / window_s;
  p->lat_p50_ms = quantile(lat, 0.5);
  p->lat_p99_ms = windowed_p99(timed, p->t_a, p->t_b, c.workload().batch,
                               &p->p99_windows);
  p->lat_p99_whole_ms = quantile(lat, 0.99);
  p->cpu_ms_per_op =
      p->ops > 0 ? (u_b.cpu_ms - u_a.cpu_ms) / static_cast<double>(p->ops) : 0;
  p->ctxsw = u_b.ctxsw - u_a.ctxsw;
}

Phase run_closed(Cluster& c, const Timeline& tl, bool record) {
  Phase p;
  c.release(kUnbounded);
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(static_cast<uint64_t>(tl.warmup_s * 1e9)));
  const uint64_t retries_a = c.client_metrics().counter_value("client.retries");
  const uint64_t send_errors_a = c.send_errors();
  const auto j_a = cpu_jiffies();
  const Usage u_a = usage_now();
  p.t_a = now_ns();
  if (record) Recorder::get().set_on(true);
  sleep_until_ns(p.t_a + static_cast<uint64_t>(tl.measure_s * 1e9));
  p.t_b = now_ns();
  if (record) Recorder::get().set_on(false);
  c.stop_starting();
  finish_phase(c, &p, u_a, j_a, retries_a, send_errors_a);
  return p;
}

/// Closed loop on a traced assembly: the primary's whole stack is torn down
/// mid-run (its sockets close as under kill -9) and rebuilt from its data
/// directory after the downtime.  Measures the survivors' view change, the
/// rebuilt replica's recovery and the outage the client saw.
Phase run_drill(Cluster& c, const Timeline& tl) {
  Phase p;
  const uint64_t retries_a = c.client_metrics().counter_value("client.retries");
  const uint64_t send_errors_a = c.send_errors();
  const auto j_a = cpu_jiffies();
  const Usage u_a = usage_now();
  Recorder::get().set_on(true);
  c.release(kUnbounded);
  p.t_a = now_ns();
  sleep_until_ns(p.t_a + static_cast<uint64_t>(tl.crash_at_s * 1e9));
  p.crash_ns = now_ns();
  const uint64_t started_at_crash = c.started();
  c.crash_replica(0);  // the view-0 primary
  sleep_until_ns(p.crash_ns + static_cast<uint64_t>(tl.downtime_s * 1e9));
  const uint64_t restart_ns = now_ns();
  uint64_t target = 0;
  for (uint32_t id = 1; id < kReplicas; ++id) {
    target = std::max(target, c.echo_executed(id));
  }
  std::string err;
  if (!c.restart_replica(0, &err)) {
    p.ok = false;
    p.error = "restart: " + err;
  }
  p.recovered = p.ok && wait_for([&] { return c.echo_executed(0) >= target; },
                                 tl.recovery_cap_s);
  p.recovery_s = p.recovered ? static_cast<double>(now_ns() - restart_ns) / 1e9
                             : tl.recovery_cap_s;
  p.t_b = now_ns();
  Recorder::get().set_on(false);
  c.stop_starting();
  finish_phase(c, &p, u_a, j_a, retries_a, send_errors_a);
  // Outage: the crash to the first commit of an op started after it.  Ops
  // the old primary had already ordered may still commit through the
  // survivors just after the crash; they end no outage.
  uint64_t first_after = 0;
  for (const Completion& d : c.completions()) {
    if (d.index >= started_at_crash &&
        (first_after == 0 || d.end_ns < first_after)) {
      first_after = d.end_ns;
    }
  }
  p.outage_ms =
      first_after > 0 ? static_cast<double>(first_after - p.crash_ns) / 1e6 : 0;
  p.recover_ms = static_cast<double>(c.last_recover_ns()) / 1e6;
  p.wal_replayed =
      c.replica_metrics(0).counter_value("bft.recovery.wal_replayed");
  const auto* h =
      c.replica_metrics(0).find_histogram("bft.recovery.catchup_ms");
  // No catch-up episode: none was needed if the replica caught up anyway;
  // otherwise it never got there and reads the cap, like recovery_s.
  p.catchup_ms = h != nullptr && h->count() > 0
                     ? static_cast<double>(h->max())
                 : p.recovered ? 0
                               : tl.recovery_cap_s * 1e3;
  return p;
}

// --- correctness gate -----------------------------------------------------

/// Checks the replicas against what the client committed; returns "" when
/// the run is correct, else the first violation.
std::string gate(Cluster& c, bool drilled) {
  const uint64_t committed = c.completed();
  const uint64_t index_sum = c.completed_index_sum();
  std::vector<uint32_t> survivors;
  for (uint32_t id = 0; id < kReplicas; ++id) {
    if (!(drilled && id == 0)) survivors.push_back(id);
  }
  // Replicas outside the quorum may still be executing; give them time.
  wait_for(
      [&] {
        for (uint32_t id : survivors) {
          if (c.checked(id)->executed() < committed) return false;
        }
        return true;
      },
      15);
  char buf[256];
  if (c.started() != committed) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 " of %" PRIu64
                  " ops never committed", c.started() - committed, c.started());
    return buf;
  }
  for (uint32_t id : survivors) {
    const CheckedService& s = *c.checked(id);
    if (s.executed() != committed || s.index_sum() != index_sum ||
        s.malformed() != 0) {
      std::snprintf(buf, sizeof(buf),
                    "replica %u executed %" PRIu64 " ops (index sum %" PRIu64
                    ", %" PRIu64 " malformed); client committed %" PRIu64
                    " (index sum %" PRIu64 ")",
                    id, s.executed(), s.index_sum(), s.malformed(), committed,
                    index_sum);
      return buf;
    }
  }
  for (uint32_t id = 0; id < kReplicas; ++id) {
    if (!c.live(id)) continue;
    if (c.echo_bytes_in(id) != c.echo_executed(id) * kOpBytes) {
      std::snprintf(buf, sizeof(buf),
                    "replica %u EchoService executed %" PRIu64
                    " ops but took %" PRIu64 " bytes",
                    id, c.echo_executed(id), c.echo_bytes_in(id));
      return buf;
    }
  }
  const uint64_t e1 = c.echo_executed(survivors.front());
  for (uint32_t id : survivors) {
    if (c.echo_executed(id) != e1) {
      std::snprintf(buf, sizeof(buf),
                    "EchoService counts disagree: replica %u %" PRIu64
                    ", replica %u %" PRIu64,
                    survivors.front(), e1, id, c.echo_executed(id));
      return buf;
    }
  }
  if (drilled && c.echo_executed(0) > e1) {
    std::snprintf(buf, sizeof(buf),
                  "restarted replica executed %" PRIu64
                  " ops, more than the survivors' %" PRIu64,
                  c.echo_executed(0), e1);
    return buf;
  }
  return "";
}

// --- output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  // False for a layer time that reads 0 on a declared workload where its
  // layer is idle: printed, but left out of the result line, where a time
  // that repeats exactly across runs is not a measurement.
  bool in_result = true;
};

void print_metric(const Metric& m) {
  std::printf("metric %-36s %.9g %s\n", m.name.c_str(), m.value,
              m.unit.c_str());
}

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[96];
  for (const Metric& m : metrics) {
    if (!m.in_result) continue;
    if (!first) out += ", ";
    first = false;
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// `batch` payloads of one client operation share one latency, so the
/// operations are the independent latency samples.
void print_phase(const char* label, const Phase& p, uint32_t batch) {
  const uint64_t samples = p.ops / batch;
  std::printf(
      "phase %s: %" PRIu64 " ops in %.3f s, %" PRIu64 " latency samples (%"
      PRIu64 " beyond p99), attempted %" PRIu64 " failed %" PRIu64
      ", retries %" PRIu64 ", send errors %" PRIu64 "\n",
      label, p.ops, static_cast<double>(p.t_b - p.t_a) / 1e9, samples,
      samples / 100, p.attempted, p.failed, p.retries, p.send_errors);
  std::printf("p99 %s: %.4f ms as the median over %zu window(s), whole phase"
              " %.4f ms\n",
              label, p.lat_p99_ms, p.p99_windows, p.lat_p99_whole_ms);
  std::printf("noise %s: steal=%.4f threads=%d\n", label, p.steal, p.threads);
  if (p.crash_ns != 0) {
    std::printf("failover %s: outage_ms=%.3f recovery_s=%.4f%s recover_ms=%.3f"
                " wal_replayed=%" PRIu64 "\n",
                label, p.outage_ms, p.recovery_s,
                p.recovered ? "" : " (cap: restarted replica never caught up)",
                p.recover_ms, p.wal_replayed);
  }
}

// --- layer metrics from the traced run ------------------------------------

struct ReqTimes {
  uint64_t start = 0, started = 0, done = 0;  // client.start begin/end, done
  std::vector<uint64_t> delivered, replied;   // per replica
};

/// The bft failover layer: crash -> each survivor's first new view, the
/// restarted replica's Replica::recover() (its time and the WAL records it
/// replayed) and its checkpoint catch-up; and what the client saw of it.
struct FailoverLayers {
  double outage_ms = 0;
  double recovery_s = 0;
  double view_change_ms = 0;
  double recover_ms = 0;
  double catchup_ms = 0;
  double wal_replayed = 0;
};

FailoverLayers failover_layers(const std::vector<Span>& spans, const Phase& p) {
  std::map<uint32_t, uint64_t> first_view;
  for (const Span& s : spans) {
    if (s.kind != Kind::kAppNewView || s.node == 0 || s.start < p.crash_ns) {
      continue;
    }
    auto [it, fresh] = first_view.emplace(s.node, s.start);
    if (!fresh) it->second = std::min(it->second, s.start);
  }
  std::vector<double> view_change;
  for (const auto& [node, t] : first_view) {
    view_change.push_back(static_cast<double>(t - p.crash_ns) / 1e6);
  }
  return {p.outage_ms, p.recovery_s, median(view_change), p.recover_ms,
          p.catchup_ms, static_cast<double>(p.wal_replayed)};
}

std::vector<Metric> layer_metrics(const std::vector<Span>& spans,
                                  const std::vector<SampleRec>& samples,
                                  const Phase& p, const Workload& w,
                                  uint32_t f, const FailoverLayers& fo,
                                  double* reconcile_err) {
  const double ops = std::max<double>(1, static_cast<double>(p.ops));
  const double window_ns = static_cast<double>(p.t_b - p.t_a);
  const double envelopes = ops / static_cast<double>(w.batch);

  std::vector<std::vector<const Span*>> by_kind(
      static_cast<std::size_t>(Kind::kCount));
  for (const Span& s : spans) {
    by_kind[static_cast<std::size_t>(s.kind)].push_back(&s);
  }
  auto of = [&](Kind k) -> const std::vector<const Span*>& {
    return by_kind[static_cast<std::size_t>(k)];
  };
  auto durs = [&](Kind k, double scale) {
    std::vector<double> v;
    for (const Span* s : of(k)) {
      v.push_back(static_cast<double>(s->dur()) / scale);
    }
    return v;
  };
  auto selfs = [&](Kind k, double scale) {
    std::vector<double> v;
    for (const Span* s : of(k)) {
      v.push_back(static_cast<double>(s->self()) / scale);
    }
    return v;
  };
  auto total = [&](Kind k) {
    double t = 0;
    for (const Span* s : of(k)) t += static_cast<double>(s->dur());
    return t;
  };
  auto args = [&](Kind k) {
    double t = 0;
    for (const Span* s : of(k)) t += s->arg;
    return t;
  };
  std::vector<std::vector<double>> by_sample(
      static_cast<std::size_t>(Sample::kCount));
  for (const SampleRec& s : samples) {
    by_sample[static_cast<std::size_t>(s.kind)].push_back(s.value);
  }
  auto sampled = [&](Sample k, double scale) {
    std::vector<double> v = by_sample[static_cast<std::size_t>(k)];
    for (double& x : v) x /= scale;
    return v;
  };

  // Request timelines, keyed by (client, client_seq).
  std::unordered_map<uint64_t, ReqTimes> reqs;
  auto key = [](uint32_t client, uint64_t seq) {
    return (static_cast<uint64_t>(client) << 48) ^ seq;
  };
  for (const Span* s : of(Kind::kClientStart)) {
    ReqTimes& r = reqs[key(s->client, s->seq)];
    r.start = s->start;
    r.started = s->end;
  }
  for (const Span* s : of(Kind::kAppDeliver)) {
    auto it = reqs.find(key(s->client, s->seq));
    if (it != reqs.end()) it->second.delivered.push_back(s->start);
  }
  for (const Span* s : of(Kind::kCtxReply)) {
    auto it = reqs.find(key(s->client, s->seq));
    if (it != reqs.end()) it->second.replied.push_back(s->start);
  }
  for (const Span* s : of(Kind::kClientDone)) {
    auto it = reqs.find(key(s->client, s->seq));
    if (it != reqs.end() && it->second.done == 0) it->second.done = s->start;
  }
  std::vector<double> start_us, order_ms, reveal_ms, reply_us;
  for (auto& [k, r] : reqs) {
    if (r.done == 0 || r.delivered.size() <= f || r.replied.size() <= f) {
      continue;
    }
    std::sort(r.delivered.begin(), r.delivered.end());
    std::sort(r.replied.begin(), r.replied.end());
    const uint64_t t2 = r.delivered[f];
    const uint64_t t3 = r.replied[f];
    start_us.push_back(static_cast<double>(r.started - r.start) / 1e3);
    order_ms.push_back(static_cast<double>(t2 - r.started) / 1e6);
    reveal_ms.push_back(static_cast<double>(t3 - t2) / 1e6);
    reply_us.push_back(static_cast<double>(r.done - t3) / 1e3);
  }
  const double sum_ms = median(start_us) / 1e3 + median(order_ms) +
                        median(reveal_ms) + median(reply_us) / 1e3;
  *reconcile_err =
      p.lat_p50_ms > 0 ? std::fabs(sum_ms - p.lat_p50_ms) / p.lat_p50_ms : 1;
  std::printf("reconcile: client_start %.4f + order %.4f + reveal %.4f + reply"
              " %.4f = %.4f ms against client p50 %.4f ms over %zu requests"
              " (error %.4f, tolerance 0.10)\n",
              median(start_us) / 1e3, median(order_ms), median(reveal_ms),
              median(reply_us) / 1e3, sum_ms, p.lat_p50_ms, order_ms.size(),
              *reconcile_err);

  // Self time per node of the top-level handlers (busy share) and of the
  // causal app handlers.
  std::map<uint32_t, double> busy;
  for (Kind k : {Kind::kNodeMsg, Kind::kNodePost, Kind::kNodeTimer,
                 Kind::kPoolCont}) {
    for (const Span* s : of(k)) {
      if (s->parent == Span::kNoParent) {
        busy[s->node] += static_cast<double>(s->dur());
      }
    }
  }
  double busy_max = 0;
  for (const auto& [node, ns] : busy) {
    busy_max = std::max(busy_max, ns / window_ns);
  }
  double causal_self = 0;
  for (Kind k : {Kind::kAppDeliver, Kind::kAppBatchEnd, Kind::kAppCausal,
                 Kind::kAppValidate, Kind::kAppNewView}) {
    for (const Span* s : of(k)) causal_self += static_cast<double>(s->self());
  }
  double te_total = 0;
  for (Kind k : {Kind::kTeEncrypt, Kind::kTeVerifyCt, Kind::kTeShare,
                 Kind::kTeVerifyShare, Kind::kTeCombine}) {
    te_total += total(k);
  }
  std::vector<double> verify_per_share;
  for (const Span* s : of(Kind::kTeVerifyShare)) {
    if (s->arg > 0) {
      verify_per_share.push_back(static_cast<double>(s->dur()) / 1e3 / s->arg);
    }
  }
  const std::vector<double> exec_wait = sampled(Sample::kExecWait, 1e3);
  const std::vector<double> syncs = durs(Kind::kStSync, 1e3);
  const std::vector<double> puts = durs(Kind::kStPut, 1e6);
  const std::vector<double> opb = sampled(Sample::kOpsPerBatch, 1);
  double opb_mean = 0;
  for (double x : opb) opb_mean += x;
  opb_mean = opb.empty() ? 0 : opb_mean / static_cast<double>(opb.size());

  return {
      {"bft.client_start_us", median(start_us), "us"},
      {"bft.reply_us", median(reply_us), "us"},
      {"bft.retries_per_kop", static_cast<double>(p.retries) * 1e3 / ops,
       "count"},
      {"bft.order_ms", median(order_ms), "ms"},
      {"bft.ops_per_batch", opb_mean, "count"},
      {"outage_ms", fo.outage_ms, "ms", false},
      {"recovery_s", fo.recovery_s, "s", false},
      {"bft.view_change_ms", fo.view_change_ms, "ms", false},
      {"bft.recover_ms", fo.recover_ms, "ms", false},
      {"bft.catchup_ms", fo.catchup_ms, "ms", false},
      {"bft.recover_wal_records", fo.wal_replayed, "count"},
      {"causal.validate_us", median(selfs(Kind::kAppValidate, 1e3)), "us"},
      {"causal.reveal_ms", median(reveal_ms), "ms"},
      {"causal.msgs_per_op",
       (args(Kind::kCtxCausal) + args(Kind::kCtxBroadcast)) / ops, "count"},
      {"causal.self_us_per_op", causal_self / 1e3 / ops, "us"},
      {"threshenc.encrypt_ms", median(durs(Kind::kTeEncrypt, 1e6)), "ms",
       false},
      {"threshenc.verify_ct_ms", median(durs(Kind::kTeVerifyCt, 1e6)), "ms",
       false},
      {"threshenc.share_ms", median(durs(Kind::kTeShare, 1e6)), "ms", false},
      {"threshenc.verify_share_us", median(verify_per_share), "us", false},
      {"threshenc.combine_ms", median(durs(Kind::kTeCombine, 1e6)), "ms",
       false},
      {"threshenc.ms_per_op", te_total / 1e6 / ops, "ms", false},
      {"threshenc.shares_verified_per_op",
       args(Kind::kTeVerifyShare) / std::max(1.0, envelopes) / kReplicas,
       "count"},
      {"rt.transport.msgs_per_op",
       static_cast<double>(of(Kind::kTransportSend).size()) / ops, "count"},
      {"rt.transport.kb_per_op", args(Kind::kTransportSend) / 1024 / ops,
       "KiB"},
      {"rt.transport.send_us", median(durs(Kind::kTransportSend, 1e3)), "us"},
      {"rt.transport.flight_us", median(sampled(Sample::kFlight, 1e3)), "us"},
      {"rt.transport.send_errors_per_kop",
       static_cast<double>(p.send_errors) * 1e3 / ops, "count"},
      {"rt.executor.wait_p50_us", quantile(exec_wait, 0.5), "us"},
      {"rt.executor.wait_p99_us", quantile(exec_wait, 0.99), "us"},
      {"rt.executor.busy_max", busy_max, "ratio"},
      {"rt.ctxsw_per_op", static_cast<double>(p.ctxsw) / ops, "count"},
      {"rt.pool.jobs_per_op",
       static_cast<double>(of(Kind::kPoolJob).size()) / ops, "count"},
      {"rt.pool.wait_us", median(sampled(Sample::kPoolWait, 1e3)), "us"},
      {"rt.pool.job_us", median(durs(Kind::kPoolJob, 1e3)), "us"},
      {"rt.pool.cont_wait_us", median(sampled(Sample::kContWait, 1e3)), "us"},
      {"rt.storage.appends_per_op",
       static_cast<double>(of(Kind::kStAppend).size()) / ops, "count"},
      {"rt.storage.syncs_per_op",
       static_cast<double>(of(Kind::kStSync).size()) / ops, "count"},
      {"rt.storage.wal_kb_per_op", args(Kind::kStAppend) / 1024 / ops, "KiB"},
      {"rt.storage.append_us", median(durs(Kind::kStAppend, 1e3)), "us",
       false},
      {"rt.storage.sync_p50_us", quantile(syncs, 0.5), "us", false},
      {"rt.storage.sync_p99_us", quantile(syncs, 0.99), "us", false},
      {"rt.storage.snapshot_kb_per_op", args(Kind::kStPut) / 1024 / ops, "KiB"},
      {"rt.storage.put_p50_ms", quantile(puts, 0.5), "ms", false},
      {"rt.storage.put_p99_ms", quantile(puts, 0.99), "ms", false},
  };
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 uint64_t t0) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out,
               "kind\tnode\tclient\tseq\tstart_ns\tdur_ns\tself_ns\tparent"
               "\targ\n");
  for (const Span& s : spans) {
    std::fprintf(out, "%s\t%u\t%u\t%" PRIu64 "\t%" PRId64 "\t%" PRIu64
                 "\t%" PRIu64 "\t%d\t%u\n",
                 kind_name(s.kind), s.node, s.client, s.seq,
                 static_cast<int64_t>(s.start - t0), s.dur(), s.self(),
                 s.parent == Span::kNoParent ? -1 : static_cast<int>(s.parent),
                 s.arg);
  }
  std::fclose(out);
}

// --- main -----------------------------------------------------------------

std::unique_ptr<Cluster> assemble(const Workload& w, const ClusterOptions& o,
                                  const Bytes* payload, double* setup_s,
                                  std::string* err) {
  const uint64_t t0 = now_ns();
  auto c = std::make_unique<Cluster>(w, o, payload);
  if (!c->assemble(err)) return nullptr;
  c->release(1);
  std::vector<Completion> done;
  if (!wait_for([&] { return !(done = c->completions()).empty(); }, 60)) {
    *err = "first op did not commit within 60 s";
    return nullptr;
  }
  // The commit's own time stamp, not the moment this thread's 1 ms poll
  // noticed it.
  *setup_s = static_cast<double>(done.front().end_ns - t0) / 1e9;
  return c;
}

int run(const Args& a) {
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", a.workload.c_str());
    for (const Workload& k : all_workloads()) {
      std::fprintf(stderr, " %s", k.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  Timeline tl = timeline(a);
  // A traced run measures an untraced and a traced assembly back to back;
  // each gets half of the run's measuring time.
  if (a.trace) tl.measure_s = a.seconds / 2;
  const Bytes payload = make_payload(a.seed);
  std::error_code ec;
  std::filesystem::create_directories(a.out, ec);
  ClusterOptions opts;
  opts.dealer_seed = splitmix(a.seed);
  opts.data_root = a.out + "/data-" + w->name;
  opts.drop_replica = 2;
  opts.drop_at = a.drop_exec;
  const uint32_t f = 1;

  std::printf("workload %s: protocol %s, %u slots x batch %u, %s, %u pool"
              " thread(s)/replica, seed %" PRIu64 "\n",
              w->name, scab::causal::protocol_name(w->protocol), w->inflight,
              w->batch, w->durable ? "WAL + snapshots" : "no storage",
              w->pool_threads, a.seed);

  std::vector<double> setups;
  std::unique_ptr<Cluster> c;
  std::string err;
  Phase base;
  std::string violation;
  // The last set-up before the phase is the cluster that gets measured.
  const int before = a.trace ? 1 : tl.setups_before;
  const int after = a.trace ? 0 : tl.setups_after;
  for (int i = 0; i < before + after; ++i) {
    c.reset();
    double s = 0;
    c = assemble(*w, opts, &payload, &s, &err);
    if (!c) {
      std::fprintf(stderr, "set-up failed: %s\n", err.c_str());
      return 1;
    }
    setups.push_back(s);
    if (i + 1 == before) {
      base = run_closed(*c, tl, false);
      violation = gate(*c, false);
    }
  }
  c.reset();
  std::printf("setup_s samples:");
  for (double s : setups) std::printf(" %.6f", s);
  std::printf("\n");
  print_phase("untraced", base, w->batch);
  const double fail_frac =
      base.attempted > 0 ? static_cast<double>(base.failed) /
                               static_cast<double>(base.attempted)
                         : 0;

  std::vector<Metric> metrics;
  uint64_t attempted = base.attempted;
  uint64_t failed = base.failed;
  if (a.trace == 0) {
    metrics = {
        {"setup_s", median(setups), "s"},
        {"ops_s", base.ops_s, "ops/s"},
        {"lat_p50_ms", base.lat_p50_ms, "ms"},
        {"lat_p99_ms", base.lat_p99_ms, "ms"},
        {"cpu_ms_per_op", base.cpu_ms_per_op, "ms"},
        {"rss_mb", usage_now().maxrss_mb, "MiB"},
    };
    for (const Metric& m : metrics) print_metric(m);
    print_metric({"fail_frac", fail_frac, "ratio"});
  } else {
    opts.traced = true;
    opts.data_root += "-traced";
    double s = 0;
    auto ct = assemble(*w, opts, &payload, &s, &err);
    if (!ct) {
      std::fprintf(stderr, "traced set-up failed: %s\n", err.c_str());
      return 1;
    }
    Phase traced = run_closed(*ct, tl, true);
    if (violation.empty()) violation = gate(*ct, false);
    ct.reset();
    print_phase("traced", traced, w->batch);
    attempted += traced.attempted;
    failed += traced.failed;

    std::vector<Span> spans;
    std::vector<SampleRec> samples;
    Recorder::get().collect(&spans, &samples);
    FailoverLayers fo;
    if (w->failover_drill) {
      // The drill runs on its own traced assembly after the measurement, so
      // its spans stay out of the layer times.
      ClusterOptions dopts = opts;
      dopts.data_root = a.out + "/data-" + w->name + "-drill";
      auto cd = assemble(*w, dopts, &payload, &s, &err);
      if (!cd) {
        std::fprintf(stderr, "drill set-up failed: %s\n", err.c_str());
        return 1;
      }
      Phase drill = run_drill(*cd, tl);
      if (violation.empty()) violation = drill.ok ? gate(*cd, true) : drill.error;
      cd.reset();
      print_phase("drill", drill, w->batch);
      attempted += drill.attempted;
      failed += drill.failed;
      std::vector<Span> dspans;
      std::vector<SampleRec> dsamples;
      Recorder::get().collect(&dspans, &dsamples);
      fo = failover_layers(dspans, drill);
    }
    double reconcile_err = 0;
    metrics = layer_metrics(spans, samples, traced, *w, f, fo, &reconcile_err);
    const double over_lat =
        base.lat_p50_ms > 0 ? traced.lat_p50_ms / base.lat_p50_ms - 1 : 0;
    const double over_cpu =
        base.cpu_ms_per_op > 0 ? traced.cpu_ms_per_op / base.cpu_ms_per_op - 1
                               : 0;
    std::printf("tracing overhead: lat_p50_ms %.4f -> %.4f (%+.2f%%),"
                " cpu_ms_per_op %.4f -> %.4f (%+.2f%%)\n",
                base.lat_p50_ms, traced.lat_p50_ms, over_lat * 100,
                base.cpu_ms_per_op, traced.cpu_ms_per_op, over_cpu * 100);
    metrics.push_back({"trace.overhead_lat_p50", over_lat, "ratio"});
    metrics.push_back({"trace.overhead_cpu", over_cpu, "ratio"});
    metrics.push_back({"trace.reconcile_err", reconcile_err, "ratio"});
    for (const Ceiling& ceil : measure_ceilings(a.out + "/ceiling")) {
      metrics.push_back({ceil.name, ceil.per_s, "1/s"});
    }
    for (const Metric& m : metrics) print_metric(m);
    const std::string span_file = a.out + "/spans-" + w->name + ".tsv";
    write_spans(span_file, spans, traced.t_a);
    std::printf("spans: %zu written to %s\n", spans.size(), span_file.c_str());
    if (violation.empty() && reconcile_err > 0.10) {
      violation = "layer times do not add up to client latency within 10%";
    }
  }

  if (!violation.empty()) {
    std::fprintf(stderr, "correctness gate: %s\n", violation.c_str());
    std::printf("gate: FAIL %s\n", violation.c_str());
  } else {
    std::printf("gate: ok\n");
  }
  print_result(violation.empty(), attempted, failed, metrics);
  return violation.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>] [--quick] [--drop-exec <k>]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::run(a);
}
