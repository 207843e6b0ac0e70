#include "chaos/chaos.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>

#include "bft/client.h"
#include "causal/stack.h"
#include "common/serialize.h"
#include "crypto/drbg.h"

namespace scab::chaos {

namespace {

constexpr uint32_t kF = 1;
constexpr uint32_t kNumClients = 2;
// Recovery-friendly protocol tuning: restarts exercise the checkpoint
// catch-up quickly, not after 64 requests.
constexpr uint64_t kCheckpointInterval = 8;
constexpr host::Time kRequestTimeout = 400 * host::kMillisecond;
constexpr host::Time kWatchdogPeriod = 100 * host::kMillisecond;
constexpr host::Time kClientRetry = 250 * host::kMillisecond;

uint64_t link_key(host::NodeId a, host::NodeId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// Logs every executed plaintext in execution order.  The mutex is for the
/// threaded runtime, where the controlling thread reads the log only after
/// Cluster::shutdown() has joined the worker — it guards against future
/// callers polling mid-run.
class RecordingService final : public causal::Service {
 public:
  Bytes execute(host::NodeId /*client*/, BytesView op) override {
    std::lock_guard<std::mutex> lk(mu_);
    log_.emplace_back(op.begin(), op.end());
    return {};
  }

  std::vector<Bytes> log() const {
    std::lock_guard<std::mutex> lk(mu_);
    return log_;
  }

  // Durable-state hooks: the log IS the service state, so a replica
  // recovering from a snapshot resumes with the pre-crash prefix intact —
  // which is exactly what the safety and at-most-once checks compare.
  Bytes serialize() const override {
    std::lock_guard<std::mutex> lk(mu_);
    Writer w;
    w.u32(static_cast<uint32_t>(log_.size()));
    for (const Bytes& op : log_) w.bytes(op);
    return std::move(w).take();
  }
  bool restore(BytesView blob) override {
    if (blob.empty()) return true;
    Reader r(blob);
    const uint32_t count = r.u32();
    std::vector<Bytes> log;
    for (uint32_t i = 0; i < count && r.ok(); ++i) log.push_back(r.bytes());
    if (!r.ok() || !r.done()) return false;
    std::lock_guard<std::mutex> lk(mu_);
    log_ = std::move(log);
    return true;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Bytes> log_;
};

/// State shared with the injector's tamper hook: the secrecy scan plus the
/// set of links the schedule currently tampers with.
struct HookState {
  std::vector<Bytes> markers;  // immutable once the hook is installed
  bool secrecy_scan = false;
  std::atomic<bool> secrecy_violated{false};

  std::mutex mu;
  std::unordered_set<uint64_t> tampered;  // guarded by mu
};

bool contains_marker(BytesView msg, const Bytes& marker) {
  return !marker.empty() &&
         std::search(msg.begin(), msg.end(), marker.begin(), marker.end()) !=
             msg.end();
}

/// Paces one client's workload across the fault horizon: each operation is
/// submitted a DRBG-chosen think time after the previous one completed, so
/// requests are genuinely in flight while faults fire (a back-to-back
/// closed loop would finish the whole workload before the first fault on a
/// fast network).  Scheduling runs on the client's own executor, so the
/// pacing is identical — and, under the simulator, deterministic — on both
/// runtimes.
struct PacedWorkload {
  causal::Cluster* cluster = nullptr;
  bft::Client* client = nullptr;
  std::vector<Bytes> ops;
  std::vector<host::Time> gaps;  // think time before op k
};

void issue_op(const std::shared_ptr<PacedWorkload>& w, uint32_t k) {
  if (k >= w->ops.size()) return;
  w->client->submit(w->ops[k],
                    [w, k](uint64_t, host::Time, host::Time) {
                      if (k + 1 >= w->ops.size()) return;
                      w->cluster->host().schedule(
                          w->client->id(), w->gaps[k + 1],
                          [w, k] { issue_op(w, k + 1); });
                    });
}

uint64_t completed_total(causal::Cluster& cluster) {
  uint64_t total = 0;
  for (uint32_t i = 0; i < cluster.num_clients(); ++i) {
    total += cluster.client(i).completed_ops();
  }
  return total;
}

void apply_event(causal::Cluster& cluster, HookState& hook,
                 const ChaosEvent& ev) {
  obs::MetricsRegistry& m = cluster.net_metrics();
  m.counter("chaos.faults_injected").inc();
  m.counter(std::string("chaos.faults_injected.") + fault_kind_name(ev.kind))
      .inc();
  switch (ev.kind) {
    case FaultKind::kCrash:
      cluster.crash_replica(ev.a);
      break;
    case FaultKind::kRestart:
      cluster.restart_replica(ev.a);
      break;
    case FaultKind::kCrashAll:
      for (uint32_t i = 0; i < cluster.n(); ++i) cluster.crash_replica(i);
      break;
    case FaultKind::kRestartAll:
      // Each replica recovers from its attached storage before traffic is
      // readmitted (Cluster::restart_replica).
      for (uint32_t i = 0; i < cluster.n(); ++i) cluster.restart_replica(i);
      break;
    case FaultKind::kCut:
      cluster.faults().cut(ev.a, ev.b);
      break;
    case FaultKind::kHeal:
      cluster.faults().heal(ev.a, ev.b);
      break;
    case FaultKind::kDelay:
      cluster.faults().delay(ev.a, ev.b, ev.extra);
      break;
    case FaultKind::kTamper: {
      std::lock_guard<std::mutex> lk(hook.mu);
      hook.tampered.insert(link_key(ev.a, ev.b));
      break;
    }
    case FaultKind::kHealAll: {
      cluster.faults().heal_all();
      cluster.faults().clear_delays();
      std::lock_guard<std::mutex> lk(hook.mu);
      hook.tampered.clear();
      break;
    }
  }
}

}  // namespace

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kRestart:
      return "restart";
    case FaultKind::kCut:
      return "cut";
    case FaultKind::kHeal:
      return "heal";
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kTamper:
      return "tamper";
    case FaultKind::kCrashAll:
      return "crash_all";
    case FaultKind::kRestartAll:
      return "restart_all";
    case FaultKind::kHealAll:
      return "heal_all";
  }
  return "?";
}

std::vector<ChaosEvent> generate_schedule(uint64_t seed,
                                          const ChaosOptions& opt) {
  crypto::Drbg rng(causal::seed_label(seed, "chaos-schedule"));
  const uint32_t n = 3 * kF + 1;
  std::vector<ChaosEvent> out;

  // Faults fire inside [10%, 80%] of the horizon; a forced restart of any
  // still-crashed replica lands at 90% and the terminal heal-all exactly on
  // the horizon, so every schedule is self-healing.
  const host::Time lo = opt.horizon / 10;
  const host::Time hi = opt.horizon - opt.horizon / 5;
  std::vector<host::Time> times;
  times.reserve(opt.num_faults);
  for (uint32_t i = 0; i < opt.num_faults; ++i) {
    times.push_back(lo + static_cast<host::Time>(rng.uniform(hi - lo)));
  }
  std::sort(times.begin(), times.end());

  bool crashed = false;  // at most one replica down at a time
  host::NodeId crashed_id = 0;
  host::Time restart_at = 0;
  std::vector<uint64_t> cuts;  // insertion-ordered for deterministic picks

  auto rand_replica = [&] {
    return static_cast<host::NodeId>(rng.uniform(n));
  };
  auto rand_link = [&](host::NodeId* a, host::NodeId* b) {
    *a = rand_replica();
    *b = static_cast<host::NodeId>((*a + 1 + rng.uniform(n - 1)) % n);
  };

  for (const host::Time t : times) {
    if (crashed && t >= restart_at) {
      out.push_back({restart_at, FaultKind::kRestart, crashed_id, 0, 0});
      crashed = false;
    }

    enum Pick : uint8_t { kPickCrash, kPickCut, kPickHeal, kPickDelay, kPickTamper };
    std::vector<std::pair<Pick, uint32_t>> table;
    if (!opt.full_restart && !crashed) {
      table.push_back({kPickCrash, 3});
    }
    table.push_back({kPickCut, 3});
    if (!cuts.empty()) table.push_back({kPickHeal, 2});
    table.push_back({kPickDelay, 2});
    table.push_back({kPickTamper, 2});
    uint32_t total = 0;
    for (const auto& [kind, weight] : table) total += weight;
    uint64_t roll = rng.uniform(total);
    Pick pick = table.back().first;
    for (const auto& [kind, weight] : table) {
      if (roll < weight) {
        pick = kind;
        break;
      }
      roll -= weight;
    }

    switch (pick) {
      case kPickCrash: {
        const host::NodeId a = rand_replica();
        out.push_back({t, FaultKind::kCrash, a, 0, 0});
        crashed = true;
        crashed_id = a;
        restart_at = t + opt.horizon / 6 +
                     static_cast<host::Time>(rng.uniform(opt.horizon / 4));
        break;
      }
      case kPickCut: {
        host::NodeId a, b;
        rand_link(&a, &b);
        out.push_back({t, FaultKind::kCut, a, b, 0});
        cuts.push_back(link_key(a, b));
        break;
      }
      case kPickHeal: {
        const std::size_t idx =
            static_cast<std::size_t>(rng.uniform(cuts.size()));
        const uint64_t k = cuts[idx];
        cuts.erase(cuts.begin() + static_cast<std::ptrdiff_t>(idx));
        out.push_back({t, FaultKind::kHeal,
                       static_cast<host::NodeId>(k >> 32),
                       static_cast<host::NodeId>(k & 0xffffffff), 0});
        break;
      }
      case kPickDelay: {
        host::NodeId a, b;
        rand_link(&a, &b);
        const host::Time extra =
            opt.horizon / 100 * (1 + static_cast<host::Time>(rng.uniform(20)));
        out.push_back({t, FaultKind::kDelay, a, b, extra});
        break;
      }
      case kPickTamper: {
        host::NodeId a, b;
        rand_link(&a, &b);
        out.push_back({t, FaultKind::kTamper, a, b, 0});
        break;
      }
    }
  }

  if (crashed) {
    out.push_back({opt.horizon - opt.horizon / 10, FaultKind::kRestart,
                   crashed_id, 0, 0});
  }
  if (opt.full_restart) {
    // Full-cluster power loss at 50% of the horizon, power restored at 70%:
    // every replica recovers from durable storage well before the terminal
    // heal, so the liveness check still binds.
    out.push_back({opt.horizon / 2, FaultKind::kCrashAll, 0, 0, 0});
    out.push_back({opt.horizon / 2 + opt.horizon / 5, FaultKind::kRestartAll,
                   0, 0, 0});
    std::stable_sort(out.begin(), out.end(),
                     [](const ChaosEvent& x, const ChaosEvent& y) {
                       return x.at < y.at;
                     });
  }
  out.push_back({opt.horizon, FaultKind::kHealAll, 0, 0, 0});
  return out;
}

std::string format_schedule(const std::vector<ChaosEvent>& schedule) {
  std::string out;
  char line[128];
  for (const ChaosEvent& ev : schedule) {
    std::snprintf(line, sizeof(line),
                  "%8llu us  %-8s a=%u b=%u extra=%llu us\n",
                  static_cast<unsigned long long>(ev.at / 1000),
                  fault_kind_name(ev.kind), ev.a, ev.b,
                  static_cast<unsigned long long>(ev.extra / 1000));
    out += line;
  }
  return out;
}

ChaosReport run_chaos(uint64_t seed, const ChaosOptions& opt) {
  const std::vector<ChaosEvent> schedule = generate_schedule(seed, opt);

  causal::ClusterOptions co;
  co.protocol = opt.protocol;
  co.runtime = opt.runtime;
  co.bft = bft::BftConfig::for_f(kF);
  co.bft.checkpoint_interval = kCheckpointInterval;
  co.bft.request_timeout = kRequestTimeout;
  co.bft.watchdog_period = kWatchdogPeriod;
  co.num_clients = kNumClients;
  co.seed = seed;
  co.durability = opt.durability;
  co.data_dir = opt.data_dir;
  co.service_factory = [] { return std::make_unique<RecordingService>(); };
  causal::Cluster cluster(co);

  // High-entropy marker operations: unique per (client, index), so the
  // execution logs identify requests and the secrecy scan has 32 bytes that
  // cannot occur on the wire by chance.
  crypto::Drbg mrng(causal::seed_label(seed, "chaos-markers"));
  std::vector<std::vector<Bytes>> ops(kNumClients);
  auto hook = std::make_shared<HookState>();
  for (uint32_t ci = 0; ci < kNumClients; ++ci) {
    for (uint32_t k = 0; k < opt.ops_per_client; ++k) {
      ops[ci].push_back(mrng.generate(32));
      hook->markers.push_back(ops[ci].back());
    }
  }
  hook->secrecy_scan = opt.protocol == causal::Protocol::kCp0 ||
                       opt.protocol == causal::Protocol::kCp2 ||
                       opt.protocol == causal::Protocol::kCp3;

  // One tamper hook serves double duty for the whole run: it scans every
  // wire message for marker plaintext (secrecy invariant) and corrupts
  // traffic on the links the schedule currently tampers with.  Corruption
  // is content-deterministic, so a seeded sim run stays bit-reproducible.
  cluster.faults().set_tamper(
      [hook](host::NodeId from, host::NodeId to,
             BytesView msg) -> std::optional<Bytes> {
        if (hook->secrecy_scan) {
          for (const Bytes& marker : hook->markers) {
            if (contains_marker(msg, marker)) {
              hook->secrecy_violated.store(true, std::memory_order_relaxed);
            }
          }
        }
        bool tampered;
        {
          std::lock_guard<std::mutex> lk(hook->mu);
          tampered = hook->tampered.contains(link_key(from, to));
        }
        Bytes out(msg.begin(), msg.end());
        if (tampered && !out.empty()) out[out.size() / 2] ^= 0x55;
        return out;
      });

  for (uint32_t ci = 0; ci < kNumClients; ++ci) {
    cluster.client(ci).set_retry_timeout(kClientRetry);
  }

  const uint64_t expected =
      static_cast<uint64_t>(kNumClients) * opt.ops_per_client;
  host::Time first_after_heal = 0;

  // Kick off every client's paced workload; think gaps average the horizon
  // divided by the op count, so submissions straddle the whole fault window.
  crypto::Drbg trng(causal::seed_label(seed, "chaos-think"));
  const uint64_t gap_bound =
      std::max<uint64_t>(1, 2 * opt.horizon / std::max(1u, opt.ops_per_client));
  for (uint32_t ci = 0; ci < kNumClients; ++ci) {
    auto w = std::make_shared<PacedWorkload>();
    w->cluster = &cluster;
    w->client = &cluster.client(ci);
    w->ops = ops[ci];
    for (uint32_t k = 0; k < opt.ops_per_client; ++k) {
      w->gaps.push_back(static_cast<host::Time>(trng.uniform(gap_bound)));
    }
    cluster.host().schedule(w->client->id(), w->gaps[0],
                            [w] { issue_op(w, 0); });
  }

  if (opt.runtime == causal::RuntimeKind::kSim) {
    sim::Simulator& sim = cluster.sim();
    const host::Time base = sim.now();
    for (const ChaosEvent& ev : schedule) {
      sim.run_until(base + ev.at);
      apply_event(cluster, *hook, ev);
    }
    const host::Time heal_time = sim.now();
    const uint64_t at_heal = completed_total(cluster);
    sim.run_while([&] {
      const uint64_t done = completed_total(cluster);
      if (first_after_heal == 0 && done > at_heal) {
        first_after_heal = sim.now() - heal_time;
      }
      return done >= expected || sim.now() >= base + opt.deadline;
    });
  } else {
    const auto start = std::chrono::steady_clock::now();
    for (const ChaosEvent& ev : schedule) {
      std::this_thread::sleep_until(start + std::chrono::nanoseconds(ev.at));
      apply_event(cluster, *hook, ev);
    }
    const auto heal_tp = std::chrono::steady_clock::now();
    const uint64_t at_heal = completed_total(cluster);
    const auto stop_at = start + std::chrono::nanoseconds(opt.deadline);
    for (;;) {
      const uint64_t done = completed_total(cluster);
      if (first_after_heal == 0 && done > at_heal) {
        first_after_heal = static_cast<host::Time>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - heal_tp)
                .count());
      }
      if (done >= expected || std::chrono::steady_clock::now() >= stop_at) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  if (first_after_heal > 0) {
    cluster.net_metrics()
        .histogram("chaos.first_delivery_after_heal_ms")
        .record(first_after_heal / host::kMillisecond);
  }

  cluster.shutdown();

  ChaosReport report;
  report.expected_ops = expected;
  report.completed_ops = completed_total(cluster);
  report.faults_injected = schedule.size();
  report.first_delivery_after_heal = first_after_heal;
  report.metrics_json = cluster.merged_metrics().to_json();

  for (uint32_t i = 0; i < cluster.n(); ++i) {
    auto* svc = dynamic_cast<RecordingService*>(&cluster.service(i));
    report.logs.push_back(svc ? svc->log() : std::vector<Bytes>{});
  }

  // Safety: pairwise prefix consistency.  A replica that restarted and has
  // not finished catching up simply has a shorter log; any order or content
  // divergence inside the common prefix is a total-order violation.
  report.safety_ok = true;
  for (uint32_t i = 0; i < report.logs.size() && report.safety_ok; ++i) {
    for (uint32_t j = i + 1; j < report.logs.size(); ++j) {
      const auto& a = report.logs[i];
      const auto& b = report.logs[j];
      const std::size_t common = std::min(a.size(), b.size());
      for (std::size_t k = 0; k < common; ++k) {
        if (a[k] != b[k]) {
          report.safety_ok = false;
          char buf[96];
          std::snprintf(buf, sizeof(buf),
                        "execution logs of replicas %u and %u diverge at %zu",
                        i, j, k);
          report.violation = buf;
          break;
        }
      }
      if (!report.safety_ok) break;
    }
  }

  // Full-restart runs additionally assert at-most-once execution: recovery
  // from snapshot + WAL must never re-execute an operation the durable
  // service state already contains.
  if (opt.full_restart && report.safety_ok) {
    for (uint32_t i = 0; i < report.logs.size() && report.safety_ok; ++i) {
      std::unordered_set<std::string> seen;
      for (const Bytes& op : report.logs[i]) {
        if (!seen.insert(to_string(op)).second) {
          report.safety_ok = false;
          char buf[96];
          std::snprintf(buf, sizeof(buf),
                        "replica %u re-executed an operation after recovery",
                        i);
          report.violation = buf;
          break;
        }
      }
    }
  }

  report.secrecy_ok = !hook->secrecy_violated.load(std::memory_order_relaxed);
  if (!report.secrecy_ok && report.violation.empty()) {
    report.violation = "marker plaintext observed on the wire";
  }

  report.liveness_ok = report.completed_ops >= report.expected_ops;
  if (!report.liveness_ok && report.violation.empty()) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "only %llu of %llu ops completed after heal",
                  static_cast<unsigned long long>(report.completed_ops),
                  static_cast<unsigned long long>(report.expected_ops));
    report.violation = buf;
  }
  return report;
}

}  // namespace scab::chaos
