// Durable replica state (DESIGN.md §13), end to end through the harness:
//
//  * attaching storage perturbs nothing — a seeded sim run is identical
//    with and without it (same replies, same counts, same virtual end time);
//  * a FULL-cluster crash + restart recovers every replica from its
//    attached storage with no loss and no re-execution, on every protocol
//    and both runtimes;
//  * a snapshot whose app state does not restore is rejected whole, and
//    the replica rejoins through catch-up;
//  * the bundled services (key-value store, trading, DNS) keep their state
//    across a full-cluster restart;
//  * a file-backed cluster torn down completely (the in-process model of a
//    power loss) resumes exactly from its data directory;
//  * past the own-share cache a snapshot stops growing with run length;
//  * the batch history lives in write-once segment blobs beside a snapshot
//    that only indexes them: the disk keeps just the segments a lagging
//    peer may still fetch, a crash at any step of the snapshot sequence
//    leaves no stray segment behind, a replica restarts from the snapshot
//    it wrote while catching up, a replica trailing a crash-all catches up
//    from its peers' segments, and a data directory written before
//    segments (history inline in the snapshot) resumes and is resealed,
//    while a damaged one never crashes recovery.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/dns.h"
#include "apps/kvstore.h"
#include "apps/trading.h"
#include "bft/client.h"
#include "bft/client_window.h"
#include "bft/replica.h"
#include "causal/harness.h"
#include "causal/reveal_engine.h"
#include "common/serialize.h"
#include "crypto/drbg.h"
#include "host/storage.h"
#include "sim/sim_host.h"

namespace scab::causal {
namespace {

constexpr Protocol kAllProtocols[] = {Protocol::kPbft, Protocol::kCp0,
                                      Protocol::kCp1, Protocol::kCp2,
                                      Protocol::kCp3};

ClusterOptions base_options(Protocol p, RuntimeKind runtime) {
  ClusterOptions opts;
  opts.protocol = p;
  opts.runtime = runtime;
  opts.bft = bft::BftConfig::for_f(1);
  opts.bft.checkpoint_interval = 4;  // snapshots early and often
  opts.num_clients = 2;
  opts.seed = 7;
  return opts;
}

Bytes op(int i) { return to_bytes("durable-op-" + std::to_string(i)); }

EchoService& echo(Cluster& cluster, uint32_t i) {
  auto* svc = dynamic_cast<EchoService*>(&cluster.service(i));
  EXPECT_NE(svc, nullptr);
  return *svc;
}

/// Runs `count` ops from client `ci`, asserting each completes.
void run_ops(Cluster& cluster, uint32_t ci, int from, int count) {
  for (int i = from; i < from + count; ++i) {
    ASSERT_TRUE(cluster.run_one(ci, op(i)).has_value()) << "op " << i;
  }
}

/// Waits until every replica's EchoService executed exactly `expected` ops
/// (laggards catch up via fetch); fails the test on timeout.
void await_converged(Cluster& cluster, uint64_t expected) {
  if (cluster.options().runtime == RuntimeKind::kSim) {
    sim::Simulator& sim = cluster.sim();
    const host::Time stop_at = sim.now() + 30 * host::kSecond;
    sim.run_while([&] {
      bool all = true;
      for (uint32_t i = 0; i < cluster.n(); ++i) {
        all = all && echo(cluster, i).executed() == expected;
      }
      return all || sim.now() >= stop_at;
    });
  } else {
    const auto stop_at =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
      bool all = true;
      for (uint32_t i = 0; i < cluster.n(); ++i) {
        all = all && echo(cluster, i).executed() == expected;
      }
      if (all || std::chrono::steady_clock::now() >= stop_at) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  for (uint32_t i = 0; i < cluster.n(); ++i) {
    // Exact equality IS the invariant: fewer = loss, more = re-execution.
    EXPECT_EQ(echo(cluster, i).executed(), expected) << "replica " << i;
  }
}

// ---------------------------------------------------------------------------
// Determinism: storage on/off identical outputs

TEST(DurabilitySim, StorageAttachmentPerturbsNothing) {
  for (Protocol p : kAllProtocols) {
    std::vector<Bytes> replies_off;
    host::Time end_off = 0;
    {
      ClusterOptions opts = base_options(p, RuntimeKind::kSim);
      Cluster cluster(opts);
      for (int i = 0; i < 8; ++i) {
        auto r = cluster.run_one(0, op(i));
        ASSERT_TRUE(r.has_value());
        replies_off.push_back(*r);
      }
      end_off = cluster.sim().now();
    }
    ClusterOptions opts = base_options(p, RuntimeKind::kSim);
    opts.durability = ClusterOptions::Durability::kMem;
    Cluster cluster(opts);
    for (int i = 0; i < 8; ++i) {
      auto r = cluster.run_one(0, op(i));
      ASSERT_TRUE(r.has_value());
      EXPECT_EQ(*r, replies_off[static_cast<std::size_t>(i)])
          << protocol_name(p) << " op " << i;
    }
    // MemStorage does no I/O and reads no clock: the event schedule — and
    // so the virtual completion time — is bit-identical.
    EXPECT_EQ(cluster.sim().now(), end_off) << protocol_name(p);
  }
}

// ---------------------------------------------------------------------------
// Full-cluster crash + restart (the sim model of a power loss)

TEST(DurabilitySim, FullClusterRestartRecoversAllProtocols) {
  for (Protocol p : kAllProtocols) {
    SCOPED_TRACE(protocol_name(p));
    ClusterOptions opts = base_options(p, RuntimeKind::kSim);
    opts.durability = ClusterOptions::Durability::kMem;
    Cluster cluster(opts);

    run_ops(cluster, 0, 0, 10);
    await_converged(cluster, 10);

    for (uint32_t i = 0; i < cluster.n(); ++i) cluster.crash_replica(i);
    for (uint32_t i = 0; i < cluster.n(); ++i) cluster.restart_replica(i);

    for (uint32_t i = 0; i < cluster.n(); ++i) {
      // Recovery under kSim runs inline in restart_replica: the service
      // state is already back before any new traffic.
      EXPECT_EQ(echo(cluster, i).executed(), 10u) << "replica " << i;
      EXPECT_GE(cluster.replica_metrics(i)
                    .counter("bft.recovery.snapshot_loaded")
                    .value(),
                1u)
          << "replica " << i;
    }

    run_ops(cluster, 1, 100, 10);
    await_converged(cluster, 20);
  }
}

TEST(DurabilitySim, WalAloneRecoversBeforeFirstCheckpoint) {
  // 2 ops < checkpoint_interval: no snapshot exists yet, so recovery is
  // pure WAL replay.
  ClusterOptions opts = base_options(Protocol::kPbft, RuntimeKind::kSim);
  opts.durability = ClusterOptions::Durability::kMem;
  Cluster cluster(opts);
  run_ops(cluster, 0, 0, 2);
  await_converged(cluster, 2);

  for (uint32_t i = 0; i < cluster.n(); ++i) cluster.crash_replica(i);
  for (uint32_t i = 0; i < cluster.n(); ++i) cluster.restart_replica(i);

  for (uint32_t i = 0; i < cluster.n(); ++i) {
    EXPECT_EQ(echo(cluster, i).executed(), 2u) << "replica " << i;
    EXPECT_EQ(cluster.replica_metrics(i)
                  .counter("bft.recovery.snapshot_loaded")
                  .value(),
              0u);
    EXPECT_GE(cluster.replica_metrics(i)
                  .counter("bft.recovery.wal_replayed")
                  .value(),
              1u);
  }
  run_ops(cluster, 1, 100, 4);
  await_converged(cluster, 6);
}

/// Serializes its count like EchoService but refuses every blob, as a
/// service reading a snapshot written in an older format does.
class UnrestorableEcho final : public EchoService {
 public:
  bool restore(BytesView /*blob*/) override { return false; }
};

TEST(DurabilitySim, UnrestorableAppStateRejectsTheSnapshot) {
  for (Protocol p : {Protocol::kPbft, Protocol::kCp3}) {
    SCOPED_TRACE(protocol_name(p));
    ClusterOptions opts = base_options(p, RuntimeKind::kSim);
    opts.durability = ClusterOptions::Durability::kMem;
    opts.service_factory = [] { return std::make_unique<UnrestorableEcho>(); };
    Cluster cluster(opts);
    run_ops(cluster, 0, 0, 12);
    await_converged(cluster, 12);

    // The restarted replica must not resume after the snapshot point with
    // an empty service: it rejects the snapshot, starts from seq 0 and
    // catches up from its peers.
    cluster.crash_replica(3);
    cluster.restart_replica(3);
    obs::MetricsRegistry& metrics = cluster.replica_metrics(3);
    EXPECT_EQ(metrics.counter("bft.recovery.snapshot_loaded").value(), 0u);
    EXPECT_EQ(metrics.counter("bft.recovery.snapshot_rejected").value(), 1u);
    EXPECT_EQ(cluster.replica(3).last_executed_seq(), 0u);

    run_ops(cluster, 0, 12, 28);
    await_converged(cluster, 40);
  }
}

/// Runs `setup` from client 0 and twelve `filler` ops from client 1 behind
/// it, so a snapshot covers the setup; crashes and restarts every replica;
/// and returns the reply to `probe` from client 0.
Bytes probe_after_full_restart(Cluster& cluster, const Bytes& setup,
                               const Bytes& filler, const Bytes& probe) {
  EXPECT_TRUE(cluster.run_one(0, setup).has_value());
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(cluster.run_one(1, filler).has_value());
  }
  for (uint32_t i = 0; i < cluster.n(); ++i) cluster.crash_replica(i);
  for (uint32_t i = 0; i < cluster.n(); ++i) {
    cluster.restart_replica(i);
    EXPECT_GE(cluster.replica_metrics(i)
                  .counter("bft.recovery.snapshot_loaded")
                  .value(),
              1u)
        << "replica " << i;
  }
  return cluster.run_one(0, probe).value_or(to_bytes("no reply"));
}

TEST(DurabilitySim, FullClusterRestartKeepsServiceState) {
  for (Protocol p : {Protocol::kPbft, Protocol::kCp3}) {
    SCOPED_TRACE(protocol_name(p));
    ClusterOptions opts = base_options(p, RuntimeKind::kSim);
    opts.durability = ClusterOptions::Durability::kMem;
    {
      opts.service_factory = [] { return std::make_unique<apps::KvStore>(); };
      Cluster cluster(opts);
      EXPECT_EQ(probe_after_full_restart(
                    cluster, apps::KvStore::put("k", to_bytes("v")),
                    apps::KvStore::put("filler", to_bytes("x")),
                    apps::KvStore::get("k")),
                to_bytes("v"));
    }
    {
      using apps::TradingService;
      opts.service_factory = [] { return std::make_unique<TradingService>(); };
      Cluster cluster(opts);
      EXPECT_EQ(probe_after_full_restart(cluster,
                                         TradingService::buy("ACME", 10),
                                         TradingService::quote("OTHER"),
                                         TradingService::quote("ACME")),
                to_bytes("10050"));
      const bft::NodeId buyer = cluster.client(0).id();
      for (uint32_t i = 0; i < cluster.n(); ++i) {
        auto& trading = dynamic_cast<TradingService&>(cluster.service(i));
        EXPECT_EQ(trading.position(buyer, "ACME"), 10) << "replica " << i;
      }
    }
    {
      using apps::DnsRegistry;
      opts.service_factory = [] { return std::make_unique<DnsRegistry>(); };
      Cluster cluster(opts);
      const bft::NodeId registrant = cluster.client(0).id();
      EXPECT_EQ(probe_after_full_restart(
                    cluster, DnsRegistry::register_name("a.example"),
                    DnsRegistry::resolve("filler.example"),
                    DnsRegistry::resolve("a.example")),
                to_bytes(std::to_string(registrant)));
      for (uint32_t i = 0; i < cluster.n(); ++i) {
        auto& dns = dynamic_cast<DnsRegistry&>(cluster.service(i));
        EXPECT_EQ(dns.owner("a.example"), registrant) << "replica " << i;
      }
    }
  }
}

TEST(DurabilityThreads, MemFullClusterRestartRecovers) {
  ClusterOptions opts = base_options(Protocol::kCp1, RuntimeKind::kThreads);
  opts.durability = ClusterOptions::Durability::kMem;
  Cluster cluster(opts);

  run_ops(cluster, 0, 0, 10);
  for (uint32_t i = 0; i < cluster.n(); ++i) cluster.crash_replica(i);
  for (uint32_t i = 0; i < cluster.n(); ++i) cluster.restart_replica(i);

  run_ops(cluster, 1, 100, 10);
  await_converged(cluster, 20);
  for (uint32_t i = 0; i < cluster.n(); ++i) {
    EXPECT_GE(cluster.replica_metrics(i)
                      .counter("bft.recovery.snapshot_loaded")
                      .value() +
                  cluster.replica_metrics(i)
                      .counter("bft.recovery.wal_replayed")
                      .value(),
              1u)
        << "replica " << i << " recovered nothing from storage";
  }
  cluster.shutdown();
}

// ---------------------------------------------------------------------------
// File-backed power loss: tear the whole cluster down, rebuild it from the
// data directory alone.

TEST(DurabilityThreads, FileBackedColdRestartResumesExactly) {
  std::string tmpl = ::testing::TempDir() + "scab_durability_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
  const std::string data_dir = tmpl;

  ClusterOptions opts = base_options(Protocol::kCp0, RuntimeKind::kThreads);
  opts.durability = ClusterOptions::Durability::kFile;
  opts.data_dir = data_dir;

  {
    Cluster cluster(opts);
    run_ops(cluster, 0, 0, 10);
    await_converged(cluster, 10);
    cluster.shutdown();
  }

  {
    // Same options, same directory, brand-new processes-worth of state:
    // everything volatile is gone; only the FileStorage directories remain.
    Cluster cluster(opts);
    await_converged(cluster, 10);  // restored, not re-executed
    for (uint32_t i = 0; i < cluster.n(); ++i) {
      EXPECT_GE(cluster.replica_metrics(i)
                    .counter("bft.recovery.snapshot_loaded")
                    .value(),
                1u)
          << "replica " << i;
      EXPECT_GE(cluster.replica_metrics(i)
                    .histogram("storage.wal_append_bytes")
                    .count(),
                0u);
    }
    // Client 1 was never used in the first life, so its sequence numbers
    // are fresh (replica-side dedup is keyed on (client, seq)).
    run_ops(cluster, 1, 100, 10);
    await_converged(cluster, 20);
    cluster.shutdown();
  }

  ASSERT_EQ(std::system(("rm -rf '" + data_dir + "'").c_str()), 0);
}

// ---------------------------------------------------------------------------
// History segments (DESIGN.md §13): the snapshot indexes write-once segment
// blobs instead of carrying the batch bodies.

constexpr uint64_t kHistoryLimit = 16;  // four 4-batch segments

ClusterOptions segment_options() {
  ClusterOptions opts = base_options(Protocol::kPbft, RuntimeKind::kSim);
  opts.durability = ClusterOptions::Durability::kMem;
  opts.bft.history_limit = kHistoryLimit;
  opts.num_clients = 1;  // closed loop: one op per batch, snapshots every 4
  return opts;
}

/// Lets in-flight checkpoint votes land, so every replica that executed a
/// checkpoint seq has also written its snapshot.
void settle(Cluster& cluster) {
  cluster.sim().run_until(cluster.sim().now() + 200 * host::kMillisecond);
}

/// [first, last] of every "hist-<first>" blob on `disk`; each must parse.
std::map<uint64_t, uint64_t> segment_ranges(const host::MemStorage& disk) {
  std::map<uint64_t, uint64_t> out;
  for (const std::string& key : disk.keys()) {
    if (key == "snapshot") continue;
    EXPECT_EQ(key.rfind("hist-", 0), 0u) << "unexpected blob " << key;
    const uint64_t first = std::stoull(key.substr(5));
    const auto batches = bft::Replica::parse_segment(*disk.get(key), first);
    EXPECT_TRUE(batches.has_value() && !batches->empty()) << key;
    if (batches && !batches->empty()) out[first] = first + batches->size() - 1;
  }
  return out;
}

/// Replica i's disk at a snapshot point holds the snapshot plus exactly the
/// segments that overlap the last kHistoryLimit batches, back to back.
void expect_window_layout(Cluster& cluster, uint32_t i,
                          const host::MemStorage& disk) {
  SCOPED_TRACE("replica " + std::to_string(i));
  const bft::Replica& r = cluster.replica(i);
  const uint64_t last = r.last_executed_seq();
  ASSERT_EQ(r.low_watermark(), last) << "not quiesced at a snapshot point";
  const auto ranges = segment_ranges(disk);
  ASSERT_FALSE(ranges.empty());
  EXPECT_EQ(ranges.rbegin()->second, last);
  EXPECT_LE(ranges.begin()->first + kHistoryLimit, last + 1) << "window gap";
  EXPECT_GT(ranges.begin()->second + kHistoryLimit, last) << "stale segment";
  for (auto it = ranges.begin(); std::next(it) != ranges.end(); ++it) {
    EXPECT_EQ(std::next(it)->first, it->second + 1) << "segments not adjacent";
  }
}

host::MemStorage& mem_disk(Cluster& cluster, uint32_t i) {
  return dynamic_cast<host::MemStorage&>(*cluster.host().storage(i));
}

TEST(DurabilitySegments, DiskKeepsOnlyTheFetchWindowAndSnapshotStaysSmall) {
  constexpr std::size_t kOpBytes = 4096;
  Cluster cluster(segment_options());
  int done = 0;
  for (int total : {40, 80, 160}) {
    for (; done < total; ++done) {
      Bytes big = op(done);
      big.resize(kOpBytes, 0x42);
      ASSERT_TRUE(cluster.run_one(0, std::move(big)).has_value());
    }
    await_converged(cluster, static_cast<uint64_t>(total));
    settle(cluster);
    for (uint32_t i = 0; i < cluster.n(); ++i) {
      expect_window_layout(cluster, i, mem_disk(cluster, i));
      // The snapshot indexes the segments; it never carries a batch body.
      EXPECT_LT(mem_disk(cluster, i).get("snapshot")->size(), kOpBytes);
    }
  }
}

TEST(DurabilitySim, SnapshotSizeIsFlatWithRunLength) {
  // Past the own-share cache and with the segment index saturated, a
  // snapshot holds in-flight state only: nothing in it may grow with the
  // number of requests executed.  Payloads share one length, so share
  // sizes stay put too.
  constexpr int kWarmup = 1040;
  constexpr int kMore = 200;
  static_assert(std::size_t{kWarmup} > RevealEngine::kMaxCompletedShareCache);
  const auto fixed_op = [](int i) {
    Bytes payload = op(i);
    payload.resize(32, 0x42);
    return payload;
  };
  for (Protocol p : kAllProtocols) {
    SCOPED_TRACE(protocol_name(p));
    ClusterOptions opts = segment_options();
    opts.protocol = p;
    Cluster cluster(opts);
    std::vector<std::size_t> sizes(cluster.n());
    int next = 0;
    for (int total : {kWarmup, kWarmup + kMore}) {
      for (; next < total; ++next) {
        ASSERT_TRUE(cluster.run_one(0, fixed_op(next)).has_value()) << next;
      }
      await_converged(cluster, static_cast<uint64_t>(total));
      settle(cluster);
      for (uint32_t i = 0; i < cluster.n(); ++i) {
        SCOPED_TRACE("replica " + std::to_string(i));
        const bft::Replica& r = cluster.replica(i);
        ASSERT_EQ(r.low_watermark(), r.last_executed_seq()) << "not quiesced";
        const std::size_t size = mem_disk(cluster, i).get("snapshot")->size();
        if (total > kWarmup) {
          EXPECT_LT(size, sizes[i] + kMore) << "grew from " << sizes[i];
        }
        sizes[i] = size;
      }
    }
  }
}

/// MemStorage that dies right after one chosen step of the snapshot
/// sequence: once armed, the first matching operation completes and every
/// later write is dropped, so the contents are exactly what a crash at that
/// point leaves on disk.
class CrashPointStorage final : public host::Storage {
 public:
  enum class Step { kSegmentPut, kSnapshotPut, kSegmentErase, kWalTruncate };

  void arm(Step step) { armed_ = step; }
  bool crashed() const { return crashed_; }
  void revive() {
    armed_.reset();
    crashed_ = false;
  }
  const host::MemStorage& disk() const { return mem_; }

  void put(std::string_view key, BytesView value) override {
    if (crashed_) return;
    mem_.put(key, value);
    hit(key == "snapshot" ? Step::kSnapshotPut : Step::kSegmentPut);
  }
  std::optional<Bytes> get(std::string_view key) const override {
    return mem_.get(key);
  }
  void erase(std::string_view key) override {
    if (crashed_) return;
    mem_.erase(key);
    hit(Step::kSegmentErase);
  }
  void append(BytesView record) override {
    if (!crashed_) mem_.append(record);
  }
  void sync() override {}
  std::size_t replay(const std::function<void(BytesView)>& fn) const override {
    return mem_.replay(fn);
  }
  void truncate_log() override {
    if (crashed_) return;
    mem_.truncate_log();
    hit(Step::kWalTruncate);
  }
  std::size_t log_records() const override { return mem_.log_records(); }

 private:
  void hit(Step step) {
    if (armed_ == step) crashed_ = true;
  }
  host::MemStorage mem_;
  std::optional<Step> armed_;
  bool crashed_ = false;
};

/// Makes replica 0 unable to serve anything older than its in-memory tail,
/// so a laggard's fetch needs both other peers' segments to reach f+1.
void damage_segments(host::MemStorage& disk) {
  for (const std::string& key : disk.keys()) {
    if (key == "snapshot") continue;
    Bytes blob = *disk.get(key);
    blob[blob.size() / 2] ^= 0x01;
    disk.put(key, blob);
  }
}

/// Replica 3 misses `count` ops, then must catch up with replica 0's
/// segments damaged: every batch older than 0's tail comes from replicas 1
/// and 2 alone.  Ends quiesced at a snapshot point.
void lag_and_catch_up(Cluster& cluster, int& next, int count) {
  cluster.crash_replica(3);
  run_ops(cluster, 0, next, count);
  next += count;
  damage_segments(mem_disk(cluster, 0));
  cluster.restart_replica(3);
  // Fresh checkpoints reveal the lag; stop on a checkpoint seq.
  const int more = 8 + (4 - (next + 8) % 4) % 4;
  run_ops(cluster, 0, next, more);
  next += more;
  await_converged(cluster, static_cast<uint64_t>(next));
  settle(cluster);
  EXPECT_GE(cluster.replica_metrics(3)
                .counter("bft.recovery.catchups_completed")
                .value(),
            1u);
}

TEST(DurabilitySegments, CrashAtEveryStepOfTheSnapshotSequence) {
  using Step = CrashPointStorage::Step;
  const std::pair<Step, const char*> kSteps[] = {
      {Step::kSegmentPut, "segment put"},
      {Step::kSnapshotPut, "snapshot put"},
      {Step::kSegmentErase, "segment erase"},
      {Step::kWalTruncate, "WAL truncate"}};
  for (const auto& [step, name] : kSteps) {
    SCOPED_TRACE(std::string("crash after ") + name);
    Cluster cluster(segment_options());
    // Give replica 2 the crash-point disk before it stores anything.
    cluster.crash_replica(2);
    auto owned = std::make_unique<CrashPointStorage>();
    CrashPointStorage& disk = *owned;
    static_cast<sim::SimHost&>(cluster.host()).attach_storage(2, std::move(owned));
    cluster.restart_replica(2);

    // Past kHistoryLimit, so every snapshot also retires a segment.
    int next = 24;
    run_ops(cluster, 0, 0, next);
    await_converged(cluster, static_cast<uint64_t>(next));

    // Load until replica 2 dies mid-snapshot; stop the world right there.
    disk.arm(step);
    bft::Client& client = cluster.client(0);
    while (!disk.crashed()) {
      ASSERT_LT(next, 40) << "the armed step never ran";
      const uint64_t before = client.completed_ops();
      client.submit(op(next++));
      cluster.sim().run_while(
          [&] { return disk.crashed() || client.completed_ops() > before; });
    }
    cluster.crash_replica(2);
    disk.revive();
    cluster.restart_replica(2);
    // The op in flight at the crash still completes.
    const host::Time stop_at = cluster.sim().now() + 30 * host::kSecond;
    cluster.sim().run_while([&] {
      return client.completed_ops() == static_cast<uint64_t>(next) ||
             cluster.sim().now() >= stop_at;
    });
    ASSERT_EQ(client.completed_ops(), static_cast<uint64_t>(next));

    // A laggard crosses several of replica 2's segment boundaries.
    lag_and_catch_up(cluster, next, 10);
    expect_window_layout(cluster, 2, disk.disk());
  }
}

TEST(DurabilitySegments, RestartAfterFetchCatchUpLoadsItsSnapshot) {
  Cluster cluster(segment_options());
  int next = 8;
  run_ops(cluster, 0, 0, next);
  await_converged(cluster, static_cast<uint64_t>(next));

  // Replica 3 misses 10 ops; the next checkpoint (seq 20) reveals the lag.
  // It executes seq 20 by fetch with the peers' votes already in, so it
  // writes its snapshot from inside the catch-up, then nothing else runs.
  cluster.crash_replica(3);
  run_ops(cluster, 0, next, 10);
  next += 10;
  cluster.restart_replica(3);
  run_ops(cluster, 0, next, 2);
  next += 2;
  await_converged(cluster, static_cast<uint64_t>(next));
  settle(cluster);
  ASSERT_EQ(cluster.replica(3).low_watermark(), static_cast<uint64_t>(next));
  EXPECT_EQ(cluster.replica_metrics(3)
                .counter("bft.recovery.catchups_completed")
                .value(),
            1u);

  obs::Counter& loaded =
      cluster.replica_metrics(3).counter("bft.recovery.snapshot_loaded");
  const uint64_t loaded_before = loaded.value();
  cluster.crash_replica(3);
  cluster.restart_replica(3);
  EXPECT_EQ(loaded.value(), loaded_before + 1) << "snapshot rejected";
  EXPECT_EQ(echo(cluster, 3).executed(), static_cast<uint64_t>(next));
  EXPECT_EQ(cluster.replica(3).last_executed_seq(),
            static_cast<uint64_t>(next));

  // Its checkpoints still match the others' (none of seq 20 re-executed).
  run_ops(cluster, 0, next, 8);
  next += 8;
  await_converged(cluster, static_cast<uint64_t>(next));
  settle(cluster);
  EXPECT_EQ(cluster.replica(3).low_watermark(), static_cast<uint64_t>(next));
}

/// Rewrites a replica's disk into the layout written before history
/// segments: an "SCB1" snapshot (no checksum, the batch history inline,
/// here taken from the segments) and no segment blobs.  With
/// `at_checkpoint` next_exec names the last executed seq itself, as an SCB1
/// snapshot taken inside the batch that reached its checkpoint did.
void rewrite_as_legacy(host::MemStorage& disk, bool at_checkpoint) {
  const Bytes sealed = *disk.get("snapshot");
  const BytesView body(sealed.data(), sealed.size() - 32);  // drop checksum
  // The replica state up to the segment index is laid out as before.
  Reader r(body);
  r.u32();
  for (int i = 0; i < 6; ++i) r.u64();
  r.bytes();
  for (uint32_t n = r.u32(), i = 0; i < n; ++i) {
    r.u32();
    ASSERT_TRUE(bft::ClientExecWindow().restore(r));
  }
  for (uint32_t n = r.u32(), i = 0; i < n; ++i) {
    r.u32();
    ASSERT_TRUE(bft::ClientReplyCache().restore(r));
  }
  const std::size_t state_end = body.size() - r.remaining();
  for (uint32_t n = r.u32(), i = 0; i < 2 * n; ++i) r.u64();  // index
  for (uint32_t n = r.u32(), i = 0; i < n; ++i) r.u64();      // retired
  const Bytes app = r.bytes();
  ASSERT_TRUE(r.done());

  Writer history;
  uint32_t count = 0;
  uint64_t last = 0;
  for (const auto& [first, _] : segment_ranges(disk)) {
    const std::string key = "hist-" + std::to_string(first);
    const auto batches = bft::Replica::parse_segment(*disk.get(key), first);
    ASSERT_TRUE(batches.has_value());
    for (std::size_t i = 0; i < batches->size(); ++i) {
      last = first + i;
      history.u64(last);
      history.bytes((*batches)[i]);
      ++count;
    }
    disk.erase(key);
  }

  Writer w;
  w.u32(0x53434231);  // "SCB1"
  w.raw(body.subspan(4, state_end - 4));
  w.u32(count);
  w.raw(history.data());
  w.bytes(app);
  Bytes legacy = std::move(w).take();
  if (at_checkpoint) {
    // next_exec is the third u64 after the magic, little-endian.
    for (int b = 0; b < 8; ++b) {
      legacy[4 + 16 + b] = static_cast<uint8_t>(last >> (8 * b));
    }
  }
  disk.put("snapshot", legacy);
}

TEST(DurabilitySegments, LegacySnapshotsResumeAndSealTheirHistory) {
  Cluster cluster(segment_options());
  int next = 12;
  run_ops(cluster, 0, 0, next);
  await_converged(cluster, static_cast<uint64_t>(next));

  // Replica 3 trails the others by two segments when the whole cluster
  // stops; every disk is then left as a pre-segment replica wrote it.
  cluster.crash_replica(3);
  run_ops(cluster, 0, next, 8);
  next += 8;
  settle(cluster);
  for (uint32_t i = 0; i < 3; ++i) cluster.crash_replica(i);
  for (uint32_t i = 0; i < cluster.n(); ++i) {
    rewrite_as_legacy(mem_disk(cluster, i), /*at_checkpoint=*/i % 2 == 0);
  }
  for (uint32_t i = 0; i < cluster.n(); ++i) {
    obs::Counter& loaded =
        cluster.replica_metrics(i).counter("bft.recovery.snapshot_loaded");
    const uint64_t before = loaded.value();
    cluster.restart_replica(i);
    EXPECT_EQ(loaded.value(), before + 1) << "replica " << i;
  }
  EXPECT_EQ(echo(cluster, 0).executed(), static_cast<uint64_t>(next));
  EXPECT_EQ(echo(cluster, 3).executed(), 12u);

  // Replica 3 fetches the batches the others hold only in their restored
  // legacy history, then everyone seals it into segments.
  run_ops(cluster, 0, next, 8);
  next += 8;
  await_converged(cluster, static_cast<uint64_t>(next));
  settle(cluster);
  EXPECT_GE(cluster.replica_metrics(3)
                .counter("bft.recovery.catchups_completed")
                .value(),
            1u);
  for (uint32_t i = 0; i < cluster.n(); ++i) {
    expect_window_layout(cluster, i, mem_disk(cluster, i));
  }
}

TEST(DurabilitySegments, DamagedLegacySnapshotsNeverCrashRecovery) {
  Cluster cluster(segment_options());
  run_ops(cluster, 0, 0, 8);
  await_converged(cluster, 8);
  settle(cluster);
  cluster.crash_replica(3);
  host::MemStorage& disk = mem_disk(cluster, 3);
  rewrite_as_legacy(disk, /*at_checkpoint=*/true);
  const Bytes legacy = *disk.get("snapshot");
  obs::Counter& loaded =
      cluster.replica_metrics(3).counter("bft.recovery.snapshot_loaded");
  // Under the simulator restart_replica runs recover() inline.
  const auto restore = [&](BytesView blob) {
    disk.put("snapshot", blob);
    const uint64_t before = loaded.value();
    cluster.restart_replica(3);
    cluster.crash_replica(3);
    return loaded.value() > before;
  };
  // An SCB1 blob has no checksum, so a bit flip may still parse; it must
  // never crash recovery, and a truncated blob never parses.
  for (std::size_t len = 0; len < legacy.size(); ++len) {
    EXPECT_FALSE(restore(BytesView(legacy.data(), len))) << "len=" << len;
  }
  crypto::Drbg rng(to_bytes("legacy-snapshot-flips"));
  for (int trial = 0; trial < 200; ++trial) {
    Bytes mutated = legacy;
    mutated[rng.uniform(mutated.size())] ^=
        static_cast<uint8_t>(1u << rng.uniform(8));
    restore(mutated);
  }
  EXPECT_TRUE(restore(legacy));
}

TEST(DurabilitySegments, CrashAllWhileOneReplicaTrailsCatchesUpFromSegments) {
  Cluster cluster(segment_options());
  int next = 8;
  run_ops(cluster, 0, 0, next);
  await_converged(cluster, static_cast<uint64_t>(next));

  // Replica 3 falls 12 batches (three segments) behind the others' last
  // snapshot point, well inside watermark_window, then everyone crashes.
  cluster.crash_replica(3);
  run_ops(cluster, 0, next, 12);
  next += 12;
  settle(cluster);
  for (uint32_t i = 0; i < 3; ++i) cluster.crash_replica(i);
  for (uint32_t i = 0; i < cluster.n(); ++i) cluster.restart_replica(i);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(echo(cluster, i).executed(), static_cast<uint64_t>(next));
  }
  EXPECT_EQ(echo(cluster, 3).executed(), 8u);

  // The recovered peers hold the missing batches only in segments (their
  // tails restarted empty at the snapshot point).
  run_ops(cluster, 0, next, 8);
  next += 8;
  await_converged(cluster, static_cast<uint64_t>(next));
  EXPECT_GE(cluster.replica_metrics(3)
                .counter("bft.recovery.catchups_completed")
                .value(),
            1u);
}

}  // namespace
}  // namespace scab::causal
