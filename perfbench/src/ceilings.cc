// Single-layer ceilings for the traced run: how fast one layer goes with
// nothing else in the way, so each layer's busy share in the cluster can be
// read against its own limit.
#include "ceilings.h"

#include <atomic>
#include <filesystem>
#include <thread>

#include "causal/cp0.h"
#include "crypto/drbg.h"
#include "crypto/modgroup.h"
#include "rt/storage.h"
#include "rt/transport.h"
#include "secretshare/arss.h"
#include "threshenc/tdh2.h"
#include "trace.h"

namespace perfbench {

namespace {

/// Runs `op` back to back for about `budget_ns`; returns ops per second.
template <class Op>
double rate_of(uint64_t budget_ns, Op op) {
  uint64_t n = 0;
  const uint64_t t0 = now_ns();
  uint64_t t = t0;
  while (t - t0 < budget_ns) {
    op();
    ++n;
    t = now_ns();
  }
  return static_cast<double>(n) * 1e9 / static_cast<double>(t - t0);
}

double wal_ceiling(const std::string& dir, bool flush, const Bytes& record,
                   uint64_t budget_ns) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  scab::rt::FileStorage storage(dir, scab::rt::FileStorage::Options{flush});
  if (!storage.ok()) return 0;
  // Truncating every 4096 records bounds the file at 16 MiB.
  uint64_t n = 0;
  const double r = rate_of(budget_ns, [&] {
    storage.append(record);
    storage.sync();
    if (++n % 4096 == 0) storage.truncate_log();
  });
  std::filesystem::remove_all(dir, ec);
  return r;
}

double transport_ceiling(const Bytes& frame, uint64_t budget_ns) {
  using scab::rt::SocketTransport;
  SocketTransport a(0, {}, 1, "127.0.0.1", 1);
  SocketTransport b(0, {}, 2, "127.0.0.1", 1);
  if (!a.ok() || !b.ok()) return 0;
  a.add_peer(2, {"127.0.0.1", b.port()});
  std::atomic<uint64_t> received{0};
  b.set_deliver([&received](scab::host::NodeId, scab::host::NodeId, Bytes) {
    received.fetch_add(1, std::memory_order_release);
  });
  a.set_deliver([](scab::host::NodeId, scab::host::NodeId, Bytes) {});
  a.start();
  b.start();
  // A bounded window keeps the sender inside the transport's outbound
  // queue limit, so no frame is dropped.
  constexpr uint64_t kWindow = 256;
  uint64_t sent = 0;
  const uint64_t t0 = now_ns();
  while (now_ns() - t0 < budget_ns) {
    if (sent - received.load(std::memory_order_acquire) < kWindow) {
      a.send(1, 2, frame);
      ++sent;
    } else {
      std::this_thread::yield();
    }
  }
  const uint64_t deadline = now_ns() + 2'000'000'000ull;
  while (received.load(std::memory_order_acquire) < sent &&
         now_ns() < deadline) {
    std::this_thread::yield();
  }
  const uint64_t t1 = now_ns();
  const uint64_t got = received.load(std::memory_order_acquire);
  a.stop();
  b.stop();
  return static_cast<double>(got) * 1e9 / static_cast<double>(t1 - t0);
}

double tdh2_verify_share_ceiling(uint64_t budget_ns) {
  scab::crypto::Drbg rng(scab::to_bytes("ceiling.tdh2"));
  const auto group = scab::crypto::ModGroup::modp_1024();
  const auto keys = scab::threshenc::tdh2_keygen(group, 2, 4, rng);
  scab::causal::RealTdh2Backend client(keys.pk);
  scab::causal::RealTdh2Backend server(keys.pk, keys.shares.at(0));
  const Bytes label = scab::to_bytes("ceiling-label");
  const Bytes ct = client.encrypt(Bytes(kOpBytes, 0x42), label, rng);
  const auto share =
      server.decryption_share(keys.shares.at(0).index, ct, label, rng);
  if (!share || !server.verify_share(ct, label, *share)) return 0;
  return rate_of(budget_ns, [&] { server.verify_share(ct, label, *share); });
}

double arss2_reconstruct_ceiling(uint64_t budget_ns) {
  scab::crypto::Drbg rng(scab::to_bytes("ceiling.arss2"));
  const Bytes secret(kOpBytes, 0x37);
  const auto shares = scab::secretshare::arss2_share(secret, 1, 4, rng);
  bool ok = true;
  const double rate = rate_of(budget_ns, [&] {
    scab::secretshare::Arss2Reconstructor rec(1, shares[0]);
    std::optional<Bytes> out;
    for (std::size_t i = 1; i < shares.size() && !out; ++i) {
      out = rec.add(shares[i]);
    }
    if (!out || *out != secret) ok = false;
  });
  return ok ? rate : 0;
}

}  // namespace

std::vector<Ceiling> measure_ceilings(const std::string& scratch_dir) {
  constexpr uint64_t kBudget = 400'000'000;  // per ceiling
  const Bytes record(kOpBytes, 0x5c);
  std::vector<Ceiling> out;
  out.push_back({"ceiling.wal_sync_s", wal_ceiling(scratch_dir + "/wal-flush",
                                                   true, record, kBudget)});
  out.push_back({"ceiling.wal_append_s",
                 wal_ceiling(scratch_dir + "/wal-noflush", false, record,
                             kBudget)});
  out.push_back(
      {"ceiling.transport_msgs_s", transport_ceiling(record, kBudget)});
  out.push_back({"ceiling.tdh2_verify_share_s",
                 tdh2_verify_share_ceiling(kBudget)});
  out.push_back({"ceiling.arss2_reconstruct_s",
                 arss2_reconstruct_ceiling(kBudget)});
  return out;
}

}  // namespace perfbench
