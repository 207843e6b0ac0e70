#include "bench/bench_util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "crypto/aead.h"
#include "crypto/commitment.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "secretshare/arss.h"
#include "threshenc/hybrid.h"

namespace scab::bench {

using causal::Cluster;
using causal::ClusterOptions;
using host::CostModel;
using host::Op;
using sim::SimTime;

namespace {

/// Wall-clock time of fn() in nanoseconds: the minimum over several
/// batches of `reps` runs each.  The minimum is robust against scheduler
/// and frequency noise, which matters because these prices feed straight
/// into the virtual clock.
template <typename Fn>
double measure_ns(int reps, Fn&& fn) {
  fn();  // untimed warmup
  double best = 1e18;
  for (int batch = 0; batch < 3; ++batch) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) fn();
    const auto end = std::chrono::steady_clock::now();
    best = std::min(
        best,
        std::chrono::duration<double, std::nano>(end - start).count() / reps);
  }
  return best;
}

struct SymmetricPrices {
  CostModel::Price hash, mac, seal, open, commit, commit_open, shamir_share,
      shamir_rec;
};

/// Derives a (fixed, per-KiB) price from measurements at two sizes.
CostModel::Price fit_price(double ns_small, double ns_big,
                           std::size_t small_bytes, std::size_t big_bytes) {
  CostModel::Price p;
  const double slope =
      (ns_big - ns_small) / (static_cast<double>(big_bytes - small_bytes));
  p.per_byte = static_cast<SimTime>(std::max(0.0, slope * 1024.0));
  const double fixed = ns_small - slope * static_cast<double>(small_bytes);
  p.fixed = static_cast<SimTime>(std::max(1.0, fixed));
  return p;
}

const SymmetricPrices& symmetric_prices() {
  static const SymmetricPrices prices = [] {
    SymmetricPrices out;
    crypto::Drbg rng(to_bytes("calibration"));
    const Bytes small = rng.generate(64);
    const Bytes big = rng.generate(4096);
    const Bytes key32 = rng.generate(32);
    const Bytes key64 = rng.generate(64);
    const int reps = 40;

    out.hash = fit_price(
        measure_ns(reps, [&] { crypto::sha256(small); }),
        measure_ns(reps, [&] { crypto::sha256(big); }), 64, 4096);
    out.mac = fit_price(
        measure_ns(reps, [&] { crypto::hmac_sha256(key32, small); }),
        measure_ns(reps, [&] { crypto::hmac_sha256(key32, big); }), 64, 4096);
    out.seal = fit_price(
        measure_ns(reps, [&] { crypto::aead_seal(key64, {}, small, rng); }),
        measure_ns(reps, [&] { crypto::aead_seal(key64, {}, big, rng); }), 64,
        4096);
    const Bytes box_small = crypto::aead_seal(key64, {}, small, rng);
    const Bytes box_big = crypto::aead_seal(key64, {}, big, rng);
    out.open = fit_price(
        measure_ns(reps, [&] { (void)crypto::aead_open(key64, {}, box_small); }),
        measure_ns(reps, [&] { (void)crypto::aead_open(key64, {}, box_big); }),
        64, 4096);

    crypto::Commitment cs(key32);
    out.commit = fit_price(
        measure_ns(reps, [&] { cs.commit(small, rng); }),
        measure_ns(reps, [&] { cs.commit(big, rng); }), 64, 4096);
    const auto c_small = cs.commit(small, rng);
    const auto c_big = cs.commit(big, rng);
    out.commit_open = fit_price(
        measure_ns(reps,
                   [&] {
                     (void)cs.open(c_small.commitment, small,
                                   c_small.decommitment);
                   }),
        measure_ns(reps,
                   [&] { (void)cs.open(c_big.commitment, big, c_big.decommitment); }),
        64, 4096);

    // Shamir at the reference deployment f=1, n=4 (dominated by per-chunk
    // work, so the per-byte term carries the f-dependence well enough).
    out.shamir_share = fit_price(
        measure_ns(10, [&] { secretshare::shamir_share(small, 2, 4, rng); }),
        measure_ns(10, [&] { secretshare::shamir_share(big, 2, 4, rng); }), 64,
        4096);
    const auto sh_small = secretshare::shamir_share(small, 2, 4, rng);
    const auto sh_big = secretshare::shamir_share(big, 2, 4, rng);
    const std::vector<secretshare::ShamirShare> two_small(sh_small.begin(),
                                                          sh_small.begin() + 2);
    const std::vector<secretshare::ShamirShare> two_big(sh_big.begin(),
                                                        sh_big.begin() + 2);
    out.shamir_rec = fit_price(
        measure_ns(10, [&] { (void)secretshare::shamir_reconstruct(two_small); }),
        measure_ns(10, [&] { (void)secretshare::shamir_reconstruct(two_big); }),
        64, 4096);
    return out;
  }();
  return prices;
}

}  // namespace

ThreshEncProfile profile_threshenc(const crypto::ModGroup& group, uint32_t f,
                                   int reps) {
  crypto::Drbg rng(to_bytes("tdh2-calibration"));
  const uint32_t n = 3 * f + 1;
  auto keys = threshenc::tdh2_keygen(group, f + 1, n, rng);
  const Bytes msg = rng.generate(threshenc::kTdh2MessageSize);
  const Bytes label = to_bytes("calib-label");

  ThreshEncProfile out;
  out.encrypt_ms =
      measure_ns(reps, [&] { threshenc::tdh2_encrypt(keys.pk, msg, label, rng); }) /
      1e6;
  const auto ct = threshenc::tdh2_encrypt(keys.pk, msg, label, rng);
  out.verify_ciphertext_ms =
      measure_ns(reps,
                 [&] { (void)threshenc::tdh2_verify_ciphertext(keys.pk, ct, label); }) /
      1e6;
  // Preverified entry points: what the CP0 reveal pipeline actually pays
  // (the proof check is priced separately under kTdh2VerifyCt).
  out.share_decrypt_ms =
      measure_ns(reps,
                 [&] {
                   (void)threshenc::tdh2_share_decrypt_preverified(
                       keys.pk, keys.shares[0], ct, rng);
                 }) /
      1e6;
  std::vector<threshenc::Tdh2DecryptionShare> shares;
  for (uint32_t i = 0; i <= f; ++i) {
    shares.push_back(
        *threshenc::tdh2_share_decrypt(keys.pk, keys.shares[i], ct, label, rng));
  }
  out.verify_share_ms =
      measure_ns(reps,
                 [&] {
                   (void)threshenc::tdh2_verify_share(keys.pk, ct, label,
                                                      shares[0]);
                 }) /
      1e6;
  // Batch verification at k=4 and k=16.  Duplicate shares are fine — each
  // share occupies its own slot of the merged equation with fresh random
  // coefficients, so repeating a share still exercises the full per-share
  // work (two ≤256-bit exponent pairs in the multi-exponentiation).
  auto batch_of = [&](std::size_t k) {
    std::vector<threshenc::Tdh2DecryptionShare> b;
    for (std::size_t i = 0; i < k; ++i) b.push_back(shares[i % shares.size()]);
    return b;
  };
  crypto::Drbg batch_rng(to_bytes("tdh2-batch-calibration"));
  const auto batch4 = batch_of(4);
  const auto batch16 = batch_of(16);
  out.batch_verify4_ms =
      measure_ns(reps,
                 [&] {
                   (void)threshenc::tdh2_batch_verify_shares(
                       keys.pk, ct, label, batch4, batch_rng);
                 }) /
      1e6;
  out.batch_verify16_ms =
      measure_ns(reps,
                 [&] {
                   (void)threshenc::tdh2_batch_verify_shares(
                       keys.pk, ct, label, batch16, batch_rng);
                 }) /
      1e6;
  out.combine_ms =
      measure_ns(reps,
                 [&] {
                   (void)threshenc::tdh2_combine_preverified(keys.pk, ct,
                                                             shares);
                 }) /
      1e6;
  return out;
}

CostModel calibrate_costs(const crypto::ModGroup& group, uint32_t f) {
  const SymmetricPrices& sym = symmetric_prices();
  CostModel m;
  m.set(Op::kHash, sym.hash);
  m.set(Op::kMac, sym.mac);
  m.set(Op::kAeadSeal, sym.seal);
  m.set(Op::kAeadOpen, sym.open);
  m.set(Op::kCommit, sym.commit);
  m.set(Op::kCommitOpen, sym.commit_open);
  m.set(Op::kShamirShare, sym.shamir_share);
  m.set(Op::kShamirRec, sym.shamir_rec);
  m.set(Op::kExecute, {1'000, 200});
  // Per-message network-stack CPU (syscall + copy): a modeled constant —
  // it cannot be measured in-process but dominates small-message handling
  // on real testbeds (DESIGN.md section 3).
  m.set(Op::kMsgOverhead, {12'000, 0});

  const ThreshEncProfile t = profile_threshenc(group, f, 5);
  auto ms_price = [&](double ms, SimTime per_byte = 0) {
    return CostModel::Price{static_cast<SimTime>(ms * 1e6), per_byte};
  };
  // Hybrid encryption adds an AEAD pass over the body.
  m.set(Op::kTdh2Encrypt, ms_price(t.encrypt_ms, sym.seal.per_byte));
  m.set(Op::kTdh2VerifyCt, ms_price(t.verify_ciphertext_ms));
  m.set(Op::kTdh2ShareDec, ms_price(t.share_decrypt_ms));
  m.set(Op::kTdh2VerifyShare, ms_price(t.verify_share_ms));
  // Fit the batch price from the k=4 and k=16 measurements.  CONVENTION
  // (host/cost_model.h): charged with bytes = k·1024, so per_byte holds the
  // per-share amortized ns and fixed the batch-constant part.
  {
    const double per_share_ns =
        std::max(0.0, (t.batch_verify16_ms - t.batch_verify4_ms) * 1e6 / 12.0);
    const double fixed_ns =
        std::max(1.0, t.batch_verify4_ms * 1e6 - 4.0 * per_share_ns);
    m.set(Op::kTdh2BatchVerifyShare,
          {static_cast<SimTime>(fixed_ns), static_cast<SimTime>(per_share_ns)});
  }
  m.set(Op::kTdh2Combine, ms_price(t.combine_ms, sym.open.per_byte));
  return m;
}

std::string obs_json_fields(Cluster& cluster) {
  return "\"trace\":" + cluster.tracer().to_json() +
         ",\"metrics\":" + cluster.merged_metrics().to_json();
}

double run_latency_ms(ClusterOptions opts, std::size_t request_bytes,
                      uint64_t requests, SimTime deadline,
                      std::string* obs_fields) {
  opts.num_clients = 1;
  Cluster cluster(std::move(opts));
  auto& client = cluster.client(0);
  client.set_retry_timeout(60 * sim::kSecond);
  client.run_closed_loop(
      [request_bytes](uint64_t i) {
        Bytes op(request_bytes, static_cast<uint8_t>(i));
        return op;
      },
      requests);
  cluster.sim().run_while([&] {
    return client.completed_ops() >= requests || cluster.sim().now() > deadline;
  });
  if (obs_fields) *obs_fields = obs_json_fields(cluster);
  if (client.completed_ops() < requests) return -1.0;
  return static_cast<double>(client.total_latency()) / requests /
         sim::kMillisecond;
}

ThroughputResult run_throughput(ClusterOptions opts, uint32_t clients,
                                std::size_t request_bytes, uint64_t warmup_ops,
                                uint64_t measure_ops, SimTime deadline,
                                std::string* obs_fields) {
  opts.num_clients = clients;
  Cluster cluster(std::move(opts));

  auto total_completed = [&] {
    uint64_t sum = 0;
    for (uint32_t c = 0; c < clients; ++c) sum += cluster.client(c).completed_ops();
    return sum;
  };
  auto total_latency = [&] {
    SimTime sum = 0;
    for (uint32_t c = 0; c < clients; ++c) sum += cluster.client(c).total_latency();
    return sum;
  };

  // (completion time, latency) per logical operation across all clients;
  // the simulator is single-threaded so the shared vector needs no lock.
  std::vector<std::pair<sim::SimTime, sim::SimTime>> completions;
  for (uint32_t c = 0; c < clients; ++c) {
    cluster.client(c).set_retry_timeout(60 * sim::kSecond);
    cluster.client(c).run_closed_loop(
        [request_bytes](uint64_t i) {
          return Bytes(request_bytes, static_cast<uint8_t>(i));
        },
        0 /* unbounded */,
        [&completions](uint64_t, sim::SimTime start, sim::SimTime end) {
          completions.emplace_back(end, end - start);
        });
  }

  cluster.sim().run_while([&] {
    return total_completed() >= warmup_ops || cluster.sim().now() > deadline;
  });
  const uint64_t ops0 = total_completed();
  const SimTime t0 = cluster.sim().now();
  const SimTime lat0 = total_latency();

  cluster.sim().run_while([&] {
    return total_completed() >= ops0 + measure_ops ||
           cluster.sim().now() > deadline;
  });
  const uint64_t ops1 = total_completed();
  const SimTime t1 = cluster.sim().now();
  const SimTime lat1 = total_latency();

  if (obs_fields) *obs_fields = obs_json_fields(cluster);

  ThroughputResult out;
  out.measured_ops = ops1 - ops0;
  if (t1 > t0 && out.measured_ops > 0) {
    out.ops_per_sec = static_cast<double>(out.measured_ops) * sim::kSecond /
                      static_cast<double>(t1 - t0);
    out.mean_latency_ms = static_cast<double>(lat1 - lat0) /
                          static_cast<double>(out.measured_ops) /
                          sim::kMillisecond;
    std::vector<SimTime> window;
    window.reserve(out.measured_ops);
    for (const auto& [end, latency] : completions) {
      if (end > t0 && end <= t1) window.push_back(latency);
    }
    if (!window.empty()) {
      auto mid = window.begin() + static_cast<std::ptrdiff_t>(window.size() / 2);
      std::nth_element(window.begin(), mid, window.end());
      out.median_latency_ms = static_cast<double>(*mid) / sim::kMillisecond;
    }
  }
  return out;
}

namespace {
FILE* g_artifact = nullptr;
}  // namespace

void open_json_artifact(bool enabled, const std::string& name) {
  if (g_artifact) {
    std::fclose(g_artifact);
    g_artifact = nullptr;
  }
  if (!enabled) return;
  // Artifacts land in $SCAB_BENCH_DIR when set (CI points it at
  // build/bench/ so JSON dumps never litter the source tree), else cwd.
  std::string path = "BENCH_" + name + ".json";
  if (const char* dir = std::getenv("SCAB_BENCH_DIR"); dir != nullptr && *dir) {
    path = std::string(dir) + "/" + path;
  }
  g_artifact = std::fopen(path.c_str(), "w");
  if (!g_artifact) {
    std::fprintf(stderr, "warning: cannot open %s for writing\n", path.c_str());
  }
}

void emit_json_line(const std::string& line) {
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  if (g_artifact) {
    std::fprintf(g_artifact, "%s\n", line.c_str());
    std::fflush(g_artifact);
  }
}

void print_header(const std::string& title, const std::string& note) {
  std::printf("\n=== %s ===\n", title.c_str());
  if (!note.empty()) std::printf("%s\n", note.c_str());
}

void print_row(const std::vector<std::string>& cells, int width) {
  for (const auto& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
  std::fflush(stdout);
}

std::string fmt_ms(double ms) {
  char buf[32];
  if (ms < 0) return "timeout";
  std::snprintf(buf, sizeof(buf), ms < 10 ? "%.2f" : "%.1f", ms);
  return buf;
}

std::string fmt_tput(double ops) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", ops);
  return buf;
}

}  // namespace scab::bench
