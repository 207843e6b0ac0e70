// CP0 — secure causal atomic broadcast from a labeled threshold
// cryptosystem (Reiter–Birman / CKPS, reviewed in paper §V-A).
//
// Schedule: the client encrypts its request under the system threshold
// public key with label ID = (client, seq) and the ciphertext is ordered by
// PBFT.  Reveal: after a batch commits, every replica broadcasts its
// decryption share for each ciphertext in the batch; a replica that has
// collected f+1 valid shares combines, executes, and replies.  Execution of
// slot s blocks until every request in it is recovered, preserving total
// order and the CKPS rule that a correct replica never runs two schedule or
// two reveal steps back-to-back for a request.
//
// The threshold cryptosystem itself sits behind Cp0Backend so that the
// throughput benchmarks can swap the real TDH2 implementation for a
// calibrated-cost oracle (DESIGN.md §3) without touching protocol logic.
// Latency benchmarks and tests use the real backend.
#pragma once

#include <map>
#include <unordered_map>

#include "bft/client.h"
#include "causal/reveal_engine.h"
#include "threshenc/hybrid.h"

namespace scab::causal {

/// Abstracts the (t, n) labeled threshold cryptosystem used by CP0.
/// All byte-level objects are opaque wires produced and consumed by the
/// same backend type.  Costs are charged by the caller via ctx.charge, so a
/// modeled backend has the same virtual-time behaviour as the real one.
class Cp0Backend {
 public:
  virtual ~Cp0Backend() = default;

  /// Client: encrypt `message` bound to `label`.
  virtual Bytes encrypt(BytesView message, BytesView label,
                        crypto::Drbg& rng) = 0;
  /// Anyone: publicly verify a ciphertext (including label binding).
  virtual bool verify_ciphertext(BytesView ct, BytesView label) = 0;
  /// Replica `index` (1-based): produce its decryption share.
  virtual std::optional<Bytes> decryption_share(uint32_t index, BytesView ct,
                                                BytesView label,
                                                crypto::Drbg& rng) = 0;
  /// Anyone: verify one decryption share.
  virtual bool verify_share(BytesView ct, BytesView label, BytesView share) = 0;
  /// Verify a batch of decryption shares for ONE ciphertext; returns one
  /// verdict per share (1 = valid), in order.  If `fallback_splits` is
  /// non-null it receives how many bisection splits the batch needed
  /// (0 = the whole batch passed a single merged equation).  The default
  /// loops verify_share — semantically identical, no amortization; the real
  /// backend overrides it with randomized batch verification.
  virtual std::vector<uint8_t> batch_verify_shares(
      BytesView ct, BytesView label, const std::vector<Bytes>& shares,
      crypto::Drbg& rng, uint32_t* fallback_splits = nullptr);
  /// Combine >= threshold valid shares into the plaintext.
  virtual std::optional<Bytes> combine(BytesView ct, BytesView label,
                                       const std::vector<Bytes>& shares) = 0;
  virtual uint32_t threshold() const = 0;

  /// Result of an offloaded batch-share verification: the input wires
  /// travel through the job (moved, not copied) so the caller can adopt
  /// the valid ones without touching the backend again.
  struct BatchVerifyResult {
    std::vector<Bytes> shares;
    std::vector<uint8_t> verdicts;  // one per share, 1 = valid
    uint32_t fallback_splits = 0;
  };
  /// Packages batch_verify_shares as a self-contained callable safe to run
  /// on a worker-pool thread (host/worker_pool.h): inputs are copied in,
  /// `rng` is forked, and the returned job touches no backend mutable
  /// state.  The base version closes over `this` and is pool-safe only for
  /// stateless backends (the modeled one qualifies); RealTdh2Backend
  /// overrides it to resolve its parsed-ciphertext LRU up front on the
  /// protocol thread.
  virtual std::function<BatchVerifyResult()> make_batch_share_verifier(
      BytesView ct, BytesView label, std::vector<Bytes> shares,
      crypto::Drbg& rng);

  /// Reveal-pipeline variants for a ciphertext the caller has ALREADY
  /// verified (CP0 verifies once at request admission, so the reveal step
  /// must not pay the proof check again — and again at combine).  Defaults
  /// delegate to the checked versions; the real backend overrides them.
  virtual std::optional<Bytes> decryption_share_preverified(uint32_t index,
                                                            BytesView ct,
                                                            BytesView label,
                                                            crypto::Drbg& rng) {
    return decryption_share(index, ct, label, rng);
  }
  virtual std::optional<Bytes> combine_preverified(
      BytesView ct, BytesView label, const std::vector<Bytes>& shares) {
    return combine(ct, label, shares);
  }

  /// Lets the backend register its own instruments (cache hit rates etc.)
  /// next to the protocol's cp0.* metrics.  Default: none.
  virtual void bind_metrics(obs::MetricsRegistry& /*registry*/) {}

  // --- batched envelopes (DESIGN.md §10) -----------------------------------
  // A batched wire packs N payloads under ONE KEM header; every reveal-path
  // entry point above then runs once per BATCH instead of once per payload,
  // using the full reveal label below.  The defaults treat every wire as a
  // single-payload envelope, so backends without a batch format keep their
  // exact pre-batching behaviour.

  /// Number of payloads inside `ct` (1 for single/unrecognized wires).
  virtual uint32_t batch_count(BytesView /*ct*/) { return 1; }
  /// The label the reveal path must use: `prefix` (= RequestId::encode())
  /// for single wires, prefix || batch digest for batched wires.
  virtual Bytes reveal_label(BytesView /*ct*/, BytesView prefix) {
    return Bytes(prefix.begin(), prefix.end());
  }
  /// Client: encrypt `messages` under one amortized header bound to
  /// `prefix`.  A batch of one MUST be bit-identical to encrypt().  The
  /// default handles only that degenerate case (no batch wire format).
  virtual Bytes encrypt_batch(const std::vector<Bytes>& messages,
                              BytesView prefix, crypto::Drbg& rng) {
    return messages.size() == 1 ? encrypt(messages[0], prefix, rng) : Bytes{};
  }
  /// Combine >= threshold preverified shares and open EVERY payload (all or
  /// nothing); single wires return a one-element vector.  nullopt: the
  /// shares did not combine; empty: they did, but a payload does not open.
  /// `full_label` is the reveal_label() result; `prefix` the RequestId part
  /// of it.
  virtual std::optional<std::vector<Bytes>> combine_batch_preverified(
      BytesView ct, BytesView prefix, BytesView full_label,
      const std::vector<Bytes>& shares) {
    (void)prefix;
    auto one = combine_preverified(ct, full_label, shares);
    if (!one) return std::nullopt;
    std::vector<Bytes> out;
    out.push_back(std::move(*one));
    return out;
  }
};

/// The real thing: hybrid TDH2 (see threshenc/).
class RealTdh2Backend : public Cp0Backend {
 public:
  explicit RealTdh2Backend(threshenc::Tdh2PublicKey pk,
                           std::optional<threshenc::Tdh2KeyShare> my_key = std::nullopt)
      : pk_(std::move(pk)), my_key_(std::move(my_key)) {}

  Bytes encrypt(BytesView message, BytesView label, crypto::Drbg& rng) override;
  bool verify_ciphertext(BytesView ct, BytesView label) override;
  std::optional<Bytes> decryption_share(uint32_t index, BytesView ct,
                                        BytesView label,
                                        crypto::Drbg& rng) override;
  bool verify_share(BytesView ct, BytesView label, BytesView share) override;
  std::vector<uint8_t> batch_verify_shares(
      BytesView ct, BytesView label, const std::vector<Bytes>& shares,
      crypto::Drbg& rng, uint32_t* fallback_splits = nullptr) override;
  std::function<BatchVerifyResult()> make_batch_share_verifier(
      BytesView ct, BytesView label, std::vector<Bytes> shares,
      crypto::Drbg& rng) override;
  std::optional<Bytes> combine(BytesView ct, BytesView label,
                               const std::vector<Bytes>& shares) override;
  std::optional<Bytes> decryption_share_preverified(uint32_t index,
                                                    BytesView ct,
                                                    BytesView label,
                                                    crypto::Drbg& rng) override;
  std::optional<Bytes> combine_preverified(
      BytesView ct, BytesView label, const std::vector<Bytes>& shares) override;
  uint32_t threshold() const override { return pk_.threshold; }
  void bind_metrics(obs::MetricsRegistry& registry) override;
  uint32_t batch_count(BytesView ct) override;
  Bytes reveal_label(BytesView ct, BytesView prefix) override;
  Bytes encrypt_batch(const std::vector<Bytes>& messages, BytesView prefix,
                      crypto::Drbg& rng) override;
  std::optional<std::vector<Bytes>> combine_batch_preverified(
      BytesView ct, BytesView prefix, BytesView full_label,
      const std::vector<Bytes>& shares) override;

  /// Parsed-ciphertext LRU capacity.  CP0 parses the SAME wire ciphertext
  /// in verify_ciphertext, share_decrypt, every share verification, and
  /// combine; a handful of in-flight requests per replica makes a small
  /// cache effectively always hit after admission.
  static constexpr std::size_t kCtCacheEntries = 16;

 private:
  /// A parsed wire: exactly one of `single`/`batch` is set.  `kem()` is the
  /// TDH2 ciphertext every share-path operation works on.
  struct ParsedWire {
    std::optional<threshenc::HybridCiphertext> single;
    std::optional<threshenc::HybridBatchCiphertext> batch;
    const threshenc::Tdh2Ciphertext& kem() const {
      return batch ? batch->kem : single->kem;
    }
  };

  /// Digest-keyed LRU lookup of the parsed hybrid ciphertext (single or
  /// batched, discriminated by the wire magic); parses (and caches) on
  /// miss, returns nullptr for malformed wires (not cached).
  const ParsedWire* parsed_ct(BytesView ct);
  /// Shared tail of the preverified combines: shares -> KEM seed.
  std::optional<Bytes> combine_seed_preverified(const ParsedWire& parsed,
                                                const std::vector<Bytes>& shares);

  threshenc::Tdh2PublicKey pk_;
  std::optional<threshenc::Tdh2KeyShare> my_key_;

  struct CtCacheEntry {
    Bytes digest;  // sha256 of the wire
    ParsedWire parsed;
  };
  std::vector<CtCacheEntry> ct_cache_;  // front = most recently used
  obs::Counter* ct_cache_hits_ = nullptr;
  obs::Counter* ct_cache_misses_ = nullptr;
  obs::Gauge* lagrange_hits_ = nullptr;
  obs::Gauge* lagrange_misses_ = nullptr;
};

/// Calibrated-cost oracle: structurally faithful (labels checked, share
/// counting and distinctness enforced, corrupt shares rejected) but without
/// the modular exponentiations.  SIMULATION ONLY — the "ciphertext" is the
/// label-bound plaintext.  Used by throughput sweeps where executing
/// thousands of 1024-bit operations per point would make the benchmark
/// binary take hours; the per-op costs are still charged by the protocol
/// from the live-calibrated table.
class ModeledThresholdBackend : public Cp0Backend {
 public:
  ModeledThresholdBackend(uint32_t threshold, uint32_t servers)
      : threshold_(threshold), servers_(servers) {}

  Bytes encrypt(BytesView message, BytesView label, crypto::Drbg& rng) override;
  bool verify_ciphertext(BytesView ct, BytesView label) override;
  std::optional<Bytes> decryption_share(uint32_t index, BytesView ct,
                                        BytesView label,
                                        crypto::Drbg& rng) override;
  bool verify_share(BytesView ct, BytesView label, BytesView share) override;
  std::optional<Bytes> combine(BytesView ct, BytesView label,
                               const std::vector<Bytes>& shares) override;
  std::optional<Bytes> decryption_share_preverified(uint32_t index,
                                                    BytesView ct,
                                                    BytesView label,
                                                    crypto::Drbg& rng) override;
  std::optional<Bytes> combine_preverified(
      BytesView ct, BytesView label, const std::vector<Bytes>& shares) override;
  uint32_t threshold() const override { return threshold_; }
  uint32_t batch_count(BytesView ct) override;
  Bytes reveal_label(BytesView ct, BytesView prefix) override;
  Bytes encrypt_batch(const std::vector<Bytes>& messages, BytesView prefix,
                      crypto::Drbg& rng) override;
  std::optional<std::vector<Bytes>> combine_batch_preverified(
      BytesView ct, BytesView prefix, BytesView full_label,
      const std::vector<Bytes>& shares) override;

 private:
  uint32_t threshold_;
  uint32_t servers_;
};

// ---------------------------------------------------------------------------

/// CP0's reveal on the shared engine: its own share is its TDH2 decryption
/// share, x is the plain share wire, and shares accumulate until they can
/// reach the threshold, then go through one batch verification on the pool
/// and combine on this replica's executor.
class Cp0ReplicaApp : public RevealEngine {
 public:
  Cp0ReplicaApp(std::unique_ptr<Service> service,
                std::unique_ptr<Cp0Backend> backend)
      : RevealEngine(std::move(service), {"cp0", /*private_channels=*/false,
                                          /*client_deals=*/false}),
        backend_(std::move(backend)) {}

  bool validate_request(bft::NodeId client, const bft::ClientRequestMsg& msg,
                        bft::ReplicaContext& ctx) override;

  /// Cap on remembered validate_request verdicts awaiting delivery.
  static constexpr std::size_t kMaxValidatedCache = 1024;

 private:
  struct Tdh2State : SchemeState {
    Bytes ciphertext;
    Bytes label;  // full reveal label (id prefix || batch digest)
    std::map<bft::NodeId, Bytes> unverified;  // sender -> share wire
    std::vector<Bytes> valid;
    // Valid shares the next combine waits for: the threshold, raised past
    // the valid count each time a combine fails.
    std::size_t need = 0;
  };
  static Tdh2State& tdh2(Reveal& r) {
    return static_cast<Tdh2State&>(*r.scheme);
  }

  std::unique_ptr<SchemeState> admit(BytesView payload) override;
  void start(const RequestId& id, Reveal& r, bft::ReplicaContext& ctx) override;
  void resume(const RequestId& id, Reveal& r,
              bft::ReplicaContext& ctx) override;
  std::optional<Bytes> open_share(const RequestId& id, bft::NodeId from,
                                  Bytes x, std::size_t frame_size,
                                  bft::ReplicaContext& ctx) override;
  Bytes share_frame(const RequestId& id, bft::NodeId to, BytesView wire,
                    bft::ReplicaContext& ctx) override;
  std::optional<uint32_t> share_index(BytesView wire) const override;
  void take_share(const RequestId& id, Reveal& r, bft::NodeId from,
                  Bytes wire, bool fresh, bft::ReplicaContext& ctx) override;
  Bytes corrupt(BytesView wire) const override;
  void write_scheme(Writer& w, const Reveal& r) const override;
  std::unique_ptr<SchemeState> read_scheme(Reader& rd) override;
  void bind_scheme_metrics(obs::MetricsRegistry& registry) override;

  /// Flushes the accumulated shares into a batch verification once they can
  /// reach the threshold, and combines once enough are valid.
  void advance(const RequestId& id, Reveal& r, bft::ReplicaContext& ctx);

  std::unique_ptr<Cp0Backend> backend_;
  // RequestIds this replica verified at validate_request time (payload
  // digest), letting the reveal take the preverified path when PBFT
  // delivers the same bytes.  Bounded FIFO-ish: entries are erased at
  // delivery; overflow evicts arbitrarily (worst case: one extra verify).
  std::unordered_map<RequestId, Bytes> validated_;

  struct {
    obs::Counter* ct_verified = nullptr;
    obs::Counter* ct_rejected = nullptr;
    obs::Counter* shares_verified = nullptr;
    obs::Counter* shares_rejected = nullptr;
    obs::Counter* combines = nullptr;
    // Batches that needed the fallback (a bisection split or a rejected
    // share): a Byzantine share inside a batch always surfaces here.
    obs::Counter* batch_fallbacks = nullptr;
    obs::Histogram* batch_size = nullptr;  // shares per batch flush
    obs::Histogram* envelope_payloads = nullptr;  // payloads per envelope
    obs::Histogram* reveal_ns = nullptr;  // delivery -> plaintext recovered
    // Reveal-pipelining depth: delivered-but-unexecuted slots observed each
    // time a reveal completes (collection for slot s+1 overlapping s).
    obs::Histogram* inflight_slots = nullptr;
  } m_;
};

class Cp0ClientProtocol : public bft::ClientProtocol {
 public:
  explicit Cp0ClientProtocol(std::unique_ptr<Cp0Backend> backend)
      : backend_(std::move(backend)) {}

  /// Opt in to op-batch framing (bft/batch.h): a framed `op` is unpacked
  /// and its payloads ride one amortized envelope.  Off by default so an
  /// application payload can never be misread as a frame.
  void set_batching(bool on) { batching_ = on; }

  void start(uint64_t client_seq, BytesView op, bft::ClientContext& ctx) override;
  void on_reply(bft::NodeId replica, const bft::ReplyMsg& reply,
                bft::ClientContext& ctx) override;
  void on_retransmit(bft::ClientContext& ctx) override;

 private:
  std::unique_ptr<Cp0Backend> backend_;
  bool batching_ = false;
  uint64_t seq_ = 0;
  Bytes ciphertext_;
  bft::ReplyQuorum quorum_;
};

}  // namespace scab::causal
