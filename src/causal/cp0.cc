#include "causal/cp0.h"

#include <algorithm>
#include <set>

#include "bft/batch.h"
#include "crypto/sha256.h"

namespace scab::causal {

using bft::NodeId;
using host::Op;

// ---------------------------------------------------------------------------
// Cp0Backend

std::vector<uint8_t> Cp0Backend::batch_verify_shares(
    BytesView ct, BytesView label, const std::vector<Bytes>& shares,
    crypto::Drbg& /*rng*/, uint32_t* fallback_splits) {
  if (fallback_splits != nullptr) *fallback_splits = 0;
  std::vector<uint8_t> verdicts(shares.size(), 0);
  for (std::size_t i = 0; i < shares.size(); ++i) {
    verdicts[i] = verify_share(ct, label, shares[i]) ? 1 : 0;
  }
  return verdicts;
}

std::function<Cp0Backend::BatchVerifyResult()>
Cp0Backend::make_batch_share_verifier(BytesView ct, BytesView label,
                                      std::vector<Bytes> shares,
                                      crypto::Drbg& rng) {
  // The fork gives the job an independent deterministic stream: the
  // protocol thread's rng advances exactly one fork draw regardless of how
  // (or when) the job runs.
  return [this, ct = Bytes(ct.begin(), ct.end()),
          label = Bytes(label.begin(), label.end()),
          shares = std::move(shares),
          rng = rng.fork(to_bytes("cp0-batch-verify"))]() mutable {
    BatchVerifyResult out;
    out.verdicts = batch_verify_shares(ct, label, shares, rng,
                                       &out.fallback_splits);
    out.shares = std::move(shares);
    return out;
  };
}

// ---------------------------------------------------------------------------
// RealTdh2Backend

const RealTdh2Backend::ParsedWire* RealTdh2Backend::parsed_ct(BytesView ct) {
  const Bytes digest = crypto::sha256(ct);
  for (std::size_t i = 0; i < ct_cache_.size(); ++i) {
    if (ct_cache_[i].digest == digest) {
      if (i != 0) {
        std::rotate(ct_cache_.begin(), ct_cache_.begin() + i,
                    ct_cache_.begin() + i + 1);
      }
      if (ct_cache_hits_ != nullptr) ct_cache_hits_->inc();
      return &ct_cache_.front().parsed;
    }
  }
  if (ct_cache_misses_ != nullptr) ct_cache_misses_->inc();
  ParsedWire entry;
  if (threshenc::is_hybrid_batch_wire(ct)) {
    auto parsed = threshenc::HybridBatchCiphertext::parse(pk_.group, ct);
    if (!parsed) return nullptr;  // malformed wires are not worth caching
    entry.batch = std::move(*parsed);
  } else {
    auto parsed = threshenc::HybridCiphertext::parse(pk_.group, ct);
    if (!parsed) return nullptr;
    entry.single = std::move(*parsed);
  }
  if (ct_cache_.size() >= kCtCacheEntries) ct_cache_.pop_back();
  ct_cache_.insert(ct_cache_.begin(), CtCacheEntry{digest, std::move(entry)});
  return &ct_cache_.front().parsed;
}

void RealTdh2Backend::bind_metrics(obs::MetricsRegistry& registry) {
  ct_cache_hits_ = &registry.counter("cp0.ct_cache_hits");
  ct_cache_misses_ = &registry.counter("cp0.ct_cache_misses");
  lagrange_hits_ = &registry.gauge("cp0.lagrange_cache_hits");
  lagrange_misses_ = &registry.gauge("cp0.lagrange_cache_misses");
}

Bytes RealTdh2Backend::encrypt(BytesView message, BytesView label,
                               crypto::Drbg& rng) {
  return threshenc::hybrid_encrypt(pk_, message, label, rng).serialize(pk_.group);
}

bool RealTdh2Backend::verify_ciphertext(BytesView ct, BytesView label) {
  const ParsedWire* parsed = parsed_ct(ct);
  if (parsed == nullptr) return false;
  if (parsed->batch) {
    return threshenc::hybrid_batch_verify(pk_, *parsed->batch, label);
  }
  return threshenc::hybrid_verify(pk_, *parsed->single, label);
}

std::optional<Bytes> RealTdh2Backend::decryption_share(uint32_t index,
                                                       BytesView ct,
                                                       BytesView label,
                                                       crypto::Drbg& rng) {
  if (!my_key_ || my_key_->index != index) return std::nullopt;
  const ParsedWire* parsed = parsed_ct(ct);
  if (parsed == nullptr) return std::nullopt;
  auto share = threshenc::tdh2_share_decrypt(pk_, *my_key_, parsed->kem(), label, rng);
  if (!share) return std::nullopt;
  return share->serialize(pk_.group);
}

bool RealTdh2Backend::verify_share(BytesView ct, BytesView label,
                                   BytesView share) {
  const ParsedWire* parsed = parsed_ct(ct);
  auto parsed_share = threshenc::Tdh2DecryptionShare::parse(pk_.group, share);
  if (parsed == nullptr || !parsed_share) return false;
  return threshenc::tdh2_verify_share(pk_, parsed->kem(), label, *parsed_share);
}

namespace {
// Shares that fail to parse keep verdict 0; the rest go through one
// randomized batch equation (with bisection fallback inside).
std::vector<uint8_t> tdh2_batch_verdicts(const threshenc::Tdh2PublicKey& pk,
                                         const threshenc::Tdh2Ciphertext& kem,
                                         BytesView label,
                                         const std::vector<Bytes>& shares,
                                         crypto::Drbg& rng,
                                         uint32_t* fallback_splits) {
  std::vector<uint8_t> verdicts(shares.size(), 0);
  std::vector<threshenc::Tdh2DecryptionShare> batch;
  std::vector<std::size_t> positions;
  batch.reserve(shares.size());
  positions.reserve(shares.size());
  for (std::size_t i = 0; i < shares.size(); ++i) {
    auto ps = threshenc::Tdh2DecryptionShare::parse(pk.group, shares[i]);
    if (!ps) continue;
    batch.push_back(std::move(*ps));
    positions.push_back(i);
  }
  const threshenc::Tdh2BatchVerdict verdict =
      threshenc::tdh2_batch_verify_shares(pk, kem, label, batch, rng);
  for (std::size_t j = 0; j < positions.size(); ++j) {
    verdicts[positions[j]] = verdict.valid[j];
  }
  if (fallback_splits != nullptr) *fallback_splits = verdict.bisection_splits;
  return verdicts;
}
}  // namespace

std::vector<uint8_t> RealTdh2Backend::batch_verify_shares(
    BytesView ct, BytesView label, const std::vector<Bytes>& shares,
    crypto::Drbg& rng, uint32_t* fallback_splits) {
  if (fallback_splits != nullptr) *fallback_splits = 0;
  const ParsedWire* parsed = parsed_ct(ct);
  if (parsed == nullptr) return std::vector<uint8_t>(shares.size(), 0);
  return tdh2_batch_verdicts(pk_, parsed->kem(), label, shares, rng,
                             fallback_splits);
}

std::function<Cp0Backend::BatchVerifyResult()>
RealTdh2Backend::make_batch_share_verifier(BytesView ct, BytesView label,
                                           std::vector<Bytes> shares,
                                           crypto::Drbg& rng) {
  // Everything stateful happens HERE, on the protocol thread: the
  // parsed-ciphertext LRU lookup (not thread-safe) and the rng fork.  The
  // job closes over a copy of the public key — cheap: the vk fixed-base
  // tables ride a shared_ptr, and share verification never touches the
  // (combine-only) mutable Lagrange cache — plus the KEM ciphertext, so it
  // is free of references into this backend.
  const ParsedWire* parsed = parsed_ct(ct);
  std::optional<threshenc::Tdh2Ciphertext> kem;
  if (parsed != nullptr) kem = parsed->kem();
  return [pk = pk_, kem = std::move(kem),
          label = Bytes(label.begin(), label.end()),
          shares = std::move(shares),
          rng = rng.fork(to_bytes("cp0-batch-verify"))]() mutable {
    BatchVerifyResult out;
    out.verdicts.assign(shares.size(), 0);
    if (kem) {
      out.verdicts = tdh2_batch_verdicts(pk, *kem, label, shares, rng,
                                         &out.fallback_splits);
    }
    out.shares = std::move(shares);
    return out;
  };
}

std::optional<Bytes> RealTdh2Backend::combine(BytesView ct, BytesView label,
                                              const std::vector<Bytes>& shares) {
  const ParsedWire* parsed = parsed_ct(ct);
  if (parsed == nullptr || parsed->batch) return std::nullopt;
  std::vector<threshenc::Tdh2DecryptionShare> parsed_shares;
  for (const auto& s : shares) {
    auto ps = threshenc::Tdh2DecryptionShare::parse(pk_.group, s);
    if (ps) parsed_shares.push_back(std::move(*ps));
  }
  auto seed = threshenc::tdh2_combine(pk_, parsed->kem(), label, parsed_shares);
  if (!seed) return std::nullopt;
  return threshenc::hybrid_open(*parsed->single, label, *seed);
}

std::optional<Bytes> RealTdh2Backend::decryption_share_preverified(
    uint32_t index, BytesView ct, BytesView label, crypto::Drbg& rng) {
  (void)label;  // bound into the (already verified) ciphertext
  if (!my_key_ || my_key_->index != index) return std::nullopt;
  const ParsedWire* parsed = parsed_ct(ct);
  if (parsed == nullptr) return std::nullopt;
  return threshenc::tdh2_share_decrypt_preverified(pk_, *my_key_, parsed->kem(),
                                                   rng)
      .serialize(pk_.group);
}

std::optional<Bytes> RealTdh2Backend::combine_preverified(
    BytesView ct, BytesView label, const std::vector<Bytes>& shares) {
  const ParsedWire* parsed = parsed_ct(ct);
  if (parsed == nullptr || parsed->batch) return std::nullopt;
  auto seed = combine_seed_preverified(*parsed, shares);
  if (!seed) return std::nullopt;
  return threshenc::hybrid_open(*parsed->single, label, *seed);
}

std::optional<Bytes> RealTdh2Backend::combine_seed_preverified(
    const ParsedWire& parsed, const std::vector<Bytes>& shares) {
  std::vector<threshenc::Tdh2DecryptionShare> parsed_shares;
  for (const auto& s : shares) {
    auto ps = threshenc::Tdh2DecryptionShare::parse(pk_.group, s);
    if (ps) parsed_shares.push_back(std::move(*ps));
  }
  auto seed = threshenc::tdh2_combine_preverified(pk_, parsed.kem(), parsed_shares);
  if (!seed) return std::nullopt;
  if (pk_.lagrange_cache && lagrange_hits_ != nullptr) {
    lagrange_hits_->set(static_cast<int64_t>(pk_.lagrange_cache->hits));
    lagrange_misses_->set(static_cast<int64_t>(pk_.lagrange_cache->misses));
  }
  return seed;
}

uint32_t RealTdh2Backend::batch_count(BytesView ct) {
  if (!threshenc::is_hybrid_batch_wire(ct)) return 1;
  const ParsedWire* parsed = parsed_ct(ct);
  if (parsed == nullptr || !parsed->batch) return 1;
  return static_cast<uint32_t>(parsed->batch->boxes.size());
}

Bytes RealTdh2Backend::reveal_label(BytesView ct, BytesView prefix) {
  if (threshenc::is_hybrid_batch_wire(ct)) {
    if (const ParsedWire* parsed = parsed_ct(ct);
        parsed != nullptr && parsed->batch) {
      return threshenc::hybrid_batch_label(prefix, parsed->batch->boxes);
    }
  }
  return Bytes(prefix.begin(), prefix.end());
}

Bytes RealTdh2Backend::encrypt_batch(const std::vector<Bytes>& messages,
                                     BytesView prefix, crypto::Drbg& rng) {
  if (messages.size() == 1) return encrypt(messages[0], prefix, rng);
  return threshenc::hybrid_encrypt_batch(pk_, messages, prefix, rng)
      .serialize(pk_.group);
}

std::optional<std::vector<Bytes>> RealTdh2Backend::combine_batch_preverified(
    BytesView ct, BytesView prefix, BytesView full_label,
    const std::vector<Bytes>& shares) {
  const ParsedWire* parsed = parsed_ct(ct);
  if (parsed == nullptr) return std::nullopt;
  auto seed = combine_seed_preverified(*parsed, shares);
  if (!seed) return std::nullopt;
  // Verified shares combine to the one seed the KEM carries, so a box that
  // does not open now never will, at any replica: say so with no payloads.
  if (parsed->batch) {
    return threshenc::hybrid_batch_open(*parsed->batch, prefix, full_label,
                                        *seed)
        .value_or(std::vector<Bytes>{});
  }
  std::vector<Bytes> out;
  if (auto one = threshenc::hybrid_open(*parsed->single, full_label, *seed)) {
    out.push_back(std::move(*one));
  }
  return out;
}

// ---------------------------------------------------------------------------
// ModeledThresholdBackend (simulation-only ideal functionality)

namespace {
Bytes modeled_share_tag(BytesView label, uint32_t index) {
  uint8_t idx[4];
  for (int i = 0; i < 4; ++i) idx[i] = static_cast<uint8_t>(index >> (8 * i));
  Bytes tag = crypto::sha256_tuple(
      {to_bytes("cp0.modeled.share"), label, BytesView(idx, 4)});
  tag.resize(8);
  return tag;
}

// Modeled batch wire: magic | bytes(prefix) | u32 count | count x bytes(m).
// Mirrors the real batch format's shape (self-describing, label derived
// from the payload digest) without any group operations.
constexpr uint32_t kModeledBatchMagic = threshenc::kHybridBatchMagic;

bool is_modeled_batch(BytesView ct) {
  return threshenc::is_hybrid_batch_wire(ct);
}

// Parses a modeled batch wire; empty result on malformed input.
std::optional<std::pair<Bytes, std::vector<Bytes>>> parse_modeled_batch(
    BytesView ct) {
  Reader r(ct);
  if (r.u32() != kModeledBatchMagic) return std::nullopt;
  Bytes prefix = r.bytes();
  const uint32_t count = r.u32();
  if (!r.ok() || count < 2 || count > threshenc::kMaxHybridBatch) {
    return std::nullopt;
  }
  std::vector<Bytes> messages;
  messages.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    messages.push_back(r.bytes());
    if (!r.ok()) return std::nullopt;
  }
  if (!r.done()) return std::nullopt;
  return std::make_pair(std::move(prefix), std::move(messages));
}

Bytes modeled_batch_label(BytesView prefix, const std::vector<Bytes>& messages) {
  crypto::Sha256 h;
  for (const auto& m : messages) {
    uint8_t len[8];
    const uint64_t n = m.size();
    for (int i = 0; i < 8; ++i) len[i] = static_cast<uint8_t>(n >> (8 * i));
    h.update(BytesView(len, 8));
    h.update(m);
  }
  const auto digest = h.digest();
  return concat(prefix, BytesView(digest.data(), digest.size()));
}
}  // namespace

Bytes ModeledThresholdBackend::encrypt(BytesView message, BytesView label,
                                       crypto::Drbg& /*rng*/) {
  Writer w;
  w.bytes(label);
  w.bytes(message);
  return std::move(w).take();
}

bool ModeledThresholdBackend::verify_ciphertext(BytesView ct, BytesView label) {
  if (is_modeled_batch(ct)) {
    auto batch = parse_modeled_batch(ct);
    if (!batch) return false;
    const Bytes expect = modeled_batch_label(batch->first, batch->second);
    return expect.size() == label.size() &&
           std::equal(expect.begin(), expect.end(), label.begin());
  }
  Reader r(ct);
  const Bytes bound_label = r.bytes();
  r.bytes();
  return r.done() && BytesView(bound_label).size() == label.size() &&
         std::equal(bound_label.begin(), bound_label.end(), label.begin());
}

std::optional<Bytes> ModeledThresholdBackend::decryption_share(
    uint32_t index, BytesView ct, BytesView label, crypto::Drbg& /*rng*/) {
  if (!verify_ciphertext(ct, label)) return std::nullopt;
  Writer w;
  w.u32(index);
  w.raw(modeled_share_tag(label, index));
  return std::move(w).take();
}

bool ModeledThresholdBackend::verify_share(BytesView /*ct*/, BytesView label,
                                           BytesView share) {
  Reader r(share);
  const uint32_t index = r.u32();
  const Bytes tag = r.raw(8);
  // 1 <= index <= n: otherwise one sender can fabricate distinct "valid"
  // indices (n+1, n+2, ...) toward the combine threshold.
  if (!r.done() || index == 0 || index > servers_) return false;
  return ct_equal(tag, modeled_share_tag(label, index));
}

std::optional<Bytes> ModeledThresholdBackend::combine(
    BytesView ct, BytesView label, const std::vector<Bytes>& shares) {
  std::set<uint32_t> indices;
  for (const auto& s : shares) {
    if (!verify_share(ct, label, s)) continue;
    Reader r(s);
    indices.insert(r.u32());
  }
  if (indices.size() < threshold_) return std::nullopt;
  Reader r(ct);
  r.bytes();  // label
  Bytes message = r.bytes();
  if (!r.done()) return std::nullopt;
  return message;
}

std::optional<Bytes> ModeledThresholdBackend::decryption_share_preverified(
    uint32_t index, BytesView ct, BytesView label, crypto::Drbg& /*rng*/) {
  // The caller vouched for the ciphertext (CP0 charges the proof check once
  // at admission), so skip the label re-check the checked path pays.
  (void)ct;
  Writer w;
  w.u32(index);
  w.raw(modeled_share_tag(label, index));
  return std::move(w).take();
}

std::optional<Bytes> ModeledThresholdBackend::combine_preverified(
    BytesView ct, BytesView label, const std::vector<Bytes>& shares) {
  (void)label;
  // Shares arrive already verified (CP0's reveal flush runs them through
  // batch_verify_shares), so only structure and index distinctness matter
  // here — re-running the tag check per share would model a cost the real
  // preverified combine no longer pays.
  std::set<uint32_t> indices;
  for (const auto& s : shares) {
    Reader r(s);
    const uint32_t index = r.u32();
    (void)r.raw(8);  // tag: already checked by the batch flush
    if (!r.done() || index == 0 || index > servers_) continue;
    indices.insert(index);
  }
  if (indices.size() < threshold_) return std::nullopt;
  Reader r(ct);
  r.bytes();  // label
  Bytes message = r.bytes();
  if (!r.done()) return std::nullopt;
  return message;
}

uint32_t ModeledThresholdBackend::batch_count(BytesView ct) {
  if (!is_modeled_batch(ct)) return 1;
  auto batch = parse_modeled_batch(ct);
  return batch ? static_cast<uint32_t>(batch->second.size()) : 1;
}

Bytes ModeledThresholdBackend::reveal_label(BytesView ct, BytesView prefix) {
  if (is_modeled_batch(ct)) {
    if (auto batch = parse_modeled_batch(ct)) {
      return modeled_batch_label(batch->first, batch->second);
    }
  }
  return Bytes(prefix.begin(), prefix.end());
}

Bytes ModeledThresholdBackend::encrypt_batch(const std::vector<Bytes>& messages,
                                             BytesView prefix,
                                             crypto::Drbg& rng) {
  if (messages.size() == 1) return encrypt(messages[0], prefix, rng);
  Writer w;
  w.u32(kModeledBatchMagic);
  w.bytes(prefix);
  w.u32(static_cast<uint32_t>(messages.size()));
  for (const auto& m : messages) w.bytes(m);
  return std::move(w).take();
}

std::optional<std::vector<Bytes>>
ModeledThresholdBackend::combine_batch_preverified(
    BytesView ct, BytesView prefix, BytesView full_label,
    const std::vector<Bytes>& shares) {
  if (!is_modeled_batch(ct)) {
    auto one = combine_preverified(ct, full_label, shares);
    if (!one) return std::nullopt;
    std::vector<Bytes> out;
    out.push_back(std::move(*one));
    return out;
  }
  (void)prefix;
  // Structure/distinctness check mirrors combine_preverified.
  std::set<uint32_t> indices;
  for (const auto& s : shares) {
    Reader r(s);
    const uint32_t index = r.u32();
    (void)r.raw(8);
    if (!r.done() || index == 0 || index > servers_) continue;
    indices.insert(index);
  }
  if (indices.size() < threshold_) return std::nullopt;
  auto batch = parse_modeled_batch(ct);
  if (!batch) return std::nullopt;
  return std::move(batch->second);
}

// ---------------------------------------------------------------------------
// Cp0ReplicaApp

void Cp0ReplicaApp::bind_scheme_metrics(obs::MetricsRegistry& reg) {
  m_.ct_verified = &reg.counter("cp0.ct_verified");
  m_.ct_rejected = &reg.counter("cp0.ct_rejected");
  m_.shares_verified = &reg.counter("cp0.shares_verified");
  m_.shares_rejected = &reg.counter("cp0.shares_rejected");
  m_.combines = &reg.counter("cp0.combines");
  m_.batch_fallbacks = &reg.counter("cp0.batch_fallbacks");
  // Two distinct batch notions: `cp0.batch_size` is the causal-layer one
  // (payloads aggregated under one TDH2 envelope, matching cp1/cp2/cp3);
  // the share-verification flush size keeps its own histogram.
  m_.batch_size = &reg.histogram("cp0.verify_batch_size");
  m_.envelope_payloads = &reg.histogram("cp0.batch_size");
  m_.reveal_ns = &reg.histogram("cp0.reveal_ns");
  m_.inflight_slots = &reg.histogram("pipeline.inflight_slots");
  backend_->bind_metrics(reg);
}

bool Cp0ReplicaApp::validate_request(NodeId client,
                                     const bft::ClientRequestMsg& msg,
                                     bft::ReplicaContext& ctx) {
  bind(ctx);
  // "Each replica should verify that the label in the ciphertext indeed
  // contains the identity of the sender" — the label IS (client, seq), so
  // verifying the ciphertext against the label derived from the
  // authenticated sender enforces exactly that.
  const RequestId id{client, msg.client_seq};
  // Batched envelopes carry their payload digest in the label; deriving it
  // is one hash over the wire, charged on top of the single proof check.
  const Bytes label = backend_->reveal_label(msg.payload, id.encode());
  if (backend_->batch_count(msg.payload) > 1) {
    ctx.charge(Op::kHash, msg.payload.size());
  }
  ctx.charge(Op::kTdh2VerifyCt, msg.payload.size());
  if (!backend_->verify_ciphertext(msg.payload, label)) {
    m_.ct_rejected->inc();
    return false;
  }
  m_.ct_verified->inc();
  // Remember the verdict (keyed by payload digest) so the reveal step can
  // use the preverified backend paths when PBFT delivers the same bytes.
  if (validated_.size() >= kMaxValidatedCache) {
    validated_.erase(validated_.begin());
  }
  validated_[id] = crypto::sha256(msg.payload);
  return true;
}

std::unique_ptr<RevealEngine::SchemeState> Cp0ReplicaApp::admit(
    BytesView payload) {
  auto s = std::make_unique<Tdh2State>();
  s->ciphertext.assign(payload.begin(), payload.end());
  return s;
}

void Cp0ReplicaApp::start(const RequestId& id, Reveal& r,
                          bft::ReplicaContext& ctx) {
  Tdh2State& s = tdh2(r);
  const Bytes& ct = s.ciphertext;
  // Reveal step: produce and broadcast our decryption share — ONE per
  // envelope, however many payloads it packs (that is the amortization).
  // The proof check was already paid at validate_request time iff PBFT
  // delivered the exact bytes this replica validated; a backup that
  // admitted the request from a pre-prepare without validating it (or saw
  // different bytes) pays it now.
  s.label = backend_->reveal_label(ct, id.encode());
  r.count = backend_->batch_count(ct);
  m_.envelope_payloads->record(r.count);
  if (r.count > 1) ctx.charge(Op::kHash, ct.size());
  bool ciphertext_ok = false;
  if (auto vit = validated_.find(id); vit != validated_.end()) {
    ctx.charge(Op::kHash, ct.size());
    ciphertext_ok = vit->second == crypto::sha256(ct);
    validated_.erase(vit);
  }
  if (!ciphertext_ok) {
    ctx.charge(Op::kTdh2VerifyCt, ct.size());
    ciphertext_ok = backend_->verify_ciphertext(ct, s.label);
  }
  if (!ciphertext_ok) {
    // The check is public, so no correct replica sends a share for these
    // bytes: reveal that nothing executes instead of waiting for one.
    m_.ct_rejected->inc();
    reveal(id, r, {}, ctx);
    return;
  }
  // Share decryption only touches the KEM header, so a batched envelope
  // pays the single-envelope price (1 KB convention unit), not one
  // proportional to the packed payload bytes.
  ctx.charge(Op::kTdh2ShareDec, r.count > 1 ? 1024 : ct.size());
  auto share = backend_->decryption_share_preverified(ctx.id() + 1, ct,
                                                      s.label, ctx.rng());
  if (share) {
    r.own_share = std::move(*share);
    resume(id, r, ctx);
    send_share(id, r.own_share, std::nullopt, ctx);
  }
  advance(id, r, ctx);
}

void Cp0ReplicaApp::resume(const RequestId& /*id*/, Reveal& r,
                           bft::ReplicaContext& ctx) {
  // Our own share counts at once, unverified: it is honest even when this
  // replica serves corrupted shares to everyone else.
  if (r.own_share.empty()) return;
  r.senders.insert(ctx.id());
  tdh2(r).valid.push_back(r.own_share);
}

std::optional<Bytes> Cp0ReplicaApp::open_share(const RequestId& /*id*/,
                                               NodeId /*from*/, Bytes x,
                                               std::size_t /*frame_size*/,
                                               bft::ReplicaContext& /*ctx*/) {
  return x;
}

Bytes Cp0ReplicaApp::share_frame(const RequestId& id, NodeId /*to*/,
                                 BytesView wire, bft::ReplicaContext& /*ctx*/) {
  return share_message(id, wire);
}

std::optional<uint32_t> Cp0ReplicaApp::share_index(BytesView wire) const {
  // Both backends' share wires lead with the 1-based index.
  Reader rd(wire);
  const uint32_t index = rd.u32();
  if (!rd.ok()) return std::nullopt;
  return index;
}

void Cp0ReplicaApp::take_share(const RequestId& id, Reveal& r, NodeId from,
                               Bytes wire, bool fresh,
                               bft::ReplicaContext& ctx) {
  const auto index = share_index(wire);
  if (!index || !accepts(r, from, *index, ctx)) return;
  tdh2(r).unverified.emplace(from, std::move(wire));
  if (fresh) advance(id, r, ctx);
}

Bytes Cp0ReplicaApp::corrupt(BytesView wire) const {
  // Garbage behind an intact index: the share costs a verification, which
  // is what Table IV measures, instead of being dropped at intake.
  Bytes outgoing(wire.begin(), wire.end());
  for (std::size_t i = 7; i < outgoing.size(); i += 7) outgoing[i] ^= 0xa5;
  return outgoing;
}

void Cp0ReplicaApp::advance(const RequestId& id, Reveal& r,
                            bft::ReplicaContext& ctx) {
  if (r.revealed) return;
  Tdh2State& s = tdh2(r);
  const std::size_t need = std::max<std::size_t>(s.need, backend_->threshold());
  // Accumulate-then-flush: pending shares stay unverified until they can
  // possibly complete the threshold, then ALL of them go through one
  // randomized batch verification (amortized to one merged equation in the
  // real backend — DESIGN.md §4.3).  Waiting costs nothing: the combine
  // cannot proceed before the threshold is reachable anyway.  While a flush
  // is on the pool, new shares keep accumulating for the next one.
  if (!r.inflight && s.valid.size() < need && !s.unverified.empty() &&
      s.valid.size() + s.unverified.size() >= need) {
    std::vector<NodeId> senders;
    std::vector<Bytes> wires;
    senders.reserve(s.unverified.size());
    wires.reserve(s.unverified.size());
    for (auto& [sender, wire] : s.unverified) {
      senders.push_back(sender);
      wires.push_back(std::move(wire));
    }
    s.unverified.clear();
    // bytes = k·1024 by convention: per_byte prices the per-share cost.
    ctx.charge(Op::kTdh2BatchVerifyShare, wires.size() * 1024);
    auto job = backend_->make_batch_share_verifier(s.ciphertext, s.label,
                                                   std::move(wires), ctx.rng());
    offload(id, r, [this, &ctx, id, senders = std::move(senders),
                    job = std::move(job)]() mutable -> Landing {
      return [this, &ctx, id, senders = std::move(senders),
              result = job()](Reveal& r) mutable {
        if (r.revealed) return;
        Tdh2State& s = tdh2(r);
        bool any_rejected = false;
        for (std::size_t i = 0; i < result.shares.size(); ++i) {
          if (result.verdicts[i]) {
            s.valid.push_back(std::move(result.shares[i]));
            m_.shares_verified->inc();
          } else {
            r.senders.erase(senders[i]);  // a resend is verified again
            m_.shares_rejected->inc();
            any_rejected = true;
          }
        }
        m_.batch_size->record(result.shares.size());
        if (any_rejected || result.fallback_splits > 0) {
          m_.batch_fallbacks->inc();
        }
        // Combine if the threshold is met, or flush the shares that
        // accumulated while this batch was on the pool.
        advance(id, r, ctx);
      };
    }, ctx);
    return;
  }

  if (s.valid.size() < need) return;
  // The Lagrange combination only touches the KEM, so batches pay the
  // single-envelope combine price; opening the per-payload boxes is then
  // charged as plain AEAD work.
  ctx.charge(Op::kTdh2Combine, r.count > 1 ? 1024 : s.ciphertext.size());
  if (r.count > 1) ctx.charge(Op::kAeadOpen, s.ciphertext.size());
  // The ciphertext was verified before our own share was produced (see
  // start), so combination skips the redundant proof check.
  auto plaintexts = backend_->combine_batch_preverified(
      s.ciphertext, id.encode(), s.label, s.valid);
  if (!plaintexts) {
    // Both backends combine t shares with distinct indices; a verified set
    // can still fall short (a duplicated index), so wait for one more.
    s.need = s.valid.size() + 1;
    return;
  }
  m_.combines->inc();
  m_.reveal_ns->record(ctx.now() - r.delivered_at);
  // Pipelining depth: how many delivered slots are waiting behind this
  // reveal (their share collection ran concurrently with ours).
  m_.inflight_slots->record(exec_queue_size());
  reveal(id, r, std::move(*plaintexts), ctx);
}

void Cp0ReplicaApp::write_scheme(Writer& w, const Reveal& r) const {
  const auto& s = static_cast<const Tdh2State&>(*r.scheme);
  w.bytes(s.ciphertext);
  w.bytes(s.label);
}

std::unique_ptr<RevealEngine::SchemeState> Cp0ReplicaApp::read_scheme(
    Reader& rd) {
  auto s = std::make_unique<Tdh2State>();
  s->ciphertext = rd.bytes();
  s->label = rd.bytes();
  return s;
}

// ---------------------------------------------------------------------------
// Cp0ClientProtocol

void Cp0ClientProtocol::start(uint64_t client_seq, BytesView op,
                              bft::ClientContext& ctx) {
  seq_ = client_seq;
  const RequestId id{ctx.id(), client_seq};
  std::optional<std::vector<Bytes>> batch;
  if (batching_ && bft::is_op_batch(op)) batch = bft::decode_op_batch(op);
  if (batch && batch->size() > 1) {
    // One KEM header amortized over the whole batch: the threshold
    // encryption is paid once, each payload adds only an AEAD seal, and
    // the label digest one hash over the packed bytes.
    ctx.charge(Op::kTdh2Encrypt, 1024);
    std::size_t total = 0;
    for (const Bytes& m : *batch) {
      ctx.charge(Op::kAeadSeal, m.size());
      total += m.size();
    }
    ctx.charge(Op::kHash, total);
    ciphertext_ = backend_->encrypt_batch(*batch, id.encode(), ctx.rng());
  } else if (batch && batch->size() == 1) {
    // Degenerate frame: unwrap so the wire stays bit-identical to the
    // unbatched single-request path.
    ctx.charge(Op::kTdh2Encrypt, (*batch)[0].size());
    ciphertext_ = backend_->encrypt((*batch)[0], id.encode(), ctx.rng());
  } else {
    ctx.charge(Op::kTdh2Encrypt, op.size());
    ciphertext_ = backend_->encrypt(op, id.encode(), ctx.rng());
  }
  quorum_.arm(client_seq, ctx.config().f + 1);
  ctx.send_request(client_seq, ciphertext_);
}

void Cp0ClientProtocol::on_reply(NodeId replica, const bft::ReplyMsg& reply,
                                 bft::ClientContext& ctx) {
  if (quorum_.add(replica, reply)) ctx.complete(reply.result);
}

void Cp0ClientProtocol::on_retransmit(bft::ClientContext& ctx) {
  // Resend the SAME ciphertext: a fresh encryption would be a different
  // request to the replicas.
  ctx.send_request(seq_, ciphertext_);
}

}  // namespace scab::causal
