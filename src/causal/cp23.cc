#include "causal/cp23.h"

#include <algorithm>

#include "crypto/aead.h"

namespace scab::causal {

using bft::NodeId;
using secretshare::Arss1Share;
using host::Op;

namespace {

// A share for the private channel from -> to, sealed and bound to the ID.
Bytes seal_share(const bft::KeyRing& keys, NodeId from, NodeId to,
                 const RequestId& id, BytesView share_wire, crypto::Drbg& rng) {
  return share_message(id, crypto::aead_seal(keys.channel_key(from, to),
                                             id.encode(), share_wire, rng));
}

}  // namespace

// ---------------------------------------------------------------------------
// Replica

ArssReplicaApp::ArssReplicaApp(std::unique_ptr<Service> service,
                               const char* prefix,
                               std::optional<crypto::Commitment> commitment,
                               secretshare::Arss2Mode mode)
    : RevealEngine(std::move(service),
                   {prefix, /*private_channels=*/true, /*client_deals=*/true}),
      commitment_(std::move(commitment)),
      mode_(mode) {}

void ArssReplicaApp::bind_scheme_metrics(obs::MetricsRegistry& reg) {
  const std::string p = prefix();
  m_.reconstructions = &reg.counter(p + ".reconstructions");
  m_.recovery_attempts = &reg.counter(p + ".recovery_attempts");
  m_.batch_size = &reg.histogram(p + ".batch_size");
}

bool ArssReplicaApp::validate_request(NodeId /*client*/,
                                      const bft::ClientRequestMsg& msg,
                                      bft::ReplicaContext& /*ctx*/) {
  if (!arss1()) return msg.payload.empty();  // CP3 agrees on the ID alone
  Reader rd(msg.payload);
  const Bytes c = rd.bytes();
  return rd.done() && !c.empty();
}

std::unique_ptr<RevealEngine::SchemeState> ArssReplicaApp::admit(
    BytesView payload) {
  auto s = std::make_unique<ArssState>();
  if (arss1()) {
    Reader rd(payload);
    s->commitment = rd.bytes();
    if (!rd.done()) return nullptr;
  }
  return s;
}

std::optional<Arss1Share> ArssReplicaApp::parse_share(BytesView wire) const {
  if (arss1()) return Arss1Share::parse(wire);
  auto share = secretshare::ShamirShare::parse(wire);
  if (!share) return std::nullopt;
  return Arss1Share{{}, std::move(*share)};
}

std::optional<uint32_t> ArssReplicaApp::share_index(BytesView wire) const {
  auto share = parse_share(wire);
  if (!share) return std::nullopt;
  return share->inner.index;
}

std::optional<Bytes> ArssReplicaApp::open_share(const RequestId& id,
                                                NodeId from, Bytes x,
                                                std::size_t frame_size,
                                                bft::ReplicaContext& ctx) {
  ctx.charge(Op::kAeadOpen, frame_size);
  return crypto::aead_open(ctx.keys().channel_key(from, ctx.id()), id.encode(),
                           x);
}

Bytes ArssReplicaApp::share_frame(const RequestId& id, NodeId to,
                                  BytesView wire, bft::ReplicaContext& ctx) {
  ctx.charge(Op::kAeadSeal, wire.size());
  return seal_share(ctx.keys(), ctx.id(), to, id, wire, ctx.rng());
}

Bytes ArssReplicaApp::corrupt(BytesView wire) const {
  // Garbles the share values (value-dependent, the paper's "randomly
  // corrupt" model) while keeping the wire parseable.
  Bytes out(wire.begin(), wire.end());
  for (std::size_t i = out.size() / 2; i < out.size(); i += 3) out[i] ^= 0x5c;
  return out;
}

void ArssReplicaApp::take_share(const RequestId& id, Reveal& r, NodeId from,
                                Bytes wire, bool fresh,
                                bft::ReplicaContext& ctx) {
  auto share = parse_share(wire);
  if (!share || !accepts(r, from, share->inner.index, ctx)) return;
  if (from == id.client) {
    // The client's private distribution of OUR share.
    if (r.own_share.empty()) r.own_share = std::move(wire);
    return;
  }
  if (!fresh) {
    arss(r).buffered.push_back(std::move(*share));
    return;
  }
  m_.batch_size->record(1);  // post-delivery stragglers feed one at a time
  std::vector<Arss1Share> batch;
  batch.push_back(std::move(*share));
  feed(id, r, std::move(batch), ctx);
}

void ArssReplicaApp::start(const RequestId& id, Reveal& r,
                           bft::ReplicaContext& ctx) {
  ArssState& s = arss(r);
  std::optional<Arss1Share> own;
  if (!r.own_share.empty()) own = parse_share(r.own_share);
  if (arss1()) {
    s.arss1.emplace(*commitment_, ctx.config().f, s.commitment);
  } else {
    std::optional<secretshare::ShamirShare> own_inner;
    if (own) own_inner = std::move(own->inner);
    s.arss2.emplace(ctx.config().f, std::move(own_inner), mode_);
  }
  if (own) send_share(id, r.own_share, std::nullopt, ctx);

  // Feed what we have as one accumulated flush per delivery, whose size is
  // the reveal batching measure (cpN.batch_size): ARSS1 feeds our own share
  // first, ARSS2 counts it too (it entered via the reconstructor's
  // constructor); then everything adopted from the early-share stash.
  std::vector<Arss1Share> batch;
  batch.reserve(s.buffered.size() + 1);
  if (own && arss1()) batch.push_back(std::move(*own));
  for (auto& share : s.buffered) batch.push_back(std::move(share));
  s.buffered.clear();
  const std::size_t flush = batch.size() + (own && !arss1() ? 1 : 0);
  if (flush > 0) m_.batch_size->record(flush);
  feed(id, r, std::move(batch), ctx);
}

void ArssReplicaApp::feed(const RequestId& id, Reveal& r,
                          std::vector<Arss1Share> batch,
                          bft::ReplicaContext& ctx) {
  if (r.revealed) return;
  ArssState& s = arss(r);
  for (const Arss1Share& share : batch) {
    const std::size_t before = s.attempts();
    std::optional<Bytes> secret =
        s.arss1 ? s.arss1->add(share) : s.arss2->add(share.inner);
    const std::size_t attempts = s.attempts() - before;
    m_.recovery_attempts->inc(attempts);
    for (std::size_t i = 0; i < attempts; ++i) {
      ctx.charge(Op::kShamirRec, share.inner.secret_len);
      if (arss1()) ctx.charge(Op::kCommitOpen, share.inner.secret_len);
    }
    if (secret) {
      m_.reconstructions->inc();
      std::vector<Bytes> plaintexts;
      plaintexts.push_back(std::move(*secret));
      reveal(id, r, std::move(plaintexts), ctx);
      return;
    }
  }
}

void ArssReplicaApp::write_scheme(Writer& w, const Reveal& r) const {
  if (arss1()) w.bytes(static_cast<const ArssState&>(*r.scheme).commitment);
}

std::unique_ptr<RevealEngine::SchemeState> ArssReplicaApp::read_scheme(
    Reader& rd) {
  auto s = std::make_unique<ArssState>();
  if (arss1()) s->commitment = rd.bytes();
  return s;
}

// ---------------------------------------------------------------------------
// Client

void ArssClientProtocol::start(uint64_t client_seq, BytesView op,
                               bft::ClientContext& ctx) {
  seq_ = client_seq;
  id_ = RequestId{ctx.id(), client_seq};
  const auto& cfg = ctx.config();
  share_wires_.clear();
  share_wires_.reserve(cfg.n);
  schedule_payload_.clear();
  if (commitment_) {
    ctx.charge(Op::kCommit, op.size());
    ctx.charge(Op::kShamirShare, op.size());  // calibrated for the n-vector
    auto shares =
        secretshare::arss1_share(op, cfg.f + 1, cfg.n, *commitment_, ctx.rng());
    Writer w;
    w.bytes(shares[0].commitment);
    schedule_payload_ = std::move(w).take();
    for (const auto& s : shares) share_wires_.push_back(s.serialize());
  } else {
    ctx.charge(Op::kShamirShare, op.size());  // calibrated for the n-vector
    auto shares = secretshare::arss2_share(op, cfg.f, cfg.n, ctx.rng());
    for (const auto& s : shares) share_wires_.push_back(s.serialize());
  }
  quorum_.arm(client_seq, cfg.f + 1);
  send_all(ctx);
}

void ArssClientProtocol::send_all(bft::ClientContext& ctx) {
  for (NodeId r = 0; r < ctx.config().n; ++r) {
    ctx.charge(Op::kAeadSeal, share_wires_[r].size());
    ctx.send_causal(r, seal_share(ctx.keys(), ctx.id(), r, id_,
                                  share_wires_[r], ctx.rng()));
  }
  ctx.send_request(seq_, schedule_payload_);
}

void ArssClientProtocol::on_reply(NodeId replica, const bft::ReplyMsg& reply,
                                  bft::ClientContext& ctx) {
  if (quorum_.add(replica, reply)) ctx.complete(reply.result);
}

void ArssClientProtocol::on_retransmit(bft::ClientContext& ctx) {
  send_all(ctx);
}

}  // namespace scab::causal
