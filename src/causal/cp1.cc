#include "causal/cp1.h"

#include <algorithm>

#include "crypto/sha256.h"

namespace scab::causal {

using bft::NodeId;
using host::Op;

namespace {

Bytes encode_schedule(BytesView commitment) {
  Writer w;
  w.u8(static_cast<uint8_t>(Cp1Phase::kSchedule));
  w.bytes(commitment);
  return std::move(w).take();
}

Bytes encode_reveal(const RequestId& id, BytesView message, BytesView opening) {
  Writer w;
  w.u8(static_cast<uint8_t>(Cp1Phase::kReveal));
  id.write(w);
  w.bytes(message);
  w.bytes(opening);
  return std::move(w).take();
}

struct RevealBody {
  RequestId id;
  Bytes message;
  Bytes opening;
};

std::optional<RevealBody> parse_reveal(BytesView payload) {
  Reader r(payload);
  if (r.u8() != static_cast<uint8_t>(Cp1Phase::kReveal)) return std::nullopt;
  RevealBody b;
  b.id = RequestId::read(r);
  b.message = r.bytes();
  b.opening = r.bytes();
  if (!r.done()) return std::nullopt;
  return b;
}

// Witness forwarded during amplification: the reveal request verbatim plus
// the client_seq it was submitted under.
Bytes encode_witness(uint64_t reveal_seq, BytesView reveal_payload) {
  Writer w;
  w.u64(reveal_seq);
  w.bytes(reveal_payload);
  return std::move(w).take();
}

}  // namespace

Bytes Cp1ReplicaApp::scheduled_marker() { return to_bytes("cp1:scheduled"); }
Bytes Cp1ReplicaApp::aborted_marker() { return to_bytes("cp1:aborted"); }

void Cp1ReplicaApp::bind_metrics(bft::ReplicaContext& ctx) {
  if (m_.scheduled != nullptr) return;
  obs::MetricsRegistry& reg = ctx.metrics();
  m_.scheduled = &reg.counter("cp1.scheduled");
  m_.opened = &reg.counter("cp1.opened");
  m_.cleaned = &reg.counter("cp1.cleaned");
  m_.openings_rejected = &reg.counter("cp1.openings_rejected");
  m_.amplifications = &reg.counter("cp1.amplifications");
  m_.tentative = &reg.gauge("cp1.tentative");
  m_.batch_size = &reg.histogram("cp1.batch_size");
  tracer_ = &ctx.tracer();
}

bool Cp1ReplicaApp::validate_request(NodeId client,
                                     const bft::ClientRequestMsg& msg,
                                     bft::ReplicaContext& ctx) {
  bind_metrics(ctx);
  if (msg.payload.empty()) return false;
  const auto phase = static_cast<Cp1Phase>(msg.payload[0]);
  switch (phase) {
    case Cp1Phase::kSchedule: {
      Reader r(msg.payload);
      r.u8();
      const Bytes c = r.bytes();
      return r.done() && !c.empty();
    }
    case Cp1Phase::kReveal: {
      auto body = parse_reveal(msg.payload);
      if (!body) return false;
      // The header must match the authenticated sender — this check is what
      // makes copying a commitment under a different identity useless.
      if (body->id.client != client) return false;
      if (aborted_.contains(body->id)) return false;
      auto tent = tentative_.find(body->id);
      if (tent != tentative_.end()) {
        ctx.charge(Op::kCommitOpen, body->message.size());
        if (!commitment_.open(body->id.encode(), tent->second.commitment,
                              body->message, body->opening)) {
          return false;
        }
        // Verified witness in hand: arm amplification in case the client
        // fails to reach the other replicas.
        arm_amplification(body->id, tent->second, msg.client_seq, msg.payload,
                          ctx);
      }
      return true;
    }
    case Cp1Phase::kCleanup:
      // Only replicas (the primary, via submit_local_request) originate
      // cleanups; reject them on the client-request path from clients.
      return client < ctx.config().n;
  }
  return false;
}

void Cp1ReplicaApp::on_deliver(uint64_t /*seq*/, const bft::Request& req,
                               bft::ReplicaContext& ctx) {
  bind_metrics(ctx);
  ++delivered_count_;
  if (req.payload.empty()) return;
  const auto phase = static_cast<Cp1Phase>(req.payload[0]);
  // A non-reveal delivery ends the current run of consecutive reveals:
  // execute the deferred run before processing it so service-visible
  // ordering matches delivery order exactly.
  if (phase != Cp1Phase::kReveal) flush_reveals(ctx);
  switch (phase) {
    case Cp1Phase::kSchedule:
      deliver_schedule(req, ctx);
      break;
    case Cp1Phase::kReveal:
      deliver_reveal(req, ctx);
      break;
    case Cp1Phase::kCleanup:
      deliver_cleanup(req, ctx);
      break;
  }
  maybe_propose_cleanup(ctx);
}

void Cp1ReplicaApp::on_batch_end(bft::ReplicaContext& ctx) {
  bind_metrics(ctx);
  flush_reveals(ctx);
}

void Cp1ReplicaApp::flush_reveals(bft::ReplicaContext& ctx) {
  if (reveal_flush_.empty()) return;
  m_.batch_size->record(reveal_flush_.size());
  for (const DeferredReveal& d : reveal_flush_) {
    ctx.charge(Op::kExecute, d.message.size());
    Bytes result = service_->execute(d.id.client, d.message);
    // The reply goes to whoever submitted the reveal request (normally the
    // original client; after amplification the client_seq still matches the
    // client's reveal round, so its quorum counts these replies).
    ctx.send_reply(d.id.client, d.reply_seq, std::move(result));
  }
  reveal_flush_.clear();
}

void Cp1ReplicaApp::deliver_schedule(const bft::Request& req,
                                     bft::ReplicaContext& ctx) {
  Reader r(req.payload);
  r.u8();
  Bytes c = r.bytes();
  if (!r.done()) return;

  const RequestId id{req.client, req.client_seq};
  if (aborted_.contains(id) || tentative_.contains(id)) {
    ctx.send_reply(req.client, req.client_seq, scheduled_marker());
    return;
  }
  Tentative t;
  t.commitment = std::move(c);
  t.scheduled_at_count = delivered_count_;
  tentative_.emplace(id, std::move(t));
  m_.scheduled->inc();
  m_.tentative->set(static_cast<int64_t>(tentative_.size()));
  ctx.send_reply(req.client, req.client_seq, scheduled_marker());
}

void Cp1ReplicaApp::deliver_reveal(const bft::Request& req,
                                   bft::ReplicaContext& ctx) {
  auto body = parse_reveal(req.payload);
  if (!body) return;
  if (aborted_.contains(body->id)) {
    ctx.send_reply(req.client, req.client_seq, aborted_marker());
    return;
  }
  auto tent = tentative_.find(body->id);
  if (tent == tentative_.end()) return;  // never scheduled, or opened: ignore

  ctx.charge(Op::kCommitOpen, body->message.size());
  if (!commitment_.open(body->id.encode(), tent->second.commitment,
                        body->message, body->opening)) {
    m_.openings_rejected->inc();  // forged opening: stays tentative
    return;
  }
  tentative_.erase(tent);
  m_.opened->inc();
  m_.tentative->set(static_cast<int64_t>(tentative_.size()));
  // The span key is the SCHEDULE round's (client, seq) — body->id — which
  // is what the client's submit/complete endpoints recorded under.
  tracer_->record(body->id.client, body->id.seq, obs::Phase::kRevealed,
                  ctx.now());
  reveal_flush_.push_back(
      DeferredReveal{body->id, req.client_seq, std::move(body->message)});
}

void Cp1ReplicaApp::deliver_cleanup(const bft::Request& req,
                                    bft::ReplicaContext& ctx) {
  if (req.client >= ctx.config().n) return;  // only replicas originate these
  Reader r(req.payload);
  r.u8();
  const uint32_t count = r.u32();
  if (!r.ok() || count > 100000) return;
  std::vector<RequestId> ids;
  ids.reserve(count);
  for (uint32_t i = 0; i < count; ++i) ids.push_back(RequestId::read(r));
  if (!r.done()) return;

  // The cycle rule: every cleaned request must be old enough.  A premature
  // cleanup is a fairness violation by the primary -> demote it.
  for (const auto& id : ids) {
    auto tent = tentative_.find(id);
    if (tent == tentative_.end()) continue;  // already opened: no-op
    if (delivered_count_ - tent->second.scheduled_at_count <
        options_.cleanup_cycle) {
      ctx.request_view_change("cp1: premature cleanup");
      return;
    }
  }
  for (const auto& id : ids) {
    auto tent = tentative_.find(id);
    if (tent == tentative_.end()) continue;
    tentative_.erase(tent);
    aborted_.insert(id);
    ++cleaned_count_;
    m_.cleaned->inc();
  }
  m_.tentative->set(static_cast<int64_t>(tentative_.size()));
}

void Cp1ReplicaApp::maybe_propose_cleanup(bft::ReplicaContext& ctx) {
  if (!ctx.is_primary()) return;
  // Every expired tentative request no CLEANUP of ours lists yet, in
  // schedule order (each delivery schedules at most one, so the counts are
  // distinct).
  std::vector<std::pair<uint64_t, RequestId>> expired;
  for (auto& [id, t] : tentative_) {
    if (t.cleanup_inflight ||
        delivered_count_ - t.scheduled_at_count < options_.cleanup_cycle) {
      continue;
    }
    t.cleanup_inflight = true;
    expired.emplace_back(t.scheduled_at_count, id);
  }
  if (expired.empty()) return;
  std::sort(expired.begin(), expired.end());
  Writer w;
  w.u8(static_cast<uint8_t>(Cp1Phase::kCleanup));
  w.u32(static_cast<uint32_t>(expired.size()));
  for (const auto& [scheduled_at, id] : expired) id.write(w);
  ctx.submit_local_request(std::move(w).take());
}

void Cp1ReplicaApp::arm_amplification(const RequestId& id, Tentative& t,
                                      uint64_t reveal_seq,
                                      const Bytes& reveal_payload,
                                      bft::ReplicaContext& ctx) {
  if (t.amplified) return;
  t.amplified = true;
  const Bytes witness = encode_witness(reveal_seq, reveal_payload);
  ctx.schedule(options_.amplify_delay, [this, id, witness, &ctx] {
    // Opened or aborted meanwhile: the request left tentative_ for good.
    if (!tentative_.contains(id)) return;
    // The reveal has not been ordered yet: forward the witness.  It needs
    // no client authentication — the opening is the proof.
    m_.amplifications->inc();
    ctx.broadcast_causal(witness);
  });
}

void Cp1ReplicaApp::on_causal_message(NodeId from, BytesView body,
                                      bft::ReplicaContext& ctx) {
  (void)from;
  bind_metrics(ctx);
  Reader r(body);
  const uint64_t reveal_seq = r.u64();
  const Bytes payload = r.bytes();
  if (!r.done()) return;
  auto reveal = parse_reveal(payload);
  if (!reveal) return;
  auto tent = tentative_.find(reveal->id);
  if (tent == tentative_.end()) return;
  ctx.charge(Op::kCommitOpen, reveal->message.size());
  if (!commitment_.open(reveal->id.encode(), tent->second.commitment,
                        reveal->message, reveal->opening)) {
    return;
  }
  // Adopt the witness as a pending request on behalf of the client; the
  // primary will batch it, backups will watch it.
  ctx.admit_foreign_request(reveal->id.client, reveal_seq, payload);
}

// ---------------------------------------------------------------------------
// Durability (DESIGN.md §13)

namespace {
constexpr uint32_t kCp1StateVersion = 3;
}  // namespace

Bytes Cp1ReplicaApp::serialize_state(bft::ReplicaContext& /*ctx*/) {
  Writer w;
  w.u32(kCp1StateVersion);
  w.bytes(service_->serialize());
  w.u32(static_cast<uint32_t>(tentative_.size()));
  for (const auto& [id, t] : tentative_) {  // std::map: deterministic order
    id.write(w);
    w.bytes(t.commitment);
    w.u64(t.scheduled_at_count);
  }
  std::vector<RequestId> aborted(aborted_.begin(), aborted_.end());
  std::sort(aborted.begin(), aborted.end());  // a deterministic blob
  w.u32(static_cast<uint32_t>(aborted.size()));
  for (const RequestId& id : aborted) id.write(w);
  w.u64(delivered_count_);
  w.u64(cleaned_count_);
  return std::move(w).take();
}

bool Cp1ReplicaApp::restore_state(BytesView blob, bft::ReplicaContext& ctx) {
  if (blob.empty()) return true;
  bind_metrics(ctx);
  Reader r(blob);
  if (r.u32() != kCp1StateVersion) return false;
  const Bytes service_blob = r.bytes();
  std::map<RequestId, Tentative> tentative;
  const uint32_t n_tent = r.u32();
  for (uint32_t i = 0; i < n_tent && r.ok(); ++i) {
    const RequestId id = RequestId::read(r);
    Tentative t;
    t.commitment = r.bytes();
    t.scheduled_at_count = r.u64();
    tentative.emplace(id, std::move(t));
  }
  std::unordered_set<RequestId> aborted;
  const uint32_t n_aborted = r.u32();
  for (uint32_t i = 0; i < n_aborted && r.ok(); ++i) {
    aborted.insert(RequestId::read(r));
  }
  const uint64_t delivered = r.u64();
  const uint64_t cleaned = r.u64();
  if (!r.ok() || !r.done()) return false;
  if (!service_->restore(service_blob)) return false;
  tentative_ = std::move(tentative);
  aborted_ = std::move(aborted);
  delivered_count_ = delivered;
  cleaned_count_ = cleaned;
  m_.tentative->set(static_cast<int64_t>(tentative_.size()));
  return true;
}

// ---------------------------------------------------------------------------
// Client

void Cp1ClientProtocol::start(uint64_t client_seq, BytesView op,
                              bft::ClientContext& ctx) {
  phase_ = Phase::kSchedule;
  schedule_seq_ = client_seq;
  id_ = RequestId{ctx.id(), client_seq};
  op_.assign(op.begin(), op.end());

  ctx.charge(Op::kCommit, op.size());
  const crypto::Committed c = commitment_.commit(id_.encode(), op_, ctx.rng());
  commitment_wire_ = c.commitment;
  opening_ = c.decommitment;
  schedule_payload_ = encode_schedule(commitment_wire_);

  quorum_.arm(schedule_seq_, ctx.config().f + 1);
  ctx.send_request(schedule_seq_, schedule_payload_);
}

void Cp1ClientProtocol::send_reveal(bft::ClientContext& ctx) {
  phase_ = Phase::kReveal;
  reveal_seq_ = ctx.next_seq();
  reveal_payload_ = encode_reveal(id_, op_, opening_);
  quorum_.arm(reveal_seq_, ctx.config().f + 1);
  if (reveal_fanout_ == 0) {
    ctx.send_request(reveal_seq_, reveal_payload_);
  } else {
    // Partial-failure scenario: the witness reaches only the LAST k
    // replicas (backups), so only amplification can get it ordered.
    const uint32_t n = ctx.config().n;
    for (uint32_t i = 0; i < reveal_fanout_ && i < n; ++i) {
      ctx.send_request_to(n - 1 - i, reveal_seq_, reveal_payload_);
    }
  }
}

void Cp1ClientProtocol::on_reply(NodeId replica, const bft::ReplyMsg& reply,
                                 bft::ClientContext& ctx) {
  switch (phase_) {
    case Phase::kIdle:
      break;
    case Phase::kSchedule:
      if (quorum_.add(replica, reply)) {
        if (crash_before_reveal_) {
          phase_ = Phase::kIdle;  // the client silently dies here (Fig. 7)
          return;
        }
        if (schedule_only_) {
          // Faulty continuous client: abandon the reveal, move on.
          phase_ = Phase::kIdle;
          ctx.complete(reply.result);
          return;
        }
        send_reveal(ctx);
      }
      break;
    case Phase::kReveal:
      if (quorum_.add(replica, reply)) {
        phase_ = Phase::kIdle;
        ctx.complete(reply.result);
      }
      break;
  }
}

void Cp1ClientProtocol::on_retransmit(bft::ClientContext& ctx) {
  switch (phase_) {
    case Phase::kIdle:
      break;
    case Phase::kSchedule:
      ctx.send_request(schedule_seq_, schedule_payload_);
      break;
    case Phase::kReveal:
      ctx.send_request(reveal_seq_, reveal_payload_);
      break;
  }
}

}  // namespace scab::causal
