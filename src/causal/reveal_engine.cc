#include "causal/reveal_engine.h"

#include <algorithm>

#include "bft/batch.h"

namespace scab::causal {

using bft::NodeId;
using host::Op;

namespace {
constexpr uint32_t kStateVersion = 2;

// The payload count and the plaintexts, as the kApp record and each pending
// entry of the snapshot carry them.
void write_payloads(Writer& w, uint32_t count,
                    const std::vector<Bytes>& plaintexts) {
  w.u32(count);
  w.u32(static_cast<uint32_t>(plaintexts.size()));
  for (const Bytes& pt : plaintexts) w.bytes(pt);
}

void read_payloads(Reader& rd, uint32_t& count,
                   std::vector<Bytes>& plaintexts) {
  count = rd.u32();
  const uint32_t n = rd.u32();
  for (uint32_t i = 0; i < n && rd.ok(); ++i) plaintexts.push_back(rd.bytes());
}
}  // namespace

Bytes share_message(const RequestId& id, BytesView x) {
  Writer w;
  id.write(w);
  w.bytes(x);
  return std::move(w).take();
}

void RevealEngine::bind(bft::ReplicaContext& ctx) {
  if (m_.pending != nullptr) return;
  obs::MetricsRegistry& reg = ctx.metrics();
  const std::string p = options_.prefix;
  m_.reveal_retries = &reg.counter(p + ".reveal_retries");
  m_.share_rerequests_answered = &reg.counter(p + ".share_rerequests_answered");
  m_.early_stashed = &reg.counter(p + ".early_stashed");
  m_.late_shares_dropped = &reg.counter(p + ".late_shares_dropped");
  m_.pending = &reg.gauge(p + ".pending");
  m_.early_shares = &reg.gauge(p + ".early_shares");
  bind_scheme_metrics(reg);
  tracer_ = &ctx.tracer();
}

std::size_t RevealEngine::early_share_count() const {
  std::size_t count = 0;
  for (const auto& [sender, stash] : early_shares_) count += stash.size();
  return count;
}

void RevealEngine::on_deliver(uint64_t /*seq*/, const bft::Request& req,
                              bft::ReplicaContext& ctx) {
  bind(ctx);
  const RequestId id{req.client, req.client_seq};
  if (pending_.contains(id)) return;
  auto scheme = admit(req.payload);
  if (!scheme) return;
  Reveal& r = pending_[id];
  r.scheme = std::move(scheme);
  r.delivered_at = ctx.now();
  exec_queue_.push_back(id);
  m_.pending->set(static_cast<int64_t>(pending_.size()));

  // Adopt the shares that raced ahead of delivery.
  for (auto& [sender, stash] : early_shares_) {
    for (auto sit = stash.begin(); sit != stash.end();) {
      if (sit->first != id) {
        ++sit;
        continue;
      }
      take_share(id, r, sender, std::move(sit->second), /*fresh=*/false, ctx);
      sit = stash.erase(sit);
    }
  }
  m_.early_shares->set(static_cast<int64_t>(early_share_count()));
  start(id, r, ctx);
  arm_reveal_retry(id, 0, ctx);
}

void RevealEngine::on_causal_message(NodeId from, BytesView body,
                                     bft::ReplicaContext& ctx) {
  bind(ctx);
  Reader rd(body);
  const RequestId id = RequestId::read(rd);
  Bytes x = rd.bytes();
  if (!rd.done()) return;
  const bool replica = from < ctx.config().n;
  if (x.empty()) {
    // Re-request sentinel (see arm_reveal_retry): the sender lost our share
    // — most likely it restarted and is re-collecting for requests we have
    // long finished.  Only replicas re-collect.
    if (replica) answer_share_request(id, from, ctx);
    return;
  }
  // Shares come from replicas, plus the client's own dealing where the
  // scheme has one.
  if (!replica && !(options_.client_deals && from == id.client)) return;
  auto wire = open_share(id, from, std::move(x), body.size(), ctx);
  if (!wire) return;
  // Pending first: a Byzantine client collapsing its own window must not
  // make a delivered request drop its shares.
  if (auto it = pending_.find(id); it != pending_.end()) {
    take_share(id, it->second, from, std::move(*wire), /*fresh=*/true, ctx);
    return;
  }
  if (auto wit = executed_.find(id.client);
      wit != executed_.end() && wit->second.executed(id.seq)) {
    // Late share: the reveal already completed and executed.  Re-queueing
    // it would resurrect reveal state for a finished request without bound.
    m_.late_shares_dropped->inc();
    return;
  }
  // Not delivered yet.  A correct peer (or the client) can legitimately be
  // ahead of us, but a Byzantine sender can also name RequestIds forever —
  // so stash the share in a bounded per-sender FIFO instead of creating
  // reveal state keyed by an unauthenticated id.  Its index is checked when
  // the delivery adopts it: a forged one only costs the sender its quota.
  if (!share_index(*wire)) return;
  auto& stash = early_shares_[from];
  for (const auto& [stashed_id, unused] : stash) {
    if (stashed_id == id) return;
  }
  if (stash.size() >= kMaxEarlySharesPerSender) stash.pop_front();
  stash.emplace_back(id, std::move(*wire));
  m_.early_stashed->inc();
  m_.early_shares->set(static_cast<int64_t>(early_share_count()));
}

bool RevealEngine::accepts(Reveal& r, NodeId from, uint32_t index,
                           bft::ReplicaContext& ctx) {
  // Replica r may only claim its own index r + 1, and the client only the
  // index of the share it deals us (on_causal_message dropped every other
  // sender): a share naming another index would crowd the real one out of
  // the recovery.
  const NodeId owner = from < ctx.config().n ? from : ctx.id();
  return index == owner + 1 && r.senders.insert(from).second;
}

void RevealEngine::send_share(const RequestId& id, BytesView wire,
                              std::optional<NodeId> to,
                              bft::ReplicaContext& ctx) {
  Bytes garbled;
  if (corrupt_shares_) {
    garbled = corrupt(wire);
    wire = garbled;
  }
  if (to) {
    ctx.send_causal(*to, share_frame(id, *to, wire, ctx));
  } else if (!options_.private_channels) {
    ctx.broadcast_causal(share_frame(id, ctx.id(), wire, ctx));
  } else {
    for (NodeId peer = 0; peer < ctx.config().n; ++peer) {
      if (peer == ctx.id()) continue;
      ctx.send_causal(peer, share_frame(id, peer, wire, ctx));
    }
  }
}

void RevealEngine::offload(const RequestId& id, Reveal& r,
                           std::function<Landing()> job,
                           bft::ReplicaContext& ctx) {
  // Only the self-contained job runs on the pool thread; its landing runs
  // back on this replica's executor.  Under the inline pool (simulator,
  // threads = 0) it lands before offload() returns.
  r.inflight = true;
  ctx.offload([this, id, job = std::move(job)]() -> std::function<void()> {
    return [this, id, land = job()] {
      auto it = pending_.find(id);
      if (it == pending_.end()) return;
      it->second.inflight = false;
      land(it->second);
    };
  });
}

void RevealEngine::reveal(const RequestId& id, Reveal& r,
                          std::vector<Bytes> plaintexts,
                          bft::ReplicaContext& ctx) {
  r.revealed = true;
  r.plaintexts = std::move(plaintexts);
  tracer_->record(id.client, id.seq, obs::Phase::kRevealed, ctx.now());
  drain_execution(ctx);
}

void RevealEngine::arm_reveal_retry(const RequestId& id, uint32_t attempt,
                                    bft::ReplicaContext& ctx) {
  if (attempt >= kMaxRevealRetries) return;
  if (auto it = pending_.find(id);
      it == pending_.end() || it->second.revealed) {
    return;
  }
  ctx.schedule(kRevealRetryBase << std::min(attempt, 4u),
               [this, id, attempt, &ctx] {
                 auto it = pending_.find(id);
                 if (it == pending_.end() || it->second.revealed) return;
                 m_.reveal_retries->inc();
                 // Shares can have been lost to a partition or a peer
                 // restart: push ours again and ask for everyone else's.
                 if (!it->second.own_share.empty()) {
                   send_share(id, it->second.own_share, std::nullopt, ctx);
                 }
                 ctx.broadcast_causal(share_message(id, {}));
                 arm_reveal_retry(id, attempt + 1, ctx);
               });
}

void RevealEngine::answer_share_request(const RequestId& id, NodeId from,
                                        bft::ReplicaContext& ctx) {
  const Bytes* wire = nullptr;
  if (auto it = pending_.find(id);
      it != pending_.end() && !it->second.own_share.empty()) {
    wire = &it->second.own_share;
  } else if (auto cit = completed_shares_.find(id);
             cit != completed_shares_.end()) {
    wire = &cit->second;
  }
  if (wire == nullptr) return;  // never had a share for it (or evicted)
  m_.share_rerequests_answered->inc();
  send_share(id, *wire, from, ctx);
}

Bytes RevealEngine::execute(NodeId client, uint32_t count,
                            const std::vector<Bytes>& plaintexts,
                            bft::ReplicaContext& ctx) {
  if (plaintexts.empty()) return kUndecryptableReply;
  // The reply stays the raw result for a single payload (bit-identical to
  // the unbatched path) and frames the per-payload results otherwise.
  if (count <= 1 && plaintexts.size() == 1) {
    ctx.charge(Op::kExecute, plaintexts[0].size());
    return service_->execute(client, plaintexts[0]);
  }
  std::vector<Bytes> results;
  results.reserve(plaintexts.size());
  for (const Bytes& plaintext : plaintexts) {
    ctx.charge(Op::kExecute, plaintext.size());
    results.push_back(service_->execute(client, plaintext));
  }
  return bft::encode_op_batch(results);
}

void RevealEngine::retire(PendingMap::iterator it) {
  const RequestId id = it->first;
  executed_[id.client].mark(id.seq);
  if (!it->second.own_share.empty()) {
    if (completed_shares_.size() >= kMaxCompletedShareCache) {
      completed_shares_.erase(completed_shares_order_.front());
      completed_shares_order_.pop_front();
    }
    completed_shares_order_.push_back(id);
    completed_shares_.emplace(id, std::move(it->second.own_share));
  }
  pending_.erase(it);
}

void RevealEngine::drain_execution(bft::ReplicaContext& ctx) {
  while (!exec_queue_.empty()) {
    const RequestId id = exec_queue_.front();
    auto it = pending_.find(id);
    if (it == pending_.end()) {
      exec_queue_.pop_front();
      continue;
    }
    Reveal& r = it->second;
    if (!r.revealed) return;  // total order: block on the oldest reveal
    // Durable execution marker (DESIGN.md §13), logged before the service
    // runs.  Plaintext logging is safe here: secrecy only holds until the
    // reveal, and a correct quorum revealed this request already.
    {
      Writer w;
      id.write(w);
      write_payloads(w, r.count, r.plaintexts);
      ctx.wal_append(std::move(w).take());
    }
    Bytes result = execute(id.client, r.count, r.plaintexts, ctx);
    ctx.send_reply(id.client, id.seq, std::move(result));
    retire(it);
    exec_queue_.pop_front();
  }
  m_.pending->set(static_cast<int64_t>(pending_.size()));
}

// ---------------------------------------------------------------------------
// Durability (DESIGN.md §13)

Bytes RevealEngine::serialize_state(bft::ReplicaContext& /*ctx*/) {
  Writer w;
  w.u32(kStateVersion);
  w.bytes(service_->serialize());
  // Windows (by client) and pending reveals (by id) are sorted for a
  // deterministic blob.  Transient reveal state — taken shares, in-flight
  // pool jobs, early stashes — is deliberately dropped: the retry protocol
  // rebuilds all of it.
  w.u32(static_cast<uint32_t>(executed_.size()));
  for (const auto& [client, window] : executed_) {
    w.u32(client);
    window.serialize(w);
  }
  // The own-share cache keeps its FIFO order, so post-restore eviction
  // continues where it left off.
  w.u32(static_cast<uint32_t>(completed_shares_order_.size()));
  for (const RequestId& id : completed_shares_order_) {
    id.write(w);
    auto it = completed_shares_.find(id);
    w.bytes(it != completed_shares_.end() ? BytesView(it->second)
                                          : BytesView{});
  }
  w.u32(static_cast<uint32_t>(exec_queue_.size()));
  for (const RequestId& id : exec_queue_) id.write(w);
  std::vector<RequestId> pend;
  pend.reserve(pending_.size());
  for (const auto& [id, r] : pending_) pend.push_back(id);
  std::sort(pend.begin(), pend.end());
  w.u32(static_cast<uint32_t>(pend.size()));
  for (const RequestId& id : pend) {
    const Reveal& r = pending_.at(id);
    id.write(w);
    write_scheme(w, r);
    w.u8(r.revealed ? 1 : 0);
    write_payloads(w, r.count, r.plaintexts);
    w.bytes(r.own_share);
  }
  return std::move(w).take();
}

bool RevealEngine::restore_state(BytesView blob, bft::ReplicaContext& ctx) {
  if (blob.empty()) return true;
  bind(ctx);
  Reader rd(blob);
  if (rd.u32() != kStateVersion) return false;
  const Bytes service_blob = rd.bytes();
  std::map<NodeId, bft::ClientExecWindow> executed;
  const uint32_t n_windows = rd.u32();
  for (uint32_t i = 0; i < n_windows && rd.ok(); ++i) {
    const NodeId client = rd.u32();
    if (!executed[client].restore(rd)) return false;
  }
  std::unordered_map<RequestId, Bytes> completed_shares;
  std::deque<RequestId> completed_order;
  const uint32_t n_shares = rd.u32();
  for (uint32_t i = 0; i < n_shares && rd.ok(); ++i) {
    const RequestId id = RequestId::read(rd);
    completed_order.push_back(id);
    completed_shares.emplace(id, rd.bytes());
  }
  std::deque<RequestId> exec_queue;
  const uint32_t n_queue = rd.u32();
  for (uint32_t i = 0; i < n_queue && rd.ok(); ++i) {
    exec_queue.push_back(RequestId::read(rd));
  }
  PendingMap pending;
  const uint32_t n_pending = rd.u32();
  for (uint32_t i = 0; i < n_pending && rd.ok(); ++i) {
    const RequestId id = RequestId::read(rd);
    Reveal r;
    r.scheme = read_scheme(rd);
    r.revealed = rd.u8() != 0;
    read_payloads(rd, r.count, r.plaintexts);
    r.own_share = rd.bytes();
    if (!r.scheme || (!r.own_share.empty() && !share_index(r.own_share))) {
      return false;
    }
    r.delivered_at = ctx.now();
    pending.emplace(id, std::move(r));
  }
  if (!rd.ok() || !rd.done()) return false;
  if (!service_->restore(service_blob)) return false;
  executed_ = std::move(executed);
  completed_shares_ = std::move(completed_shares);
  completed_shares_order_ = std::move(completed_order);
  exec_queue_ = std::move(exec_queue);
  pending_ = std::move(pending);
  // Restart the reveal machinery for everything in flight; the retry timer
  // re-requests the peers' shares once the node is live.
  for (auto& [id, r] : pending_) {
    if (r.revealed) continue;
    resume(id, r, ctx);
    arm_reveal_retry(id, 0, ctx);
  }
  m_.pending->set(static_cast<int64_t>(pending_.size()));
  return true;
}

void RevealEngine::on_wal_record(BytesView record, bft::ReplicaContext& ctx) {
  bind(ctx);
  Reader rd(record);
  const RequestId id = RequestId::read(rd);
  uint32_t count = 0;
  std::vector<Bytes> plaintexts;
  read_payloads(rd, count, plaintexts);
  if (!rd.ok() || !rd.done()) return;
  // Only a delivered request executes: a record from a pre-snapshot tail
  // (a torn snapshot/truncate window) names one the snapshot already
  // retired, and one whose delivery the replay skipped must not run out of
  // order.
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  // The reply goes nowhere while the node is shielded during replay; a
  // client still waiting will retransmit and hit the reply cache.
  Bytes result = execute(id.client, count, plaintexts, ctx);
  ctx.send_reply(id.client, id.seq, std::move(result));
  retire(it);
  std::erase(exec_queue_, id);
  m_.pending->set(static_cast<int64_t>(pending_.size()));
}

}  // namespace scab::causal
