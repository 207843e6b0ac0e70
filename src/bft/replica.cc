#include "bft/replica.h"

#include <algorithm>
#include <array>
#include <string>

#include "crypto/sha256.h"

namespace scab::bft {

using host::Op;

namespace {

// Durable blobs (DESIGN.md §13).  Each ends in a SHA-256 of everything
// before it, so a truncated or corrupted blob is rejected before any of
// its fields is read (or allocated for).
constexpr uint32_t kSnapshotMagic = 0x53434232;  // "SCB2": segment index
constexpr uint32_t kSegmentMagic = 0x53434831;   // "SCH1"
// Written before history segments: no checksum, the batch history inline.
// Still read, so a data directory from then resumes where it stopped.
constexpr uint32_t kLegacySnapshotMagic = 0x53434231;  // "SCB1"

std::array<uint8_t, crypto::kSha256DigestSize> digest_of(BytesView body) {
  crypto::Sha256 h;
  h.update(body);
  return h.digest();
}

Bytes seal(Writer w) {
  Bytes blob = std::move(w).take();
  const auto d = digest_of(blob);
  blob.insert(blob.end(), d.begin(), d.end());
  return blob;
}

std::optional<BytesView> unseal(BytesView blob) {
  if (blob.size() < crypto::kSha256DigestSize) return std::nullopt;
  const BytesView body = blob.first(blob.size() - crypto::kSha256DigestSize);
  const auto d = digest_of(body);
  if (!std::equal(d.begin(), d.end(), blob.begin() + body.size())) {
    return std::nullopt;
  }
  return body;
}

std::string segment_key(uint64_t first) {
  return "hist-" + std::to_string(first);
}

}  // namespace

Replica::Replica(host::Host& host, NodeId id, BftConfig config,
                 const KeyRing& keys, const host::CostModel& costs,
                 ReplicaApp* app, crypto::Drbg rng,
                 obs::MetricsRegistry* metrics, obs::Tracer* tracer)
    : HostBound(host, id, costs),
      config_(config),
      keys_(keys),
      app_(app),
      rng_(std::move(rng)),
      exec_chain_digest_(32, 0),
      metrics_(metrics ? *metrics : obs::MetricsRegistry::inert()),
      tracer_(tracer ? *tracer : obs::Tracer::inert()) {
  m_.batches_proposed = &metrics_.counter("bft.batches_proposed");
  m_.pre_prepares_accepted = &metrics_.counter("bft.pre_prepares_accepted");
  m_.requests_executed = &metrics_.counter("bft.requests_executed");
  m_.checkpoints_emitted = &metrics_.counter("bft.checkpoints_emitted");
  m_.view_changes_started = &metrics_.counter("bft.view_changes_started");
  m_.view_changes_completed = &metrics_.counter("bft.view_changes_completed");
  m_.replays_suppressed = &metrics_.counter("bft.replays_suppressed");
  m_.catchups_completed = &metrics_.counter("bft.recovery.catchups_completed");
  m_.wal_replayed = &metrics_.counter("bft.recovery.wal_replayed");
  m_.snapshot_loaded = &metrics_.counter("bft.recovery.snapshot_loaded");
  m_.snapshot_rejected = &metrics_.counter("bft.recovery.snapshot_rejected");
  m_.snapshots_written = &metrics_.counter("bft.recovery.snapshots_written");
  m_.wal_append_bytes = &metrics_.histogram("storage.wal_append_bytes");
  m_.catchup_ms = &metrics_.histogram("bft.recovery.catchup_ms");
  m_.batch_size = &metrics_.histogram("bft.batch_size");
  m_.inflight_batches = &metrics_.histogram("bft.inflight_batches");
  m_.pending_requests = &metrics_.gauge("bft.pending_requests");
  m_.checkpoint_votes_tracked = &metrics_.gauge("bft.checkpoint_votes_tracked");
  m_.view_change_votes_tracked = &metrics_.gauge("bft.view_change_votes_tracked");
  m_.slots_tracked = &metrics_.gauge("bft.slots_tracked");
  m_.checkpoint_lag = &metrics_.gauge("bft.checkpoint_lag");

  storage_ = host.storage(id);
  if (storage_ != nullptr) storage_->bind_metrics(&metrics_);
  bind();
}

void Replica::update_state_gauges() {
  m_.pending_requests->set(static_cast<int64_t>(pending_requests_.size()));
  m_.slots_tracked->set(static_cast<int64_t>(slots_.size()));
  std::size_t cp_votes = 0;
  for (const auto& [_, votes] : checkpoint_votes_) cp_votes += votes.size();
  m_.checkpoint_votes_tracked->set(static_cast<int64_t>(cp_votes));
  std::size_t vc_votes = 0;
  for (const auto& [_, votes] : view_change_votes_) vc_votes += votes.size();
  m_.view_change_votes_tracked->set(static_cast<int64_t>(vc_votes));
  // How far execution trails the last stable checkpoint's window.
  m_.checkpoint_lag->set(static_cast<int64_t>(next_exec_ - 1) -
                         static_cast<int64_t>(low_watermark_));
}

void Replica::start() {
  if (started_) return;
  started_ = true;
  schedule(config_.watchdog_period, [this] { watchdog_tick(); });
}

// ---------------------------------------------------------------------------
// Durability (DESIGN.md §13)

void Replica::wal_append_record(BytesView rec) {
  storage_->append(rec);
  m_.wal_append_bytes->record(rec.size());
}

void Replica::wal_append(BytesView record) {
  // App-level record (causal execution).  Inside execute_batch the sync is
  // deferred to the batch-end group commit; outside (a reveal completing on
  // share arrival) it is the record's own commit point.
  if (storage_ == nullptr || replaying_) return;
  Bytes rec;
  rec.reserve(1 + record.size());
  rec.push_back(static_cast<uint8_t>(WalTag::kApp));
  scab::append(rec, record);
  wal_append_record(rec);
  if (in_execute_batch_) {
    app_wal_dirty_ = true;
  } else {
    storage_->sync();
  }
}

void Replica::recover() {
  if (storage_ == nullptr) return;
  replaying_ = true;
  if (auto blob = storage_->get("snapshot")) {
    if (restore_snapshot(*blob)) {
      m_.snapshot_loaded->inc();
    } else {
      m_.snapshot_rejected->inc();
    }
  }
  const std::size_t replayed =
      storage_->replay([this](BytesView rec) { apply_wal_record(rec); });
  if (replayed > 0) m_.wal_replayed->inc(replayed);
  replaying_ = false;
  // Replayed acceptance records may already hold a commit quorum recorded
  // before the crash (our own vote); anything still short completes through
  // live traffic or the kFetch catch-up once peers answer.
  try_execute();
}

void Replica::apply_wal_record(BytesView rec) {
  Reader r(rec);
  const auto tag = static_cast<WalTag>(r.u8());
  if (!r.ok()) return;
  switch (tag) {
    case WalTag::kExec: {
      const uint64_t seq = r.u64();
      const Bytes wire = r.bytes();
      if (!r.ok() || !r.done()) return;
      if (seq < next_exec_) return;  // subsumed by the snapshot
      if (seq != next_exec_) return;  // gap — cannot safely skip ahead
      auto pp = PrePrepare::parse(wire);
      if (!pp) return;
      Slot& s = slot(seq);
      s.digest = pp->batch_digest();
      s.view = pp->view;
      s.pre_prepare = std::move(*pp);
      s.executed = true;
      execute_batch(seq, *s.pre_prepare);
      next_seq_ = std::max(next_seq_, seq + 1);
      break;
    }
    case WalTag::kAccept: {
      const Bytes wire = r.bytes();
      if (!r.ok() || !r.done()) return;
      auto pp = PrePrepare::parse(wire);
      if (!pp || pp->seq < next_exec_) return;
      // Restore the slot exactly as accept_pre_prepare left it, minus the
      // broadcasts: we already voted PREPARE before the crash, so the vote
      // stands (re-sending it is what peers' retransmission paths cover).
      Slot& s = slot(pp->seq);
      s.digest = pp->batch_digest();
      s.view = pp->view;
      s.pre_prepare = std::move(*pp);
      s.prepares[id()] = {s.view, s.digest};
      s.sent_prepare = true;
      next_seq_ = std::max(next_seq_, s.pre_prepare->seq + 1);
      break;
    }
    case WalTag::kVote: {
      const uint64_t seq = r.u64();
      const uint64_t view = r.u64();
      const Bytes digest = r.bytes();
      if (!r.ok() || !r.done() || seq < next_exec_) return;
      auto it = slots_.find(seq);
      if (it == slots_.end()) return;
      Slot& s = it->second;
      if (!s.pre_prepare || s.view != view || s.digest != digest) return;
      s.commits[id()] = {view, digest};
      s.sent_commit = true;
      break;
    }
    case WalTag::kView: {
      const uint64_t v = r.u64();
      if (!r.ok() || !r.done()) return;
      view_ = std::max(view_, v);
      break;
    }
    case WalTag::kApp: {
      const Bytes payload = r.raw(r.remaining());
      if (r.ok()) app_->on_wal_record(payload, *this);
      break;
    }
  }
}

Bytes Replica::serialize_snapshot() {
  Writer w;
  w.u32(kSnapshotMagic);
  w.u64(view_);
  w.u64(next_seq_);
  w.u64(next_exec_);
  w.u64(low_watermark_);
  w.u64(local_seq_);
  w.u64(executed_requests_.load());
  w.bytes(exec_chain_digest_);

  // Per-client execution windows + reply caches, in sorted client order so
  // the blob is independent of hash-map iteration order.
  std::vector<NodeId> clients;
  clients.reserve(executed_window_.size());
  for (const auto& [c, _] : executed_window_) clients.push_back(c);
  std::sort(clients.begin(), clients.end());
  w.u32(static_cast<uint32_t>(clients.size()));
  for (NodeId c : clients) {
    w.u32(c);
    executed_window_.at(c).serialize(w);
  }
  clients.clear();
  for (const auto& [c, _] : reply_cache_) clients.push_back(c);
  std::sort(clients.begin(), clients.end());
  w.u32(static_cast<uint32_t>(clients.size()));
  for (NodeId c : clients) {
    w.u32(c);
    reply_cache_.at(c).serialize(w);
  }

  // The segment index (the batch bodies stay in their segment blobs) and
  // the retired segments whose erase this snapshot makes durable.
  w.u32(static_cast<uint32_t>(segments_.size()));
  for (const auto& [first, last] : segments_) {
    w.u64(first);
    w.u64(last);
  }
  w.u32(static_cast<uint32_t>(retired_.size()));
  for (uint64_t first : retired_) w.u64(first);

  w.bytes(app_->serialize_state(*this));
  return seal(std::move(w));
}

bool Replica::restore_snapshot(BytesView blob) {
  Reader magic(blob);
  const bool legacy = magic.u32() == kLegacySnapshotMagic && magic.ok();
  const auto body = legacy ? std::optional<BytesView>(blob) : unseal(blob);
  if (!body) return false;
  Reader r(*body);
  if (r.u32() != (legacy ? kLegacySnapshotMagic : kSnapshotMagic) || !r.ok()) {
    return false;
  }
  const uint64_t view = r.u64();
  const uint64_t next_seq = r.u64();
  uint64_t next_exec = r.u64();
  const uint64_t low_watermark = r.u64();
  const uint64_t local_seq = r.u64();
  const uint64_t executed = r.u64();
  Bytes chain = r.bytes();
  if (!r.ok() || chain.size() != 32) return false;

  std::unordered_map<NodeId, ClientExecWindow> windows;
  const uint32_t n_windows = r.u32();
  for (uint32_t i = 0; i < n_windows && r.ok(); ++i) {
    const NodeId c = r.u32();
    if (!windows[c].restore(r)) return false;
  }
  std::unordered_map<NodeId, ClientReplyCache> replies;
  const uint32_t n_replies = r.u32();
  for (uint32_t i = 0; i < n_replies && r.ok(); ++i) {
    const NodeId c = r.u32();
    if (!replies[c].restore(r)) return false;
  }
  std::map<uint64_t, Bytes> history;
  if (legacy) {
    const uint32_t n_history = r.u32();
    for (uint32_t i = 0; i < n_history && r.ok(); ++i) {
      const uint64_t seq = r.u64();
      // Contiguous, as executed (the tail is sealed as one segment).
      if (!history.empty() && seq != history.rbegin()->first + 1) return false;
      history.emplace_hint(history.end(), seq, r.bytes());
    }
    // A legacy snapshot taken inside execute_batch recorded the checkpoint
    // seq itself as next_exec; its history (and state) already hold it.
    if (!history.empty()) {
      next_exec = std::max(next_exec, history.rbegin()->first + 1);
      if (history.rbegin()->first + 1 != next_exec) return false;
    }
  }
  std::map<uint64_t, uint64_t> segments;
  const uint32_t n_segments = legacy ? 0 : r.u32();
  for (uint32_t i = 0; i < n_segments && r.ok(); ++i) {
    const uint64_t first = r.u64();
    const uint64_t last = r.u64();
    // Ascending, disjoint, and all executed before the snapshot point.
    if (first > last || last >= next_exec ||
        (!segments.empty() && first <= segments.rbegin()->second)) {
      return false;
    }
    segments.emplace_hint(segments.end(), first, last);
  }
  std::vector<uint64_t> retired;
  const uint32_t n_retired = legacy ? 0 : r.u32();
  for (uint32_t i = 0; i < n_retired && r.ok(); ++i) retired.push_back(r.u64());
  const Bytes app_blob = r.bytes();
  if (!r.ok() || !r.done()) return false;
  // The app goes first, so a blob it cannot read (damaged, or an older
  // format) rejects the whole snapshot before any field below is set: the
  // replica then starts empty and rejoins through catch-up, instead of
  // resuming at next_exec with an empty service.
  if (!app_->restore_state(app_blob, *this)) return false;

  view_ = view;
  next_seq_ = next_seq;
  next_exec_ = next_exec;
  low_watermark_ = low_watermark;
  local_seq_ = local_seq;
  executed_requests_.store(executed);
  m_.requests_executed->inc(executed);  // fresh registry: counter catches up
  exec_chain_digest_ = std::move(chain);
  executed_window_ = std::move(windows);
  reply_cache_ = std::move(replies);
  // Only the index: the tail after the snapshot point comes back through
  // kExec replay.  A legacy snapshot's inline history becomes the front of
  // that tail, so the next snapshot seals it into the first segment.
  segments_ = std::move(segments);
  retired_ = std::move(retired);
  history_ = std::move(history);
  return true;
}

std::optional<std::vector<Bytes>> Replica::parse_segment(BytesView blob,
                                                         uint64_t first) {
  const auto body = unseal(blob);
  if (!body) return std::nullopt;
  Reader r(*body);
  if (r.u32() != kSegmentMagic || r.u64() != first) return std::nullopt;
  const uint32_t count = r.u32();
  if (!r.ok() || count > r.remaining() / 4) return std::nullopt;
  std::vector<Bytes> batches;
  for (uint32_t i = 0; i < count && r.ok(); ++i) batches.push_back(r.bytes());
  if (!r.done()) return std::nullopt;
  return batches;
}

void Replica::write_snapshot() {
  // Called at each stable checkpoint (garbage_collect).  Every step is
  // safe to crash after (DESIGN.md §13):
  //  1. Seal the tail executed since the last snapshot point into a
  //     write-once segment.  On a crash here the old snapshot stays in
  //     charge; its WAL replay rebuilds the same tail, and the next
  //     snapshot rewrites this key.
  //  2. Put the snapshot: the live segment index plus the segments retired
  //     below.  put() installs atomically; replay skips every record the
  //     new snapshot subsumes (seq < next_exec_).
  //  3. Erase the retired segments.  On a crash before this the snapshot
  //     still lists them, so the next snapshot erases them.
  //  4. Truncate the WAL and re-log the live tail.
  if (!history_.empty()) {
    const uint64_t first = history_.begin()->first;
    Writer seg;
    seg.u32(kSegmentMagic);
    seg.u64(first);
    seg.u32(static_cast<uint32_t>(history_.size()));
    for (const auto& [_, wire] : history_) seg.bytes(wire);
    storage_->put(segment_key(first), seal(std::move(seg)));
    segments_[first] = first + history_.size() - 1;  // the tail is contiguous
    history_.clear();
  }
  // Retire every segment wholly behind the last history_limit batches.
  while (!segments_.empty() &&
         segments_.begin()->second + config_.history_limit < next_exec_) {
    retired_.push_back(segments_.begin()->first);
    segments_.erase(segments_.begin());
  }
  storage_->put("snapshot", serialize_snapshot());
  m_.snapshots_written->inc();
  for (uint64_t first : retired_) storage_->erase(segment_key(first));
  retired_.clear();
  storage_->truncate_log();
  // Re-log the live tail the truncation dropped: the current view and the
  // acceptance/vote state of every still-unexecuted slot.  The window
  // between truncate and this re-append is a documented torn window — a
  // crash inside it loses only votes, never executions, and the view-change
  // protocol recovers those.
  {
    Writer w;
    w.u8(static_cast<uint8_t>(WalTag::kView));
    w.u64(view_);
    wal_append_record(w.data());
  }
  for (const auto& [seq, s] : slots_) {
    if (seq < next_exec_ || !s.pre_prepare || s.executed) continue;
    Writer w;
    w.u8(static_cast<uint8_t>(WalTag::kAccept));
    w.bytes(s.pre_prepare->serialize());
    wal_append_record(w.data());
    if (s.sent_commit) {
      Writer v;
      v.u8(static_cast<uint8_t>(WalTag::kVote));
      v.u64(seq);
      v.u64(s.view);
      v.bytes(s.digest);
      wal_append_record(v.data());
    }
  }
  storage_->sync();
}

// ---------------------------------------------------------------------------
// Messaging

void Replica::send_envelope(NodeId to, Channel channel, BytesView body) {
  charge(Op::kMsgOverhead, 0);
  charge(Op::kMac, body.size());
  send_raw(to, seal_envelope(keys_, channel, id(), to, body));
}

void Replica::send_bft(NodeId to, BftMsgType type, BytesView body) {
  // Scatter/gather seal: the 1-byte type tag and the body are framed
  // directly into the wire, skipping tag_bft's concatenated copy.
  const uint8_t tag = static_cast<uint8_t>(type);
  charge(Op::kMsgOverhead, 0);
  charge(Op::kMac, body.size() + 1);
  send_raw(to, seal_envelope_parts(keys_, Channel::kBft, id(), to,
                                   {BytesView(&tag, 1), body}));
}

void Replica::broadcast_bft(BftMsgType type, BytesView body) {
  const uint8_t tag = static_cast<uint8_t>(type);
  const BytesView tag_view(&tag, 1);
  for (NodeId r = 0; r < config_.n; ++r) {
    if (r == id()) continue;
    charge(Op::kMsgOverhead, 0);
    charge(Op::kMac, body.size() + 1);
    send_raw(r, seal_envelope_parts(keys_, Channel::kBft, id(), r,
                                    {tag_view, body}));
  }
}

void Replica::send_reply(NodeId client, uint64_t client_seq, Bytes result) {
  ReplyMsg reply;
  reply.view = view_;
  reply.client_seq = client_seq;
  reply.replica = id();
  reply.result = std::move(result);
  Bytes wire = reply.serialize();
  reply_cache_[client].put(client_seq, wire);
  send_envelope(client, Channel::kReply, wire);
}

void Replica::send_causal(NodeId to, Bytes body) {
  send_envelope(to, Channel::kCausal, body);
}

void Replica::broadcast_causal(Bytes body) {
  for (NodeId r = 0; r < config_.n; ++r) {
    if (r == id()) continue;
    send_envelope(r, Channel::kCausal, body);
  }
}

void Replica::on_message(NodeId /*from*/, BytesView msg) {
  // Before start() the replica may not have replayed its kAccept/kVote
  // records yet, and a vote now could contradict one it already cast.
  if (!started_) return;
  charge(Op::kMsgOverhead, 0);
  charge(Op::kMac, msg.size());
  auto env = open_envelope(keys_, id(), msg);
  if (!env) return;  // authentication failure: drop silently

  switch (env->channel) {
    case Channel::kClientRequest:
      handle_client_request(env->sender, env->body);
      break;
    case Channel::kBft: {
      auto tagged = untag_bft(env->body);
      if (!tagged) return;
      // Only replicas speak BFT.
      if (env->sender >= config_.n) return;
      auto& [type, body] = *tagged;
      switch (type) {
        case BftMsgType::kPrePrepare:
          handle_pre_prepare(env->sender, body);
          break;
        case BftMsgType::kPrepare:
        case BftMsgType::kCommit:
          handle_phase_vote(env->sender, body);
          break;
        case BftMsgType::kCheckpoint:
          handle_checkpoint(env->sender, body);
          break;
        case BftMsgType::kViewChange:
          handle_view_change(env->sender, body);
          break;
        case BftMsgType::kNewView:
          handle_new_view(env->sender, body);
          break;
        case BftMsgType::kFetch: {
          Reader r(body);
          const uint64_t from_seq = r.u64();
          const uint64_t to_seq = r.u64();
          if (!r.done() || to_seq - from_seq > config_.watermark_window) return;
          serve_fetch(env->sender, from_seq, to_seq);
          break;
        }
        case BftMsgType::kFetchResp: {
          Reader r(body);
          const uint64_t s = r.u64();
          const Bytes wire = r.bytes();
          if (!r.done()) return;
          if (s < next_exec_ || s > next_exec_ + config_.watermark_window) {
            return;
          }
          if (!PrePrepare::parse(wire)) return;
          fetch_votes_[s][env->sender] = wire;
          try_fetch_execute();
          break;
        }
      }
      break;
    }
    case Channel::kCausal:
      app_->on_causal_message(env->sender, env->body, *this);
      break;
    case Channel::kReply:
      break;  // replicas ignore replies
  }
}

// ---------------------------------------------------------------------------
// Normal case

void Replica::handle_client_request(NodeId from, BytesView body) {
  auto msg = ClientRequestMsg::parse(body);
  if (!msg) return;
  // Forwarded requests carry the original client inside; direct requests
  // come straight from the client (Aardvark-style client multicast).
  admit_request(from, std::move(*msg), /*skip_validate=*/false);
}

void Replica::admit_foreign_request(NodeId client, uint64_t client_seq,
                                    Bytes payload) {
  ClientRequestMsg msg;
  msg.client_seq = client_seq;
  msg.payload = std::move(payload);
  msg.forwarded = true;
  admit_request(client, std::move(msg), /*skip_validate=*/true);
}

void Replica::admit_request(NodeId client, ClientRequestMsg msg,
                            bool skip_validate) {
  // Executed before? Resend THAT seq's cached reply (client
  // retransmission).  The check must be per-seq, not "<= last executed":
  // a pipelined client's outstanding seq s is NOT a replay just because
  // s + 1 already executed out of order — it still needs admission.
  if (auto win = executed_window_.find(client);
      win != executed_window_.end() && win->second.executed(msg.client_seq)) {
    if (auto cached = reply_cache_.find(client);
        cached != reply_cache_.end()) {
      if (const Bytes* wire = cached->second.find(msg.client_seq)) {
        send_envelope(client, Channel::kReply, *wire);
      }
    }
    return;
  }

  if (!skip_validate && !app_->validate_request(client, msg, *this)) return;

  Request req;
  req.client = client;
  req.client_seq = msg.client_seq;
  req.payload = std::move(msg.payload);
  charge(Op::kHash, req.payload.size());
  const std::string key = hex_encode(req.digest());
  if (pending_requests_.contains(key)) return;  // duplicate in flight

  PendingRequest pending;
  pending.client = client;
  pending.client_seq = req.client_seq;
  pending.payload = req.payload;
  pending.first_seen = now();
  pending_requests_.emplace(key, std::move(pending));
  tracer_.record(client, req.client_seq, obs::Phase::kAdmit, now());
  m_.pending_requests->set(static_cast<int64_t>(pending_requests_.size()));

  if (is_primary()) {
    pending_batch_.push_back(std::move(req));
    maybe_send_batch();
  }
  // Backups just watch: the watchdog votes for a view change if the primary
  // never gets this request executed (fairness monitor).
}

void Replica::submit_local_request(Bytes payload) {
  // During WAL replay a self-assigned batch would race the very slots the
  // replay is about to rebuild; the app re-proposes on the next live
  // delivery (CP1 cleanups are retried from maybe_propose_cleanup).
  if (!is_primary() || replaying_) return;
  Request req;
  req.client = id();  // replicas use their own id as the virtual client
  req.client_seq = local_seq_++;
  req.payload = std::move(payload);
  pending_batch_.push_back(std::move(req));
  maybe_send_batch();
}

void Replica::maybe_send_batch() {
  if (!view_change_active_) flush_batch();
  // Anything still queued (in-flight window full / watermark edge / view
  // change in progress) gets a fallback timer so it cannot starve.  The
  // timer is armed even mid-view-change and its callback unconditionally
  // re-enters here: breaking the rearm chain on a transient condition is
  // exactly what would leave a queued request waiting for the next client
  // arrival.
  if (!batch_timer_armed_ && !pending_batch_.empty()) {
    batch_timer_armed_ = true;
    schedule(config_.batch_delay, [this] {
      batch_timer_armed_ = false;
      if (is_primary()) maybe_send_batch();
    });
  }
}

void Replica::flush_batch() {
  while (!pending_batch_.empty() && in_watermarks(next_seq_) &&
         next_seq_ - next_exec_ < config_.max_inflight_batches) {
    PrePrepare pp;
    pp.view = view_;
    pp.seq = next_seq_++;
    const std::size_t take =
        std::min<std::size_t>(config_.max_batch, pending_batch_.size());
    pp.batch.assign(std::make_move_iterator(pending_batch_.begin()),
                    std::make_move_iterator(pending_batch_.begin() + take));
    pending_batch_.erase(pending_batch_.begin(), pending_batch_.begin() + take);
    m_.batches_proposed->inc();
    m_.batch_size->record(take);
    m_.inflight_batches->record(next_seq_ - next_exec_);

    const Bytes wire = pp.serialize();
    charge(Op::kHash, wire.size());
    broadcast_bft(BftMsgType::kPrePrepare, wire);
    accept_pre_prepare(std::move(pp));
  }
}

void Replica::handle_pre_prepare(NodeId from, BytesView body) {
  if (from != config_.primary_of(view_)) return;  // only the primary proposes
  auto pp = PrePrepare::parse(body);
  if (!pp) return;
  charge(Op::kHash, body.size());
  accept_pre_prepare(std::move(*pp));
}

void Replica::accept_pre_prepare(PrePrepare pp) {
  if (view_change_active_) return;
  if (pp.view != view_) return;
  if (!in_watermarks(pp.seq)) return;

  Slot& s = slot(pp.seq);
  const Bytes digest = pp.batch_digest();
  if (s.pre_prepare) {
    if (s.view == pp.view) return;  // already accepted one for this (v, n)
    // A pre-prepare from a newer view supersedes (re-proposal path).
  }
  s.pre_prepare = std::move(pp);
  s.digest = digest;
  s.view = s.pre_prepare->view;
  s.sent_prepare = s.sent_commit = false;
  if (s.pre_prepare->seq < next_exec_) s.executed = true;
  m_.pre_prepares_accepted->inc();
  m_.slots_tracked->set(static_cast<int64_t>(slots_.size()));
  for (const auto& r : s.pre_prepare->batch) {
    if (!r.is_null()) {
      tracer_.record(r.client, r.client_seq, obs::Phase::kPrePrepare, now());
    }
  }

  // WAL the acceptance BEFORE the PREPARE leaves: a recovered replica must
  // never vote for a different batch at the same (view, seq).
  if (storage_ != nullptr && !replaying_) {
    Writer w;
    w.u8(static_cast<uint8_t>(WalTag::kAccept));
    w.bytes(s.pre_prepare->serialize());
    wal_append_record(w.data());
  }

  // Every replica broadcasts PREPARE and counts its own vote (the primary's
  // pre-prepare doubles as its prepare).
  PhaseVote vote;
  vote.type = BftMsgType::kPrepare;
  vote.view = s.view;
  vote.seq = s.pre_prepare->seq;
  vote.digest = s.digest;
  vote.replica = id();
  s.prepares[id()] = {s.view, s.digest};
  s.sent_prepare = true;
  broadcast_bft(BftMsgType::kPrepare, vote.serialize());
  check_prepared(s.pre_prepare->seq);
}

void Replica::handle_phase_vote(NodeId from, BytesView body) {
  auto vote = PhaseVote::parse(body);
  if (!vote || vote->replica != from) return;
  if (!in_watermarks(vote->seq)) return;

  Slot& s = slot(vote->seq);
  if (vote->type == BftMsgType::kPrepare) {
    s.prepares[from] = {vote->view, vote->digest};
    check_prepared(vote->seq);
  } else {
    s.commits[from] = {vote->view, vote->digest};
    check_committed(vote->seq);
  }
}

void Replica::check_prepared(uint64_t seq) {
  Slot& s = slot(seq);
  if (!s.pre_prepare || s.sent_commit || view_change_active_) return;
  if (s.view != view_) return;
  uint32_t matching = 0;
  for (const auto& [_, vd] : s.prepares) {
    if (vd.first == s.view && vd.second == s.digest) ++matching;
  }
  if (matching < config_.quorum()) return;
  for (const auto& r : s.pre_prepare->batch) {
    if (!r.is_null()) {
      tracer_.record(r.client, r.client_seq, obs::Phase::kPrepared, now());
    }
  }

  // WAL our COMMIT vote before it leaves (group-committed by the next
  // execution sync; see DESIGN.md §13 on the fsync discipline).
  if (storage_ != nullptr && !replaying_) {
    Writer w;
    w.u8(static_cast<uint8_t>(WalTag::kVote));
    w.u64(seq);
    w.u64(s.view);
    w.bytes(s.digest);
    wal_append_record(w.data());
  }

  PhaseVote vote;
  vote.type = BftMsgType::kCommit;
  vote.view = s.view;
  vote.seq = seq;
  vote.digest = s.digest;
  vote.replica = id();
  s.commits[id()] = {s.view, s.digest};
  s.sent_commit = true;
  broadcast_bft(BftMsgType::kCommit, vote.serialize());
  check_committed(seq);
}

void Replica::check_committed(uint64_t seq) {
  Slot& s = slot(seq);
  if (!s.pre_prepare || !s.sent_commit || s.executed) return;
  uint32_t matching = 0;
  for (const auto& [_, vd] : s.commits) {
    if (vd.first == s.view && vd.second == s.digest) ++matching;
  }
  if (matching < config_.quorum()) return;
  try_execute();
}

void Replica::try_execute() {
  for (;;) {
    auto it = slots_.find(next_exec_);
    if (it == slots_.end()) return;
    Slot& s = it->second;
    if (s.executed) {
      ++next_exec_;
      maybe_finish_catchup();
      continue;
    }
    if (!s.pre_prepare || !s.sent_commit) return;
    uint32_t matching = 0;
    for (const auto& [_, vd] : s.commits) {
      if (vd.first == s.view && vd.second == s.digest) ++matching;
    }
    if (matching < config_.quorum()) return;
    s.executed = true;
    execute_batch(next_exec_, *s.pre_prepare);
    maybe_finish_catchup();
    // The in-flight window moved: the primary can propose queued requests
    // (via maybe_send_batch so anything still blocked keeps its fallback
    // timer instead of waiting for the next client arrival).
    if (is_primary() && !pending_batch_.empty()) maybe_send_batch();
  }
}

void Replica::execute_batch(uint64_t seq, const PrePrepare& pp) {
  Bytes wire = pp.serialize();
  // Commit point: the execution record is durable BEFORE any app effect
  // (replies, causal shares) escapes this replica.  One fsync per batch.
  if (storage_ != nullptr && !replaying_) {
    Writer w;
    w.u8(static_cast<uint8_t>(WalTag::kExec));
    w.u64(seq);
    w.bytes(wire);
    wal_append_record(w.data());
    storage_->sync();
  }
  in_execute_batch_ = true;
  for (const auto& req : pp.batch) {
    if (req.is_null()) continue;
    // Replay dedup over the exact executed set (client_window.h): a
    // view-change re-proposal may commit a pipelined client's seqs out of
    // order, so suppressing on "<= last executed" would drop a payload
    // forever; only a seq that truly executed is a replay.
    if (!executed_window_[req.client].mark(req.client_seq)) {
      m_.replays_suppressed->inc();
      continue;  // replayed across views
    }
    tracer_.record(req.client, req.client_seq, obs::Phase::kCommitted, now());
    pending_requests_.erase(hex_encode(req.digest()));
    ++executed_requests_;
    m_.requests_executed->inc();
    app_->on_deliver(seq, req, *this);
    tracer_.record(req.client, req.client_seq, obs::Phase::kExecuted, now());
  }
  app_->on_batch_end(*this);
  in_execute_batch_ = false;
  if (app_wal_dirty_) {
    // Group commit for whatever the app logged during this batch (causal
    // executions that completed inline).
    app_wal_dirty_ = false;
    storage_->sync();
  }
  m_.pending_requests->set(static_cast<int64_t>(pending_requests_.size()));

  // Chain digest for checkpoints, plus batch history for catch-up fetches.
  exec_chain_digest_ =
      crypto::sha256_tuple({exec_chain_digest_, pp.batch_digest()});
  history_[seq] = std::move(wire);
  if (storage_ == nullptr && history_.size() > config_.history_limit) {
    history_.erase(history_.begin());
  }
  // Advance before the checkpoint below: a snapshot written there must
  // resume after seq, whose effects and history entry it already holds.
  next_exec_ = seq + 1;

  if (seq % config_.checkpoint_interval == 0) {
    Checkpoint cp;
    cp.seq = seq;
    cp.state_digest = exec_chain_digest_;
    cp.replica = id();
    own_checkpoints_[seq] = cp.state_digest;
    checkpoint_votes_[seq][id()] = cp.state_digest;
    m_.checkpoints_emitted->inc();
    // During WAL replay the vote bookkeeping is rebuilt but nothing is
    // broadcast: stability needs live peer votes, which arrive (for newer
    // checkpoints) once traffic resumes.
    if (!replaying_) {
      broadcast_bft(BftMsgType::kCheckpoint, cp.serialize());
      maybe_stabilize(seq);
    }
  }
  update_state_gauges();
}

void Replica::try_fetch_execute() {
  // Consume buffered fetch responses in execution order.  A batch is
  // accepted with f+1 matching copies: at least one is from a correct
  // replica, and correct replicas only serve executed batches.
  for (;;) {
    auto it = fetch_votes_.find(next_exec_);
    if (it == fetch_votes_.end()) break;
    std::map<std::string, uint32_t> tally;
    for (const auto& [_, w] : it->second) tally[to_string(w)]++;
    const std::string* winner = nullptr;
    for (const auto& [w, count] : tally) {
      if (count >= config_.f + 1) {
        winner = &w;
        break;
      }
    }
    if (winner == nullptr) break;
    auto batch = PrePrepare::parse(to_bytes(*winner));
    if (!batch) break;
    const uint64_t s = next_exec_;
    execute_batch(s, *batch);
    slot(s).executed = true;
    maybe_finish_catchup();
    fetch_votes_.erase(s);
  }
  fetch_votes_.erase(fetch_votes_.begin(),
                     fetch_votes_.lower_bound(next_exec_));
  try_execute();
}

// ---------------------------------------------------------------------------
// Checkpoints & catch-up

void Replica::handle_checkpoint(NodeId from, BytesView body) {
  auto cp = Checkpoint::parse(body);
  if (!cp || cp->replica != from) return;
  if (cp->seq <= low_watermark_) return;
  // Bound the vote map: a correct replica can legitimately be ahead of us,
  // but never by more than one full watermark window past our own (it would
  // need a stable checkpoint — 2f+1 votes — beyond that, which includes a
  // correct replica we would have heard from).  Seqs further out are a
  // Byzantine flood; accepting them would grow the map without limit.
  if (cp->seq > low_watermark_ + 2 * config_.watermark_window) return;
  checkpoint_votes_[cp->seq][from] = cp->state_digest;
  update_state_gauges();
  maybe_stabilize(cp->seq);
}

void Replica::maybe_stabilize(uint64_t seq) {
  auto votes = checkpoint_votes_.find(seq);
  if (votes == checkpoint_votes_.end()) return;
  std::map<std::string, uint32_t> tally;
  for (const auto& [_, d] : votes->second) tally[hex_encode(d)]++;
  for (const auto& [digest_hex, count] : tally) {
    if (count < config_.quorum()) continue;
    auto own = own_checkpoints_.find(seq);
    if (own != own_checkpoints_.end() && hex_encode(own->second) == digest_hex) {
      garbage_collect(seq);
    } else if (seq >= next_exec_) {
      // We are behind a stable checkpoint: fetch the missing batches.
      note_catchup_target(seq);
      Writer w;
      w.u64(next_exec_);
      w.u64(seq);
      for (const auto& [replica, d] : votes->second) {
        if (hex_encode(d) == digest_hex) {
          send_bft(replica, BftMsgType::kFetch, w.data());
        }
      }
    }
    return;
  }
}

void Replica::serve_fetch(NodeId to, uint64_t from_seq, uint64_t to_seq) {
  const auto send = [&](uint64_t s, BytesView wire) {
    Writer w;
    w.u64(s);
    w.bytes(wire);
    send_bft(to, BftMsgType::kFetchResp, w.data());
  };
  // Sealed segments first (storage only), from the one holding from_seq.
  auto seg = segments_.upper_bound(from_seq);
  if (seg != segments_.begin() && std::prev(seg)->second >= from_seq) --seg;
  for (; seg != segments_.end() && seg->first <= to_seq; ++seg) {
    const auto [first, last] = *seg;
    const auto blob = storage_->get(segment_key(first));
    const auto batches = blob ? parse_segment(*blob, first) : std::nullopt;
    // A damaged segment serves nothing; f+1 peers' copies cover it.
    if (!batches || batches->size() != last - first + 1) continue;
    for (uint64_t s = std::max(from_seq, first); s <= std::min(to_seq, last);
         ++s) {
      send(s, (*batches)[s - first]);
    }
  }
  // Then the in-memory tail.
  for (auto it = history_.lower_bound(from_seq);
       it != history_.end() && it->first <= to_seq; ++it) {
    send(it->first, it->second);
  }
}

void Replica::note_catchup_target(uint64_t seq) {
  if (!catchup_active_) {
    catchup_active_ = true;
    catchup_started_ = now();
    catchup_target_ = seq;
  } else if (seq > catchup_target_) {
    catchup_target_ = seq;  // fell further behind mid-episode
  }
}

void Replica::maybe_finish_catchup() {
  if (!catchup_active_ || next_exec_ <= catchup_target_) return;
  catchup_active_ = false;
  m_.catchups_completed->inc();
  m_.catchup_ms->record((now() - catchup_started_) / 1'000'000);
}

void Replica::garbage_collect(uint64_t stable_seq) {
  if (stable_seq <= low_watermark_) return;
  low_watermark_ = stable_seq;
  slots_.erase(slots_.begin(), slots_.lower_bound(stable_seq + 1));
  checkpoint_votes_.erase(checkpoint_votes_.begin(),
                          checkpoint_votes_.upper_bound(stable_seq));
  own_checkpoints_.erase(own_checkpoints_.begin(),
                         own_checkpoints_.upper_bound(stable_seq));
  update_state_gauges();
  // Stable checkpoint = snapshot point: persist the full replica state and
  // truncate the WAL behind it (DESIGN.md §13).
  if (storage_ != nullptr && !replaying_) write_snapshot();
  // Watermark window moved: drain the queue, rearming the fallback timer
  // for whatever the in-flight window still blocks.
  if (is_primary()) maybe_send_batch();
}

// ---------------------------------------------------------------------------
// View change

void Replica::watchdog_tick() {
  if (!view_change_active_) {
    for (const auto& [_, pending] : pending_requests_) {
      if (now() - pending.first_seen > config_.request_timeout) {
        start_view_change(view_ + 1, "request timeout / fairness");
        break;
      }
    }
  } else if (now() - view_change_started_ > config_.request_timeout) {
    // The new primary failed to assemble a new view in time: move further.
    start_view_change(view_change_target_ + 1, "view change stalled");
  }
  schedule(config_.watchdog_period, [this] { watchdog_tick(); });
}

void Replica::request_view_change(const char* /*reason*/) {
  if (!view_change_active_) start_view_change(view_ + 1, "app request");
}

void Replica::start_view_change(uint64_t target_view, const char* /*reason*/) {
  if (target_view <= view_) return;
  if (view_change_active_ && target_view <= view_change_target_) return;
  view_change_active_ = true;
  view_change_target_ = target_view;
  view_change_started_ = now();

  ViewChange vc;
  vc.new_view = target_view;
  vc.stable_seq = low_watermark_;
  for (const auto& [seq, s] : slots_) {
    if (!s.pre_prepare || seq <= low_watermark_) continue;
    uint32_t matching = 0;
    for (const auto& [_, vd] : s.prepares) {
      if (vd.first == s.view && vd.second == s.digest) ++matching;
    }
    // A slot we voted COMMIT on (or executed) necessarily held a 2f+1
    // prepared certificate at the time — even when the peer votes
    // themselves are gone.  That matters after a WAL recovery: only our
    // own votes are replayed (kVote/kExec prove the certificate existed),
    // and dropping these slots would let the new view re-propose a
    // DIFFERENT batch at a seq some replica already executed.
    if (matching < config_.quorum() && !s.sent_commit && !s.executed) {
      continue;
    }
    PreparedProof proof;
    proof.seq = seq;
    proof.view = s.view;
    proof.batch_wire = s.pre_prepare->serialize();
    vc.prepared.push_back(std::move(proof));
  }
  vc.replica = id();
  charge(Op::kMac, 64);
  vc.signature = keys_.sign(id(), vc.signed_body());

  m_.view_changes_started->inc();
  broadcast_bft(BftMsgType::kViewChange, vc.serialize());
  insert_view_change_vote(id(), std::move(vc));
  maybe_assemble_new_view(target_view);
}

void Replica::insert_view_change_vote(NodeId from, ViewChange vc) {
  // One vote per sender — the highest view it has asked for.  A VIEW-CHANGE
  // for a lower view than the sender's latest is stale (a correct replica
  // only moves forward); without this rule one Byzantine replica flooding
  // distinct future view numbers grows the map without limit AND counts
  // once per view toward the f+1 join threshold below.
  auto latest = latest_vc_view_.find(from);
  if (latest != latest_vc_view_.end()) {
    if (vc.new_view <= latest->second) {
      if (vc.new_view == latest->second) {
        view_change_votes_[vc.new_view][from] = std::move(vc);  // refresh
      }
      return;
    }
    auto old = view_change_votes_.find(latest->second);
    if (old != view_change_votes_.end()) {
      old->second.erase(from);
      if (old->second.empty()) view_change_votes_.erase(old);
    }
  }
  latest_vc_view_[from] = vc.new_view;
  view_change_votes_[vc.new_view][from] = std::move(vc);
  update_state_gauges();
}

void Replica::handle_view_change(NodeId from, BytesView body) {
  auto vc = ViewChange::parse(body);
  if (!vc || vc->replica != from) return;
  if (vc->new_view <= view_) return;
  charge(Op::kMac, 64);
  if (!keys_.verify(from, vc->signed_body(), vc->signature)) return;

  insert_view_change_vote(from, *vc);

  // Liveness rule: if f+1 replicas want a view above ours, join the lowest
  // such view even if our own timer has not fired.
  if (!view_change_active_ || vc->new_view > view_change_target_) {
    std::map<uint64_t, uint32_t> wanting;
    for (const auto& [v, votes] : view_change_votes_) {
      if (v > view_) wanting[v] = static_cast<uint32_t>(votes.size());
    }
    uint32_t cumulative = 0;
    // Count replicas wanting >= v, scanning from the highest view down.
    for (auto it = wanting.rbegin(); it != wanting.rend(); ++it) {
      cumulative += it->second;
      if (cumulative >= config_.f + 1 &&
          (!view_change_active_ || it->first > view_change_target_)) {
        start_view_change(it->first, "join");
        break;
      }
    }
  }
  maybe_assemble_new_view(vc->new_view);
}

void Replica::maybe_assemble_new_view(uint64_t target_view) {
  if (config_.primary_of(target_view) != id()) return;
  if (new_view_sent_.contains(target_view) || target_view <= view_) return;
  auto votes = view_change_votes_.find(target_view);
  if (votes == view_change_votes_.end() ||
      votes->second.size() < config_.quorum()) {
    return;
  }
  if (!votes->second.contains(id())) return;  // must include our own

  std::vector<ViewChange> proofs;
  proofs.reserve(votes->second.size());
  for (const auto& [_, vc] : votes->second) proofs.push_back(vc);

  std::vector<PrePrepare> batches =
      compute_new_view_batches(target_view, proofs);

  NewView nv;
  nv.view = target_view;
  for (const auto& vc : proofs) nv.view_changes.push_back(vc.serialize());
  for (const auto& pp : batches) nv.pre_prepares.push_back(pp.serialize());
  new_view_sent_.insert(target_view);
  broadcast_bft(BftMsgType::kNewView, nv.serialize());
  enter_view(target_view, std::move(batches));
}

std::vector<PrePrepare> Replica::compute_new_view_batches(
    uint64_t target_view, const std::vector<ViewChange>& proofs) const {
  uint64_t min_s = 0;
  uint64_t max_s = 0;
  for (const auto& vc : proofs) {
    min_s = std::max(min_s, vc.stable_seq);
    for (const auto& p : vc.prepared) max_s = std::max(max_s, p.seq);
  }

  std::vector<PrePrepare> out;
  for (uint64_t s = min_s + 1; s <= max_s; ++s) {
    const PreparedProof* best = nullptr;
    for (const auto& vc : proofs) {
      for (const auto& p : vc.prepared) {
        if (p.seq != s) continue;
        if (best == nullptr || p.view > best->view) best = &p;
      }
    }
    PrePrepare pp;
    pp.view = target_view;
    pp.seq = s;
    if (best != nullptr) {
      auto orig = PrePrepare::parse(best->batch_wire);
      if (orig) pp.batch = std::move(orig->batch);
    }
    if (pp.batch.empty()) pp.batch.push_back(Request::null());
    out.push_back(std::move(pp));
  }
  return out;
}

void Replica::handle_new_view(NodeId from, BytesView body) {
  auto nv = NewView::parse(body);
  if (!nv) return;
  if (from != config_.primary_of(nv->view)) return;
  if (nv->view <= view_) return;

  // Verify the 2f+1 signed view-change proofs.
  std::vector<ViewChange> proofs;
  std::set<NodeId> voters;
  for (const auto& wire : nv->view_changes) {
    auto vc = ViewChange::parse(wire);
    if (!vc || vc->new_view != nv->view) return;
    charge(Op::kMac, 64);
    if (!keys_.verify(vc->replica, vc->signed_body(), vc->signature)) return;
    if (!voters.insert(vc->replica).second) return;
    proofs.push_back(std::move(*vc));
  }
  if (proofs.size() < config_.quorum()) return;

  // Recompute O and require the primary proposed exactly that.
  std::vector<PrePrepare> expected = compute_new_view_batches(nv->view, proofs);
  if (expected.size() != nv->pre_prepares.size()) return;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    auto got = PrePrepare::parse(nv->pre_prepares[i]);
    if (!got || got->seq != expected[i].seq ||
        got->batch_digest() != expected[i].batch_digest()) {
      return;
    }
  }
  enter_view(nv->view, std::move(expected));
}

void Replica::enter_view(uint64_t target_view, std::vector<PrePrepare> reproposals) {
  // Pin the view before acting in it: a recovered replica must never
  // accept messages under an older view it already left.
  if (storage_ != nullptr && !replaying_) {
    Writer w;
    w.u8(static_cast<uint8_t>(WalTag::kView));
    w.u64(target_view);
    wal_append_record(w.data());
    storage_->sync();
  }
  view_ = target_view;
  view_change_active_ = false;
  ++view_changes_completed_;
  m_.view_changes_completed->inc();
  view_change_votes_.erase(view_change_votes_.begin(),
                           view_change_votes_.upper_bound(target_view));
  update_state_gauges();

  uint64_t max_s = low_watermark_;
  for (auto& pp : reproposals) max_s = std::max(max_s, pp.seq);
  next_seq_ = std::max(next_seq_, max_s + 1);

  // Reset watchdog ages: the new primary gets a fresh grace period.
  for (auto& [_, pending] : pending_requests_) pending.first_seen = now();

  for (auto& pp : reproposals) {
    if (pp.seq <= low_watermark_) continue;
    accept_pre_prepare(std::move(pp));
  }
  app_->on_new_view(view_, *this);

  // A backup-turned-primary re-proposes every request it knows is still
  // outstanding (clients also retransmit, and execution dedupes).
  if (is_primary()) {
    for (const auto& [_, pending] : pending_requests_) {
      Request req;
      req.client = pending.client;
      req.client_seq = pending.client_seq;
      req.payload = pending.payload;
      pending_batch_.push_back(std::move(req));
    }
    if (!pending_batch_.empty()) maybe_send_batch();
  }
}

}  // namespace scab::bft
