#include "abft/replica.h"

#include "crypto/sha256.h"

namespace scab::abft {

using host::Op;

AsyncReplica::AsyncReplica(host::Host& host, NodeId id, bft::BftConfig config,
                           const bft::KeyRing& keys,
                           const host::CostModel& costs,
                           const CoinPublicKey& coin_pk, CoinKeyShare coin_share,
                           bft::ReplicaApp* app, crypto::Drbg rng)
    : HostBound(host, id, costs),
      config_(config),
      keys_(keys),
      coin_pk_(coin_pk),
      coin_key_(std::move(coin_share)),
      app_(app),
      rng_(std::move(rng)) {
  bind();
}

// ---------------------------------------------------------------------------
// Messaging

void AsyncReplica::send_abft(NodeId to, BytesView body) {
  charge(Op::kMsgOverhead, 0);
  charge(Op::kMac, body.size());
  send_raw(to, bft::seal_envelope(keys_, bft::Channel::kBft, id(), to, body));
}

void AsyncReplica::broadcast_abft(BytesView body) {
  for (NodeId r = 0; r < config_.n; ++r) {
    if (r == id()) continue;
    send_abft(r, body);
  }
}

Bytes AsyncReplica::header(MsgType type, uint64_t epoch,
                           uint32_t proposer) const {
  Writer w;
  w.u8(static_cast<uint8_t>(type));
  w.u64(epoch);
  w.u32(proposer);
  return std::move(w).take();
}

void AsyncReplica::send_reply(NodeId client, uint64_t client_seq, Bytes result) {
  bft::ReplyMsg reply;
  reply.view = current_epoch_;
  reply.client_seq = client_seq;
  reply.replica = id();
  reply.result = std::move(result);
  Bytes wire = reply.serialize();
  reply_cache_[client].put(client_seq, wire);
  charge(Op::kMsgOverhead, 0);
  charge(Op::kMac, wire.size());
  send_raw(client,
           bft::seal_envelope(keys_, bft::Channel::kReply, id(), client, wire));
}

void AsyncReplica::send_causal(NodeId to, Bytes body) {
  charge(Op::kMsgOverhead, 0);
  charge(Op::kMac, body.size());
  send_raw(to,
           bft::seal_envelope(keys_, bft::Channel::kCausal, id(), to, body));
}

void AsyncReplica::broadcast_causal(Bytes body) {
  for (NodeId r = 0; r < config_.n; ++r) {
    if (r == id()) continue;
    send_causal(r, body);
  }
}

// ---------------------------------------------------------------------------
// Client admission & proposing

void AsyncReplica::on_message(NodeId /*from*/, BytesView msg) {
  charge(Op::kMsgOverhead, 0);
  charge(Op::kMac, msg.size());
  auto env = bft::open_envelope(keys_, id(), msg);
  if (!env) return;

  switch (env->channel) {
    case bft::Channel::kClientRequest:
      handle_client_request(env->sender, env->body, false);
      return;
    case bft::Channel::kCausal:
      app_->on_causal_message(env->sender, env->body, *this);
      return;
    case bft::Channel::kReply:
      return;
    case bft::Channel::kBft:
      break;
  }
  if (env->sender >= config_.n) return;

  Reader r(env->body);
  const auto type = static_cast<MsgType>(r.u8());
  const uint64_t epoch = r.u64();
  const uint32_t proposer = r.u32();
  if (!r.ok() || proposer >= config_.n) return;
  if (epoch < current_epoch_) return;  // stale
  if (epoch > current_epoch_ + 64) return;  // runaway-epoch bound

  switch (type) {
    case MsgType::kRbcInit: {
      if (env->sender != proposer) return;  // only the proposer INITs
      Bytes payload = r.bytes();
      if (!r.done()) return;
      rbc_on_init(epoch, proposer, std::move(payload));
      break;
    }
    case MsgType::kRbcEcho: {
      Bytes payload = r.bytes();
      if (!r.done()) return;
      rbc_on_echo(epoch, proposer, env->sender, std::move(payload));
      break;
    }
    case MsgType::kRbcReady: {
      Bytes payload = r.bytes();
      if (!r.done()) return;
      rbc_on_ready(epoch, proposer, env->sender, std::move(payload));
      break;
    }
    case MsgType::kBval: {
      const uint32_t round = r.u32();
      const bool b = r.u8() != 0;
      if (!r.done()) return;
      aba_on_bval(epoch, proposer, round, env->sender, b);
      break;
    }
    case MsgType::kAux: {
      const uint32_t round = r.u32();
      const bool b = r.u8() != 0;
      if (!r.done()) return;
      aba_on_aux(epoch, proposer, round, env->sender, b);
      break;
    }
    case MsgType::kCoinShare: {
      const uint32_t round = r.u32();
      const Bytes wire = r.bytes();
      if (!r.done()) return;
      auto share = CoinShare::parse(coin_pk_.group, wire);
      if (!share || share->index != env->sender + 1) return;
      aba_on_coin_share(epoch, proposer, round, env->sender, *share);
      break;
    }
    case MsgType::kDecided: {
      const bool b = r.u8() != 0;
      if (!r.done()) return;
      aba_on_decided(epoch, proposer, env->sender, b);
      break;
    }
  }
  // Any traffic for the current epoch means someone has work: join in with
  // our own (possibly empty) proposal so the common subset can fill.
  if (epoch == current_epoch_) maybe_propose(epoch);
}

void AsyncReplica::handle_client_request(NodeId from, BytesView body,
                                         bool skip_validate) {
  auto msg = bft::ClientRequestMsg::parse(body);
  if (!msg) return;

  // Per-seq executed check (client_window.h): ACS order is proposer
  // order, so a pipelined client's seq s may still be outstanding after
  // s + 1 executed — it must be admitted, not treated as a replay.
  if (auto win = executed_window_.find(from);
      win != executed_window_.end() && win->second.executed(msg->client_seq)) {
    if (auto cached = reply_cache_.find(from); cached != reply_cache_.end()) {
      if (const Bytes* wire = cached->second.find(msg->client_seq)) {
        charge(Op::kMac, wire->size());
        send_raw(from, bft::seal_envelope(keys_, bft::Channel::kReply, id(),
                                          from, *wire));
      }
    }
    return;
  }
  if (!skip_validate && !app_->validate_request(from, *msg, *this)) return;

  bft::Request req;
  req.client = from;
  req.client_seq = msg->client_seq;
  req.payload = std::move(msg->payload);
  charge(Op::kHash, req.payload.size());
  const std::string key = hex_encode(req.digest());
  if (!pending_digests_.insert(key).second) return;
  pending_.push_back(std::move(req));
  maybe_propose(current_epoch_);
}

void AsyncReplica::admit_foreign_request(NodeId client, uint64_t client_seq,
                                         Bytes payload) {
  bft::ClientRequestMsg msg;
  msg.client_seq = client_seq;
  msg.payload = std::move(payload);
  msg.forwarded = true;
  handle_client_request(client, msg.serialize(), /*skip_validate=*/true);
}

void AsyncReplica::submit_local_request(Bytes payload) {
  bft::Request req;
  req.client = id();
  req.client_seq = local_seq_++;
  req.payload = std::move(payload);
  pending_digests_.insert(hex_encode(req.digest()));
  pending_.push_back(std::move(req));
  maybe_propose(current_epoch_);
}

void AsyncReplica::maybe_propose(uint64_t epoch) {
  if (epoch != current_epoch_) return;
  Epoch& e = epoch_state(epoch);
  if (e.proposed) return;
  // Propose when we have work, or when others started the epoch (empty
  // proposals keep the common-subset quorum alive).
  const bool others_active = !e.rbc.empty() || !e.aba.empty();
  if (pending_.empty() && !others_active) return;
  e.proposed = true;

  Writer w;
  const uint32_t take =
      static_cast<uint32_t>(std::min<std::size_t>(config_.max_batch, pending_.size()));
  w.u32(take);
  for (uint32_t i = 0; i < take; ++i) pending_[i].write(w);
  // Requests stay in pending_ until executed (they may ride a later epoch
  // if this proposal loses the cut).
  rbc_start(epoch, std::move(w).take());
}

// ---------------------------------------------------------------------------
// RBC (Bracha)

void AsyncReplica::rbc_start(uint64_t epoch, Bytes payload) {
  Writer w;
  w.raw(header(MsgType::kRbcInit, epoch, id()));
  w.bytes(payload);
  broadcast_abft(w.data());
  rbc_on_init(epoch, id(), std::move(payload));
}

void AsyncReplica::rbc_on_init(uint64_t epoch, uint32_t proposer,
                               Bytes payload) {
  RbcState& st = epoch_state(epoch).rbc[proposer];
  if (st.init_payload || st.echo_sent) return;
  st.init_payload = payload;
  st.echo_sent = true;
  Writer w;
  w.raw(header(MsgType::kRbcEcho, epoch, proposer));
  w.bytes(payload);
  broadcast_abft(w.data());
  rbc_on_echo(epoch, proposer, id(), std::move(payload));
}

void AsyncReplica::rbc_on_echo(uint64_t epoch, uint32_t proposer, NodeId from,
                               Bytes payload) {
  RbcState& st = epoch_state(epoch).rbc[proposer];
  if (st.delivered || st.echoes.contains(from)) return;
  charge(Op::kHash, payload.size());
  const std::string digest = hex_encode(crypto::sha256(payload));
  st.echoes[from] = digest;
  st.payloads.emplace(digest, std::move(payload));

  uint32_t matching = 0;
  for (const auto& [_, d] : st.echoes) {
    if (d == digest) ++matching;
  }
  if (matching >= config_.quorum() && !st.ready_sent) {
    st.ready_sent = true;
    Writer w;
    w.raw(header(MsgType::kRbcReady, epoch, proposer));
    w.bytes(st.payloads[digest]);
    broadcast_abft(w.data());
    rbc_on_ready(epoch, proposer, id(), st.payloads[digest]);
  }
}

void AsyncReplica::rbc_on_ready(uint64_t epoch, uint32_t proposer, NodeId from,
                                Bytes payload) {
  RbcState& st = epoch_state(epoch).rbc[proposer];
  if (st.delivered || st.readies.contains(from)) return;
  charge(Op::kHash, payload.size());
  const std::string digest = hex_encode(crypto::sha256(payload));
  st.readies[from] = digest;
  st.payloads.emplace(digest, std::move(payload));

  uint32_t matching = 0;
  for (const auto& [_, d] : st.readies) {
    if (d == digest) ++matching;
  }
  // f+1 readies: amplify.
  if (matching >= config_.f + 1 && !st.ready_sent) {
    st.ready_sent = true;
    Writer w;
    w.raw(header(MsgType::kRbcReady, epoch, proposer));
    w.bytes(st.payloads[digest]);
    broadcast_abft(w.data());
    rbc_on_ready(epoch, proposer, id(), st.payloads[digest]);
    return;  // recursion re-enters with our own ready counted
  }
  // 2f+1 readies: deliver.
  if (matching >= config_.quorum()) {
    st.delivered = true;
    rbc_deliver(epoch, proposer, st.payloads[digest]);
  }
}

void AsyncReplica::rbc_deliver(uint64_t epoch, uint32_t proposer, Bytes payload) {
  Epoch& e = epoch_state(epoch);
  e.accepted_batches[proposer] = std::move(payload);
  AbaState& aba = e.aba[proposer];
  if (!aba.started) aba_start(epoch, proposer, true);
  try_output(epoch);
}

// ---------------------------------------------------------------------------
// ABA (MMR with threshold common coin)

void AsyncReplica::aba_start(uint64_t epoch, uint32_t proposer, bool input) {
  AbaState& st = epoch_state(epoch).aba[proposer];
  if (st.started) return;
  st.started = true;
  st.est = input;
  st.round = 0;
  aba_send_bval(epoch, proposer, 0, input);
}

void AsyncReplica::aba_send_bval(uint64_t epoch, uint32_t proposer,
                                 uint32_t round, bool b) {
  AbaState& st = epoch_state(epoch).aba[proposer];
  AbaRound& rd = st.rounds[round];
  if (rd.bval_sent[b]) return;
  rd.bval_sent[b] = true;
  ++aba_rounds_run_;
  Writer w;
  w.raw(header(MsgType::kBval, epoch, proposer));
  w.u32(round);
  w.u8(b ? 1 : 0);
  broadcast_abft(w.data());
  aba_on_bval(epoch, proposer, round, id(), b);
}

void AsyncReplica::aba_on_bval(uint64_t epoch, uint32_t proposer,
                               uint32_t round, NodeId from, bool b) {
  AbaState& st = epoch_state(epoch).aba[proposer];
  AbaRound& rd = st.rounds[round];
  if (!rd.bval_senders[b].insert(from).second) return;
  const uint32_t count = static_cast<uint32_t>(rd.bval_senders[b].size());
  if (count >= config_.f + 1 && !rd.bval_sent[b]) {
    aba_send_bval(epoch, proposer, round, b);
  }
  if (count >= config_.quorum() && !rd.bin_values[b]) {
    rd.bin_values[b] = true;
    aba_progress(epoch, proposer);
  }
}

void AsyncReplica::aba_on_aux(uint64_t epoch, uint32_t proposer, uint32_t round,
                              NodeId from, bool b) {
  AbaRound& rd = epoch_state(epoch).aba[proposer].rounds[round];
  if (rd.aux.contains(from)) return;
  rd.aux[from] = b;
  aba_progress(epoch, proposer);
}

void AsyncReplica::aba_on_coin_share(uint64_t epoch, uint32_t proposer,
                                     uint32_t round, NodeId from,
                                     const CoinShare& share) {
  AbaRound& rd = epoch_state(epoch).aba[proposer].rounds[round];
  if (rd.coin.has_value() || rd.coin_shares.contains(from)) return;
  charge(Op::kTdh2VerifyShare, 0);  // same cost class: a CP verification
  if (!coin_verify_share(coin_pk_, coin_name(epoch, proposer, round), share)) {
    return;
  }
  rd.coin_shares[from] = share;
  if (rd.coin_shares.size() >= config_.f + 1) {
    std::vector<CoinShare> shares;
    shares.reserve(rd.coin_shares.size());
    for (const auto& [_, s] : rd.coin_shares) shares.push_back(s);
    charge(Op::kTdh2Combine, 0);
    rd.coin = coin_combine(coin_pk_, coin_name(epoch, proposer, round), shares);
  }
  aba_progress(epoch, proposer);
}

Bytes AsyncReplica::coin_name(uint64_t epoch, uint32_t proposer,
                              uint32_t round) const {
  Writer w;
  w.u64(epoch);
  w.u32(proposer);
  w.u32(round);
  return std::move(w).take();
}

void AsyncReplica::aba_progress(uint64_t epoch, uint32_t proposer) {
  AbaState& st = epoch_state(epoch).aba[proposer];
  if (!st.started || st.decided.has_value()) return;
  const uint32_t r = st.round;
  AbaRound& rd = st.rounds[r];

  // Broadcast AUX once some value entered bin_values.
  if (!rd.aux_sent && (rd.bin_values[0] || rd.bin_values[1])) {
    rd.aux_sent = true;
    const bool w_val = rd.bin_values[st.est] ? st.est : rd.bin_values[1];
    Writer w;
    w.raw(header(MsgType::kAux, epoch, proposer));
    w.u32(r);
    w.u8(w_val ? 1 : 0);
    broadcast_abft(w.data());
    rd.aux[id()] = w_val;
  }

  // Count AUX votes whose value is in bin_values.
  uint32_t valid_aux = 0;
  bool seen[2] = {false, false};
  for (const auto& [_, b] : rd.aux) {
    if (rd.bin_values[b]) {
      ++valid_aux;
      seen[b] = true;
    }
  }
  if (valid_aux < config_.n - config_.f) return;

  // Release our coin share (only now: earlier release lets the adversary
  // bias the round).
  if (!rd.coin_share_sent) {
    rd.coin_share_sent = true;
    charge(Op::kTdh2ShareDec, 0);  // same cost class: one CP share
    const CoinShare share =
        coin_share(coin_pk_, coin_key_, coin_name(epoch, proposer, r), rng_);
    Writer w;
    w.raw(header(MsgType::kCoinShare, epoch, proposer));
    w.u32(r);
    w.bytes(share.serialize(coin_pk_.group));
    broadcast_abft(w.data());
    aba_on_coin_share(epoch, proposer, r, id(), share);
    return;  // re-entered when the coin resolves
  }
  if (!rd.coin.has_value()) return;
  const bool c = *rd.coin;

  if (seen[0] != seen[1]) {
    const bool b = seen[1];
    st.est = b;
    if (b == c) {
      aba_decide(epoch, proposer, b);
      return;
    }
  } else {
    st.est = c;
  }
  st.round = r + 1;
  aba_send_bval(epoch, proposer, st.round, st.est);
  // Messages for the new round may already be buffered.
  aba_progress(epoch, proposer);
}

void AsyncReplica::aba_on_decided(uint64_t epoch, uint32_t proposer,
                                  NodeId from, bool b) {
  AbaState& st = epoch_state(epoch).aba[proposer];
  if (!st.decided_votes[b].insert(from).second) return;
  if (st.decided.has_value()) return;
  if (st.decided_votes[b].size() >= config_.f + 1) {
    aba_decide(epoch, proposer, b);
  }
}

void AsyncReplica::aba_decide(uint64_t epoch, uint32_t proposer, bool b) {
  AbaState& st = epoch_state(epoch).aba[proposer];
  if (st.decided.has_value()) return;
  st.decided = b;
  if (!st.decided_broadcast) {
    st.decided_broadcast = true;
    Writer w;
    w.raw(header(MsgType::kDecided, epoch, proposer));
    w.u8(b ? 1 : 0);
    broadcast_abft(w.data());
  }
  Epoch& e = epoch_state(epoch);
  ++e.decided;
  if (b) ++e.ones;
  maybe_zero_fill(epoch);
  try_output(epoch);
}

// ---------------------------------------------------------------------------
// ACS output

void AsyncReplica::maybe_zero_fill(uint64_t epoch) {
  Epoch& e = epoch_state(epoch);
  if (e.zero_filled || e.ones < config_.n - config_.f) return;
  e.zero_filled = true;
  for (uint32_t p = 0; p < config_.n; ++p) {
    AbaState& st = e.aba[p];
    if (!st.started) aba_start(epoch, p, false);
  }
}

void AsyncReplica::try_output(uint64_t epoch) {
  if (epoch != current_epoch_) return;
  Epoch& e = epoch_state(epoch);
  if (e.output_done) return;
  if (e.decided < config_.n) return;
  // Every accepted proposer's batch must have been RBC-delivered.
  for (uint32_t p = 0; p < config_.n; ++p) {
    if (e.aba[p].decided == std::optional<bool>(true) &&
        !e.accepted_batches.contains(p)) {
      return;  // RBC will deliver eventually (some correct node has it)
    }
  }
  e.output_done = true;

  // Execute accepted batches in proposer order.
  for (uint32_t p = 0; p < config_.n; ++p) {
    if (e.aba[p].decided != std::optional<bool>(true)) continue;
    Reader r(e.accepted_batches[p]);
    const uint32_t count = r.u32();
    if (!r.ok() || count > config_.max_batch) continue;
    for (uint32_t i = 0; i < count; ++i) {
      auto req = bft::Request::read(r);
      if (!req) break;
      if (!executed_window_[req->client].mark(req->client_seq)) continue;
      pending_digests_.erase(hex_encode(req->digest()));
      ++executed_requests_;
      app_->on_deliver(++exec_seq_, *req, *this);
    }
  }
  // The epoch's combined batch finished delivering: let the app flush any
  // work it deferred to amortize across the batch (CP1's reveal executions).
  app_->on_batch_end(*this);

  // Drop pending requests that were executed via another proposer's batch.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (!pending_digests_.contains(hex_encode(it->digest()))) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }

  epochs_.erase(epoch);
  ++current_epoch_;
  maybe_propose(current_epoch_);
}

}  // namespace scab::abft
