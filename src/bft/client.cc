#include "bft/client.h"

#include <algorithm>
#include <stdexcept>

#include "bft/batch.h"

namespace scab::bft {

using host::Op;

namespace {
// Exponential-backoff cap: retry delays double per retransmission up to
// base << kMaxBackoffShift.
constexpr uint32_t kMaxBackoffShift = 6;
}  // namespace

bool ReplyQuorum::add(NodeId replica, const ReplyMsg& reply) {
  if (fired_ || reply.client_seq != client_seq_) return false;
  votes_[replica] = reply.result;
  uint32_t matching = 0;
  for (const auto& [_, r] : votes_) {
    if (r == reply.result) ++matching;
  }
  if (matching >= need_) {
    fired_ = true;
    return true;
  }
  return false;
}

// One operation slot.  Every ClientContext capability forwards to the
// shared node (one sequential executor, one rng, one seq counter); only
// complete() and the seq a reply is routed by are slot-scoped, so a
// finishing protocol frees exactly its own slot.
struct Client::Slot final : ClientContext {
  Slot(Client& client, ClientProtocol* p) : c(client), protocol(p) {}
  Slot(Client& client, std::unique_ptr<ClientProtocol> p)
      : c(client), owned(std::move(p)), protocol(owned.get()) {}

  NodeId id() const override { return c.id(); }
  const BftConfig& config() const override { return c.config_; }
  host::Time now() const override { return c.now(); }
  void send_request(uint64_t client_seq, Bytes payload) override {
    sent_seq = client_seq;
    const Bytes body = request_body(client_seq, std::move(payload));
    for (NodeId r = 0; r < c.config_.n; ++r) {
      charge(Op::kMsgOverhead, 0);
      charge(Op::kMac, body.size());
      c.send_raw(r, seal_envelope(c.keys_, Channel::kClientRequest, id(), r,
                                  body));
    }
  }
  void send_request_to(NodeId replica, uint64_t client_seq,
                       Bytes payload) override {
    sent_seq = client_seq;
    const Bytes body = request_body(client_seq, std::move(payload));
    charge(Op::kMac, body.size());
    c.send_raw(replica, seal_envelope(c.keys_, Channel::kClientRequest, id(),
                                      replica, body));
  }
  void send_causal(NodeId replica, Bytes body) override {
    charge(Op::kMac, body.size());
    c.send_raw(replica,
               seal_envelope(c.keys_, Channel::kCausal, id(), replica, body));
  }
  uint64_t next_seq() override { return c.next_seq_++; }
  void complete(Bytes result) override {
    c.complete_slot(*this, std::move(result));
  }
  void charge(host::Op op, std::size_t bytes) override { c.charge(op, bytes); }
  crypto::Drbg& rng() override { return c.rng_; }
  const KeyRing& keys() const override { return c.keys_; }

  static Bytes request_body(uint64_t client_seq, Bytes payload) {
    ClientRequestMsg msg;
    msg.client_seq = client_seq;
    msg.payload = std::move(payload);
    return msg.serialize();
  }

  Client& c;
  std::unique_ptr<ClientProtocol> owned;  // null for the constructor's
  ClientProtocol* protocol;
  bool in_flight = false;
  uint64_t seq = 0;
  // The client_seq of the last request sent (CP1's reveal takes a second
  // one): replies for it are this slot's.
  uint64_t sent_seq = 0;
  uint64_t index_base = 0;  // first logical-op index carried by this slot
  uint32_t logical = 1;     // logical payloads packed into the operation
  Bytes op;
  host::Time start = 0;
  uint64_t retry_epoch = 0;
  uint32_t retries = 0;
};

Client::Client(host::Host& host, NodeId id, BftConfig config,
               const KeyRing& keys, const host::CostModel& costs,
               ClientProtocol* protocol, crypto::Drbg rng,
               obs::MetricsRegistry* metrics, obs::Tracer* tracer)
    : HostBound(host, id, costs),
      config_(config),
      keys_(keys),
      rng_(std::move(rng)),
      tracer_(tracer ? *tracer : obs::Tracer::inert()) {
  obs::MetricsRegistry& reg =
      metrics ? *metrics : obs::MetricsRegistry::inert();
  m_.submitted = &reg.counter("client.submitted");
  m_.completed = &reg.counter("client.completed");
  m_.retries = &reg.counter("client.retries");
  m_.latency_ns = &reg.histogram("client.latency_ns");
  m_.pipeline_slots = &reg.histogram("client.pipeline_slots");
  m_.shed = &reg.counter("client.shed");
  slots_.push_back(std::make_unique<Slot>(*this, protocol));
  bind();
}

Client::~Client() { unbind(); }

void Client::set_pipeline(ProtocolFactory factory, uint32_t inflight,
                          uint32_t batch) {
  // Retry timers of earlier operations hold the slots this would replace.
  if (issued_ != 0) {
    throw std::logic_error("Client::set_pipeline after the first operation");
  }
  batch_ = std::max<uint32_t>(1, batch);
  slots_.clear();
  for (uint32_t i = 0; i < std::max<uint32_t>(1, inflight); ++i) {
    slots_.push_back(std::make_unique<Slot>(*this, factory()));
  }
}

void Client::run_closed_loop(OpGenerator gen, uint64_t max_ops,
                             CompletionHook hook) {
  generator_ = std::move(gen);
  hook_ = std::move(hook);
  // max_ops counts operations from THIS call (the loop may be re-armed).
  max_ops_ = max_ops == 0 ? 0 : issued_ + max_ops;
  fill_slots();
}

void Client::run_open_loop(OpGenerator gen, uint64_t max_ops,
                           host::Time interval, CompletionHook hook) {
  generator_ = std::move(gen);
  hook_ = std::move(hook);
  max_ops_ = max_ops == 0 ? 0 : issued_ + max_ops;
  open_loop_ = true;
  open_interval_ = std::max<host::Time>(1, interval);
  open_tick();
}

void Client::submit(Bytes op, CompletionHook hook) {
  Slot* slot = free_slot();
  if (slot == nullptr) {
    m_.shed->inc();
    return;
  }
  hook_ = std::move(hook);
  generator_ = nullptr;
  max_ops_ = 0;
  std::vector<Bytes> ops;
  ops.push_back(std::move(op));
  launch(*slot, std::move(ops));
}

Client::Slot* Client::free_slot() {
  for (auto& slot : slots_) {
    if (!slot->in_flight) return slot.get();
  }
  return nullptr;
}

void Client::launch(Slot& slot, std::vector<Bytes> ops) {
  slot.index_base = issued_;
  slot.logical = static_cast<uint32_t>(ops.size());
  issued_ += slot.logical;
  // A batch of one is never framed: the wire is the single request's.
  slot.op = ops.size() == 1 ? std::move(ops[0]) : encode_op_batch(ops);
  slot.seq = next_seq_++;
  slot.in_flight = true;
  slot.retries = 0;
  slot.start = now();
  m_.submitted->inc(slot.logical);
  tracer_.record(id(), slot.seq, obs::Phase::kSubmit, now());
  slot.protocol->start(slot.seq, slot.op, slot);
  arm_slot_retry(slot);
}

void Client::open_tick() {
  if (!open_loop_ || generator_ == nullptr) return;
  if (max_ops_ != 0 && issued_ >= max_ops_) return;  // done issuing
  if (Slot* slot = free_slot()) {
    std::vector<Bytes> ops;
    ops.push_back(generator_(issued_));
    launch(*slot, std::move(ops));
  } else {
    m_.shed->inc();
  }
  if (max_ops_ != 0 && issued_ >= max_ops_) return;
  // Deterministic pacing: the base interval plus a DRBG draw of up to an
  // eighth, so many open-loop clients sharing a cluster desynchronize while
  // seeded runs stay bit-identical.
  host::Time delay = open_interval_;
  delay += rng_.uniform(open_interval_ / 8 + 1);
  schedule(delay, [this] { open_tick(); });
}

void Client::fill_slots() {
  if (generator_ == nullptr) return;
  for (auto& slot : slots_) {
    if (slot->in_flight) continue;
    if (max_ops_ != 0 && issued_ >= max_ops_) break;
    uint64_t k = batch_;
    if (max_ops_ != 0) k = std::min<uint64_t>(k, max_ops_ - issued_);
    std::vector<Bytes> ops;
    ops.reserve(k);
    for (uint64_t j = 0; j < k; ++j) ops.push_back(generator_(issued_ + j));
    launch(*slot, std::move(ops));
  }
  uint64_t busy = 0;
  for (const auto& slot : slots_) busy += slot->in_flight ? 1 : 0;
  m_.pipeline_slots->record(busy);
}

void Client::arm_slot_retry(Slot& slot) {
  const uint64_t epoch = ++slot.retry_epoch;
  // Capped exponential backoff: the k-th retransmission of one operation
  // waits base << min(k, cap), plus DRBG jitter of up to a quarter of the
  // delay so retrying clients desynchronize.  The FIRST arm of an operation
  // is exactly `retry_timeout_` with no DRBG draw: on the happy path (no
  // retry ever fires) the client's random stream is untouched, which keeps
  // seeded simulator runs bit-identical to the pre-backoff behavior.
  host::Time delay = retry_timeout_ << std::min(slot.retries, kMaxBackoffShift);
  if (slot.retries > 0) delay += rng_.uniform(delay / 4 + 1);
  schedule(delay, [this, &slot, epoch] {
    if (!slot.in_flight || epoch != slot.retry_epoch) return;
    ++slot.retries;
    m_.retries->inc();
    slot.protocol->on_retransmit(slot);
    arm_slot_retry(slot);
  });
}

void Client::complete_slot(Slot& slot, Bytes result) {
  if (!slot.in_flight) return;
  slot.in_flight = false;
  ++slot.retry_epoch;  // cancel pending retries
  // Back to the base interval after a successful reply: one slow operation
  // (e.g. one that rode out a view change) must not leave the next
  // operation's first retransmission waiting a maxed-out backoff.
  slot.retries = 0;
  const host::Time end = now();
  const host::Time latency = end - slot.start;
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    last_result_ = std::move(result);
    // Every logical payload in the operation experienced the slot latency.
    total_latency_ += latency * slot.logical;
  }
  completed_.fetch_add(slot.logical, std::memory_order_release);
  m_.completed->inc(slot.logical);
  for (uint32_t j = 0; j < slot.logical; ++j) m_.latency_ns->record(latency);
  tracer_.record(id(), slot.seq, obs::Phase::kCompleted, end);
  if (hook_) {
    for (uint32_t j = 0; j < slot.logical; ++j) {
      hook_(slot.index_base + j, slot.start, end);
    }
  }
  // Open loop: the timer chain — not completions — decides when the next
  // operation starts; refilling here would collapse back into closed loop.
  if (!open_loop_) fill_slots();
}

void Client::on_message(NodeId /*from*/, BytesView msg) {
  charge(Op::kMsgOverhead, 0);
  charge(Op::kMac, msg.size());
  auto env = open_envelope(keys_, id(), msg);
  if (!env) return;

  switch (env->channel) {
    case Channel::kReply: {
      auto reply = ReplyMsg::parse(env->body);
      if (!reply || reply->replica != env->sender) return;
      if (env->sender >= config_.n) return;
      // Only the in-flight slot that sent this client_seq counts the reply.
      for (auto& slot : slots_) {
        if (slot->in_flight && slot->sent_seq == reply->client_seq) {
          slot->protocol->on_reply(env->sender, *reply, *slot);
          break;
        }
      }
      break;
    }
    case Channel::kCausal:
      // Not keyed by a seq the client knows: every in-flight slot sees it.
      for (auto& slot : slots_) {
        if (slot->in_flight) {
          slot->protocol->on_causal_message(env->sender, env->body, *slot);
        }
      }
      break;
    default:
      break;  // clients ignore BFT traffic
  }
}

}  // namespace scab::bft
