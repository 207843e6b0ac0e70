#include "trace.h"

#include <cstring>
#include <utility>

namespace perfbench {

using scab::host::NodeId;

const char* kind_name(Kind k) {
  static const char* const kNames[] = {
      "node.msg",        "node.post",       "node.timer",
      "pool.job",        "pool.cont",       "host.send",
      "transport.send",  "app.deliver",     "app.batch_end",
      "app.causal",      "app.validate",    "app.new_view",
      "app.restore",     "app.wal_record",  "app.serialize",
      "ctx.reply",       "ctx.causal",      "ctx.broadcast",
      "ctx.wal",         "service.exec",    "client.start",
      "client.reply",    "client.causal",   "client.retransmit",
      "client.done",     "te.encrypt",      "te.verify_ct",
      "te.share",        "te.verify_share", "te.combine",
      "st.append",       "st.sync",         "st.put"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<std::size_t>(Kind::kCount));
  return kNames[static_cast<std::size_t>(k)];
}

// ---------------------------------------------------------------------------
// Recorder

Recorder& Recorder::get() {
  static Recorder r;
  return r;
}

Recorder::ThreadBuf& Recorder::buf() {
  thread_local ThreadBuf* tl = nullptr;
  if (tl == nullptr) {
    auto owned = std::make_unique<ThreadBuf>();
    owned->spans.reserve(1 << 14);
    tl = owned.get();
    std::lock_guard<std::mutex> lk(bufs_mu_);
    bufs_.push_back(std::move(owned));
  }
  return *tl;
}

int64_t Recorder::open(Kind kind, uint32_t node, uint32_t client,
                       uint64_t seq, uint32_t arg) {
  if (!on()) return -1;
  ThreadBuf& b = buf();
  Span s;
  s.kind = kind;
  s.node = node;
  s.client = client;
  s.seq = seq;
  s.arg = arg;
  s.parent = b.stack.empty() ? Span::kNoParent : b.stack.back();
  const auto index = static_cast<uint32_t>(b.spans.size());
  b.stack.push_back(index);
  s.start = now_ns();
  b.spans.push_back(s);
  return index;
}

void Recorder::close(int64_t index) {
  const uint64_t end = now_ns();
  ThreadBuf& b = buf();
  Span& s = b.spans[static_cast<std::size_t>(index)];
  s.end = end;
  // Scopes nest strictly on one thread, so the closing span is the top.
  if (!b.stack.empty()) b.stack.pop_back();
  if (s.parent != Span::kNoParent) b.spans[s.parent].child += s.dur();
}

void Recorder::event(Kind kind, uint32_t node, uint32_t client, uint64_t seq,
                     uint64_t at) {
  if (!on()) return;
  ThreadBuf& b = buf();
  Span s;
  s.kind = kind;
  s.node = node;
  s.client = client;
  s.seq = seq;
  s.start = s.end = at;
  s.parent = b.stack.empty() ? Span::kNoParent : b.stack.back();
  b.spans.push_back(s);
}

void Recorder::sample(Sample kind, double value) {
  if (!on()) return;
  buf().samples.push_back(SampleRec{value, kind});
}

void Recorder::collect(std::vector<Span>* spans,
                       std::vector<SampleRec>* samples) {
  std::lock_guard<std::mutex> lk(bufs_mu_);
  for (const auto& b : bufs_) {
    // Parent indices are per buffer; rebase them into the merged vector.
    const auto base = static_cast<uint32_t>(spans->size());
    for (Span s : b->spans) {
      if (s.end == 0) continue;  // still open when its thread stopped
      if (s.parent != Span::kNoParent) s.parent += base;
      spans->push_back(s);
    }
    samples->insert(samples->end(), b->samples.begin(), b->samples.end());
    b->spans.clear();
    b->samples.clear();
    b->stack.clear();
  }
  std::lock_guard<std::mutex> wire(wire_mu_);
  sent_.clear();
  arrivals_.clear();
}

namespace {

// A sealed envelope ends in its MAC tag, so (from, to, size, last 8 bytes)
// names one frame; retransmissions of identical bytes queue up in order.
uint64_t wire_key(uint32_t from, uint32_t to, BytesView msg) {
  uint64_t tail = 0;
  const std::size_t n = std::min<std::size_t>(8, msg.size());
  std::memcpy(&tail, msg.data() + msg.size() - n, n);
  uint64_t k =
      tail ^ (static_cast<uint64_t>(msg.size()) * 0x9e3779b97f4a7c15ull);
  k ^= (static_cast<uint64_t>(from) << 40) ^ (static_cast<uint64_t>(to) << 20);
  return k;
}

uint64_t arrival_key(uint32_t to, const uint8_t* data) {
  return reinterpret_cast<uintptr_t>(data) ^ (static_cast<uint64_t>(to) << 52);
}

}  // namespace

void Recorder::note_sent(uint32_t from, uint32_t to, BytesView msg,
                         uint64_t at) {
  if (!on() || msg.empty()) return;
  std::lock_guard<std::mutex> lk(wire_mu_);
  sent_[wire_key(from, to, msg)].push_back(at);
}

uint64_t Recorder::take_sent(uint32_t from, uint32_t to, BytesView msg) {
  if (msg.empty()) return 0;
  std::lock_guard<std::mutex> lk(wire_mu_);
  auto it = sent_.find(wire_key(from, to, msg));
  if (it == sent_.end() || it->second.empty()) return 0;
  const uint64_t at = it->second.front();
  it->second.erase(it->second.begin());
  if (it->second.empty()) sent_.erase(it);
  return at;
}

void Recorder::note_arrival(uint32_t to, const uint8_t* data, uint64_t at) {
  if (!on() || data == nullptr) return;
  std::lock_guard<std::mutex> lk(wire_mu_);
  arrivals_[arrival_key(to, data)] = at;
}

uint64_t Recorder::take_arrival(uint32_t to, const uint8_t* data) {
  if (data == nullptr) return 0;
  std::lock_guard<std::mutex> lk(wire_mu_);
  auto it = arrivals_.find(arrival_key(to, data));
  if (it == arrivals_.end()) return 0;
  const uint64_t at = it->second;
  arrivals_.erase(it);
  return at;
}

// ---------------------------------------------------------------------------
// TimedTransport

void TimedTransport::send(NodeId from, NodeId to, Bytes msg) {
  Recorder& r = Recorder::get();
  Scope s(Kind::kTransportSend, from, 0, 0, static_cast<uint32_t>(msg.size()));
  r.note_sent(from, to, msg, now_ns());
  inner_->send(from, to, std::move(msg));
}

void TimedTransport::start() {
  inner_->set_deliver([this](NodeId from, NodeId to, Bytes msg) {
    Recorder& r = Recorder::get();
    if (r.on()) {
      const uint64_t at = now_ns();
      if (const uint64_t sent = r.take_sent(from, to, msg); sent != 0) {
        r.sample(Sample::kFlight, static_cast<double>(at - sent));
      }
      // The host moves the buffer into the receiver's mailbox, so its data
      // pointer identifies the message again at handler start.
      r.note_arrival(to, msg.data(), at);
    }
    if (deliver_) deliver_(from, to, std::move(msg));
  });
  inner_->start();
}

// ---------------------------------------------------------------------------
// TracedHost

class TracedHost::TimedNode final : public scab::host::Node {
 public:
  TimedNode(scab::host::Node* inner, NodeId id) : inner_(inner), id_(id) {}
  void on_message(NodeId from, BytesView msg) override {
    Recorder& r = Recorder::get();
    if (const uint64_t at = r.take_arrival(id_, msg.data()); at != 0) {
      const uint64_t start = now_ns();
      r.sample(Sample::kExecWait,
               start > at ? static_cast<double>(start - at) : 0.0);
    }
    Scope s(Kind::kNodeMsg, id_, 0, 0, static_cast<uint32_t>(msg.size()));
    inner_->on_message(from, msg);
  }

 private:
  scab::host::Node* inner_;
  NodeId id_;
};

class TracedHost::TimedStorage final : public scab::host::Storage {
 public:
  TimedStorage(scab::host::Storage* inner, NodeId id)
      : inner_(inner), id_(id) {}
  void put(std::string_view key, BytesView value) override {
    Scope s(Kind::kStPut, id_, 0, 0, static_cast<uint32_t>(value.size()));
    inner_->put(key, value);
  }
  std::optional<Bytes> get(std::string_view key) const override {
    return inner_->get(key);
  }
  void erase(std::string_view key) override { inner_->erase(key); }
  void append(BytesView record) override {
    Scope s(Kind::kStAppend, id_, 0, 0, static_cast<uint32_t>(record.size()));
    inner_->append(record);
  }
  void sync() override {
    Scope s(Kind::kStSync, id_);
    inner_->sync();
  }
  std::size_t replay(const std::function<void(BytesView)>& fn) const override {
    return inner_->replay(fn);
  }
  void truncate_log() override { inner_->truncate_log(); }
  std::size_t log_records() const override { return inner_->log_records(); }
  void bind_metrics(scab::obs::MetricsRegistry* metrics) override {
    inner_->bind_metrics(metrics);
  }

 private:
  scab::host::Storage* inner_;
  NodeId id_;
};

TracedHost::TracedHost(std::unique_ptr<scab::host::Host> inner)
    : inner_(std::move(inner)) {}

TracedHost::~TracedHost() { inner_->stop(); }

void TracedHost::schedule(NodeId node, scab::host::Time delay,
                          std::function<void()> fn) {
  const uint64_t due = now_ns() + delay;
  inner_->schedule(node, delay, [node, due, fn = std::move(fn)] {
    const uint64_t start = now_ns();
    Recorder::get().sample(
        Sample::kExecWait,
        start > due ? static_cast<double>(start - due) : 0.0);
    Scope s(Kind::kNodeTimer, node);
    fn();
  });
}

void TracedHost::send(NodeId from, NodeId to, Bytes msg) {
  Scope s(Kind::kHostSend, from, 0, 0, static_cast<uint32_t>(msg.size()));
  inner_->send(from, to, std::move(msg));
}

void TracedHost::post(NodeId node, std::function<void()> fn) {
  const uint64_t posted = now_ns();
  inner_->post(node, [node, posted, fn = std::move(fn)] {
    Recorder::get().sample(Sample::kExecWait,
                           static_cast<double>(now_ns() - posted));
    Scope s(Kind::kNodePost, node);
    fn();
  });
}

void TracedHost::submit(NodeId owner, scab::host::PoolJob job) {
  if (!job) return inner_->submit(owner, std::move(job));
  const uint64_t submitted = now_ns();
  inner_->submit(owner, [owner, submitted, job = std::move(job)]()
                            -> std::function<void()> {
    Recorder& r = Recorder::get();
    r.sample(Sample::kPoolWait, static_cast<double>(now_ns() - submitted));
    std::function<void()> cont;
    {
      Scope s(Kind::kPoolJob, owner);
      cont = job();
    }
    if (!cont) return cont;
    const uint64_t done = now_ns();
    return [owner, done, cont = std::move(cont)] {
      Recorder::get().sample(Sample::kContWait,
                             static_cast<double>(now_ns() - done));
      Scope s(Kind::kPoolCont, owner);
      cont();
    };
  });
}

void TracedHost::bind(NodeId id, scab::host::Node* endpoint) {
  auto node = std::make_unique<TimedNode>(endpoint, id);
  TimedNode* raw = node.get();
  {
    std::lock_guard<std::mutex> lk(mu_);
    nodes_[id] = std::move(node);
  }
  inner_->bind(id, raw);
}

void TracedHost::unbind(NodeId id) {
  // The inner host joins the node's executor before unbind returns, so the
  // wrapper can go afterwards.
  inner_->unbind(id);
  std::lock_guard<std::mutex> lk(mu_);
  nodes_.erase(id);
}

scab::host::Storage* TracedHost::storage(NodeId node) {
  scab::host::Storage* inner = inner_->storage(node);
  if (inner == nullptr) return nullptr;
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = storages_[node];
  if (!slot) slot = std::make_unique<TimedStorage>(inner, node);
  return slot.get();
}

// ---------------------------------------------------------------------------
// CheckedService

Bytes CheckedService::execute(NodeId client, BytesView op) {
  Scope s(Kind::kServiceExec, node_, client);
  ++calls_;
  if (drop_at_ != 0 && calls_ == drop_at_) return Bytes{};
  const Bytes& t = *template_;
  uint64_t index = 0;
  if (op.size() == t.size() && op.size() >= 8 &&
      std::memcmp(op.data() + 8, t.data() + 8, t.size() - 8) == 0) {
    std::memcpy(&index, op.data(), 8);
  } else {
    malformed_.fetch_add(1, std::memory_order_relaxed);
  }
  Bytes out = inner_->execute(client, op);
  index_sum_.fetch_add(index, std::memory_order_relaxed);
  executed_.fetch_add(1, std::memory_order_release);
  return out;
}

// ---------------------------------------------------------------------------
// TimedApp

class TimedApp::TimedContext final : public scab::bft::ReplicaContext {
 public:
  explicit TimedContext(scab::bft::ReplicaContext& inner) : in_(inner) {}

  NodeId id() const override { return in_.id(); }
  const scab::bft::BftConfig& config() const override { return in_.config(); }
  uint64_t view() const override { return in_.view(); }
  bool is_primary() const override { return in_.is_primary(); }
  scab::host::Time now() const override { return in_.now(); }
  void send_reply(NodeId client, uint64_t client_seq, Bytes result) override {
    Scope s(Kind::kCtxReply, in_.id(), client, client_seq);
    in_.send_reply(client, client_seq, std::move(result));
  }
  void send_causal(NodeId to, Bytes body) override {
    Scope s(Kind::kCtxCausal, in_.id(), 0, 0, 1);
    in_.send_causal(to, std::move(body));
  }
  void broadcast_causal(Bytes body) override {
    Scope s(Kind::kCtxBroadcast, in_.id(), 0, 0, in_.config().n - 1);
    in_.broadcast_causal(std::move(body));
  }
  void submit_local_request(Bytes payload) override {
    in_.submit_local_request(std::move(payload));
  }
  void request_view_change(const char* reason) override {
    in_.request_view_change(reason);
  }
  void admit_foreign_request(NodeId client, uint64_t client_seq,
                             Bytes payload) override {
    in_.admit_foreign_request(client, client_seq, std::move(payload));
  }
  void schedule(scab::host::Time delay, std::function<void()> fn) override {
    in_.schedule(delay, std::move(fn));
  }
  void wal_append(BytesView record) override {
    Scope s(Kind::kCtxWal, in_.id(), 0, 0,
            static_cast<uint32_t>(record.size()));
    in_.wal_append(record);
  }
  void charge(scab::host::Op op, std::size_t bytes) override {
    in_.charge(op, bytes);
  }
  void offload(scab::host::PoolJob job) override {
    in_.offload(std::move(job));
  }
  scab::crypto::Drbg& rng() override { return in_.rng(); }
  const scab::bft::KeyRing& keys() const override { return in_.keys(); }
  scab::obs::MetricsRegistry& metrics() override { return in_.metrics(); }
  scab::obs::Tracer& tracer() override { return in_.tracer(); }

 private:
  scab::bft::ReplicaContext& in_;
};

TimedApp::TimedApp(std::unique_ptr<scab::bft::ReplicaApp> inner)
    : inner_(std::move(inner)) {}

TimedApp::~TimedApp() = default;

scab::bft::ReplicaContext& TimedApp::wrap(scab::bft::ReplicaContext& ctx) {
  // One replica drives one app, so the context never changes.
  if (!ctx_) ctx_ = std::make_unique<TimedContext>(ctx);
  return *ctx_;
}

void TimedApp::on_deliver(uint64_t seq, const scab::bft::Request& req,
                          scab::bft::ReplicaContext& ctx) {
  Scope s(Kind::kAppDeliver, ctx.id(), req.client, req.client_seq);
  ++batch_requests_;
  inner_->on_deliver(seq, req, wrap(ctx));
}

void TimedApp::on_batch_end(scab::bft::ReplicaContext& ctx) {
  if (ctx.is_primary()) {
    Recorder::get().sample(Sample::kOpsPerBatch, batch_requests_);
  }
  batch_requests_ = 0;
  Scope s(Kind::kAppBatchEnd, ctx.id());
  inner_->on_batch_end(wrap(ctx));
}

void TimedApp::on_causal_message(scab::bft::NodeId from, BytesView body,
                                 scab::bft::ReplicaContext& ctx) {
  Scope s(Kind::kAppCausal, ctx.id(), from);
  inner_->on_causal_message(from, body, wrap(ctx));
}

bool TimedApp::validate_request(scab::bft::NodeId client,
                                const scab::bft::ClientRequestMsg& msg,
                                scab::bft::ReplicaContext& ctx) {
  Scope s(Kind::kAppValidate, ctx.id(), client, msg.client_seq);
  return inner_->validate_request(client, msg, wrap(ctx));
}

void TimedApp::on_new_view(uint64_t view, scab::bft::ReplicaContext& ctx) {
  Scope s(Kind::kAppNewView, ctx.id(), 0, view);
  inner_->on_new_view(view, wrap(ctx));
}

Bytes TimedApp::serialize_state(scab::bft::ReplicaContext& ctx) {
  Scope s(Kind::kAppSerialize, ctx.id());
  return inner_->serialize_state(wrap(ctx));
}

bool TimedApp::restore_state(BytesView blob, scab::bft::ReplicaContext& ctx) {
  Scope s(Kind::kAppRestore, ctx.id());
  return inner_->restore_state(blob, wrap(ctx));
}

void TimedApp::on_wal_record(BytesView record, scab::bft::ReplicaContext& ctx) {
  Scope s(Kind::kAppWalRecord, ctx.id());
  inner_->on_wal_record(record, wrap(ctx));
}

// ---------------------------------------------------------------------------
// TimedClientProtocol

class TimedClientProtocol::TimedClientContext final
    : public scab::bft::ClientContext {
 public:
  scab::bft::ClientContext* in = nullptr;
  uint64_t seq = 0;

  NodeId id() const override { return in->id(); }
  const scab::bft::BftConfig& config() const override { return in->config(); }
  scab::host::Time now() const override { return in->now(); }
  void send_request(uint64_t client_seq, Bytes payload) override {
    in->send_request(client_seq, std::move(payload));
  }
  void send_request_to(NodeId replica, uint64_t client_seq,
                       Bytes payload) override {
    in->send_request_to(replica, client_seq, std::move(payload));
  }
  void send_causal(NodeId replica, Bytes body) override {
    in->send_causal(replica, std::move(body));
  }
  uint64_t next_seq() override { return in->next_seq(); }
  void complete(Bytes result) override {
    Recorder::get().event(Kind::kClientDone, in->id(), in->id(), seq, now_ns());
    in->complete(std::move(result));
  }
  void charge(scab::host::Op op, std::size_t bytes) override {
    in->charge(op, bytes);
  }
  scab::crypto::Drbg& rng() override { return in->rng(); }
  const scab::bft::KeyRing& keys() const override { return in->keys(); }
};

TimedClientProtocol::TimedClientProtocol(
    std::unique_ptr<scab::bft::ClientProtocol> inner)
    : inner_(std::move(inner)), ctx_(std::make_unique<TimedClientContext>()) {}

TimedClientProtocol::~TimedClientProtocol() = default;

void TimedClientProtocol::start(uint64_t client_seq, BytesView op,
                                scab::bft::ClientContext& ctx) {
  ctx_->in = &ctx;
  ctx_->seq = client_seq;
  Scope s(Kind::kClientStart, ctx.id(), ctx.id(), client_seq);
  inner_->start(client_seq, op, *ctx_);
}

void TimedClientProtocol::on_reply(scab::bft::NodeId replica,
                                   const scab::bft::ReplyMsg& reply,
                                   scab::bft::ClientContext& ctx) {
  ctx_->in = &ctx;
  Scope s(Kind::kClientReply, ctx.id(), ctx.id(), reply.client_seq);
  inner_->on_reply(replica, reply, *ctx_);
}

void TimedClientProtocol::on_causal_message(scab::bft::NodeId from,
                                            BytesView body,
                                            scab::bft::ClientContext& ctx) {
  ctx_->in = &ctx;
  Scope s(Kind::kClientCausal, ctx.id(), ctx.id(), ctx_->seq);
  inner_->on_causal_message(from, body, *ctx_);
}

void TimedClientProtocol::on_retransmit(scab::bft::ClientContext& ctx) {
  ctx_->in = &ctx;
  Scope s(Kind::kClientRetransmit, ctx.id(), ctx.id(), ctx_->seq);
  inner_->on_retransmit(*ctx_);
}

// ---------------------------------------------------------------------------
// TimedCp0Backend

Bytes TimedCp0Backend::encrypt(BytesView message, BytesView label,
                               scab::crypto::Drbg& rng) {
  Scope s(Kind::kTeEncrypt, node_);
  return inner_->encrypt(message, label, rng);
}

bool TimedCp0Backend::verify_ciphertext(BytesView ct, BytesView label) {
  Scope s(Kind::kTeVerifyCt, node_);
  return inner_->verify_ciphertext(ct, label);
}

std::optional<Bytes> TimedCp0Backend::decryption_share(
    uint32_t index, BytesView ct, BytesView label, scab::crypto::Drbg& rng) {
  Scope s(Kind::kTeShare, node_);
  return inner_->decryption_share(index, ct, label, rng);
}

bool TimedCp0Backend::verify_share(BytesView ct, BytesView label,
                                   BytesView share) {
  Scope s(Kind::kTeVerifyShare, node_, 0, 0, 1);
  return inner_->verify_share(ct, label, share);
}

std::vector<uint8_t> TimedCp0Backend::batch_verify_shares(
    BytesView ct, BytesView label, const std::vector<Bytes>& shares,
    scab::crypto::Drbg& rng, uint32_t* fallback_splits) {
  Scope s(Kind::kTeVerifyShare, node_, 0, 0,
          static_cast<uint32_t>(shares.size()));
  return inner_->batch_verify_shares(ct, label, shares, rng, fallback_splits);
}

std::function<scab::causal::Cp0Backend::BatchVerifyResult()>
TimedCp0Backend::make_batch_share_verifier(BytesView ct, BytesView label,
                                           std::vector<Bytes> shares,
                                           scab::crypto::Drbg& rng) {
  const auto count = static_cast<uint32_t>(shares.size());
  auto job =
      inner_->make_batch_share_verifier(ct, label, std::move(shares), rng);
  // The job runs on a pool thread; time it there.
  return [node = node_, count, job = std::move(job)] {
    Scope s(Kind::kTeVerifyShare, node, 0, 0, count);
    return job();
  };
}

std::optional<Bytes> TimedCp0Backend::combine(
    BytesView ct, BytesView label, const std::vector<Bytes>& shares) {
  Scope s(Kind::kTeCombine, node_);
  return inner_->combine(ct, label, shares);
}

std::optional<Bytes> TimedCp0Backend::decryption_share_preverified(
    uint32_t index, BytesView ct, BytesView label, scab::crypto::Drbg& rng) {
  Scope s(Kind::kTeShare, node_);
  return inner_->decryption_share_preverified(index, ct, label, rng);
}

std::optional<Bytes> TimedCp0Backend::combine_preverified(
    BytesView ct, BytesView label, const std::vector<Bytes>& shares) {
  Scope s(Kind::kTeCombine, node_);
  return inner_->combine_preverified(ct, label, shares);
}

Bytes TimedCp0Backend::encrypt_batch(const std::vector<Bytes>& messages,
                                     BytesView prefix,
                                     scab::crypto::Drbg& rng) {
  Scope s(Kind::kTeEncrypt, node_);
  return inner_->encrypt_batch(messages, prefix, rng);
}

std::optional<std::vector<Bytes>> TimedCp0Backend::combine_batch_preverified(
    BytesView ct, BytesView prefix, BytesView full_label,
    const std::vector<Bytes>& shares) {
  Scope s(Kind::kTeCombine, node_);
  return inner_->combine_batch_preverified(ct, prefix, full_label, shares);
}

}  // namespace perfbench
