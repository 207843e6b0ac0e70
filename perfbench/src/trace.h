// Timing decorators for the traced run.
//
// Every decorator wraps one public seam of the replica stack and records a
// span around each call into it: host::Host (send, post, schedule, submit,
// storage and the Node passed to bind), rt::Transport, bft::ReplicaApp and
// the ReplicaContext it is handed, causal::Service, bft::ClientProtocol and
// the ClientContext it is handed, and causal::Cp0Backend.  A span carries
// its kind, start, end, the time its direct children covered (so self time
// is end - start - child), its parent on the same thread, the node it ran
// for and the request id (client, client_seq) where the seam knows it.
//
// Spans go into per-thread buffers and stay in memory until the run ends;
// Recorder::collect() merges them once every stack thread has been joined.
// Recording is gated by Recorder::set_on(), so set-up and warm-up leave no
// spans.  The untraced runs build the stack without any of these classes
// but CheckedService, the correctness check every run needs (its span costs
// one relaxed atomic load while recording is off).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "bft/app.h"
#include "bft/client.h"
#include "causal/cp0.h"
#include "causal/service.h"
#include "host/host.h"
#include "rt/transport.h"

namespace perfbench {

using scab::Bytes;
using scab::BytesView;

/// Process-wide steady clock: every node's spans share one time base.
inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class Kind : uint8_t {
  // rt.executor / rt.pool: top-level handler spans on a node's executor.
  kNodeMsg,
  kNodePost,
  kNodeTimer,
  kPoolJob,
  kPoolCont,
  // Host and transport sends.
  kHostSend,
  kTransportSend,
  // causal: ReplicaApp handlers.
  kAppDeliver,
  kAppBatchEnd,
  kAppCausal,
  kAppValidate,
  kAppNewView,
  kAppRestore,
  kAppWalRecord,
  kAppSerialize,
  // bft replica services the app calls through ReplicaContext.
  kCtxReply,
  kCtxCausal,
  kCtxBroadcast,
  kCtxWal,
  // The replicated Service.
  kServiceExec,
  // bft client.
  kClientStart,
  kClientReply,
  kClientCausal,
  kClientRetransmit,
  kClientDone,  // zero-length event: ClientContext::complete
  // threshenc (Cp0Backend).
  kTeEncrypt,
  kTeVerifyCt,
  kTeShare,
  kTeVerifyShare,
  kTeCombine,
  // rt.storage.
  kStAppend,
  kStSync,
  kStPut,
  kCount
};

const char* kind_name(Kind k);

struct Span {
  uint64_t start = 0;
  uint64_t end = 0;
  uint64_t child = 0;  // ns covered by direct children
  uint64_t seq = 0;    // client_seq, when known
  uint32_t node = 0;
  uint32_t client = 0;
  uint32_t parent = kNoParent;  // index into the same thread's buffer
  uint32_t arg = 0;             // bytes, share count, ... per kind
  Kind kind = Kind::kCount;

  static constexpr uint32_t kNoParent = 0xffffffffu;
  uint64_t dur() const { return end - start; }
  uint64_t self() const { return dur() > child ? dur() - child : 0; }
};

/// Point samples that are not spans: queue waits and wire flight times.
enum class Sample : uint8_t {
  kExecWait,   // message arrival / post / timer due -> handler start
  kPoolWait,   // submit -> job start
  kContWait,   // job end -> continuation start
  kFlight,     // transport send -> receiver's delivery callback
  kOpsPerBatch,  // requests per executed batch, at the primary
  kCount
};

struct SampleRec {
  double value = 0;
  Sample kind = Sample::kCount;
};

class Recorder {
 public:
  static Recorder& get();

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  /// Opens a span on the calling thread; returns its index, or -1 when off.
  int64_t open(Kind kind, uint32_t node, uint32_t client, uint64_t seq,
               uint32_t arg);
  void close(int64_t index);
  /// Records a zero-length span (an event at `at`).
  void event(Kind kind, uint32_t node, uint32_t client, uint64_t seq,
             uint64_t at);
  void sample(Sample kind, double value);

  /// Moves out every span and sample recorded so far.  Call only after
  /// every thread that recorded has been joined.
  void collect(std::vector<Span>* spans, std::vector<SampleRec>* samples);

  // Wire bookkeeping for flight and executor-wait samples.
  void note_sent(uint32_t from, uint32_t to, BytesView msg, uint64_t at);
  /// Returns the send time of `msg`, or 0 if it was not seen.
  uint64_t take_sent(uint32_t from, uint32_t to, BytesView msg);
  void note_arrival(uint32_t to, const uint8_t* data, uint64_t at);
  uint64_t take_arrival(uint32_t to, const uint8_t* data);

 private:
  struct ThreadBuf {
    std::vector<Span> spans;
    std::vector<uint32_t> stack;
    std::vector<SampleRec> samples;
  };
  ThreadBuf& buf();

  std::atomic<bool> on_{false};
  std::mutex bufs_mu_;  // guards bufs_
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;

  std::mutex wire_mu_;  // guards sent_ and arrivals_
  std::unordered_map<uint64_t, std::vector<uint64_t>> sent_;
  std::unordered_map<uint64_t, uint64_t> arrivals_;
};

/// RAII span on the calling thread.
class Scope {
 public:
  Scope(Kind kind, uint32_t node, uint32_t client = 0, uint64_t seq = 0,
        uint32_t arg = 0)
      : index_(Recorder::get().open(kind, node, client, seq, arg)) {}
  ~Scope() {
    if (index_ >= 0) Recorder::get().close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int64_t index_;
};

// ---------------------------------------------------------------------------
// Decorators.

/// rt::Transport around the real transport: times send() and stamps each
/// frame so the receiving side can measure its flight and mailbox wait.
class TimedTransport final : public scab::rt::Transport {
 public:
  explicit TimedTransport(std::unique_ptr<scab::rt::Transport> inner)
      : inner_(std::move(inner)) {}
  void send(scab::host::NodeId from, scab::host::NodeId to, Bytes msg) override;
  void start() override;
  void stop() override { inner_->stop(); }

 private:
  std::unique_ptr<scab::rt::Transport> inner_;
};

/// host::Host around an owned host (rt::ThreadHost).
class TracedHost final : public scab::host::Host {
 public:
  explicit TracedHost(std::unique_ptr<scab::host::Host> inner);
  ~TracedHost() override;

  scab::host::Time now() const override { return inner_->now(); }
  void schedule(scab::host::NodeId node, scab::host::Time delay,
                std::function<void()> fn) override;
  void send(scab::host::NodeId from, scab::host::NodeId to, Bytes msg) override;
  void post(scab::host::NodeId node, std::function<void()> fn) override;
  void submit(scab::host::NodeId owner, scab::host::PoolJob job) override;
  std::size_t pool_threads() const override { return inner_->pool_threads(); }
  void bind(scab::host::NodeId id, scab::host::Node* endpoint) override;
  void unbind(scab::host::NodeId id) override;
  void charge(scab::host::NodeId node, scab::host::Time cost) override {
    inner_->charge(node, cost);
  }
  void stop() override { inner_->stop(); }
  scab::host::FaultInjector* fault_injector() override {
    return inner_->fault_injector();
  }
  scab::host::Storage* storage(scab::host::NodeId node) override;

 private:
  class TimedNode;
  class TimedStorage;
  std::unique_ptr<scab::host::Host> inner_;
  std::mutex mu_;  // guards nodes_ and storages_
  std::map<scab::host::NodeId, std::unique_ptr<TimedNode>> nodes_;
  std::map<scab::host::NodeId, std::unique_ptr<TimedStorage>> storages_;
};

/// causal::Service around the replica's EchoService.  Always present (also
/// untraced): it checks every executed op against the generated payload
/// and keeps the count and index sum the correctness gate compares.  With
/// `drop_at` > 0 it silently skips that execution — the benchmark's own
/// test uses this to prove the gate trips.
class CheckedService final : public scab::causal::Service {
 public:
  CheckedService(std::unique_ptr<scab::causal::Service> inner,
                 const Bytes* payload_template, uint32_t node,
                 uint64_t drop_at = 0)
      : inner_(std::move(inner)),
        template_(payload_template),
        node_(node),
        drop_at_(drop_at) {}

  Bytes execute(scab::host::NodeId client, BytesView op) override;
  Bytes serialize() const override { return inner_->serialize(); }
  bool restore(BytesView blob) override { return inner_->restore(blob); }

  uint64_t executed() const {
    return executed_.load(std::memory_order_acquire);
  }
  uint64_t index_sum() const {
    return index_sum_.load(std::memory_order_acquire);
  }
  uint64_t malformed() const {
    return malformed_.load(std::memory_order_acquire);
  }

 private:
  std::unique_ptr<scab::causal::Service> inner_;
  const Bytes* template_;
  uint32_t node_;
  uint64_t drop_at_;
  uint64_t calls_ = 0;  // executor-only
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> index_sum_{0};
  std::atomic<uint64_t> malformed_{0};
};

/// bft::ReplicaApp around a causal engine (or the plain app).
class TimedApp final : public scab::bft::ReplicaApp {
 public:
  explicit TimedApp(std::unique_ptr<scab::bft::ReplicaApp> inner);
  ~TimedApp() override;

  void on_deliver(uint64_t seq, const scab::bft::Request& req,
                  scab::bft::ReplicaContext& ctx) override;
  void on_batch_end(scab::bft::ReplicaContext& ctx) override;
  void on_causal_message(scab::bft::NodeId from, BytesView body,
                         scab::bft::ReplicaContext& ctx) override;
  bool validate_request(scab::bft::NodeId client,
                        const scab::bft::ClientRequestMsg& msg,
                        scab::bft::ReplicaContext& ctx) override;
  void on_new_view(uint64_t view, scab::bft::ReplicaContext& ctx) override;
  Bytes serialize_state(scab::bft::ReplicaContext& ctx) override;
  bool restore_state(BytesView blob, scab::bft::ReplicaContext& ctx) override;
  void on_wal_record(BytesView record, scab::bft::ReplicaContext& ctx) override;

 private:
  class TimedContext;
  scab::bft::ReplicaContext& wrap(scab::bft::ReplicaContext& ctx);

  std::unique_ptr<scab::bft::ReplicaApp> inner_;
  // The engines capture the context by reference in pool continuations, so
  // the wrapper lives as long as the app.
  std::unique_ptr<TimedContext> ctx_;
  uint32_t batch_requests_ = 0;
};

/// bft::ClientProtocol around one pipeline slot's protocol instance.
class TimedClientProtocol final : public scab::bft::ClientProtocol {
 public:
  explicit TimedClientProtocol(
      std::unique_ptr<scab::bft::ClientProtocol> inner);
  ~TimedClientProtocol() override;

  void start(uint64_t client_seq, BytesView op,
             scab::bft::ClientContext& ctx) override;
  void on_reply(scab::bft::NodeId replica, const scab::bft::ReplyMsg& reply,
                scab::bft::ClientContext& ctx) override;
  void on_causal_message(scab::bft::NodeId from, BytesView body,
                         scab::bft::ClientContext& ctx) override;
  void on_retransmit(scab::bft::ClientContext& ctx) override;

 private:
  class TimedClientContext;
  std::unique_ptr<scab::bft::ClientProtocol> inner_;
  std::unique_ptr<TimedClientContext> ctx_;
};

/// causal::Cp0Backend around the real TDH2 backend.
class TimedCp0Backend final : public scab::causal::Cp0Backend {
 public:
  TimedCp0Backend(std::unique_ptr<scab::causal::Cp0Backend> inner,
                  uint32_t node)
      : inner_(std::move(inner)), node_(node) {}

  Bytes encrypt(BytesView message, BytesView label,
                scab::crypto::Drbg& rng) override;
  bool verify_ciphertext(BytesView ct, BytesView label) override;
  std::optional<Bytes> decryption_share(uint32_t index, BytesView ct,
                                        BytesView label,
                                        scab::crypto::Drbg& rng) override;
  bool verify_share(BytesView ct, BytesView label, BytesView share) override;
  std::vector<uint8_t> batch_verify_shares(
      BytesView ct, BytesView label, const std::vector<Bytes>& shares,
      scab::crypto::Drbg& rng, uint32_t* fallback_splits) override;
  std::function<BatchVerifyResult()> make_batch_share_verifier(
      BytesView ct, BytesView label, std::vector<Bytes> shares,
      scab::crypto::Drbg& rng) override;
  std::optional<Bytes> combine(BytesView ct, BytesView label,
                               const std::vector<Bytes>& shares) override;
  uint32_t threshold() const override { return inner_->threshold(); }
  std::optional<Bytes> decryption_share_preverified(
      uint32_t index, BytesView ct, BytesView label,
      scab::crypto::Drbg& rng) override;
  std::optional<Bytes> combine_preverified(
      BytesView ct, BytesView label, const std::vector<Bytes>& shares) override;
  void bind_metrics(scab::obs::MetricsRegistry& registry) override {
    inner_->bind_metrics(registry);
  }
  uint32_t batch_count(BytesView ct) override {
    return inner_->batch_count(ct);
  }
  Bytes reveal_label(BytesView ct, BytesView prefix) override {
    return inner_->reveal_label(ct, prefix);
  }
  Bytes encrypt_batch(const std::vector<Bytes>& messages, BytesView prefix,
                      scab::crypto::Drbg& rng) override;
  std::optional<std::vector<Bytes>> combine_batch_preverified(
      BytesView ct, BytesView prefix, BytesView full_label,
      const std::vector<Bytes>& shares) override;

 private:
  std::unique_ptr<scab::causal::Cp0Backend> inner_;
  uint32_t node_;
};

}  // namespace perfbench
