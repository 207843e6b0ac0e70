// BFT client: closed-loop request issuing (the paper's workload model:
// "Clients invoke requests in a closed-loop, where a client does not start
// a new request before receiving a reply for a previous one").
//
// The client core handles sequencing, retransmission, and latency
// accounting.  Every operation runs in a slot: one by default, which is the
// paper's closed loop, or set_pipeline's window of slots.  A pluggable
// ClientProtocol instance per slot defines what a "request" is on the wire
// — plain PBFT payloads, CP0 threshold ciphertexts, CP1
// commitment-then-opening (two BFT rounds), or CP2/CP3 secret shares over
// private channels.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "bft/config.h"
#include "bft/envelope.h"
#include "host/host.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace scab::bft {

/// Capabilities the client core exposes to its protocol.
class ClientContext {
 public:
  virtual ~ClientContext() = default;

  virtual NodeId id() const = 0;
  virtual const BftConfig& config() const = 0;
  virtual host::Time now() const = 0;

  /// Multicasts a request payload to all replicas (Aardvark-style).
  virtual void send_request(uint64_t client_seq, Bytes payload) = 0;
  /// Sends a request payload to a single replica (partial-failure tests).
  virtual void send_request_to(NodeId replica, uint64_t client_seq,
                               Bytes payload) = 0;
  /// Point-to-point causal-channel message to one replica (secret shares).
  virtual void send_causal(NodeId replica, Bytes body) = 0;

  /// Allocates a fresh client sequence number (CP1's reveal round runs as a
  /// separate BFT request).
  virtual uint64_t next_seq() = 0;

  /// Declares the in-flight operation complete with `result`.
  virtual void complete(Bytes result) = 0;

  virtual void charge(host::Op op, std::size_t bytes) = 0;
  virtual crypto::Drbg& rng() = 0;
  virtual const KeyRing& keys() const = 0;
};

class ClientProtocol {
 public:
  virtual ~ClientProtocol() = default;

  /// Begins one operation. `op` is the application-level request body.
  virtual void start(uint64_t client_seq, BytesView op, ClientContext& ctx) = 0;

  /// A REPLY arrived from `replica` (already authenticated).
  virtual void on_reply(NodeId replica, const ReplyMsg& reply,
                        ClientContext& ctx) = 0;

  /// A causal-channel message arrived.
  virtual void on_causal_message(NodeId from, BytesView body,
                                 ClientContext& ctx) {
    (void)from;
    (void)body;
    (void)ctx;
  }

  /// Retransmission timer fired while the operation is still in flight.
  virtual void on_retransmit(ClientContext& ctx) { (void)ctx; }
};

/// Counts f+1 matching replies for one client_seq.
class ReplyQuorum {
 public:
  void arm(uint64_t client_seq, uint32_t need) {
    client_seq_ = client_seq;
    need_ = need;
    votes_.clear();
    fired_ = false;
  }

  /// Returns true exactly once, when `need` distinct replicas reported the
  /// same result for the armed client_seq.
  bool add(NodeId replica, const ReplyMsg& reply);

  bool fired() const { return fired_; }

 private:
  uint64_t client_seq_ = 0;
  uint32_t need_ = 0;
  bool fired_ = false;
  std::map<NodeId, Bytes> votes_;
};

class Client final : public host::HostBound<> {
 public:
  /// `protocol` drives the client's one operation slot until set_pipeline
  /// replaces it; the caller keeps it alive.  `metrics` receives
  /// "client."-prefixed counters/histograms; `tracer` is the cluster-wide
  /// request tracer (kSubmit/kCompleted endpoints).  Both optional — null
  /// binds to the inert sinks.
  Client(host::Host& host, NodeId id, BftConfig config, const KeyRing& keys,
         const host::CostModel& costs, ClientProtocol* protocol,
         crypto::Drbg rng, obs::MetricsRegistry* metrics = nullptr,
         obs::Tracer* tracer = nullptr);
  // Out-of-line: slots_ holds unique_ptrs to the forward-declared Slot.
  ~Client() override;

  /// Generates the application body of operation #index.
  using OpGenerator = std::function<Bytes(uint64_t index)>;
  /// Called when an operation completes (for workload bookkeeping).
  using CompletionHook = std::function<void(uint64_t index, host::Time start,
                                            host::Time end)>;

  /// Keeps every slot busy until `max_ops` operations were issued (0 = until
  /// the sim stops); each completion refills its slot.
  void run_closed_loop(OpGenerator gen, uint64_t max_ops,
                       CompletionHook hook = nullptr);

  /// Open-loop workload: issues one operation per `interval` nanoseconds
  /// (paced with deterministic DRBG jitter) regardless of completions.  A
  /// tick that finds every slot busy SHEDS its operation — counted in
  /// "client.shed", never queued — so the achieved rate degrades visibly
  /// instead of building an unbounded backlog.  `max_ops` bounds the number
  /// of operations ISSUED (0 = unbounded; shed ticks do not count).  Each
  /// tick carries one logical payload, whatever set_pipeline's batch.
  void run_open_loop(OpGenerator gen, uint64_t max_ops, host::Time interval,
                     CompletionHook hook = nullptr);

  /// Issues a single operation and ends any closed loop.  With every slot
  /// busy the operation is dropped and counted in "client.shed".
  void submit(Bytes op, CompletionHook hook = nullptr);

  /// Builds one ClientProtocol instance (one per slot).
  using ProtocolFactory = std::function<std::unique_ptr<ClientProtocol>()>;

  /// Replaces the slot with `inflight` slots, each on its own protocol
  /// instance from `factory`, and packs `batch` logical payloads into each
  /// closed-loop operation (framed via bft/batch.h — the protocol must be
  /// batch-aware when batch > 1; a batch of one is submitted unframed).
  /// Throws std::logic_error once an operation was issued.
  void set_pipeline(ProtocolFactory factory, uint32_t inflight, uint32_t batch);

  // --- host::Node ---
  void on_message(NodeId from, BytesView msg) override;

  // --- stats (safe to poll from the controlling thread under kThreads) ---
  uint64_t completed_ops() const {
    return completed_.load(std::memory_order_acquire);
  }
  Bytes last_result() const {
    std::lock_guard<std::mutex> lk(stats_mu_);
    return last_result_;
  }
  /// Total host time spent across completed ops (for mean latency).
  host::Time total_latency() const {
    std::lock_guard<std::mutex> lk(stats_mu_);
    return total_latency_;
  }

  /// Base retransmission interval; retries back off exponentially from here
  /// (doubling per retry, capped at 64x, with DRBG jitter) so a dead primary
  /// costs O(log) retransmissions instead of a fixed-rate storm.
  void set_retry_timeout(host::Time t) { retry_timeout_ = t; }

 private:
  /// One operation slot, and the ClientContext its protocol sees.
  struct Slot;

  Slot* free_slot();
  /// Starts one operation in `slot` carrying `ops`, the next logical
  /// payloads in issue order.
  void launch(Slot& slot, std::vector<Bytes> ops);
  void fill_slots();
  void open_tick();
  void arm_slot_retry(Slot& slot);
  void complete_slot(Slot& slot, Bytes result);

  BftConfig config_;
  const KeyRing& keys_;
  crypto::Drbg rng_;

  OpGenerator generator_;
  CompletionHook hook_;
  uint64_t max_ops_ = 0;
  uint64_t issued_ = 0;
  std::atomic<uint64_t> completed_{0};
  uint64_t next_seq_ = 1;

  std::vector<std::unique_ptr<Slot>> slots_;
  uint32_t batch_ = 1;  // logical payloads per closed-loop operation

  bool open_loop_ = false;       // completions do NOT trigger the next op
  host::Time open_interval_ = 0;  // ns between open-loop ticks
  host::Time retry_timeout_ = 500 * host::kMillisecond;

  mutable std::mutex stats_mu_;  // guards last_result_/total_latency_
  Bytes last_result_;
  host::Time total_latency_ = 0;

  obs::Tracer& tracer_;
  struct {
    obs::Counter* submitted;
    obs::Counter* completed;
    obs::Counter* retries;
    obs::Histogram* latency_ns;
    // Slot occupancy after each closed-loop refill: how much of the
    // window the workload keeps busy.
    obs::Histogram* pipeline_slots;
    // Operations dropped because every slot was busy.
    obs::Counter* shed;
  } m_;
};

}  // namespace scab::bft
