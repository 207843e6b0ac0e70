// The reveal step CP0, CP2 and CP3 share (paper §V): after BFT delivery
// every replica sends its share of the request to the others, collects
// shares until the request can be recovered, and executes recovered
// requests in delivery order.  Only the sharing scheme differs, so this
// engine owns everything else once:
//
//   * the pending map and the delivery-ordered execution queue;
//   * a per-client window of executed seqs, which tells a late share from an
//     early one (the BFT layer, which never delivers a (client, seq) twice,
//     keeps the record of what executed);
//   * the bounded per-sender stash of shares that beat their delivery;
//   * share intake: a share from replica r must carry index r + 1 and the
//     client's share to replica i index i + 1; other senders are dropped;
//   * reveal retry with backoff, and answers to share re-requests (from the
//     pending reveal or a bounded cache of executed requests' own shares);
//   * pool offload with one job in flight per request (CP0's batch share
//     verification; CP2/CP3 reconstruct inline);
//   * the snapshot blob and the kApp WAL records (DESIGN.md §13).
//
// Every causal message is the frame RequestId || bytes(x).  An empty x is
// the share re-request sentinel; otherwise x carries one share: the plain
// wire (CP0) or an AEAD box per recipient (CP2/CP3).  A protocol supplies
// the codec for x, where its own share comes from, the accumulate-and-
// recover step, its extra per-request snapshot fields, and how a payload
// is parsed at delivery.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "bft/app.h"
#include "bft/client_window.h"
#include "causal/id.h"
#include "causal/service.h"

namespace scab::causal {

/// The causal message a reveal share travels in: RequestId || bytes(x).
Bytes share_message(const RequestId& id, BytesView x);

/// The reply to a request that revealed no payload because it does not
/// decrypt.  Every correct replica reaches that verdict alike, executes
/// nothing and sends this.
inline const Bytes kUndecryptableReply = to_bytes("scab:undecryptable");

class RevealEngine : public bft::ReplicaApp {
 public:
  /// Per-sender cap on shares stashed before their request is delivered:
  /// reveal state is created only at BFT delivery, so a Byzantine peer
  /// naming made-up RequestIds occupies at most this much state per sender.
  static constexpr std::size_t kMaxEarlySharesPerSender = 32;
  /// Cap on own-share wires kept after execution so a restarted peer
  /// re-collecting shares for old requests can still be answered.
  static constexpr std::size_t kMaxCompletedShareCache = 1024;
  /// Reveal-retry schedule: if a delivered request is still unrevealed
  /// after base << min(attempt, 4), rebroadcast our share and re-request
  /// everyone else's.  The base sits above the WAN reveal round-trip so the
  /// happy path never retries.
  static constexpr host::Time kRevealRetryBase = 500'000'000;  // 500 ms
  static constexpr uint32_t kMaxRevealRetries = 8;

  // Timers and pool jobs hold `this`.
  RevealEngine(const RevealEngine&) = delete;
  RevealEngine& operator=(const RevealEngine&) = delete;

  /// Table IV's fault model: this replica sends corrupted shares to the
  /// others (its own reveal stays honest, and so does the rest of the
  /// protocol).
  void set_corrupt_shares(bool corrupt) { corrupt_shares_ = corrupt; }

  void on_deliver(uint64_t seq, const bft::Request& req,
                  bft::ReplicaContext& ctx) final;
  void on_causal_message(bft::NodeId from, BytesView body,
                         bft::ReplicaContext& ctx) final;

  // Durability (DESIGN.md §13): the snapshot blob carries the service state
  // plus the reveal state (executed windows, own-share cache, execution
  // queue, pending reveals with their plaintexts and own shares); every
  // execution first logs a kApp record with the plaintexts, so a post-crash
  // replay re-applies the operation without re-running the reveal (the
  // peers' shares are gone by then).
  Bytes serialize_state(bft::ReplicaContext& ctx) final;
  bool restore_state(BytesView blob, bft::ReplicaContext& ctx) final;
  void on_wal_record(BytesView record, bft::ReplicaContext& ctx) final;

  Service& service() { return *service_; }
  /// Diagnostics/tests: reveal entries in flight (all correspond to
  /// delivered requests) and stashed pre-delivery shares.
  std::size_t pending_count() const { return pending_.size(); }
  std::size_t early_share_count() const;

 protected:
  /// A protocol's own per-request state.
  struct SchemeState {
    SchemeState() = default;
    SchemeState(const SchemeState&) = delete;
    SchemeState& operator=(const SchemeState&) = delete;
    virtual ~SchemeState() = default;
  };

  struct Reveal {
    bool revealed = false;
    bool inflight = false;  // a pool job for this request is running
    host::Time delivered_at = 0;
    Bytes own_share;  // this replica's share wire; empty until known
    // Senders whose share was taken (a protocol may release one again).
    std::set<bft::NodeId> senders;
    uint32_t count = 1;  // payloads inside the request
    std::vector<Bytes> plaintexts;  // one per payload, execution order
    std::unique_ptr<SchemeState> scheme;
  };

  struct Options {
    const char* prefix;  // metric prefix: "cp0", "cp2", "cp3"
    // Shares travel sealed per recipient (CP2/CP3) instead of one
    // broadcast frame (CP0).
    bool private_channels;
    // The client deals this replica its share (CP2/CP3); CP0 computes it.
    bool client_deals;
  };

  RevealEngine(std::unique_ptr<Service> service, Options options)
      : service_(std::move(service)), options_(options) {}

  // --- protocol hooks ------------------------------------------------------

  /// Parses the ordered payload into the request's scheme state, or returns
  /// null for a malformed one (the delivery is ignored).
  virtual std::unique_ptr<SchemeState> admit(BytesView payload) = 0;
  /// Starts the reveal of a freshly delivered request, after the stashed
  /// shares were taken.
  virtual void start(const RequestId& id, Reveal& r,
                     bft::ReplicaContext& ctx) = 0;
  /// Restarts the reveal of an unrevealed request restored from a snapshot.
  virtual void resume(const RequestId& id, Reveal& r,
                      bft::ReplicaContext& ctx) = 0;
  /// Opens x from `from` into a share wire (nullopt: drop it).
  virtual std::optional<Bytes> open_share(const RequestId& id,
                                          bft::NodeId from, Bytes x,
                                          std::size_t frame_size,
                                          bft::ReplicaContext& ctx) = 0;
  /// The whole causal message carrying `wire` to `to`.
  virtual Bytes share_frame(const RequestId& id, bft::NodeId to,
                            BytesView wire, bft::ReplicaContext& ctx) = 0;
  /// The 1-based index a share wire claims (nullopt: malformed).
  virtual std::optional<uint32_t> share_index(BytesView wire) const = 0;
  /// Takes a share for a delivered request: from the stash at delivery
  /// (`fresh` false) or off the wire afterwards.
  virtual void take_share(const RequestId& id, Reveal& r, bft::NodeId from,
                          Bytes wire, bool fresh,
                          bft::ReplicaContext& ctx) = 0;
  /// The Table IV garbling of an outgoing share.
  virtual Bytes corrupt(BytesView wire) const = 0;
  /// Snapshot fields written before the common per-request fields.
  virtual void write_scheme(Writer& w, const Reveal& r) const = 0;
  virtual std::unique_ptr<SchemeState> read_scheme(Reader& rd) = 0;
  virtual void bind_scheme_metrics(obs::MetricsRegistry& registry) = 0;

  // --- services for the protocols -----------------------------------------

  /// Resolves the instrument handles on first use (an app does not know its
  /// replica at construction time).
  void bind(bft::ReplicaContext& ctx);
  /// Index check plus dedup: `from` may hand over a share with `index` once.
  bool accepts(Reveal& r, bft::NodeId from, uint32_t index,
               bft::ReplicaContext& ctx);
  /// Sends `wire` to every other replica (corrupted if this replica is
  /// faulty), or to `to` alone.
  void send_share(const RequestId& id, BytesView wire,
                  std::optional<bft::NodeId> to, bft::ReplicaContext& ctx);
  /// What a pool job hands back: applied to the request's reveal state on
  /// this replica's executor, unless the request is gone by then.
  using Landing = std::function<void(Reveal&)>;
  /// Runs `job` on the worker pool; `r.inflight` is set until it lands.
  void offload(const RequestId& id, Reveal& r, std::function<Landing()> job,
               bft::ReplicaContext& ctx);
  /// Marks the request revealed and executes everything now unblocked.
  void reveal(const RequestId& id, Reveal& r, std::vector<Bytes> plaintexts,
              bft::ReplicaContext& ctx);
  std::size_t exec_queue_size() const { return exec_queue_.size(); }
  const char* prefix() const { return options_.prefix; }

 private:
  using PendingMap = std::unordered_map<RequestId, Reveal>;

  void arm_reveal_retry(const RequestId& id, uint32_t attempt,
                        bft::ReplicaContext& ctx);
  void answer_share_request(const RequestId& id, bft::NodeId from,
                            bft::ReplicaContext& ctx);
  void drain_execution(bft::ReplicaContext& ctx);
  /// Runs every payload in its position; count > 1 frames the results, and
  /// no payload at all replies kUndecryptableReply.
  Bytes execute(bft::NodeId client, uint32_t count,
                const std::vector<Bytes>& plaintexts, bft::ReplicaContext& ctx);
  /// Records the request executed, caching its own share and dropping its
  /// state.
  void retire(PendingMap::iterator it);

  std::unique_ptr<Service> service_;
  const Options options_;
  bool corrupt_shares_ = false;

  PendingMap pending_;
  // Executed seqs per client, marked at retire: only a share for one of
  // these is late.
  std::map<bft::NodeId, bft::ClientExecWindow> executed_;
  // Execution queue: requests execute in delivery order, each blocking on
  // its reveal (the CKPS schedule/reveal alternation).
  std::deque<RequestId> exec_queue_;
  std::map<bft::NodeId, std::deque<std::pair<RequestId, Bytes>>> early_shares_;
  // Own-share wires of executed requests (bounded FIFO): a replica that
  // crashed and restarted re-delivers old requests with empty reveal state
  // and re-requests shares its peers already consumed; answering from this
  // cache is what lets it catch up past them.
  std::unordered_map<RequestId, Bytes> completed_shares_;
  std::deque<RequestId> completed_shares_order_;

  struct {
    obs::Counter* reveal_retries = nullptr;
    obs::Counter* share_rerequests_answered = nullptr;
    obs::Counter* early_stashed = nullptr;
    // Shares arriving after their request already executed: dropped on the
    // floor, never re-queued into pending_.
    obs::Counter* late_shares_dropped = nullptr;
    obs::Gauge* pending = nullptr;
    obs::Gauge* early_shares = nullptr;
  } m_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace scab::causal
