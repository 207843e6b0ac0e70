// PBFT replica (Castro–Liskov), the underlying BFT protocol of §VI-A.
//
// Implements the full normal-case three-phase flow with batching, the
// checkpoint/watermark protocol, a catch-up fetch for lagging replicas, and
// the view-change/new-view protocol.  A watchdog doubles as the Aardvark-
// style fairness monitor the paper requires for CP1: any client request a
// backup has seen that the primary fails to get executed within
// `request_timeout` triggers a view change, so a primary cannot starve
// (or selectively delay) clients indefinitely.
//
// The replica is deliberately generic over its application: CP0–CP3 plug in
// through the ReplicaApp interface (see app.h).
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "bft/app.h"
#include "bft/client_window.h"
#include "bft/config.h"
#include "bft/envelope.h"
#include "host/host.h"

namespace scab::bft {

class Replica final : public host::HostBound<ReplicaContext> {
 public:
  /// `metrics` receives this replica's "bft."-prefixed instruments (plus
  /// whatever the app publishes); `tracer` is the cluster-wide request
  /// tracer.  Both optional — null binds to the inert sinks.
  Replica(host::Host& host, NodeId id, BftConfig config, const KeyRing& keys,
          const host::CostModel& costs, ReplicaApp* app, crypto::Drbg rng,
          obs::MetricsRegistry* metrics = nullptr,
          obs::Tracer* tracer = nullptr);
  ~Replica() override { unbind(); }

  /// Arms the watchdog and admits traffic: every message that arrives
  /// before start() is dropped.  Call once, after recover().
  void start();

  /// Recovers durable state (DESIGN.md §13): loads the latest snapshot,
  /// then replays the WAL — acceptance records rebuild in-flight slots,
  /// execution records re-run delivery (with broadcasts suppressed), app
  /// records replay causal executions.  Call once, on the replica's own
  /// executor, after construction and BEFORE start(); until start() the
  /// replica drops all traffic.  No-op without attached storage.
  void recover();

  // --- host::Node ---
  void on_message(NodeId from, BytesView msg) override;

  // --- ReplicaContext ---
  // id()/now()/schedule()/charge() come from the HostBound mixin.
  const BftConfig& config() const override { return config_; }
  uint64_t view() const override { return view_; }
  bool is_primary() const override { return config_.primary_of(view_) == id(); }
  void send_reply(NodeId client, uint64_t client_seq, Bytes result) override;
  void send_causal(NodeId to, Bytes body) override;
  void broadcast_causal(Bytes body) override;
  void submit_local_request(Bytes payload) override;
  void request_view_change(const char* reason) override;
  void wal_append(BytesView record) override;
  void admit_foreign_request(NodeId client, uint64_t client_seq,
                             Bytes payload) override;
  crypto::Drbg& rng() override { return rng_; }
  const KeyRing& keys() const override { return keys_; }
  obs::MetricsRegistry& metrics() override { return metrics_; }
  obs::Tracer& tracer() override { return tracer_; }

  // --- introspection for tests and benches ---
  uint64_t executed_requests() const { return executed_requests_; }
  uint64_t last_executed_seq() const { return next_exec_ - 1; }
  uint64_t low_watermark() const { return low_watermark_; }
  uint64_t view_changes_completed() const { return view_changes_completed_; }
  bool in_view_change() const { return view_change_active_; }
  bool has_storage() const { return storage_ != nullptr; }

  /// Decodes a history segment blob (DESIGN.md §13) into the serialized
  /// batches for seqs `first`, `first` + 1, ...  Returns nullopt when the
  /// blob is truncated, corrupted, or not the segment starting at `first`;
  /// a damaged blob fails its checksum before any field is read.
  static std::optional<std::vector<Bytes>> parse_segment(BytesView blob,
                                                         uint64_t first);

 private:
  struct Slot {
    std::optional<PrePrepare> pre_prepare;
    Bytes digest;
    uint64_t view = 0;  // view the pre-prepare was accepted in
    // replica -> (view, digest) voted; counted only when both match the slot
    std::map<NodeId, std::pair<uint64_t, Bytes>> prepares;
    std::map<NodeId, std::pair<uint64_t, Bytes>> commits;
    bool sent_prepare = false;
    bool sent_commit = false;
    bool executed = false;
  };

  struct PendingRequest {
    NodeId client = 0;
    uint64_t client_seq = 0;
    Bytes payload;  // kept so a backup-turned-primary can re-propose
    host::Time first_seen = 0;
  };

  // --- messaging ---
  void send_envelope(NodeId to, Channel channel, BytesView body);
  void broadcast_bft(BftMsgType type, BytesView body);
  void send_bft(NodeId to, BftMsgType type, BytesView body);

  // --- normal case ---
  void handle_client_request(NodeId from, BytesView body);
  void admit_request(NodeId client, ClientRequestMsg msg, bool skip_validate);
  void maybe_send_batch();
  void flush_batch();
  void handle_pre_prepare(NodeId from, BytesView body);
  void accept_pre_prepare(PrePrepare pp);
  void handle_phase_vote(NodeId from, BytesView body);
  void check_prepared(uint64_t seq);
  void check_committed(uint64_t seq);
  void try_execute();
  void execute_batch(uint64_t seq, const PrePrepare& pp);

  // --- checkpoints & catch-up ---
  void handle_checkpoint(NodeId from, BytesView body);
  void try_fetch_execute();
  void maybe_stabilize(uint64_t seq);
  void garbage_collect(uint64_t stable_seq);
  void note_catchup_target(uint64_t seq);
  void maybe_finish_catchup();
  void serve_fetch(NodeId to, uint64_t from_seq, uint64_t to_seq);

  // --- durability (DESIGN.md §13) ---
  /// WAL record tags.  kAccept/kVote protect against post-recovery
  /// equivocation, kExec makes committed executions durable, kView pins
  /// the view, kApp carries opaque app records (causal executions).
  enum class WalTag : uint8_t {
    kExec = 1,
    kAccept = 2,
    kVote = 3,
    kView = 4,
    kApp = 5,
  };
  void wal_append_record(BytesView rec);
  void apply_wal_record(BytesView rec);
  void write_snapshot();
  Bytes serialize_snapshot();
  bool restore_snapshot(BytesView blob);

  // --- view change ---
  void watchdog_tick();
  void start_view_change(uint64_t target_view, const char* reason);
  void handle_view_change(NodeId from, BytesView body);
  void maybe_assemble_new_view(uint64_t target_view);
  void handle_new_view(NodeId from, BytesView body);
  std::vector<PrePrepare> compute_new_view_batches(
      uint64_t target_view, const std::vector<ViewChange>& proofs) const;
  void enter_view(uint64_t target_view, std::vector<PrePrepare> reproposals);

  Slot& slot(uint64_t seq) { return slots_[seq]; }
  bool in_watermarks(uint64_t seq) const {
    return seq > low_watermark_ && seq <= low_watermark_ + config_.watermark_window;
  }

  BftConfig config_;
  const KeyRing& keys_;
  ReplicaApp* app_;
  crypto::Drbg rng_;

  // Durability: borrowed from the host (host owns, survives rebind);
  // nullptr when the replica runs without storage.  replaying_ gates every
  // side effect during recover(): no WAL appends, no broadcasts.
  host::Storage* storage_ = nullptr;
  bool replaying_ = false;
  bool in_execute_batch_ = false;  // defers app-record syncs to batch end
  bool app_wal_dirty_ = false;

  uint64_t view_ = 0;
  uint64_t next_seq_ = 1;   // primary: next sequence number to assign
  uint64_t next_exec_ = 1;  // next sequence number to execute
  uint64_t low_watermark_ = 0;
  std::map<uint64_t, Slot> slots_;

  // Primary batching.
  std::vector<Request> pending_batch_;
  bool batch_timer_armed_ = false;
  uint64_t local_seq_ = 1;  // for submit_local_request

  // Request admission & watchdog (fairness monitor).
  std::unordered_map<std::string, PendingRequest> pending_requests_;  // by digest hex
  // Windowed, not scalar: a pipelined client's seqs can execute out of
  // order across a view change (client_window.h).
  std::unordered_map<NodeId, ClientExecWindow> executed_window_;
  std::unordered_map<NodeId, ClientReplyCache> reply_cache_;

  // Checkpoints.
  Bytes exec_chain_digest_;
  std::map<uint64_t, std::map<NodeId, Bytes>> checkpoint_votes_;  // seq -> replica -> digest
  std::map<uint64_t, Bytes> own_checkpoints_;

  // Executed batch history for catch-up (seq -> serialized PrePrepare).
  // Without storage this map is the whole history, capped at
  // history_limit.  With storage it holds only the tail executed since the
  // last snapshot point (after a legacy snapshot's restore, also the history
  // that snapshot carried); write_snapshot seals the tail into a write-once
  // segment blob and indexes it in segments_ (first seq -> last seq).
  // retired_ lists segments dropped from the index that may still be on
  // disk (a restored snapshot's list, or this round's); write_snapshot
  // lists them in the next snapshot and then erases them.
  std::map<uint64_t, Bytes> history_;
  std::map<uint64_t, uint64_t> segments_;
  std::vector<uint64_t> retired_;

  // Catch-up fetch: seq -> responder -> serialized batch.
  std::map<uint64_t, std::map<NodeId, Bytes>> fetch_votes_;

  // Catch-up episode tracking ("bft.recovery.catchup_ms"): an episode opens
  // when a stable checkpoint proves we are behind (maybe_stabilize's fetch
  // branch — the state a freshly restarted replica rejoins in), extends if
  // later checkpoints push the target further out, and closes when execution
  // passes the target.
  bool catchup_active_ = false;
  host::Time catchup_started_ = 0;
  uint64_t catchup_target_ = 0;

  // View change.  view_change_votes_ holds at most one vote per sender (the
  // one for the highest view that sender has asked for, tracked in
  // latest_vc_view_), so its total size is bounded by n regardless of how
  // many distinct future views a Byzantine replica floods.
  host::Time view_change_started_ = 0;
  bool view_change_active_ = false;
  uint64_t view_change_target_ = 0;
  std::map<uint64_t, std::map<NodeId, ViewChange>> view_change_votes_;
  std::map<NodeId, uint64_t> latest_vc_view_;
  std::set<uint64_t> new_view_sent_;
  uint64_t view_changes_completed_ = 0;

  // Atomic so the controlling thread can poll progress while the threaded
  // host's worker executes; plain increment semantics under the simulator.
  std::atomic<uint64_t> executed_requests_{0};
  bool started_ = false;

  // Observability.  Handles resolved once in the constructor; gauges mirror
  // the sizes of the Byzantine-facing maps so tests can assert bounds.
  obs::MetricsRegistry& metrics_;
  obs::Tracer& tracer_;
  struct {
    obs::Counter* batches_proposed;
    obs::Counter* pre_prepares_accepted;
    obs::Counter* requests_executed;
    obs::Counter* checkpoints_emitted;
    obs::Counter* view_changes_started;
    obs::Counter* view_changes_completed;
    obs::Counter* replays_suppressed;
    obs::Counter* catchups_completed;
    obs::Counter* wal_replayed;
    obs::Counter* snapshot_loaded;
    obs::Counter* snapshot_rejected;
    obs::Counter* snapshots_written;
    obs::Histogram* wal_append_bytes;
    obs::Histogram* catchup_ms;
    obs::Histogram* batch_size;
    obs::Histogram* inflight_batches;
    obs::Gauge* pending_requests;
    obs::Gauge* checkpoint_votes_tracked;
    obs::Gauge* view_change_votes_tracked;
    obs::Gauge* slots_tracked;
    obs::Gauge* checkpoint_lag;
  } m_;
  void insert_view_change_vote(NodeId from, ViewChange vc);
  void update_state_gauges();
};

}  // namespace scab::bft
