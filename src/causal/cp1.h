// CP1 — secure causal atomic broadcast from fair BFT + NM-CAD (paper §V-C).
//
// Schedule: the client commits to its request under the header
// ID = (client, seq) — (c, d) <- Commit_ck^ID(m) — and the commitment is
// ordered by PBFT; replicas record the tentative request and reply
// "scheduled".  Reveal: on f+1 matching scheduled-replies the client sends
// (ID, reveal, (m, d)) as a SECOND BFT request; replicas verify the opening
// at delivery, execute, and reply.
//
// Two liveness mechanisms from the paper:
//  * Amplification — a replica that verified a witness (m, d) forwards it to
//    the others if the reveal has not been ordered shortly after; the
//    witness is transferable (self-certifying), so the forward needs no
//    client authentication.
//  * Cleanup — tentative (scheduled-but-unopened) requests older than the
//    cleanup cycle are aborted by a primary-initiated CLEANUP operation.
//    Age is measured in delivered requests, so it is identical at all
//    correct replicas; a primary whose CLEANUP violates the cycle rule is
//    demoted by view change.  The rule is sound because the underlying BFT
//    is fair (the watchdog in bft/replica.h): a correct client's reveal
//    cannot be delayed indefinitely relative to other traffic.
#pragma once

#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bft/app.h"
#include "bft/client.h"
#include "causal/cp1_options.h"
#include "causal/id.h"
#include "causal/service.h"
#include "crypto/commitment.h"

namespace scab::causal {

/// Payload tags inside CP1 request payloads.
enum class Cp1Phase : uint8_t {
  kSchedule = 0,  // payload: commitment c
  kReveal = 1,    // payload: ID, m, d
  kCleanup = 2,   // payload: list of expired IDs (primary-injected)
};

class Cp1ReplicaApp : public bft::ReplicaApp {
 public:
  Cp1ReplicaApp(std::unique_ptr<Service> service,
                crypto::NmCadCommitment commitment, Cp1Options options = {})
      : service_(std::move(service)),
        commitment_(std::move(commitment)),
        options_(options) {}

  bool validate_request(bft::NodeId client, const bft::ClientRequestMsg& msg,
                        bft::ReplicaContext& ctx) override;
  void on_deliver(uint64_t seq, const bft::Request& req,
                  bft::ReplicaContext& ctx) override;
  void on_batch_end(bft::ReplicaContext& ctx) override;
  void on_causal_message(bft::NodeId from, BytesView body,
                         bft::ReplicaContext& ctx) override;

  // Durability (DESIGN.md §13).  Unlike CP0, a CP1 reveal carries its
  // plaintext in the ordered payload, so replaying post-snapshot deliveries
  // re-runs executions exactly — no per-execution WAL records needed.  The
  // snapshot carries only the tentative requests and the aborted ids: an
  // opened request leaves no trace here, because the BFT layer never
  // delivers a (client, seq) twice.  It is written after a batch's flush,
  // so no verified reveal awaits execution at a snapshot point.
  Bytes serialize_state(bft::ReplicaContext& ctx) override;
  bool restore_state(BytesView blob, bft::ReplicaContext& ctx) override;

  Service& service() { return *service_; }
  uint64_t tentative_count() const { return tentative_.size(); }
  uint64_t cleaned_count() const { return cleaned_count_; }

  /// The deterministic reply body acknowledging a schedule step.
  static Bytes scheduled_marker();
  /// The deterministic reply body for a reveal whose request was cleaned.
  static Bytes aborted_marker();

 private:
  struct Tentative {
    Bytes commitment;
    uint64_t scheduled_at_count = 0;  // value of delivered_count_ when scheduled
    // Volatile (not in the snapshot): the timers and proposals they guard
    // die with the process.
    bool amplified = false;         // witness forwarded already
    bool cleanup_inflight = false;  // listed in a CLEANUP this replica proposed
  };

  /// A verified reveal whose execution waits for the batch flush.
  struct DeferredReveal {
    RequestId id;
    uint64_t reply_seq = 0;  // client_seq of the reveal request (reply key)
    Bytes message;
  };

  void deliver_schedule(const bft::Request& req, bft::ReplicaContext& ctx);
  void deliver_reveal(const bft::Request& req, bft::ReplicaContext& ctx);
  void deliver_cleanup(const bft::Request& req, bft::ReplicaContext& ctx);
  /// Executes and replies to the deferred reveals in delivery order
  /// (DESIGN.md §10: consecutive reveals in one BFT batch flush together).
  void flush_reveals(bft::ReplicaContext& ctx);
  void maybe_propose_cleanup(bft::ReplicaContext& ctx);
  void arm_amplification(const RequestId& id, Tentative& t, uint64_t reveal_seq,
                         const Bytes& reveal_payload, bft::ReplicaContext& ctx);
  void bind_metrics(bft::ReplicaContext& ctx);

  std::unique_ptr<Service> service_;
  crypto::NmCadCommitment commitment_;
  Cp1Options options_;

  std::map<RequestId, Tentative> tentative_;  // scheduled, unopened
  std::unordered_set<RequestId> aborted_;     // removed by cleanup
  uint64_t delivered_count_ = 0;              // requests delivered in order
  uint64_t cleaned_count_ = 0;
  std::vector<DeferredReveal> reveal_flush_;  // delivery order

  struct {
    obs::Counter* scheduled = nullptr;
    obs::Counter* opened = nullptr;
    obs::Counter* cleaned = nullptr;
    obs::Counter* openings_rejected = nullptr;
    obs::Counter* amplifications = nullptr;
    obs::Gauge* tentative = nullptr;
    obs::Histogram* batch_size = nullptr;  // reveals executed per flush
  } m_;
  obs::Tracer* tracer_ = nullptr;
};

class Cp1ClientProtocol : public bft::ClientProtocol {
 public:
  explicit Cp1ClientProtocol(crypto::NmCadCommitment commitment)
      : commitment_(std::move(commitment)) {}

  /// Fig. 7's fault model: the client crashes after the schedule step and
  /// never sends the witness.
  void set_crash_before_reveal(bool crash) { crash_before_reveal_ = crash; }
  /// Fig. 7's continuous-failure model: the client keeps issuing schedule
  /// steps (each "completes" at the schedule acknowledgment) but never
  /// reveals, leaving a growing pile of tentative requests behind.
  void set_schedule_only(bool on) { schedule_only_ = on; }
  /// Partial-witness failure scenario: send the reveal to only the first k
  /// replicas (amplification must recover); 0 = all.
  void set_reveal_fanout(uint32_t k) { reveal_fanout_ = k; }

  void start(uint64_t client_seq, BytesView op, bft::ClientContext& ctx) override;
  void on_reply(bft::NodeId replica, const bft::ReplyMsg& reply,
                bft::ClientContext& ctx) override;
  void on_retransmit(bft::ClientContext& ctx) override;

 private:
  void send_reveal(bft::ClientContext& ctx);

  crypto::NmCadCommitment commitment_;
  bool crash_before_reveal_ = false;
  bool schedule_only_ = false;
  uint32_t reveal_fanout_ = 0;

  enum class Phase { kIdle, kSchedule, kReveal } phase_ = Phase::kIdle;
  uint64_t schedule_seq_ = 0;
  uint64_t reveal_seq_ = 0;
  RequestId id_;
  Bytes op_;
  Bytes commitment_wire_;
  Bytes opening_;
  Bytes schedule_payload_;
  Bytes reveal_payload_;
  bft::ReplyQuorum quorum_;
};

}  // namespace scab::causal
