// CP2 and CP3 — secure causal atomic broadcast from ARSS (paper §V-D).
//
// Generic flow (both protocols): the client Shamir-shares its request and
// sends replica i the share S[i] over an authenticated AND private channel
// (AEAD); the BFT protocol orders only the public part (ID plus, for CP2,
// the commitment c).  When a replica delivers the identifier it starts the
// reveal: it sends its share to the other replicas (again over private
// channels), feeds arriving shares to the incremental ARSS reconstructor,
// and executes + replies once the secret is recovered.  Execution is
// blocked in delivery order, exactly like CP0's reveal (both run on the
// shared RevealEngine).
//
//   CP2 = ARSS1: shares carry a commitment tag; the commitment is *agreed*
//         in the schedule step, so foreign/forged share sets are rejected
//         immediately and recovery needs f+1 shares.
//   CP3 = ARSS2: plain Shamir shares, information-theoretic, recovery needs
//         f+2 consistent shares (and more under faults).
//
// Clients here may only crash (the paper's §V-D assumption); a crashing
// client can block the service but can never break causality.
#pragma once

#include <optional>
#include <vector>

#include "bft/client.h"
#include "causal/reveal_engine.h"
#include "crypto/commitment.h"
#include "secretshare/arss.h"

namespace scab::causal {

/// The replica side of CP2 (ARSS1, with the commitment scheme) and CP3
/// (ARSS2) on the shared engine: the client deals this replica its share,
/// x is an AEAD box per recipient, and shares feed the reconstructor on the
/// replica's executor (DESIGN.md §12).
class ArssReplicaApp : public RevealEngine {
 public:
  bool validate_request(bft::NodeId client, const bft::ClientRequestMsg& msg,
                        bft::ReplicaContext& ctx) override;

 protected:
  ArssReplicaApp(std::unique_ptr<Service> service, const char* prefix,
                 std::optional<crypto::Commitment> commitment,
                 secretshare::Arss2Mode mode);

 private:
  struct ArssState : SchemeState {
    Bytes commitment;  // CP2: agreed in the schedule step
    // Shares adopted from the early-share stash before the reveal starts.
    std::vector<secretshare::Arss1Share> buffered;
    // The reconstruction, from start() on: ARSS1 for CP2, ARSS2 for CP3.
    std::optional<secretshare::Arss1Reconstructor> arss1;
    std::optional<secretshare::Arss2Reconstructor> arss2;
    std::size_t attempts() const {
      return arss1 ? arss1->attempts() : arss2->attempts();
    }
  };
  static ArssState& arss(Reveal& r) {
    return static_cast<ArssState&>(*r.scheme);
  }
  bool arss1() const { return commitment_.has_value(); }
  /// Parses a share wire; an ARSS2 share gets an empty commitment.
  std::optional<secretshare::Arss1Share> parse_share(BytesView wire) const;
  /// Feeds shares to the reconstructor in order, charging every recovery
  /// attempt, and reveals once one recovers the secret.  `r` may be gone
  /// after a reveal.
  void feed(const RequestId& id, Reveal& r,
            std::vector<secretshare::Arss1Share> batch,
            bft::ReplicaContext& ctx);

  std::unique_ptr<SchemeState> admit(BytesView payload) override;
  void start(const RequestId& id, Reveal& r, bft::ReplicaContext& ctx) override;
  void resume(const RequestId& id, Reveal& r,
              bft::ReplicaContext& ctx) override {
    start(id, r, ctx);
  }
  std::optional<Bytes> open_share(const RequestId& id, bft::NodeId from,
                                  Bytes x, std::size_t frame_size,
                                  bft::ReplicaContext& ctx) override;
  Bytes share_frame(const RequestId& id, bft::NodeId to, BytesView wire,
                    bft::ReplicaContext& ctx) override;
  std::optional<uint32_t> share_index(BytesView wire) const override;
  void take_share(const RequestId& id, Reveal& r, bft::NodeId from,
                  Bytes wire, bool fresh, bft::ReplicaContext& ctx) override;
  Bytes corrupt(BytesView wire) const override;
  void write_scheme(Writer& w, const Reveal& r) const override;
  std::unique_ptr<SchemeState> read_scheme(Reader& rd) override;
  void bind_scheme_metrics(obs::MetricsRegistry& registry) override;

  const std::optional<crypto::Commitment> commitment_;  // CP2 only
  const secretshare::Arss2Mode mode_;                   // CP3 only

  struct {
    obs::Counter* reconstructions = nullptr;
    obs::Counter* recovery_attempts = nullptr;
    obs::Histogram* batch_size = nullptr;  // shares fed per flush
  } m_;
};

class Cp2ReplicaApp : public ArssReplicaApp {
 public:
  Cp2ReplicaApp(std::unique_ptr<Service> service, crypto::Commitment commitment)
      : ArssReplicaApp(std::move(service), "cp2", std::move(commitment),
                       secretshare::Arss2Mode::kFast) {}
};

class Cp3ReplicaApp : public ArssReplicaApp {
 public:
  explicit Cp3ReplicaApp(
      std::unique_ptr<Service> service,
      secretshare::Arss2Mode mode = secretshare::Arss2Mode::kFast)
      : ArssReplicaApp(std::move(service), "cp3", std::nullopt, mode) {}
};

/// The client side of CP2 (ARSS1 under `commitment`) and CP3 (ARSS2).
class ArssClientProtocol : public bft::ClientProtocol {
 public:
  explicit ArssClientProtocol(
      std::optional<crypto::Commitment> commitment = std::nullopt)
      : commitment_(std::move(commitment)) {}

  void start(uint64_t client_seq, BytesView op, bft::ClientContext& ctx) override;
  void on_reply(bft::NodeId replica, const bft::ReplyMsg& reply,
                bft::ClientContext& ctx) override;
  void on_retransmit(bft::ClientContext& ctx) override;

 private:
  void send_all(bft::ClientContext& ctx);

  std::optional<crypto::Commitment> commitment_;
  uint64_t seq_ = 0;
  RequestId id_;
  Bytes schedule_payload_;  // CP2: bytes(c); CP3: empty (the ID alone)
  std::vector<Bytes> share_wires_;  // per replica
  bft::ReplyQuorum quorum_;
};

}  // namespace scab::causal
