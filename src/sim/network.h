// Simulated message-passing network with latency + bandwidth queueing,
// sequential per-node CPU, and declarative fault injection.
//
// Model:
//  * Every link has a propagation latency; each NODE has one egress pipe
//    (single NIC, as on the paper's testbed) whose bandwidth serializes all
//    of its outgoing messages — this is what makes the WAN profile (1 MB/s)
//    throttle throughput exactly as in the paper's Fig. 5, and what caps a
//    primary that must send n-1 copies of every batch.
//  * Every node is a sequential processor: a handler starts at
//    max(arrival, busy_until) and charges CPU cost through charge(); sends
//    issued inside a handler depart when the charged work completes.
//  * Faults are injected at the network boundary: crashed nodes, dropped
//    links, and an arbitrary filter/tamper hook used by the Byzantine
//    tests ("corrupt the decryption share of replica 2").
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/bytes.h"
#include "host/cost_model.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace scab::sim {

using NodeId = uint32_t;

class Network;

/// Base class for simulated processes (replicas, clients).
class Node {
 public:
  Node(Simulator& sim, NodeId id) : sim_(sim), id_(id) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }

  /// Message delivery callback; invoked when this node's sequential
  /// processor picks the message up.
  virtual void on_message(NodeId from, BytesView msg) = 0;

  /// Charges CPU time for work done inside the current handler. The node's
  /// processor stays busy accordingly and subsequent sends depart later.
  void charge(SimTime cost) { busy_until_ = std::max(busy_until_, sim_.now()) + cost; }
  void charge(const host::CostModel& m, host::Op op, std::size_t bytes = 0) {
    charge(m.cost(op, bytes));
  }

  /// The virtual time at which work charged so far completes.
  SimTime ready_at() const { return std::max(busy_until_, sim_.now()); }

  Simulator& sim() const { return sim_; }

 private:
  friend class Network;
  Simulator& sim_;
  NodeId id_;
  SimTime busy_until_ = 0;
};

/// Per-link shaping parameters.
struct LinkProfile {
  SimTime latency = 0;           // one-way propagation delay, ns
  uint64_t bandwidth_bps = 0;    // bytes per second; 0 = infinite
  SimTime jitter = 0;            // uniform extra delay in [0, jitter)
};

/// The two settings of the paper's §VI-B plus an ideal profile for tests.
struct NetworkProfile {
  LinkProfile link;

  /// "a LAN setting with 100 MB bandwidth and 0.1 ms latency"
  static NetworkProfile lan();
  /// "a WAN setting with 1 MB bandwidth and 120 ms latency"
  static NetworkProfile wan();
  /// Near-zero latency (1 us floor), infinite bandwidth: unit tests where
  /// only ordering matters.  A literal zero-latency profile would let
  /// closed loops complete unboundedly much work at a single instant.
  static NetworkProfile ideal();
};

/// Why FaultPlan::apply dropped a message — attributed to metrics so tests
/// can assert "the partition dropped exactly these, nothing else did".
enum class DropReason : uint8_t {
  kNone = 0,   // delivered (possibly tampered in place)
  kCrash,      // sender or receiver crashed
  kCut,        // directed link cut
  kTamper,     // tamper hook returned nullopt
};

/// Declarative fault injection, applied on send.
class FaultPlan {
 public:
  /// Drops everything to and from `node` from this virtual time on.
  void crash(NodeId node) { crashed_.insert(node); }
  bool is_crashed(NodeId node) const { return crashed_.contains(node); }
  void recover(NodeId node) { crashed_.erase(node); }

  /// Drops messages on the directed link a -> b.
  void cut(NodeId from, NodeId to) { cut_.insert(key(from, to)); }
  void heal(NodeId from, NodeId to) { cut_.erase(key(from, to)); }
  /// Clears every cut and every per-link delay (crash flags stay).
  void heal_all() {
    cut_.clear();
    delays_.clear();
  }

  /// Adds `extra` ns of one-way delay on the directed link a -> b; 0
  /// removes the entry.  Applied by Network::send on top of the profile's
  /// latency, so delayed messages still obey per-link FIFO-ish shaping.
  void delay(NodeId from, NodeId to, SimTime extra) {
    if (extra == 0) {
      delays_.erase(key(from, to));
    } else {
      delays_[key(from, to)] = extra;
    }
  }
  void clear_delays() { delays_.clear(); }
  SimTime extra_delay(NodeId from, NodeId to) const {
    auto it = delays_.find(key(from, to));
    return it == delays_.end() ? 0 : it->second;
  }

  /// Arbitrary inspect/tamper hook: return std::nullopt to drop the
  /// message, or a (possibly modified) payload to deliver.  Runs after the
  /// crash/cut checks.
  using Tamper =
      std::function<std::optional<Bytes>(NodeId from, NodeId to, BytesView msg)>;
  void set_tamper(Tamper t) { tamper_ = std::move(t); }
  void clear_tamper() { tamper_ = nullptr; }

  /// Applies the plan; nullopt means "drop".  When `reason` is non-null it
  /// receives what dropped the message (kNone on delivery).
  std::optional<Bytes> apply(NodeId from, NodeId to, BytesView msg,
                             DropReason* reason = nullptr) const;

 private:
  static uint64_t key(NodeId a, NodeId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }
  std::unordered_set<NodeId> crashed_;
  std::unordered_set<uint64_t> cut_;
  std::unordered_map<uint64_t, SimTime> delays_;
  Tamper tamper_;
};

class Network {
 public:
  /// `metrics` (optional) receives "net.*" counters and the egress-wait
  /// histogram; pass the cluster-wide registry to see drop attribution.
  Network(Simulator& sim, NetworkProfile profile, uint64_t jitter_seed = 0,
          obs::MetricsRegistry* metrics = nullptr);

  void attach(Node* node);
  void detach(NodeId id);

  /// Sends `msg` from `from` to `to`.  Departure waits for the sender's
  /// charged CPU work; the link applies serialization + latency + jitter;
  /// the receiver's sequential processor then schedules on_message.
  void send(NodeId from, NodeId to, Bytes msg);

  /// Sends to every attached node except the sender (the broadcast used by
  /// reveal phases).  Self-delivery is the caller's job if wanted.
  void broadcast(NodeId from, const Bytes& msg,
                 const std::function<bool(NodeId)>& to_filter = nullptr);

  FaultPlan& faults() { return faults_; }
  const FaultPlan& faults() const { return faults_; }

  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t messages_delivered() const { return messages_delivered_; }

  Simulator& sim() const { return sim_; }

 private:
  // Keyed by NodeId (not Node*): the destination is re-resolved when the
  // delivery event fires, so a node detached (or replaced by a restart)
  // while messages are in flight just drops them instead of dangling.
  void deliver(NodeId from, NodeId to, Bytes msg, SimTime arrival);
  obs::Counter& egress_bytes_counter(NodeId from);

  Simulator& sim_;
  NetworkProfile profile_;
  FaultPlan faults_;
  std::unordered_map<NodeId, Node*> nodes_;
  std::unordered_map<NodeId, SimTime> egress_free_at_;
  uint64_t jitter_state_;
  uint64_t messages_sent_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t messages_delivered_ = 0;

  obs::MetricsRegistry& metrics_;
  struct {
    obs::Counter* sent;
    obs::Counter* bytes;
    obs::Counter* delivered;
    obs::Counter* drops_crash;
    obs::Counter* drops_cut;
    obs::Counter* drops_tamper;
    obs::Histogram* egress_wait_ns;  // start_tx - depart: NIC queueing delay
  } m_;
  // Per-sender egress byte counters ("net.egress.bytes.<id>"), resolved
  // lazily on first send so only attached-and-active nodes appear.
  std::unordered_map<NodeId, obs::Counter*> egress_bytes_;
};

}  // namespace scab::sim
