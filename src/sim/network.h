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
//  * Faults are injected at the network boundary through the runtime-
//    agnostic host::FaultInjector: crashed nodes, dropped links, per-link
//    delay, and an arbitrary filter/tamper hook used by the Byzantine tests
//    ("corrupt the decryption share of replica 2").
#pragma once

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "common/bytes.h"
#include "host/host.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace scab::sim {

using host::NodeId;

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

class Network {
 public:
  /// `metrics` (optional) receives "net.*" counters and the egress-wait
  /// histogram; pass the cluster-wide registry to see drop attribution.
  Network(Simulator& sim, NetworkProfile profile, uint64_t jitter_seed = 0,
          obs::MetricsRegistry* metrics = nullptr);

  /// Attaches `node` as endpoint `id` (replacing any earlier one) with an
  /// idle processor; detach() forgets it, and messages in flight to it drop.
  void attach(NodeId id, host::Node* node);
  void detach(NodeId id);

  /// Charges `cost` ns of CPU work to attached node `id`'s sequential
  /// processor: it stays busy accordingly and its later sends depart later.
  void charge(NodeId id, SimTime cost);

  /// Sends `msg` from `from` to `to`.  Departure waits for the sender's
  /// charged CPU work; the link applies serialization + latency + jitter;
  /// the receiver's sequential processor then schedules on_message.
  void send(NodeId from, NodeId to, Bytes msg);

  host::FaultInjector& faults() { return faults_; }

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

  /// An attached endpoint and the virtual time its charged work completes.
  struct Endpoint {
    host::Node* node = nullptr;
    SimTime busy_until = 0;
  };
  SimTime ready_at(const Endpoint& ep) const {
    return std::max(ep.busy_until, sim_.now());
  }

  Simulator& sim_;
  NetworkProfile profile_;
  obs::MetricsRegistry& metrics_;
  host::FaultInjector faults_;
  std::unordered_map<NodeId, Endpoint> nodes_;
  std::unordered_map<NodeId, SimTime> egress_free_at_;
  uint64_t jitter_state_;
  uint64_t messages_sent_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t messages_delivered_ = 0;

  struct {
    obs::Counter* sent;
    obs::Counter* bytes;
    obs::Counter* delivered;
    obs::Histogram* egress_wait_ns;  // start_tx - depart: NIC queueing delay
  } m_;
  // Per-sender egress byte counters ("net.egress.bytes.<id>"), resolved
  // lazily on first send so only attached-and-active nodes appear.
  std::unordered_map<NodeId, obs::Counter*> egress_bytes_;
};

}  // namespace scab::sim
