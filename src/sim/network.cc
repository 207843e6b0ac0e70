#include "sim/network.h"

namespace scab::sim {

NetworkProfile NetworkProfile::lan() {
  // "100 MB bandwidth and 0.1 ms latency".  The 0.1 ms is split as the
  // one-way propagation delay of the testbed switch fabric.
  NetworkProfile p;
  p.link.latency = 100 * kMicrosecond / 2;  // 0.05 ms one-way
  p.link.bandwidth_bps = 100ull * 1000 * 1000;
  p.link.jitter = 2 * kMicrosecond;
  return p;
}

NetworkProfile NetworkProfile::wan() {
  // "1 MB bandwidth and 120 ms latency" (one-way ~60 ms).
  NetworkProfile p;
  p.link.latency = 120 * kMillisecond / 2;
  p.link.bandwidth_bps = 1ull * 1000 * 1000;
  p.link.jitter = 500 * kMicrosecond;
  return p;
}

NetworkProfile NetworkProfile::ideal() {
  // A 1 us floor keeps virtual time advancing: with a literal zero-latency
  // network a closed-loop client could complete infinitely many operations
  // at one instant and the simulation would never progress.
  NetworkProfile p;
  p.link.latency = kMicrosecond;
  return p;
}

Network::Network(Simulator& sim, NetworkProfile profile, uint64_t jitter_seed,
                 obs::MetricsRegistry* metrics)
    : sim_(sim),
      profile_(profile),
      metrics_(metrics ? *metrics : obs::MetricsRegistry::inert()),
      faults_(&metrics_),
      jitter_state_((jitter_seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL) | 1) {
  m_.sent = &metrics_.counter("net.messages_sent");
  m_.bytes = &metrics_.counter("net.bytes_sent");
  m_.delivered = &metrics_.counter("net.messages_delivered");
  m_.egress_wait_ns = &metrics_.histogram("net.egress.wait_ns");
}

obs::Counter& Network::egress_bytes_counter(NodeId from) {
  auto it = egress_bytes_.find(from);
  if (it == egress_bytes_.end()) {
    it = egress_bytes_
             .emplace(from, &metrics_.counter("net.egress.bytes." +
                                              std::to_string(from)))
             .first;
  }
  return *it->second;
}

void Network::attach(NodeId id, host::Node* node) {
  nodes_.insert_or_assign(id, Endpoint{node});
}

void Network::detach(NodeId id) { nodes_.erase(id); }

void Network::charge(NodeId id, SimTime cost) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return;
  it->second.busy_until = ready_at(it->second) + cost;
}

void Network::send(NodeId from, NodeId to, Bytes msg) {
  ++messages_sent_;
  bytes_sent_ += msg.size();
  m_.sent->inc();
  m_.bytes->inc(msg.size());
  egress_bytes_counter(from).inc(msg.size());

  if (!nodes_.contains(to)) return;

  SimTime extra = 0;
  if (!faults_.admit(from, to, msg, &extra)) return;

  // Departure: after the sender finishes the CPU work charged so far.
  SimTime depart = sim_.now();
  if (auto src = nodes_.find(from); src != nodes_.end()) {
    depart = ready_at(src->second);
  }

  // NIC serialization (bandwidth): every destination shares the sender's
  // single egress pipe, as on the paper's one-NIC testbed machines — this
  // is what caps a primary that must send n-1 copies of each batch.
  SimTime tx = 0;
  if (profile_.link.bandwidth_bps > 0) {
    tx = static_cast<SimTime>(msg.size()) * kSecond / profile_.link.bandwidth_bps;
  }
  SimTime& free_at = egress_free_at_[from];
  const SimTime start_tx = std::max(depart, free_at);
  m_.egress_wait_ns->record(start_tx - depart);
  free_at = start_tx + tx;

  // Deterministic jitter (xorshift; independent of protocol randomness).
  SimTime jitter = 0;
  if (profile_.link.jitter > 0) {
    jitter_state_ ^= jitter_state_ << 13;
    jitter_state_ ^= jitter_state_ >> 7;
    jitter_state_ ^= jitter_state_ << 17;
    jitter = jitter_state_ % profile_.link.jitter;
  }

  const SimTime arrival = free_at + profile_.link.latency + jitter + extra;
  deliver(from, to, std::move(msg), arrival);
}

void Network::deliver(NodeId from, NodeId to, Bytes msg, SimTime arrival) {
  sim_.schedule_at(arrival, [this, from, to, msg = std::move(msg)]() mutable {
    auto it = nodes_.find(to);
    if (it == nodes_.end()) return;  // detached/restarted while in flight
    if (!faults_.reachable(to)) return;  // crashed while in flight
    // The receiver is a sequential processor: if it is still busy with
    // earlier work, requeue this delivery for when it frees up.  busy_until
    // only ever advances, so this converges.
    const SimTime start = ready_at(it->second);
    if (start > sim_.now()) {
      deliver(from, to, std::move(msg), start);
      return;
    }
    ++messages_delivered_;
    m_.delivered->inc();
    it->second.node->on_message(from, msg);
  });
}

}  // namespace scab::sim
