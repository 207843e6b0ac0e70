// Runtime-agnostic fault injection (DESIGN.md §9).
//
// One FaultInjector holds a cluster's crash/cut/delay/tamper state and
// decides every message's fate, on both runtimes:
//
//   * sim::Network consults it at send, and again at arrival for a node
//     that crashed while the message was in flight;
//   * rt::ThreadHost consults it in deliver(), the chokepoint every inbound
//     message crosses whatever the transport, and defers a delayed link's
//     messages onto the receiver's own timer queue.
//
// Tests, the chaos harness and the fault benches reach it through
// host::Host::fault_injector() without caring which runtime carries the
// cluster.  crash()/restart() gate the node's NETWORK presence only;
// tearing a node down and bringing it back with empty volatile state is
// the layer above (causal::Cluster::crash_replica / restart_replica).
//
// Drops are counted under "net.drops.{crash,cut,tamper}" in the registry
// given at construction, so fault tests assert attribution independently
// of the runtime under test.  The state is mutex-guarded: under
// rt::ThreadHost every sender thread runs the check concurrently.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/bytes.h"
#include "host/time.h"
#include "obs/metrics.h"

namespace scab::host {

class FaultInjector {
 public:
  /// Inspect/tamper hook: return std::nullopt to drop the message, or a
  /// (possibly modified) payload to deliver.  Runs after the crash/cut
  /// checks, outside the lock.  Under rt::ThreadHost it may be invoked
  /// concurrently from multiple sender threads and must be thread-safe.
  using Tamper =
      std::function<std::optional<Bytes>(NodeId from, NodeId to, BytesView msg)>;

  /// `metrics` (optional) receives the "net.drops.*" counters.
  explicit FaultInjector(obs::MetricsRegistry* metrics = nullptr);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Drops everything to and from `node` until restart(node).
  void crash(NodeId node);
  /// Clears the crash flag: traffic to/from `node` flows again.
  void restart(NodeId node);
  bool is_crashed(NodeId node) const;

  /// Drops messages on the directed link from -> to.
  void cut(NodeId from, NodeId to);
  void heal(NodeId from, NodeId to);
  /// Clears every cut and every per-link delay (crash flags stay).
  void heal_all();

  /// Adds `extra` ns of one-way delay on the directed link from -> to
  /// (0 removes it), on top of the runtime's own delivery time.
  void delay(NodeId from, NodeId to, Time extra);
  void clear_delays();

  void set_tamper(Tamper t);
  void clear_tamper();

  /// Decides one message's fate.  Returns false when a crash, a cut or the
  /// tamper hook drops it, counted under its reason.  Otherwise `msg` holds
  /// the payload to deliver (rewritten in place when the tamper hook
  /// changed it) and `*extra` the link's added delay.
  bool admit(NodeId from, NodeId to, Bytes& msg, Time* extra);

  /// The arrival-side check: false, counted as a crash drop, when `to`
  /// crashed while a message to it was in flight.
  bool reachable(NodeId to);

 private:
  static uint64_t key(NodeId a, NodeId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  mutable std::mutex mu_;
  std::unordered_set<NodeId> crashed_;
  std::unordered_set<uint64_t> cut_;
  std::unordered_map<uint64_t, Time> delays_;
  // Shared so admit() takes a reference under the lock and runs the hook
  // outside it without copying the callable.
  std::shared_ptr<const Tamper> tamper_;

  obs::Counter& drops_crash_;
  obs::Counter& drops_cut_;
  obs::Counter& drops_tamper_;
};

}  // namespace scab::host
