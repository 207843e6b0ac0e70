// SimHost: the discrete-event simulator as a host::Host implementation.
//
// Determinism contract: SimHost adds NO events, randomness, or reordering
// of its own — every call is a direct delegation to the pre-existing
// simulator primitives, in the same order the protocol code issues it:
//
//   now()       -> Simulator::now()              (virtual time)
//   schedule()  -> Simulator::schedule_after()   (same (time, seq) order)
//   send()      -> Network::send()               (same latency/bandwidth/
//                                                 fault pipeline)
//   post()      -> runs fn INLINE                (the caller already is the
//                                                 single event loop)
//   charge()    -> Network::charge()             (virtual busy-time on the
//                                                 node's sequential CPU)
//   bind()      -> Network::attach()             (the endpoint itself; the
//                                                 Network keeps its busy
//                                                 time, which shapes message
//                                                 departure and delivery)
//
// so a protocol stack running on SimHost replays bit-for-bit identically
// whatever the host seam looks like above it (tests/determinism_test.cc
// pins the digests).
//
// Node restart support: every bind bumps the node's epoch, and a scheduled
// timer only fires if its node's epoch is unchanged — so timers armed by a
// torn-down endpoint (watchdogs, reveal retries) die silently instead of
// running against freed state.  The guard adds no events and no RNG draws:
// event times, counts and ordering are untouched.
//
// fault_injector() is the Network's host::FaultInjector, the one the
// Network consults on every send.
#pragma once

#include <memory>
#include <unordered_map>

#include "host/host.h"
#include "sim/network.h"

namespace scab::sim {

class SimHost final : public host::Host {
 public:
  explicit SimHost(Network& net) : net_(net) {}

  host::Time now() const override { return net_.sim().now(); }

  void schedule(host::NodeId node, host::Time delay,
                std::function<void()> fn) override {
    // One global event loop: node affinity is automatic.  The epoch check
    // keeps a timer from outliving its endpoint across unbind/rebind.
    const uint64_t epoch = epoch_of(node);
    net_.sim().schedule_after(
        delay, [this, node, epoch, fn = std::move(fn)] {
          if (epoch_of(node) == epoch) fn();
        });
  }

  void post(host::NodeId node, std::function<void()> fn) override {
    (void)node;
    fn();  // the caller is the event loop; inline = the pre-refactor call
  }

  void send(host::NodeId from, host::NodeId to, Bytes msg) override {
    net_.send(from, to, std::move(msg));
  }

  void bind(host::NodeId id, host::Node* endpoint) override;
  void unbind(host::NodeId id) override;
  void charge(host::NodeId node, host::Time cost) override;

  host::FaultInjector* fault_injector() override { return &net_.faults(); }

  /// Attaches (or replaces) durable storage for `id`.  The host owns it;
  /// it survives unbind/rebind, so a torn-down endpoint's replacement
  /// recovers from exactly what its predecessor persisted.  Pure data
  /// handoff: no events, no RNG — seeded runs stay bit-identical whether
  /// or not storage is attached (see determinism_test).
  void attach_storage(host::NodeId id,
                      std::unique_ptr<host::Storage> storage) {
    storage_[id] = std::move(storage);
  }
  host::Storage* storage(host::NodeId node) override {
    auto it = storage_.find(node);
    return it == storage_.end() ? nullptr : it->second.get();
  }

  Network& net() { return net_; }

 private:
  uint64_t epoch_of(host::NodeId node) const {
    auto it = bind_epochs_.find(node);
    return it == bind_epochs_.end() ? 0 : it->second;
  }

  Network& net_;
  // Owned durable storage per node; deliberately NOT cleared on unbind.
  std::unordered_map<host::NodeId, std::unique_ptr<host::Storage>> storage_;
  // Bumped on every bind AND unbind, so timers from any earlier lifetime of
  // the id can never fire into a newer (or absent) endpoint.
  std::unordered_map<host::NodeId, uint64_t> bind_epochs_;
};

}  // namespace scab::sim
