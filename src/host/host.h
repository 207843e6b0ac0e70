// The host abstraction: everything a protocol node needs from its runtime.
//
// Every protocol object in the stack (bft::Replica, bft::Client, the
// CP0–CP3 engines, abft::AsyncReplica) is written against this seam and
// nothing else, so the same code runs under
//
//   * sim::SimHost — the deterministic discrete-event simulator (virtual
//     time, one global event loop, bit-reproducible runs), and
//   * rt::ThreadHost — a real-time runtime (steady-clock timers, one worker
//     thread per node draining an MPSC mailbox, pluggable transports).
//
// The contract every host provides (DESIGN.md §8):
//
//   now()       monotonic nanoseconds.  Virtual under the sim.
//   schedule()  schedule(node, delay, fn) — fn runs on `node`'s executor
//               after >= delay.
//   send()      send(from, to, bytes) — unicast, unordered across pairs,
//               FIFO per (from, to) not guaranteed by the interface (the
//               protocols tolerate reordering by design).
//   post()      post(node, fn) — runs fn on `node`'s executor.  A node's
//               handlers (on_message, timers, posted fns) NEVER run
//               concurrently with each other: each node is a sequential
//               process on every host, which is the invariant that keeps
//               the protocol objects lock-free.
//   submit()    hands a PoolJob to the crypto worker pool
//               (host/worker_pool.h); inline by default.
//   bind()      registers a fully built endpoint; unbind() retires it.
//   charge()    cost accounting hook.  The simulator turns charges into
//               virtual busy-time (the paper's modeled CPU costs); real-time
//               hosts ignore them — real work is measured, not modeled.
//   storage()   durable per-node blob store + append log (host/storage.h),
//               or nullptr when the node runs without durability.  Owned by
//               the host; survives unbind/rebind.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "common/bytes.h"
#include "host/cost_model.h"
#include "host/fault.h"
#include "host/storage.h"
#include "host/time.h"
#include "host/worker_pool.h"

namespace scab::host {

/// A protocol endpoint (replica or client).
class Node {
 public:
  virtual ~Node() = default;

  /// Message delivery callback; invoked on this node's sequential executor.
  virtual void on_message(NodeId from, BytesView msg) = 0;
};

/// A complete runtime: clock, timers, transport, per-node executors and the
/// crypto worker pool, plus endpoint registration and the cost-charging
/// hook.  The inline submit default is what the deterministic simulator
/// keeps; rt::ThreadHost overrides it with real threads.
class Host {
 public:
  virtual ~Host() = default;

  /// Monotonic nanoseconds.  Virtual under the simulator.
  virtual Time now() const = 0;

  /// Runs `fn` on `node`'s executor once at least `delay` ns have passed.
  virtual void schedule(NodeId node, Time delay, std::function<void()> fn) = 0;

  /// Sends `msg` from `from` to `to`; delivered via Node::on_message on the
  /// receiver's executor.  Delivery is best-effort (faults, crashes).
  virtual void send(NodeId from, NodeId to, Bytes msg) = 0;

  /// Runs `fn` on `node`'s sequential executor.  The simulator host runs it
  /// inline (the caller IS the event loop); thread hosts enqueue it on the
  /// node's mailbox.  This is the only safe way to poke a node from outside
  /// its own handlers.
  virtual void post(NodeId node, std::function<void()> fn) = 0;

  /// Runs `job` (on a pool thread, or inline) and posts its continuation to
  /// `owner`'s executor (host/worker_pool.h contract).  Default: inline.
  virtual void submit(NodeId owner, PoolJob job) {
    (void)owner;
    if (!job) return;
    if (auto cont = job()) cont();
  }

  /// Number of real pool threads; 0 = inline execution.
  virtual std::size_t pool_threads() const { return 0; }

  /// Registers `endpoint` as node `id`.  Traffic and timers may reach the
  /// endpoint as soon as this returns, so the endpoint must be fully built.
  virtual void bind(NodeId id, Node* endpoint) = 0;
  virtual void unbind(NodeId id) = 0;

  /// Cost-accounting hook: `cost` ns of CPU work attributed to `node`.
  /// Default no-op — real-time hosts measure instead of model.
  virtual void charge(NodeId node, Time cost) {
    (void)node;
    (void)cost;
  }

  /// Quiesces the host: joins worker threads, drops pending timers.  After
  /// stop() returns, no endpoint callback is running or will run — callers
  /// may then destroy the endpoints.  Idempotent; no-op for the simulator
  /// (its event loop is caller-driven).
  virtual void stop() {}

  /// The host's fault-injection surface (crash/cut/delay/tamper), or
  /// nullptr for hosts without one.  Both in-tree hosts implement it.
  virtual FaultInjector* fault_injector() { return nullptr; }

  /// Durable storage attached to `node`, or nullptr when the node runs
  /// without durability.  The host OWNS the storage and keeps it across
  /// unbind/rebind of the id — that survival is the crash boundary an
  /// in-process restart recovers over.  Default: no storage.
  virtual Storage* storage(NodeId node) { return (void)node, nullptr; }
};

struct NoContext {};

/// Mixin deduplicating the per-node host plumbing that every protocol class
/// needs: identity and clock/timer/charge forwarding.  `Base` is the context
/// interface the class implements (bft::ReplicaContext), whose matching
/// virtuals the forwarders implicitly override, or none (bft::Client hands
/// each protocol a per-slot context instead).
///
/// The mixin never binds: the host may deliver to an endpoint the moment it
/// is bound, so the most-derived class calls bind() as the last statement of
/// its constructor and unbind() as the first statement of its destructor.
template <class Base = NoContext>
class HostBound : public Base, public Node {
 public:
  HostBound(Host& host, NodeId id, const CostModel& costs)
      : host_(host), id_(id), costs_(costs) {}

  HostBound(const HostBound&) = delete;
  HostBound& operator=(const HostBound&) = delete;

  NodeId id() const { return id_; }
  Time now() const { return host_.now(); }
  void schedule(Time delay, std::function<void()> fn) {
    host_.schedule(id_, delay, std::move(fn));
  }
  void charge(Op op, std::size_t bytes) {
    host_.charge(id_, costs_.cost(op, bytes));
  }
  /// Hands `job` to the host's worker pool; the continuation it returns is
  /// posted back to this node's executor (host/worker_pool.h contract).
  void offload(PoolJob job) { host_.submit(id_, std::move(job)); }

  Host& host() const { return host_; }

 protected:
  void bind() { host_.bind(id_, this); }
  void unbind() { host_.unbind(id_); }
  void send_raw(NodeId to, Bytes msg) { host_.send(id_, to, std::move(msg)); }
  const CostModel& costs() const { return costs_; }

 private:
  Host& host_;
  NodeId id_;
  CostModel costs_;  // by value: hosts outlive nodes, option structs may not
};

}  // namespace scab::host
