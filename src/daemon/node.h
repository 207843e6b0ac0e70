// One deployable node of a scab cluster (DESIGN.md §11).
//
// StackBundle re-runs the trusted dealer from the config's seed — master
// DRBG, KeyRing over every declared node id, protocol key material — so
// each process independently derives the same key universe the in-process
// harness (causal::Cluster) would.  ReplicaDaemon then assembles one
// replica's full stack on top: rt::SocketTransport (peer table from the
// config) -> rt::ThreadHost -> causal replica app -> bft::Replica, all
// through the same causal/stack.h factories the harness uses.
//
// Observability: everything (transport errors, fault-injector drops, the
// replica's bft.* instruments, the request tracer) lands in one
// MetricsRegistry per process; dump_json() renders the whole record and
// dump_to() writes it atomically — this is what scabd emits on SIGUSR1.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "bft/keyring.h"
#include "causal/stack.h"
#include "crypto/drbg.h"
#include "daemon/config.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace scab::bft {
class Replica;
class ReplicaApp;
}  // namespace scab::bft

namespace scab::rt {
class ThreadHost;
class SocketTransport;
}  // namespace scab::rt

namespace scab::daemon {

/// Per-process dealer output: everything derived from the config that is
/// independent of which node this process plays.
class StackBundle {
 public:
  explicit StackBundle(const ClusterConfig& cfg);

  const causal::StackMaterial& material() const { return material_; }
  const bft::KeyRing& keys() const { return keys_; }
  causal::StackContext context() const;

  /// Per-node randomness: forked like the in-process harness (replicas by
  /// id, clients by index = id - kClientBase), then reseeded from OS
  /// entropy.  Every call, and so every incarnation of a restarted process,
  /// draws a fresh stream: a repeated stream would repeat CP0's share-proof
  /// nonces across incarnations, and two proofs under one nonce give away
  /// the replica's key share.  Keys and material stay dealer-derived.
  crypto::Drbg replica_rng(uint32_t replica_id);
  crypto::Drbg client_rng(uint32_t client_id);

 private:
  const ClusterConfig& cfg_;
  crypto::Drbg master_rng_;
  bft::KeyRing keys_;
  causal::StackMaterial material_;
};

/// Renders a daemon dump record (shared with scab-client's summary and the
/// schema test): {"node","protocol","port","executed","metrics","trace"}.
std::string format_dump_record(uint32_t node, causal::Protocol protocol,
                               uint16_t port, uint64_t executed,
                               const obs::MetricsRegistry& metrics,
                               const obs::Tracer& tracer);

class ReplicaDaemon {
 public:
  /// Builds the stack and starts the replica.  Binding can fail (port
  /// taken, sandbox without sockets) — check ok(); a !ok() daemon holds no
  /// threads and is safe to destroy.
  ReplicaDaemon(const ClusterConfig& cfg, uint32_t replica_id);
  ~ReplicaDaemon();

  bool ok() const { return replica_ != nullptr; }
  uint16_t port() const { return port_; }
  uint64_t executed_requests() const;

  std::string dump_json() const;
  /// Atomic write of dump_json() to `path`; false on I/O failure.
  bool dump_to(const std::string& path) const;

  /// Joins every worker thread; idempotent (also run by the destructor).
  void stop();

 private:
  ClusterConfig cfg_;
  uint32_t id_;
  uint16_t port_ = 0;
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  StackBundle bundle_;
  std::unique_ptr<rt::ThreadHost> host_;
  std::unique_ptr<bft::ReplicaApp> app_;  // owns the Service
  std::unique_ptr<bft::Replica> replica_;
};

}  // namespace scab::daemon
