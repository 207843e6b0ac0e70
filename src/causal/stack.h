// The shared replica-stack construction seam (DESIGN.md §11).
//
// Assembling one node of a causal cluster takes three ingredients:
//
//   1. protocol-wide cryptographic material (the §V-A trusted dealer's
//      tape: a TDH2 key set for CP0, commitment keys for CP1/CP2), derived
//      deterministically from one master DRBG;
//   2. a per-replica protocol app (the causal engine wrapped around the
//      replicated Service);
//   3. a per-client ClientProtocol (the client half of the same engine).
//
// Two deployments build exactly this stack: the in-process harness
// (causal::Cluster — simulator or threaded runtime, every node in one
// address space) and the standalone daemon (daemon::ReplicaDaemon — one
// replica per process over rt::SocketTransport).  This header is the one
// place the ingredient recipes live, so the two cannot drift: a cluster
// booted from a config file with dealer seed S runs the same keys, apps,
// and client protocols as `Cluster{seed = S}`.
//
// Determinism contract: derive_material performs its DRBG forks in a fixed
// order with fixed labels (group, tdh2 / nmcad / commit) — the exact
// sequence the pre-seam Cluster constructor performed, which keeps every
// seeded simulation bit-identical across the refactor.
#pragma once

#include <memory>
#include <optional>

#include "bft/config.h"
#include "causal/cp1_options.h"
#include "causal/protocol.h"
#include "causal/service.h"
#include "crypto/drbg.h"
#include "crypto/modgroup.h"
#include "secretshare/arss.h"

namespace scab::bft {
class ClientProtocol;
class ReplicaApp;
}  // namespace scab::bft

namespace scab::threshenc {
struct Tdh2KeyMaterial;
}  // namespace scab::threshenc

namespace scab::causal {

class Cp0Backend;

/// Protocol-wide cryptographic material shared by every node of one
/// cluster.  Only the fields the chosen protocol needs are populated;
/// `tdh2` is always non-null (empty for non-CP0 protocols) so callers can
/// hold it unconditionally.
struct StackMaterial {
  // Out-of-line special members: `tdh2` is a unique_ptr to a type this
  // header only forward-declares.
  StackMaterial();
  ~StackMaterial();
  StackMaterial(StackMaterial&&) noexcept;
  StackMaterial& operator=(StackMaterial&&) noexcept;

  /// The threshold-cryptosystem group actually used (CP0 only): the caller
  /// provided group, or the one generated from the master DRBG.
  std::optional<crypto::ModGroup> group;
  std::unique_ptr<threshenc::Tdh2KeyMaterial> tdh2;  // CP0
  Bytes nmcad_key;                                   // CP1
  Bytes commitment_key;                              // CP2
};

/// The canonical label encoding for every deterministic derivation in a
/// cluster: u64 seed followed by a text label ("cluster-master",
/// "keyring", per-node "replica"/"client" forks).  Both deployments MUST
/// derive through this helper — a one-byte encoding drift would give the
/// daemon a different key universe than the in-process harness.
Bytes seed_label(uint64_t seed, std::string_view label);

/// Runs the trusted dealer: derives `protocol`'s key material from
/// `master_rng` (forking, never draining, so the caller's stream position
/// is unaffected).  If `group` is empty and the protocol needs one, a
/// fresh `group_bits`-bit group is generated from the fork labelled
/// "group" — the same label and order the in-process Cluster always used.
StackMaterial derive_material(Protocol protocol, const bft::BftConfig& cfg,
                              crypto::Drbg& master_rng,
                              std::optional<crypto::ModGroup> group,
                              std::size_t group_bits);

/// Everything make_replica_app / make_client_protocol need, bundled so the
/// two deployments pass one struct.  Borrowed pointers: the material must
/// outlive the stack built from it.
struct StackContext {
  Protocol protocol = Protocol::kPbft;
  const StackMaterial* material = nullptr;
  bft::BftConfig bft;
  Cp1Options cp1;
  secretshare::Arss2Mode arss2_mode = secretshare::Arss2Mode::kFast;
  /// CP0: substitute the calibrated-cost oracle for real TDH2 (throughput
  /// sweeps only; never set by the daemon).
  bool cp0_modeled = false;
};

/// CP0 threshold backend for one node; `replica_index` selects the key
/// share (nullopt = a client: public operations only).
std::unique_ptr<Cp0Backend> make_cp0_backend(
    const StackContext& ctx, std::optional<uint32_t> replica_index);

/// The replica-side protocol app for `ctx.protocol`, wrapping `service`.
std::unique_ptr<bft::ReplicaApp> make_replica_app(
    const StackContext& ctx, std::unique_ptr<Service> service,
    uint32_t replica_index);

/// The client-side protocol for `ctx.protocol`.  `batching` enables the
/// amortized-envelope wire format (CP0 only — the only protocol whose
/// envelope aggregates; ignored elsewhere).
std::unique_ptr<bft::ClientProtocol> make_client_protocol(
    const StackContext& ctx, bool batching = false);

}  // namespace scab::causal
