// One benchmark cluster: four replicas (f = 1) and one pipelined
// bft::Client in this process, each assembled the way daemon::ReplicaDaemon
// and scab-client assemble theirs: its own dealer derivation
// (daemon::StackBundle), its own rt::SocketTransport on loopback with one
// io thread, its own rt::ThreadHost and, when durable, its own
// rt::FileStorage directory.  Nodes share nothing but the process.
//
// With `traced` set, the public seams are wrapped in the timing decorators
// of trace.h; otherwise the stack is exactly the daemon's, plus the
// CheckedService every run uses for its correctness gate.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bft/client.h"
#include "bft/replica.h"
#include "causal/service.h"
#include "daemon/config.h"
#include "daemon/node.h"
#include "host/host.h"
#include "obs/metrics.h"
#include "rt/transport.h"
#include "trace.h"

namespace scab::rt {
class ThreadHost;
}  // namespace scab::rt

namespace perfbench {

struct Workload {
  const char* name;
  scab::causal::Protocol protocol;
  uint32_t inflight;      // pipelined client slots
  uint32_t batch;         // logical payloads per client operation
  bool durable;           // WAL + snapshots through rt::FileStorage
  uint32_t pool_threads;  // crypto worker threads per replica
  const char* group;      // CP0 threshold group ("" = none)
  // The traced run adds a drill that crashes and rebuilds the primary.
  bool failover_drill;
};

const Workload* find_workload(const std::string& name);
const std::vector<Workload>& all_workloads();

inline constexpr std::size_t kOpBytes = 4096;
inline constexpr uint32_t kReplicas = 4;
inline constexpr scab::host::NodeId kClientId = 100;

struct ClusterOptions {
  uint64_t dealer_seed = 1;
  bool traced = false;
  std::string data_root;     // per-replica storage lives in <root>/node<id>
  uint32_t drop_replica = 0;  // with drop_at: whose Service drops one op
  uint64_t drop_at = 0;       // 0 = never drop
};

/// One completed logical op as the client saw it.
struct Completion {
  uint64_t index = 0;
  uint64_t end_ns = 0;  // now_ns() at completion
  uint64_t lat_ns = 0;  // from the client's start of the op
};

class Cluster {
 public:
  Cluster(const Workload& w, const ClusterOptions& opts, const Bytes* payload);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Builds every node and starts the replicas.  False (with *err) when a
  /// socket cannot be bound or storage cannot be opened.
  bool assemble(std::string* err);
  const Workload& workload() const { return w_; }

  // --- load (closed loop, run on the client's executor) ---
  /// Lets the client start up to `ops` more logical ops.
  void release(uint64_t ops);
  /// Stops starting ops after at most one more.
  void stop_starting();

  uint64_t started() const { return started_.load(std::memory_order_acquire); }
  uint64_t completed() const;
  /// Completions recorded since construction, in completion order.
  std::vector<Completion> completions() const;
  uint64_t completed_index_sum() const;

  // --- faults ---
  /// Tears the replica's whole stack down; its sockets close as under
  /// kill -9 and only its data directory survives.
  void crash_replica(uint32_t id);
  /// Rebuilds the replica from its data directory on the same port.
  bool restart_replica(uint32_t id, std::string* err);
  /// Duration of the last restart's Replica::recover(), in ns (0 = none).
  uint64_t last_recover_ns() const {
    return recover_ns_.load(std::memory_order_acquire);
  }

  // --- state for the gate and the layer metrics ---
  bool live(uint32_t id) const { return replicas_[id].replica != nullptr; }
  uint64_t echo_executed(uint32_t id) const;
  uint64_t echo_bytes_in(uint32_t id) const;
  const CheckedService* checked(uint32_t id) const {
    return replicas_[id].checked;
  }
  const scab::obs::MetricsRegistry& replica_metrics(uint32_t id) const {
    return *replicas_[id].metrics;
  }
  const scab::obs::MetricsRegistry& client_metrics() const {
    return *client_metrics_;
  }
  uint64_t send_errors() const;

 private:
  struct ReplicaNode {
    std::unique_ptr<scab::daemon::StackBundle> bundle;
    std::unique_ptr<scab::obs::MetricsRegistry> metrics;
    std::unique_ptr<scab::host::Host> host;
    scab::rt::SocketTransport* socket = nullptr;
    std::unique_ptr<scab::bft::ReplicaApp> app;
    std::unique_ptr<scab::bft::Replica> replica;
    CheckedService* checked = nullptr;
    scab::causal::EchoService* echo = nullptr;
    uint16_t port = 0;
    uint64_t send_errors_before = 0;  // of torn-down incarnations
  };

  std::unique_ptr<scab::rt::SocketTransport> make_socket(
      scab::host::NodeId id, uint16_t port, std::string* err);
  std::unique_ptr<scab::rt::ThreadHost> make_host(
      std::unique_ptr<scab::rt::SocketTransport> socket,
      scab::obs::MetricsRegistry* metrics, uint32_t pool_threads);
  /// The host the stack binds to: the ThreadHost itself, or the timing
  /// decorator around it in a traced run.
  std::unique_ptr<scab::host::Host> seam(
      std::unique_ptr<scab::rt::ThreadHost> host);
  bool build_replica(uint32_t id,
                     std::unique_ptr<scab::rt::SocketTransport> socket,
                     bool timed_recover, std::string* err);
  std::unique_ptr<scab::bft::ClientProtocol> make_client_protocol();
  void teardown_replica(ReplicaNode& r);
  Bytes make_op(uint64_t index);
  void on_complete(uint64_t index, scab::host::Time start,
                   scab::host::Time end);

  const Workload& w_;
  ClusterOptions opts_;
  const Bytes* payload_;
  scab::daemon::ClusterConfig cfg_;

  ReplicaNode replicas_[kReplicas];

  std::unique_ptr<scab::daemon::StackBundle> client_bundle_;
  std::unique_ptr<scab::obs::MetricsRegistry> client_metrics_;
  std::unique_ptr<scab::host::Host> client_host_;
  scab::rt::SocketTransport* client_socket_ = nullptr;
  std::unique_ptr<scab::bft::ClientProtocol> client_protocol_;
  std::unique_ptr<scab::bft::Client> client_;

  std::atomic<uint64_t> started_{0};
  std::atomic<uint64_t> recover_ns_{0};

  mutable std::mutex done_mu_;  // guards done_ and done_index_sum_
  std::vector<Completion> done_;
  uint64_t done_index_sum_ = 0;
};

}  // namespace perfbench
