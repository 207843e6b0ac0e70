#include "daemon/node.h"

#include <map>
#include <utility>
#include <vector>

#include "bft/replica.h"
#include "causal/service.h"
#include "host/cost_model.h"
#include "rt/runtime.h"
#include "rt/storage.h"
#include "rt/transport.h"

namespace scab::daemon {

namespace {

std::vector<host::NodeId> all_node_ids(const ClusterConfig& cfg) {
  std::vector<host::NodeId> ids;
  ids.reserve(cfg.replicas.size() + cfg.clients.size());
  for (const auto& [id, ep] : cfg.replicas) ids.push_back(id);
  for (const auto& [id, ep] : cfg.clients) ids.push_back(id);
  return ids;
}

/// Named groups resolve to their constants; "generate" stays empty so
/// derive_material grows one from the dealer seed's "group" fork — every
/// process lands on the same group either way.
std::optional<crypto::ModGroup> preset_group(const ClusterConfig& cfg) {
  if (cfg.protocol != causal::Protocol::kCp0) return std::nullopt;
  if (cfg.group == "modp_1024") return crypto::ModGroup::modp_1024();
  if (cfg.group == "modp_512") return crypto::ModGroup::modp_512();
  return std::nullopt;
}

/// Mixes fresh OS entropy into a node's forked stream: a restarted process
/// must not repeat its predecessor's draws (CP0 proof nonces among them).
crypto::Drbg with_os_entropy(crypto::Drbg rng) {
  rng.reseed(crypto::Drbg::from_os_entropy().generate(32));
  return rng;
}

}  // namespace

StackBundle::StackBundle(const ClusterConfig& cfg)
    : cfg_(cfg),
      master_rng_(causal::seed_label(cfg.dealer_seed, "cluster-master")),
      keys_(causal::seed_label(cfg.dealer_seed, "keyring"),
            all_node_ids(cfg)),
      material_(causal::derive_material(
          cfg.protocol, cfg.bft, master_rng_, preset_group(cfg),
          cfg.group_bits ? cfg.group_bits : 64)) {}

causal::StackContext StackBundle::context() const {
  causal::StackContext ctx;
  ctx.protocol = cfg_.protocol;
  ctx.material = &material_;
  ctx.bft = cfg_.bft;
  return ctx;
}

crypto::Drbg StackBundle::replica_rng(uint32_t replica_id) {
  return with_os_entropy(
      master_rng_.fork(causal::seed_label(replica_id, "replica")));
}

crypto::Drbg StackBundle::client_rng(uint32_t client_id) {
  return with_os_entropy(master_rng_.fork(
      causal::seed_label(client_id - causal::kClientBase, "client")));
}

std::string format_dump_record(uint32_t node, causal::Protocol protocol,
                               uint16_t port, uint64_t executed,
                               const obs::MetricsRegistry& metrics,
                               const obs::Tracer& tracer) {
  std::string out = "{\"node\":" + std::to_string(node) + ",\"protocol\":\"";
  out += causal::protocol_name(protocol);
  out += "\",\"port\":" + std::to_string(port) +
         ",\"executed\":" + std::to_string(executed) + ",\"metrics\":";
  out += metrics.to_json();
  out += ",\"trace\":";
  out += tracer.to_json();
  out += "}";
  return out;
}

ReplicaDaemon::ReplicaDaemon(const ClusterConfig& cfg, uint32_t replica_id)
    : cfg_(cfg), id_(replica_id), bundle_(cfg_) {
  const Endpoint& self = cfg_.replicas.at(id_);
  std::map<host::NodeId, rt::SocketTransport::Peer> peers;
  for (const auto& [rid, ep] : cfg_.replicas) {
    if (rid != id_) peers[rid] = {ep.ip, ep.port};
  }
  for (const auto& [cid, ep] : cfg_.clients) peers[cid] = {ep.ip, ep.port};
  auto transport = std::make_unique<rt::SocketTransport>(
      self.port, std::move(peers),
      /*jitter_seed=*/cfg_.dealer_seed ^ id_, self.ip,
      /*io_threads=*/cfg_.io_threads);
  if (!transport->ok()) return;  // caller checks ok()
  transport->bind_metrics(&metrics_);  // before ThreadHost starts it
  port_ = transport->port();
  host_ = std::make_unique<rt::ThreadHost>(std::move(transport), &metrics_,
                                           /*pool_threads=*/cfg_.threads);
  // Durable state (DESIGN.md §13): attach before the replica binds — the
  // replica resolves its storage in the constructor.
  if (cfg_.durability != "off") {
    auto storage = std::make_unique<rt::FileStorage>(
        cfg_.data_dir + "/node" + std::to_string(id_),
        rt::FileStorage::Options{/*fsync=*/cfg_.durability == "fsync"});
    if (!storage->ok()) {
      host_->stop();
      host_.reset();
      return;  // caller checks ok()
    }
    host_->attach_storage(id_, std::move(storage));
  }
  app_ = causal::make_replica_app(bundle_.context(),
                                  std::make_unique<causal::EchoService>(0),
                                  id_);
  auto replica = std::make_unique<bft::Replica>(
      *host_, id_, cfg_.bft, bundle_.keys(), host::CostModel::zero(),
      app_.get(), bundle_.replica_rng(id_), &metrics_, &tracer_);
  // Peers may already be up and talking: the bound replica drops their
  // traffic until start(), and recovery runs on its own executor first.
  bft::Replica* r = replica.get();
  host_->post(id_, [r] {
    r->recover();
    r->start();
  });
  replica_ = std::move(replica);
}

ReplicaDaemon::~ReplicaDaemon() { stop(); }

void ReplicaDaemon::stop() {
  if (host_) host_->stop();
}

uint64_t ReplicaDaemon::executed_requests() const {
  return replica_ ? replica_->executed_requests() : 0;
}

std::string ReplicaDaemon::dump_json() const {
  return format_dump_record(id_, cfg_.protocol, port_, executed_requests(),
                            metrics_, tracer_);
}

bool ReplicaDaemon::dump_to(const std::string& path) const {
  return write_file_atomic(path, dump_json() + "\n");
}

}  // namespace scab::daemon
