#include "apps/dns.h"

#include "common/serialize.h"

namespace scab::apps {

Bytes DnsRegistry::execute(host::NodeId client, BytesView op) {
  Reader r(op);
  const uint8_t kind = r.u8();
  const std::string name = r.str();
  if (!r.done() || name.empty()) return to_bytes("err:malformed");

  switch (kind) {
    case 'R': {
      auto [it, inserted] = owners_.emplace(name, client);
      if (inserted) return to_bytes("registered");
      return to_bytes("taken:" + std::to_string(it->second));
    }
    case 'L': {
      auto it = owners_.find(name);
      if (it == owners_.end()) return to_bytes("nxdomain");
      return to_bytes(std::to_string(it->second));
    }
    default:
      return to_bytes("err:unknown-op");
  }
}

Bytes DnsRegistry::register_name(std::string_view name) {
  Writer w;
  w.u8('R');
  w.str(name);
  return std::move(w).take();
}

Bytes DnsRegistry::resolve(std::string_view name) {
  Writer w;
  w.u8('L');
  w.str(name);
  return std::move(w).take();
}

Bytes DnsRegistry::serialize() const {
  Writer w;
  w.u32(static_cast<uint32_t>(owners_.size()));
  for (const auto& [name, owner] : owners_) {
    w.str(name);
    w.u32(owner);
  }
  return std::move(w).take();
}

bool DnsRegistry::restore(BytesView blob) {
  Reader r(blob);
  std::map<std::string, host::NodeId> owners;
  const uint32_t n = r.u32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    std::string name = r.str();
    owners[std::move(name)] = r.u32();
  }
  if (!r.done()) return false;
  owners_ = std::move(owners);
  return true;
}

host::NodeId DnsRegistry::owner(const std::string& name) const {
  auto it = owners_.find(name);
  return it == owners_.end() ? 0 : it->second;
}

}  // namespace scab::apps
