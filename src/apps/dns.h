// The paper's second §I motivating example: a first-come-first-served name
// registry ("e.g., DNS service").  A faulty replica that sees an
// interesting name in a pending request can register it for a colluding
// client first — unless the request's content is hidden until it is
// scheduled (CP1/CP2/CP3).
//
// Operation wire format:
//   REGISTER: u8 'R', str name          -> "registered" / "taken:<owner>"
//   RESOLVE:  u8 'L', str name          -> "<owner>" / "nxdomain"
#pragma once

#include <map>
#include <string>

#include "causal/service.h"

namespace scab::apps {

class DnsRegistry : public causal::Service {
 public:
  Bytes execute(host::NodeId client, BytesView op) override;

  static Bytes register_name(std::string_view name);
  static Bytes resolve(std::string_view name);

  /// Owner of `name`, or 0 if unregistered.
  host::NodeId owner(const std::string& name) const;
  std::size_t registered_count() const { return owners_.size(); }

  Bytes serialize() const override;
  bool restore(BytesView blob) override;

 private:
  std::map<std::string, host::NodeId> owners_;
};

}  // namespace scab::apps
