// A replicated key-value store (the generic state-machine workload).
//
// Operation wire format:
//   PUT: u8 'P', str key, bytes value   -> "ok"
//   GET: u8 'G', str key                -> value or "" (absent)
//   DEL: u8 'D', str key                -> "ok" / "absent"
#pragma once

#include <map>
#include <string>

#include "causal/service.h"

namespace scab::apps {

class KvStore : public causal::Service {
 public:
  Bytes execute(host::NodeId client, BytesView op) override;

  /// Deterministic op builders (used by clients, examples, tests).
  static Bytes put(std::string_view key, BytesView value);
  static Bytes get(std::string_view key);
  static Bytes del(std::string_view key);

  std::size_t size() const { return data_.size(); }

  Bytes serialize() const override;
  bool restore(BytesView blob) override;

 private:
  std::map<std::string, Bytes> data_;
};

}  // namespace scab::apps
