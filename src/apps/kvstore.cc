#include "apps/kvstore.h"

#include "common/serialize.h"

namespace scab::apps {

Bytes KvStore::execute(host::NodeId /*client*/, BytesView op) {
  Reader r(op);
  const uint8_t kind = r.u8();
  const std::string key = r.str();
  switch (kind) {
    case 'P': {
      Bytes value = r.bytes();
      if (!r.done()) return to_bytes("err:malformed");
      data_[key] = std::move(value);
      return to_bytes("ok");
    }
    case 'G': {
      if (!r.done()) return to_bytes("err:malformed");
      auto it = data_.find(key);
      return it == data_.end() ? Bytes{} : it->second;
    }
    case 'D': {
      if (!r.done()) return to_bytes("err:malformed");
      return data_.erase(key) > 0 ? to_bytes("ok") : to_bytes("absent");
    }
    default:
      return to_bytes("err:unknown-op");
  }
}

Bytes KvStore::serialize() const {
  Writer w;
  w.u32(static_cast<uint32_t>(data_.size()));
  for (const auto& [key, value] : data_) {
    w.str(key);
    w.bytes(value);
  }
  return std::move(w).take();
}

bool KvStore::restore(BytesView blob) {
  Reader r(blob);
  std::map<std::string, Bytes> data;
  const uint32_t n = r.u32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    std::string key = r.str();
    data[std::move(key)] = r.bytes();
  }
  if (!r.done()) return false;
  data_ = std::move(data);
  return true;
}

Bytes KvStore::put(std::string_view key, BytesView value) {
  Writer w;
  w.u8('P');
  w.str(key);
  w.bytes(value);
  return std::move(w).take();
}

Bytes KvStore::get(std::string_view key) {
  Writer w;
  w.u8('G');
  w.str(key);
  return std::move(w).take();
}

Bytes KvStore::del(std::string_view key) {
  Writer w;
  w.u8('D');
  w.str(key);
  return std::move(w).take();
}

}  // namespace scab::apps
