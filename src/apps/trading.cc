#include "apps/trading.h"

#include "common/serialize.h"

namespace scab::apps {

namespace {
Bytes filled_reply(uint64_t qty, uint64_t price) {
  return to_bytes("filled:" + std::to_string(qty) + "@" + std::to_string(price));
}
}  // namespace

Bytes TradingService::execute(host::NodeId client, BytesView op) {
  Reader r(op);
  const uint8_t kind = r.u8();
  const std::string symbol = r.str();

  auto price_ref = [&]() -> uint64_t& {
    auto [it, _] = prices_.emplace(symbol, kInitialPriceCents);
    return it->second;
  };

  switch (kind) {
    case 'B': {
      const uint64_t qty = r.u64();
      if (!r.done() || qty == 0) return to_bytes("err:malformed");
      uint64_t& price = price_ref();
      const uint64_t fill_price = price;  // execute at the pre-impact price
      positions_[{client, symbol}] += static_cast<int64_t>(qty);
      price += qty * kImpactPerShare;  // demand moves the market
      return filled_reply(qty, fill_price);
    }
    case 'S': {
      const uint64_t qty = r.u64();
      if (!r.done() || qty == 0) return to_bytes("err:malformed");
      uint64_t& price = price_ref();
      const uint64_t fill_price = price;
      positions_[{client, symbol}] -= static_cast<int64_t>(qty);
      const uint64_t drop = qty * kImpactPerShare;
      price = price > drop ? price - drop : 1;
      return filled_reply(qty, fill_price);
    }
    case 'Q': {
      if (!r.done()) return to_bytes("err:malformed");
      return to_bytes(std::to_string(price_ref()));
    }
    default:
      return to_bytes("err:unknown-op");
  }
}

Bytes TradingService::buy(std::string_view symbol, uint64_t qty) {
  Writer w;
  w.u8('B');
  w.str(symbol);
  w.u64(qty);
  return std::move(w).take();
}

Bytes TradingService::sell(std::string_view symbol, uint64_t qty) {
  Writer w;
  w.u8('S');
  w.str(symbol);
  w.u64(qty);
  return std::move(w).take();
}

Bytes TradingService::quote(std::string_view symbol) {
  Writer w;
  w.u8('Q');
  w.str(symbol);
  return std::move(w).take();
}

Bytes TradingService::serialize() const {
  Writer w;
  w.u32(static_cast<uint32_t>(prices_.size()));
  for (const auto& [symbol, price] : prices_) {
    w.str(symbol);
    w.u64(price);
  }
  w.u32(static_cast<uint32_t>(positions_.size()));
  for (const auto& [key, shares] : positions_) {
    w.u32(key.first);
    w.str(key.second);
    w.u64(static_cast<uint64_t>(shares));
  }
  return std::move(w).take();
}

bool TradingService::restore(BytesView blob) {
  Reader r(blob);
  std::map<std::string, uint64_t> prices;
  const uint32_t n_prices = r.u32();
  for (uint32_t i = 0; i < n_prices && r.ok(); ++i) {
    std::string symbol = r.str();
    prices[std::move(symbol)] = r.u64();
  }
  std::map<std::pair<host::NodeId, std::string>, int64_t> positions;
  const uint32_t n_positions = r.u32();
  for (uint32_t i = 0; i < n_positions && r.ok(); ++i) {
    const host::NodeId client = r.u32();
    std::string symbol = r.str();
    positions[{client, std::move(symbol)}] = static_cast<int64_t>(r.u64());
  }
  if (!r.done()) return false;
  prices_ = std::move(prices);
  positions_ = std::move(positions);
  return true;
}

uint64_t TradingService::price_cents(const std::string& symbol) const {
  auto it = prices_.find(symbol);
  return it == prices_.end() ? kInitialPriceCents : it->second;
}

int64_t TradingService::position(host::NodeId client,
                                 const std::string& symbol) const {
  auto it = positions_.find({client, symbol});
  return it == positions_.end() ? 0 : it->second;
}

}  // namespace scab::apps
