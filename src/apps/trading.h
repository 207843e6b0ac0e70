// The paper's §I motivating example: a replicated trading service where the
// price responds to demand.  If a faulty replica can observe a pending BUY
// and get a derived BUY ordered first, it moves the price against the
// honest client — the front-running attack that secure causal atomic
// broadcast exists to prevent.  examples/trading_frontrun.cc stages the
// attack against plain PBFT and against CP1.
//
// Operation wire format:
//   BUY:  u8 'B', str symbol, u64 qty   -> "filled:<qty>@<price>"
//   SELL: u8 'S', str symbol, u64 qty   -> "filled:<qty>@<price>"
//   QUOTE:u8 'Q', str symbol            -> "<price>"
//
// Price model (deterministic): every filled BUY of q shares raises the
// price by q * kImpactPerShare (in cents); every SELL lowers it likewise,
// floored at 1.
#pragma once

#include <map>
#include <string>

#include "causal/service.h"

namespace scab::apps {

class TradingService : public causal::Service {
 public:
  static constexpr uint64_t kInitialPriceCents = 10'000;  // $100.00
  static constexpr uint64_t kImpactPerShare = 5;          // 5 cents / share

  Bytes execute(host::NodeId client, BytesView op) override;

  static Bytes buy(std::string_view symbol, uint64_t qty);
  static Bytes sell(std::string_view symbol, uint64_t qty);
  static Bytes quote(std::string_view symbol);

  uint64_t price_cents(const std::string& symbol) const;
  /// Net shares held by `client` in `symbol`.
  int64_t position(host::NodeId client, const std::string& symbol) const;

  Bytes serialize() const override;
  bool restore(BytesView blob) override;

 private:
  std::map<std::string, uint64_t> prices_;
  std::map<std::pair<host::NodeId, std::string>, int64_t> positions_;
};

}  // namespace scab::apps
