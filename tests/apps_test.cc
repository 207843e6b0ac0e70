// Unit tests for the replicated services (executed here directly, without
// the BFT stack — determinism of Service::execute is what the protocols
// rely on).
#include <gtest/gtest.h>

#include "apps/dns.h"
#include "apps/kvstore.h"
#include "apps/trading.h"

namespace scab::apps {
namespace {

TEST(KvStore, PutGetDelete) {
  KvStore kv;
  EXPECT_EQ(kv.execute(1, KvStore::put("a", to_bytes("1"))), to_bytes("ok"));
  EXPECT_EQ(kv.execute(2, KvStore::get("a")), to_bytes("1"));
  EXPECT_EQ(kv.execute(1, KvStore::put("a", to_bytes("2"))), to_bytes("ok"));
  EXPECT_EQ(kv.execute(2, KvStore::get("a")), to_bytes("2"));
  EXPECT_EQ(kv.execute(1, KvStore::del("a")), to_bytes("ok"));
  EXPECT_EQ(kv.execute(1, KvStore::del("a")), to_bytes("absent"));
  EXPECT_TRUE(kv.execute(2, KvStore::get("a")).empty());
}

TEST(KvStore, MalformedOpsDoNotCorruptState) {
  KvStore kv;
  kv.execute(1, KvStore::put("k", to_bytes("v")));
  EXPECT_EQ(kv.execute(1, Bytes{}), to_bytes("err:unknown-op"));
  EXPECT_EQ(kv.execute(1, Bytes{0x5a, 0x01}), to_bytes("err:unknown-op"));
  Bytes trailing = KvStore::get("k");
  trailing.push_back(0x00);
  EXPECT_EQ(kv.execute(1, trailing), to_bytes("err:malformed"));
  EXPECT_EQ(kv.execute(1, KvStore::get("k")), to_bytes("v"));
  EXPECT_EQ(kv.size(), 1u);
}

TEST(KvStore, DeterministicAcrossInstances) {
  KvStore a, b;
  const std::vector<Bytes> ops = {
      KvStore::put("x", to_bytes("1")), KvStore::put("y", to_bytes("2")),
      KvStore::del("x"), KvStore::get("y"), KvStore::put("x", to_bytes("3"))};
  for (const auto& op : ops) {
    EXPECT_EQ(a.execute(7, op), b.execute(7, op));
  }
  EXPECT_EQ(a.size(), b.size());
}

TEST(Trading, BuyMovesPriceAgainstLaterBuyers) {
  TradingService t;
  // This asymmetry is the entire front-running incentive.
  const Bytes first = t.execute(1, TradingService::buy("ACME", 100));
  const Bytes second = t.execute(2, TradingService::buy("ACME", 100));
  EXPECT_EQ(first, to_bytes("filled:100@10000"));
  EXPECT_EQ(second, to_bytes("filled:100@10500"));
  EXPECT_EQ(t.position(1, "ACME"), 100);
  EXPECT_EQ(t.position(2, "ACME"), 100);
}

TEST(Trading, SellLowersPriceWithFloor) {
  TradingService t;
  t.execute(1, TradingService::sell("PENNY", 100));
  EXPECT_EQ(t.price_cents("PENNY"),
            TradingService::kInitialPriceCents - 100 * TradingService::kImpactPerShare);
  // Selling an enormous quantity floors at 1, never underflows.
  t.execute(1, TradingService::sell("PENNY", 1'000'000));
  EXPECT_EQ(t.price_cents("PENNY"), 1u);
  EXPECT_EQ(t.position(1, "PENNY"), -1'000'100);
}

TEST(Trading, QuoteAndIsolatedSymbols) {
  TradingService t;
  t.execute(1, TradingService::buy("AAA", 10));
  EXPECT_EQ(t.execute(2, TradingService::quote("AAA")), to_bytes("10050"));
  EXPECT_EQ(t.execute(2, TradingService::quote("BBB")), to_bytes("10000"));
}

TEST(Trading, RejectsMalformedOrders) {
  TradingService t;
  EXPECT_EQ(t.execute(1, TradingService::buy("X", 0)), to_bytes("err:malformed"));
  EXPECT_EQ(t.execute(1, Bytes{'B'}), to_bytes("err:malformed"));
  EXPECT_EQ(t.execute(1, Bytes{'Z', 0, 0, 0, 0}), to_bytes("err:unknown-op"));
}

TEST(Dns, FirstComeFirstServed) {
  DnsRegistry d;
  EXPECT_EQ(d.execute(100, DnsRegistry::register_name("a.example")),
            to_bytes("registered"));
  EXPECT_EQ(d.execute(101, DnsRegistry::register_name("a.example")),
            to_bytes("taken:100"));
  EXPECT_EQ(d.owner("a.example"), 100u);
  // Re-registration by the SAME owner is also "taken" (idempotence is the
  // BFT layer's dedupe job, not the service's).
  EXPECT_EQ(d.execute(100, DnsRegistry::register_name("a.example")),
            to_bytes("taken:100"));
}

TEST(Dns, Resolve) {
  DnsRegistry d;
  EXPECT_EQ(d.execute(1, DnsRegistry::resolve("nope.example")),
            to_bytes("nxdomain"));
  d.execute(42, DnsRegistry::register_name("x.example"));
  EXPECT_EQ(d.execute(1, DnsRegistry::resolve("x.example")), to_bytes("42"));
}

TEST(Dns, RejectsEmptyAndMalformedNames) {
  DnsRegistry d;
  EXPECT_EQ(d.execute(1, DnsRegistry::register_name("")), to_bytes("err:malformed"));
  EXPECT_EQ(d.execute(1, Bytes{'R'}), to_bytes("err:malformed"));
  EXPECT_EQ(d.registered_count(), 0u);
}

// The replica snapshot carries each service's state (DESIGN.md §13): a
// populated service restores into a fresh one exactly, and restore is all
// or nothing, so a blob that does not parse leaves the target as it was.
template <typename S>
void expect_state_round_trips(const S& populated, S target) {
  const Bytes blob = populated.serialize();
  S copy;
  ASSERT_TRUE(copy.restore(blob));
  EXPECT_EQ(copy.serialize(), blob);

  const Bytes before = target.serialize();
  ASSERT_NE(before, blob);
  for (std::size_t len = 0; len < blob.size(); ++len) {
    EXPECT_FALSE(target.restore(BytesView(blob.data(), len))) << "len=" << len;
  }
  Bytes trailing = blob;
  trailing.push_back(0x00);
  EXPECT_FALSE(target.restore(trailing));
  EXPECT_EQ(target.serialize(), before);
}

TEST(ServiceState, KvStoreRoundTrips) {
  KvStore kv;
  kv.execute(1, KvStore::put("a", to_bytes("1")));
  kv.execute(1, KvStore::put("b", Bytes{}));
  KvStore other;
  other.execute(1, KvStore::put("z", to_bytes("9")));
  expect_state_round_trips(kv, other);
  KvStore copy;
  ASSERT_TRUE(copy.restore(kv.serialize()));
  EXPECT_EQ(copy.execute(2, KvStore::get("a")), to_bytes("1"));
  EXPECT_EQ(copy.size(), 2u);
}

TEST(ServiceState, TradingRoundTrips) {
  TradingService t;
  t.execute(1, TradingService::buy("ACME", 10));
  t.execute(2, TradingService::sell("ACME", 30));
  TradingService other;
  other.execute(3, TradingService::buy("ZZZ", 1));
  expect_state_round_trips(t, other);
  TradingService copy;
  ASSERT_TRUE(copy.restore(t.serialize()));
  EXPECT_EQ(copy.price_cents("ACME"), t.price_cents("ACME"));
  EXPECT_EQ(copy.position(1, "ACME"), 10);
  EXPECT_EQ(copy.position(2, "ACME"), -30);
}

TEST(ServiceState, DnsRoundTrips) {
  DnsRegistry d;
  d.execute(42, DnsRegistry::register_name("x.example"));
  d.execute(7, DnsRegistry::register_name("y.example"));
  DnsRegistry other;
  other.execute(1, DnsRegistry::register_name("z.example"));
  expect_state_round_trips(d, other);
  DnsRegistry copy;
  ASSERT_TRUE(copy.restore(d.serialize()));
  EXPECT_EQ(copy.owner("x.example"), 42u);
  EXPECT_EQ(copy.registered_count(), 2u);
}

}  // namespace
}  // namespace scab::apps
