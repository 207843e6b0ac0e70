// Tests for the asynchronous consensus-based engine: the threshold common
// coin, the RBC/ABA/ACS pipeline, and — the paper's generality claim made
// executable — every causal protocol (CP0–CP3) running UNCHANGED on top of
// it.
#include <gtest/gtest.h>

#include "abft/coin.h"
#include "apps/kvstore.h"
#include "abft/replica.h"
#include "bft/client.h"
#include "causal/harness.h"

namespace scab {
namespace {

using namespace scab::abft;
using causal::Cluster;
using causal::ClusterOptions;
using causal::Engine;
using causal::Protocol;
using sim::kSecond;

// ---------------------------------------------------------------------------
// Threshold common coin

class CoinTest : public ::testing::Test {
 protected:
  CoinTest() : rng_(to_bytes("coin-test")) {
    crypto::Drbg grng(to_bytes("coin-grp"));
    group_ = crypto::ModGroup::generate(64, grng);
    keys_ = coin_keygen(group_, 2, 4, rng_);
  }
  crypto::Drbg rng_;
  crypto::ModGroup group_;
  CoinKeyMaterial keys_;
};

TEST_F(CoinTest, SharesVerifyAndCombineConsistently) {
  const Bytes name = to_bytes("epoch:3/proposer:1/round:0");
  std::vector<CoinShare> shares;
  for (const auto& key : keys_.shares) {
    CoinShare s = coin_share(keys_.pk, key, name, rng_);
    EXPECT_TRUE(coin_verify_share(keys_.pk, name, s));
    shares.push_back(std::move(s));
  }
  // Any threshold subset yields the SAME bit (that is what makes it common).
  const auto c01 = coin_combine(keys_.pk, name,
                                std::vector<CoinShare>{shares[0], shares[1]});
  const auto c23 = coin_combine(keys_.pk, name,
                                std::vector<CoinShare>{shares[2], shares[3]});
  const auto c13 = coin_combine(keys_.pk, name,
                                std::vector<CoinShare>{shares[1], shares[3]});
  ASSERT_TRUE(c01 && c23 && c13);
  EXPECT_EQ(*c01, *c23);
  EXPECT_EQ(*c01, *c13);
}

TEST_F(CoinTest, DistinctNamesGiveIndependentBits) {
  // At least one of 32 coin names must differ from the first (probability
  // of failure 2^-31 — and deterministic given the fixed seed).
  const auto first = [&] {
    std::vector<CoinShare> s{coin_share(keys_.pk, keys_.shares[0],
                                        to_bytes("name-0"), rng_),
                             coin_share(keys_.pk, keys_.shares[1],
                                        to_bytes("name-0"), rng_)};
    return *coin_combine(keys_.pk, to_bytes("name-0"), s);
  }();
  bool saw_other = false;
  for (int i = 1; i < 32 && !saw_other; ++i) {
    const Bytes name = to_bytes("name-" + std::to_string(i));
    std::vector<CoinShare> s{coin_share(keys_.pk, keys_.shares[0], name, rng_),
                             coin_share(keys_.pk, keys_.shares[1], name, rng_)};
    saw_other = *coin_combine(keys_.pk, name, s) != first;
  }
  EXPECT_TRUE(saw_other);
}

TEST_F(CoinTest, ForgedSharesRejected) {
  const Bytes name = to_bytes("N");
  CoinShare s = coin_share(keys_.pk, keys_.shares[0], name, rng_);
  {
    CoinShare bad = s;
    bad.sigma = group_.mul(bad.sigma, group_.g());
    EXPECT_FALSE(coin_verify_share(keys_.pk, name, bad));
  }
  {
    CoinShare bad = s;
    bad.index = 2;  // claims another server's key
    EXPECT_FALSE(coin_verify_share(keys_.pk, name, bad));
  }
  // A share for one name does not verify for another (no pre-computation).
  EXPECT_FALSE(coin_verify_share(keys_.pk, to_bytes("other"), s));
  // Too few shares cannot combine.
  EXPECT_FALSE(coin_combine(keys_.pk, name, std::vector<CoinShare>{s}).has_value());
  EXPECT_FALSE(coin_combine(keys_.pk, name, std::vector<CoinShare>{s, s}).has_value());
}

TEST_F(CoinTest, SerializeRoundTrip) {
  const Bytes name = to_bytes("wire");
  const CoinShare s = coin_share(keys_.pk, keys_.shares[2], name, rng_);
  const auto parsed = CoinShare::parse(group_, s.serialize(group_));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(coin_verify_share(keys_.pk, name, *parsed));
  EXPECT_FALSE(CoinShare::parse(group_, Bytes{1, 2, 3}).has_value());
}

// ---------------------------------------------------------------------------
// Async atomic broadcast + causal protocols

ClusterOptions async_options(Protocol p, uint32_t f = 1) {
  ClusterOptions o;
  o.protocol = p;
  o.engine = Engine::kAsyncEngine;
  o.bft = bft::BftConfig::for_f(f);
  o.profile = sim::NetworkProfile::ideal();
  o.seed = 31;
  o.service_factory = [] { return std::make_unique<apps::KvStore>(); };
  return o;
}

class AsyncEngineTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(AsyncEngineTest, RoundTripOnAsyncEngine) {
  Cluster cluster(async_options(GetParam()));
  auto put = cluster.run_one(0, apps::KvStore::put("k", to_bytes("v")));
  ASSERT_TRUE(put.has_value());
  EXPECT_EQ(*put, to_bytes("ok"));
  auto get = cluster.run_one(0, apps::KvStore::get("k"));
  ASSERT_TRUE(get.has_value());
  EXPECT_EQ(*get, to_bytes("v"));
}

TEST_P(AsyncEngineTest, TotalOrderAcrossReplicas) {
  auto opts = async_options(GetParam());
  opts.num_clients = 2;
  Cluster cluster(opts);
  const uint64_t kOps = 8;
  for (uint32_t c = 0; c < 2; ++c) {
    cluster.client(c).run_closed_loop(
        [c](uint64_t i) {
          return apps::KvStore::put(std::to_string(c) + ":" + std::to_string(i),
                                    to_bytes("x"));
        },
        kOps);
  }
  const bool done = cluster.sim().run_while([&] {
    return (cluster.client(0).completed_ops() >= kOps &&
            cluster.client(1).completed_ops() >= kOps) ||
           cluster.sim().now() > 600 * kSecond;
  });
  ASSERT_TRUE(done);
  // Drain stragglers, then every replica holds identical state.
  cluster.sim().run_until(cluster.sim().now() + sim::kSecond);
  for (uint32_t i = 0; i < cluster.n(); ++i) {
    EXPECT_EQ(dynamic_cast<apps::KvStore&>(cluster.service(i)).size(), 2 * kOps)
        << "replica " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, AsyncEngineTest,
                         ::testing::Values(Protocol::kPbft, Protocol::kCp0,
                                           Protocol::kCp1, Protocol::kCp2,
                                           Protocol::kCp3),
                         [](const auto& info) {
                           return std::string(causal::protocol_name(info.param));
                         });

TEST(AsyncEngine, SurvivesCrashedReplica) {
  auto opts = async_options(Protocol::kPbft);
  Cluster cluster(opts);
  cluster.faults().crash(3);  // f = 1 tolerated, no view change needed
  auto r = cluster.run_one(0, apps::KvStore::put("a", to_bytes("b")), 120 * kSecond);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, to_bytes("ok"));
}

TEST(AsyncEngine, F2Deployment) {
  Cluster cluster(async_options(Protocol::kCp2, 2));
  auto r = cluster.run_one(0, apps::KvStore::put("x", to_bytes("y")), 120 * kSecond);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, to_bytes("ok"));
}

TEST(AsyncEngine, EpochsAdvance) {
  Cluster cluster(async_options(Protocol::kPbft));
  auto& client = cluster.client(0);
  client.run_closed_loop([](uint64_t i) { return Bytes(16, static_cast<uint8_t>(i)); },
                         5);
  cluster.sim().run_while([&] {
    return client.completed_ops() >= 5 || cluster.sim().now() > 600 * kSecond;
  });
  EXPECT_EQ(client.completed_ops(), 5u);
  EXPECT_GE(cluster.async_replica(0).epochs_completed(), 5u);
  EXPECT_GE(cluster.async_replica(0).aba_rounds_run(), 5u);
}

}  // namespace
}  // namespace scab
