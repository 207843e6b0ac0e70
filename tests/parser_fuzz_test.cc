// Deterministic fuzz sweep over every wire parser: random buffers, sliced
// valid messages, and bit-flipped valid messages must never crash, hang,
// or allocate unboundedly — malformed network input is attacker-controlled.
// The replica's durable blobs (snapshot and history segments) get the same
// treatment: a damaged blob is rejected before anything is allocated for it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "bft/envelope.h"
#include "bft/replica.h"
#include "bft/types.h"
#include "causal/harness.h"
#include "causal/id.h"
#include "crypto/aead.h"
#include "crypto/modgroup.h"
#include "secretshare/arss.h"
#include "threshenc/hybrid.h"

namespace scab {
namespace {

// Bytes requested from operator new on this thread while t_counting is set.
thread_local bool t_counting = false;
thread_local std::size_t t_allocated = 0;

}  // namespace
}  // namespace scab

// Out of line, so the compiler never pairs an inlined free() with new.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (scab::t_counting) scab::t_allocated += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace scab {
namespace {

class ParserFuzzTest : public ::testing::TestWithParam<int> {
 protected:
  crypto::Drbg rng_{to_bytes("fuzz-" + std::to_string(GetParam()))};
};

TEST_P(ParserFuzzTest, RandomBuffersDoNotCrashAnyParser) {
  static const crypto::ModGroup group = [] {
    crypto::Drbg grng(to_bytes("fuzz-group"));
    return crypto::ModGroup::generate(48, grng);
  }();

  for (int i = 0; i < 60; ++i) {
    const std::size_t len = rng_.uniform(200);
    const Bytes buf = rng_.generate(len);

    (void)bft::Request::null();
    Reader r(buf);
    (void)bft::Request::read(r);
    (void)bft::PrePrepare::parse(buf);
    (void)bft::PhaseVote::parse(buf);
    (void)bft::Checkpoint::parse(buf);
    (void)bft::ViewChange::parse(buf);
    (void)bft::NewView::parse(buf);
    (void)bft::ClientRequestMsg::parse(buf);
    (void)bft::ReplyMsg::parse(buf);
    (void)bft::untag_bft(buf);
    (void)causal::RequestId::decode(buf);
    (void)secretshare::ShamirShare::parse(buf);
    (void)secretshare::Arss1Share::parse(buf);
    (void)threshenc::Tdh2Ciphertext::parse(group, buf);
    (void)threshenc::Tdh2DecryptionShare::parse(group, buf);
    (void)threshenc::HybridCiphertext::parse(group, buf);
  }
}

TEST_P(ParserFuzzTest, BitFlippedValidMessagesAreRejectedOrParsed) {
  // Build one valid instance of each message, then flip a random bit and
  // parse.  The parse may succeed (payload bytes are opaque) but must
  // never crash; where structural invariants exist they must hold.
  bft::PrePrepare pp;
  pp.view = 3;
  pp.seq = 17;
  for (int i = 0; i < 3; ++i) {
    bft::Request req;
    req.client = 100 + i;
    req.client_seq = i;
    req.payload = rng_.generate(20);
    pp.batch.push_back(std::move(req));
  }
  const Bytes wire = pp.serialize();

  for (int trial = 0; trial < 200; ++trial) {
    Bytes mutated = wire;
    mutated[rng_.uniform(mutated.size())] ^=
        static_cast<uint8_t>(1u << rng_.uniform(8));
    const auto parsed = bft::PrePrepare::parse(mutated);
    if (parsed) {
      EXPECT_LE(parsed->batch.size(), 100000u);
    }
  }
}

TEST_P(ParserFuzzTest, TruncationsOfValidMessagesAreRejected) {
  crypto::Drbg rng(to_bytes("trunc"));
  auto shares = secretshare::shamir_share(rng.generate(50), 2, 4, rng);
  const Bytes wire = shares[0].serialize();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(
        secretshare::ShamirShare::parse(BytesView(wire.data(), len)).has_value())
        << "len=" << len;
  }

  bft::ViewChange vc;
  vc.new_view = 2;
  vc.stable_seq = 5;
  bft::PreparedProof proof;
  proof.seq = 6;
  proof.view = 1;
  proof.batch_wire = rng.generate(30);
  vc.prepared.push_back(std::move(proof));
  vc.replica = 1;
  vc.signature = rng.generate(32);
  const Bytes vcw = vc.serialize();
  for (std::size_t len = 0; len < vcw.size(); ++len) {
    EXPECT_FALSE(bft::ViewChange::parse(BytesView(vcw.data(), len)).has_value());
  }
}

TEST_P(ParserFuzzTest, Tdh2WireTruncationsAreRejectedAtEveryLength) {
  // Truncated TDH2 / hybrid wires must be rejected at parse time, before
  // any group operation sees the (attacker-controlled) field values.
  crypto::Drbg grng(to_bytes("tdh2-trunc-group"));
  const crypto::ModGroup group = crypto::ModGroup::generate(48, grng);
  crypto::Drbg rng(to_bytes("tdh2-trunc-" + std::to_string(GetParam())));
  const auto keys = threshenc::tdh2_keygen(group, 2, 4, rng);
  const Bytes label = to_bytes("L");

  const auto ct = threshenc::tdh2_encrypt(
      keys.pk, rng.generate(threshenc::kTdh2MessageSize), label, rng);
  const Bytes ctw = ct.serialize(group);
  for (std::size_t len = 0; len < ctw.size(); ++len) {
    EXPECT_FALSE(threshenc::Tdh2Ciphertext::parse(
                     group, BytesView(ctw.data(), len))
                     .has_value())
        << "ciphertext len=" << len;
  }

  const auto share =
      *threshenc::tdh2_share_decrypt(keys.pk, keys.shares[0], ct, label, rng);
  const Bytes shw = share.serialize(group);
  for (std::size_t len = 0; len < shw.size(); ++len) {
    EXPECT_FALSE(threshenc::Tdh2DecryptionShare::parse(
                     group, BytesView(shw.data(), len))
                     .has_value())
        << "share len=" << len;
  }

  const auto hy =
      threshenc::hybrid_encrypt(keys.pk, rng.generate(100), label, rng);
  const Bytes hyw = hy.serialize(group);
  for (std::size_t len = 0; len < hyw.size(); ++len) {
    EXPECT_FALSE(threshenc::HybridCiphertext::parse(
                     group, BytesView(hyw.data(), len))
                     .has_value())
        << "hybrid len=" << len;
  }
}

TEST_P(ParserFuzzTest, Tdh2OutOfRangeFieldsAreRejectedAtParseTime) {
  // Field values outside their domain (element >= p or zero, exponent >= q,
  // index 0, undersized AEAD box) never survive parsing, so downstream
  // verification code can assume range-reduced inputs.
  crypto::Drbg grng(to_bytes("tdh2-range-group"));
  const crypto::ModGroup group = crypto::ModGroup::generate(48, grng);
  crypto::Drbg rng(to_bytes("tdh2-range-" + std::to_string(GetParam())));
  const auto keys = threshenc::tdh2_keygen(group, 2, 4, rng);
  const Bytes label = to_bytes("L");
  const auto ct = threshenc::tdh2_encrypt(
      keys.pk, rng.generate(threshenc::kTdh2MessageSize), label, rng);
  ASSERT_TRUE(
      threshenc::Tdh2Ciphertext::parse(group, ct.serialize(group)).has_value());

  auto reject_ct = [&](threshenc::Tdh2Ciphertext bad) {
    EXPECT_FALSE(threshenc::Tdh2Ciphertext::parse(group, bad.serialize(group))
                     .has_value());
  };
  {
    auto bad = ct;
    bad.u = crypto::Bignum(0);
    reject_ct(bad);
    bad.u = group.p();  // == p after fixed-width round-trip: out of range
    reject_ct(bad);
  }
  {
    auto bad = ct;
    bad.ubar = crypto::Bignum(0);
    reject_ct(bad);
  }
  {
    auto bad = ct;
    bad.w = crypto::Bignum(0);
    reject_ct(bad);
    bad = ct;
    bad.wbar = group.p();
    reject_ct(bad);
    bad = ct;
    bad.f = group.q();
    reject_ct(bad);
  }
  {
    auto bad = ct;
    bad.c.resize(threshenc::kTdh2MessageSize - 1);
    reject_ct(bad);
  }

  const auto share =
      *threshenc::tdh2_share_decrypt(keys.pk, keys.shares[0], ct, label, rng);
  auto reject_share = [&](threshenc::Tdh2DecryptionShare bad) {
    EXPECT_FALSE(
        threshenc::Tdh2DecryptionShare::parse(group, bad.serialize(group))
            .has_value());
  };
  {
    auto bad = share;
    bad.index = 0;
    reject_share(bad);
  }
  {
    auto bad = share;
    bad.u_i = crypto::Bignum(0);
    reject_share(bad);
    bad.u_i = group.p();
    reject_share(bad);
  }
  {
    auto bad = share;
    bad.u_hat = crypto::Bignum(0);
    reject_share(bad);
    bad = share;
    bad.h_hat = group.p();
    reject_share(bad);
    bad = share;
    bad.f_i = group.q();
    reject_share(bad);
  }

  // A hybrid wire whose AEAD box is shorter than nonce+tag cannot contain
  // a valid box; it is rejected before touching the KEM.
  auto hy = threshenc::hybrid_encrypt(keys.pk, rng.generate(64), label, rng);
  hy.box.resize(crypto::kAeadOverhead - 1);
  EXPECT_FALSE(threshenc::HybridCiphertext::parse(group, hy.serialize(group))
                   .has_value());
}

/// A PBFT cluster with in-memory storage, run to its second snapshot point:
/// each replica's disk holds a "snapshot" blob and the segment "hist-1".
std::unique_ptr<causal::Cluster> durable_cluster() {
  causal::ClusterOptions opts;
  opts.durability = causal::ClusterOptions::Durability::kMem;
  opts.bft.checkpoint_interval = 4;
  auto cluster = std::make_unique<causal::Cluster>(opts);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(
        cluster->run_one(0, to_bytes("op-" + std::to_string(i))).has_value());
  }
  cluster->sim().run_until(cluster->sim().now() + 200 * host::kMillisecond);
  return cluster;
}

TEST_P(ParserFuzzTest, DamagedSegmentBlobsAreRejectedWithoutAllocating) {
  const auto cluster = durable_cluster();
  const auto blob = cluster->host().storage(0)->get("hist-1");
  ASSERT_TRUE(blob.has_value());
  const auto batches = bft::Replica::parse_segment(*blob, 1);
  ASSERT_TRUE(batches.has_value());
  ASSERT_FALSE(batches->empty());
  for (std::size_t i = 0; i < batches->size(); ++i) {
    const auto pp = bft::PrePrepare::parse((*batches)[i]);
    ASSERT_TRUE(pp.has_value());
    EXPECT_EQ(pp->seq, 1 + i);
  }
  EXPECT_FALSE(bft::Replica::parse_segment(*blob, 2).has_value());

  const auto rejected_cheaply = [](BytesView damaged) {
    t_allocated = 0;
    t_counting = true;
    const bool parsed = bft::Replica::parse_segment(damaged, 1).has_value();
    t_counting = false;
    return !parsed && t_allocated <= damaged.size();
  };
  for (std::size_t len = 0; len < blob->size(); ++len) {
    EXPECT_TRUE(rejected_cheaply(BytesView(blob->data(), len))) << "len=" << len;
  }
  for (int trial = 0; trial < 200; ++trial) {
    Bytes mutated = *blob;
    mutated[rng_.uniform(mutated.size())] ^=
        static_cast<uint8_t>(1u << rng_.uniform(8));
    EXPECT_TRUE(rejected_cheaply(mutated)) << "trial " << trial;
  }
}

TEST_P(ParserFuzzTest, DamagedSnapshotBlobsAreRejectedOnRecovery) {
  const auto cluster = durable_cluster();
  host::Storage& disk = *cluster->host().storage(3);
  const Bytes snapshot = *disk.get("snapshot");
  const auto loaded = [&] {
    return cluster->replica_metrics(3)
        .counter("bft.recovery.snapshot_loaded")
        .value();
  };
  const uint64_t before = loaded();
  // Under the simulator restart_replica runs recover() inline, so each
  // restart parses the blob on disk; the next crash discards the result.
  cluster->crash_replica(3);
  const auto restore = [&](BytesView blob) {
    disk.put("snapshot", blob);
    cluster->restart_replica(3);
    cluster->crash_replica(3);
  };
  for (std::size_t len = 0; len < snapshot.size(); ++len) {
    restore(BytesView(snapshot.data(), len));
  }
  for (int trial = 0; trial < 100; ++trial) {
    Bytes mutated = snapshot;
    mutated[rng_.uniform(mutated.size())] ^=
        static_cast<uint8_t>(1u << rng_.uniform(8));
    restore(mutated);
  }
  EXPECT_EQ(loaded(), before) << "a damaged snapshot was restored";

  disk.put("snapshot", snapshot);
  cluster->restart_replica(3);
  EXPECT_EQ(loaded(), before + 1);
  auto* echo = dynamic_cast<causal::EchoService*>(&cluster->service(3));
  ASSERT_NE(echo, nullptr);
  EXPECT_EQ(echo->executed(), 8u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest, ::testing::Range(0, 5));

}  // namespace
}  // namespace scab
