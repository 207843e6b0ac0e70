// Daemon-layer unit tests: cluster.conf / cluster.keys parsing (including
// every diagnostic the CLIs lean on), atomic file writes, the dealer
// determinism bridge to the in-process harness, and the SIGUSR1 dump
// record's JSON validity against bench/metrics_schema.json's
// required_daemon section — with metric names chosen to stress the
// escaper (quotes, backslashes, control characters).
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "causal/stack.h"
#include "daemon/config.h"
#include "daemon/node.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace scab::daemon {
namespace {

constexpr const char* kGoodConfig = R"(# comment
protocol = cp0
f = 1
group = modp_512
checkpoint_interval = 8
max_batch = 16
max_inflight_batches = 4
client_inflight = 1
client_batch = 1
keys = cluster.keys
replica 0 = 127.0.0.1:21000
replica 1 = 127.0.0.1:21001
replica 2 = 127.0.0.1:21002
replica 3 = 127.0.0.1:21003
client 100 = 127.0.0.1:21100
)";

TEST(ClusterConfigParse, AcceptsWellFormedConfig) {
  std::string err;
  const auto cfg = parse_cluster_config(kGoodConfig, &err);
  ASSERT_TRUE(cfg) << err;
  EXPECT_EQ(cfg->protocol, causal::Protocol::kCp0);
  EXPECT_EQ(cfg->bft.n, 4u);
  EXPECT_EQ(cfg->bft.f, 1u);
  EXPECT_EQ(cfg->bft.checkpoint_interval, 8u);
  EXPECT_EQ(cfg->replicas.at(2).port, 21002);
  EXPECT_EQ(cfg->clients.at(100).ip, "127.0.0.1");
  EXPECT_EQ(cfg->keys_file, "cluster.keys");
}

TEST(ClusterConfigParse, RoundTripsThroughFormatter) {
  std::string err;
  const auto cfg = parse_cluster_config(kGoodConfig, &err);
  ASSERT_TRUE(cfg) << err;
  const auto again = parse_cluster_config(format_cluster_config(*cfg), &err);
  ASSERT_TRUE(again) << err;
  EXPECT_EQ(format_cluster_config(*cfg), format_cluster_config(*again));
}

// Each negative case replaces one aspect of the good config and must be
// rejected with a diagnostic naming the problem (the CLIs print it
// verbatim: "clean diagnostic, non-zero exit" is the contract).
struct Negative {
  const char* name;
  std::string body;
  const char* expect_in_error;
};

std::string replace(std::string body, const std::string& from,
                    const std::string& to) {
  const auto pos = body.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  return body.replace(pos, from.size(), to);
}

TEST(ClusterConfigParse, RejectsBrokenConfigs) {
  const std::string good = kGoodConfig;
  const Negative cases[] = {
      {"bad port (text)",
       replace(good, "replica 3 = 127.0.0.1:21003",
               "replica 3 = 127.0.0.1:port"),
       "invalid port"},
      {"bad port (zero)",
       replace(good, "replica 3 = 127.0.0.1:21003",
               "replica 3 = 127.0.0.1:0"),
       "invalid port"},
      {"bad port (too large)",
       replace(good, "replica 3 = 127.0.0.1:21003",
               "replica 3 = 127.0.0.1:70000"),
       "invalid port"},
      {"missing colon",
       replace(good, "replica 3 = 127.0.0.1:21003", "replica 3 = nowhere"),
       "ip:port"},
      {"duplicate replica id",
       replace(good, "replica 3 = 127.0.0.1:21003",
               "replica 2 = 127.0.0.1:21003"),
       "duplicate replica id 2"},
      {"duplicate client id", good + "client 100 = 127.0.0.1:21101\n",
       "duplicate client id 100"},
      {"gap in replica ids",
       replace(good, "replica 3 = 127.0.0.1:21003",
               "replica 9 = 127.0.0.1:21003"),
       "contiguous"},
      {"f too large for n", replace(good, "f = 1", "f = 2"), "out of range"},
      {"f zero", replace(good, "f = 1", "f = 0"), "out of range"},
      {"f missing", replace(good, "f = 1", "# f elided"), "missing 'f"},
      {"unknown protocol", replace(good, "protocol = cp0", "protocol = cp9"),
       "unknown protocol"},
      {"unknown group", replace(good, "group = modp_512", "group = rsa"),
       "unknown group"},
      {"bad generated group bits",
       replace(good, "group = modp_512", "group = generate:4"),
       "invalid group"},
      {"unknown key", good + "colour = blue\n", "unknown key 'colour'"},
      {"no equals sign", good + "just words\n", "key = value"},
      {"client id in replica space", good + "client 7 = 127.0.0.1:21107\n",
       "client id 7 below"},
      {"keys missing", replace(good, "keys = cluster.keys", "# no keys"),
       "missing 'keys"},
      {"pipelining outside cp0",
       replace(replace(good, "protocol = cp0", "protocol = cp2"),
               "client_inflight = 1", "client_inflight = 4"),
       "requires protocol cp0"},
      {"no replicas", "protocol = cp0\nf = 1\nkeys = k\n", "no 'replica"},
  };
  for (const auto& c : cases) {
    std::string err;
    EXPECT_FALSE(parse_cluster_config(c.body, &err)) << c.name;
    EXPECT_NE(err.find(c.expect_in_error), std::string::npos)
        << c.name << ": got diagnostic '" << err << "'";
  }
}

TEST(DealerSeedParse, RoundTripAndDiagnostics) {
  std::string err;
  const auto seed = parse_dealer_seed(format_dealer_seed(0xdeadbeef), &err);
  ASSERT_TRUE(seed) << err;
  EXPECT_EQ(*seed, 0xdeadbeefu);

  EXPECT_FALSE(parse_dealer_seed("", &err));
  EXPECT_NE(err.find("missing"), std::string::npos);
  EXPECT_FALSE(parse_dealer_seed("dealer_seed = banana\n", &err));
  EXPECT_FALSE(parse_dealer_seed("wrong_key = 1\n", &err));
  EXPECT_FALSE(
      parse_dealer_seed("dealer_seed = 1\ndealer_seed = 2\n", &err));
  EXPECT_NE(err.find("duplicate"), std::string::npos);
}

TEST(ConfigFiles, LoadResolvesKeysRelativeToConfig) {
  const std::string dir = ::testing::TempDir();
  const std::string conf = dir + "/scab_daemon_test.conf";
  const std::string keys = dir + "/scab_daemon_test.keys";
  std::string body = kGoodConfig;
  body = replace(body, "keys = cluster.keys", "keys = scab_daemon_test.keys");
  ASSERT_TRUE(write_file_atomic(conf, body));
  ASSERT_TRUE(write_file_atomic(keys, format_dealer_seed(77)));

  std::string err;
  const auto cfg = load_cluster_config(conf, &err);
  ASSERT_TRUE(cfg) << err;
  EXPECT_EQ(cfg->dealer_seed, 77u);

  // Missing keys file -> diagnostic names the path.
  std::remove(keys.c_str());
  EXPECT_FALSE(load_cluster_config(conf, &err));
  EXPECT_NE(err.find("scab_daemon_test.keys"), std::string::npos);

  std::remove(conf.c_str());
}

TEST(ConfigFiles, AtomicWriteLeavesNoTmpDebris) {
  const std::string path = ::testing::TempDir() + "/scab_atomic_test.txt";
  ASSERT_TRUE(write_file_atomic(path, "one"));
  ASSERT_TRUE(write_file_atomic(path, "two"));
  std::string err;
  const auto body = read_file(path, &err);
  ASSERT_TRUE(body) << err;
  EXPECT_EQ(*body, "two");
  EXPECT_FALSE(read_file(path + ".tmp", &err));
  std::remove(path.c_str());
}

// The determinism bridge: the daemon's StackBundle and the in-process
// harness derive from the same seed_label stream, so two bundles from the
// same config agree on keys and TDH2 material (what lets independently
// started processes talk to each other at all).
TEST(StackBundle, IdenticalAcrossIndependentDerivations) {
  std::string err;
  auto cfg = parse_cluster_config(kGoodConfig, &err);
  ASSERT_TRUE(cfg) << err;
  cfg->dealer_seed = 4242;

  StackBundle one(*cfg);
  StackBundle two(*cfg);
  const Bytes msg = to_bytes("cross-process message");
  const Bytes sig = one.keys().sign(2, msg);
  EXPECT_TRUE(two.keys().verify(2, msg, sig));
  EXPECT_EQ(one.keys().session_key(0, 100), two.keys().session_key(0, 100));
  ASSERT_TRUE(one.material().group.has_value());
  EXPECT_EQ(one.material().group->p(), two.material().group->p());
}

// Keys and material come from the dealer seed, but each bundle (each
// incarnation of a scabd or scab-client process) draws fresh per-node
// randomness: a restarted replica that repeated its predecessor's stream
// would reuse CP0 share-proof nonces, which gives away its key share.
TEST(StackBundle, NodeRandomnessIsFreshPerIncarnation) {
  std::string err;
  auto cfg = parse_cluster_config(kGoodConfig, &err);
  ASSERT_TRUE(cfg) << err;
  cfg->dealer_seed = 4242;

  StackBundle one(*cfg);
  StackBundle two(*cfg);
  EXPECT_NE(one.replica_rng(1).generate(32), two.replica_rng(1).generate(32));
  EXPECT_NE(one.replica_rng(1).generate(32), one.replica_rng(1).generate(32));
  EXPECT_NE(one.client_rng(100).generate(32), two.client_rng(100).generate(32));
}

TEST(DumpRecord, ValidatesAgainstDaemonSchemaWithHostileMetricNames) {
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  // Everything required_daemon demands (what a real daemon binds eagerly)…
  for (const char* name :
       {"bft.requests_executed", "bft.batches_proposed",
        "bft.recovery.catchups_completed", "net.rt.send_errors",
        "net.rt.accept_errors", "net.drops.crash", "net.drops.cut",
        "net.drops.tamper"}) {
    metrics.counter(name).inc();
  }
  metrics.gauge("bft.pending_requests").set(3);
  metrics.histogram("bft.batch_size").record(5);
  metrics.histogram("bft.recovery.catchup_ms").record(12);
  // …plus names that must survive JSON escaping.
  metrics.counter("weird\"quoted\"name").inc();
  metrics.counter("back\\slash\\name").inc();
  metrics.counter("control\x01\x1f" "chars\nnewline").inc();
  metrics.gauge("gauge \"g\"").set(-7);

  const std::string record = format_dump_record(
      3, causal::Protocol::kCp0, 21003, 99, metrics, tracer);
  const auto doc = obs::json::parse(record);
  ASSERT_TRUE(doc) << "dump record is not valid JSON: " << record;

  const std::string schema_path =
      std::string(SCAB_SOURCE_DIR) + "/bench/metrics_schema.json";
  std::string err;
  const auto schema_body = read_file(schema_path, &err);
  ASSERT_TRUE(schema_body) << err;
  const auto schema = obs::json::parse(*schema_body);
  ASSERT_TRUE(schema);
  const auto* required = schema->get("required_daemon");
  ASSERT_TRUE(required != nullptr && required->is_array())
      << "bench/metrics_schema.json lost its required_daemon section";
  for (const auto& p : required->as_array()) {
    ASSERT_TRUE(p.is_string());
    EXPECT_NE(obs::json::find_path(*doc, p.as_string()), nullptr)
        << "dump record missing required path " << p.as_string();
  }
  // The hostile names round-tripped.
  const auto* counters = obs::json::find_path(*doc, "metrics/counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_NE(counters->get("weird\"quoted\"name"), nullptr);
  EXPECT_NE(counters->get("back\\slash\\name"), nullptr);
  EXPECT_NE(counters->get("control\x01\x1f" "chars\nnewline"), nullptr);
  EXPECT_EQ(obs::json::find_path(*doc, "node")->as_number(), 3);
  EXPECT_EQ(obs::json::find_path(*doc, "executed")->as_number(), 99);
  EXPECT_EQ(obs::json::find_path(*doc, "protocol")->as_string(), "CP0");
}

}  // namespace
}  // namespace scab::daemon
