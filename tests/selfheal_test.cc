// Online self-healing, end to end over the network: a partition is tampered
// while clients drive live traffic; the server (never restarted) quarantines
// it, keeps serving every other partition, returns the typed
// kPartitionRecovering for the quarantined one, heals it from snapshot +
// oplog on its maintenance thread, and loses not one acknowledged write.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/faultinject/tamper.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/tracer.h"
#include "src/shieldstore/partitioned.h"
#include "src/shieldstore/selfheal.h"

namespace shield {
namespace {

using faultinject::TamperAgent;
using faultinject::TamperMode;
using net::Client;
using net::ClientOptions;
using net::Server;
using net::ServerOptions;
using shieldstore::OpLogOptions;
using shieldstore::PartitionedStore;
using shieldstore::SelfHealer;
using shieldstore::SelfHealOptions;
using shieldstore::WriteAheadStore;

sgx::EnclaveConfig FastEnclave() {
  sgx::EnclaveConfig c;
  c.name = "selfheal-test";
  c.epc.epc_bytes = 16u << 20;
  c.epc.crossing_cycles = 0;
  c.epc.kernel_fault_cycles = 0;
  c.epc.resident_access_cycles = 0;
  c.epc.page_crypto = false;
  c.heap_reserve_bytes = 128u << 20;
  c.rng_seed = ToBytes("selfheal-test");
  return c;
}

shieldstore::Options StoreOptions(obs::Registry* metrics) {
  shieldstore::Options o;
  o.num_buckets = 1024;
  o.heap_chunk_bytes = 1u << 20;
  o.scrub_budget_buckets = 128;
  o.metrics = metrics;
  return o;
}

// Full production stack: partitioned store + write-ahead log + self-healer
// driven by the network server's maintenance thread, every layer recording
// into one private registry (as the daemon's layers share the global one).
class SelfHealNetTest : public ::testing::Test {
 protected:
  SelfHealNetTest()
      : enclave_(FastEnclave()),
        authority_(AsBytes("ias-root")),
        store_(enclave_, StoreOptions(&registry_), 4),
        sealer_(AsBytes("fuse"), enclave_.measurement()) {
    dir_ = ::testing::TempDir() + "/selfheal_" + std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    sgx::MonotonicCounterService::Options counter_opts;
    counter_opts.backing_file = dir_ + "/counters.bin";
    counter_opts.increment_cost_cycles = 0;
    counters_ = std::make_unique<sgx::MonotonicCounterService>(counter_opts);
  }

  ~SelfHealNetTest() override {
    if (server_ != nullptr) {
      server_->Stop();
    }
    std::filesystem::remove_all(dir_);
  }

  void StartStack(uint32_t wal_window_us = 0) {
    OpLogOptions log_opts;
    log_opts.path = dir_ + "/wal.log";
    log_opts.group_commit_window_us = wal_window_us;
    log_opts.metrics = &registry_;
    wal_ = std::make_unique<WriteAheadStore>(store_, sealer_, *counters_, log_opts);
    SelfHealOptions heal_opts;
    heal_opts.directory = SnapshotDir();
    healer_ = std::make_unique<SelfHealer>(*wal_, sealer_, *counters_, heal_opts);
    ASSERT_TRUE(wal_->Open().ok());
    ASSERT_TRUE(healer_->Start().ok());
    ServerOptions options;
    options.metrics = &registry_;
    options.maintenance = [this] { healer_->Tick(); };
    options.maintenance_interval_ms = 2;
    server_ = std::make_unique<Server>(enclave_, *wal_, authority_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  // Waits until no partition is quarantined (recovery completed).
  void WaitHealed(std::chrono::seconds budget) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (store_.QuarantinedCount() > 0) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "recovery did not complete: " << healer_->last_error().ToString();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  std::string SnapshotDir() const { return dir_ + "/snapshots"; }

  obs::Registry registry_;  // first: every layer below records into it
  sgx::Enclave enclave_;
  sgx::AttestationAuthority authority_;
  PartitionedStore store_;
  sgx::SealingService sealer_;
  std::unique_ptr<sgx::MonotonicCounterService> counters_;
  std::unique_ptr<WriteAheadStore> wal_;
  std::unique_ptr<SelfHealer> healer_;
  std::unique_ptr<Server> server_;
  std::string dir_;
};

TEST_F(SelfHealNetTest, TamperedPartitionHealsUnderLiveTrafficWithNoAckedLoss) {
  StartStack();

  // Seed through the network so every write is acknowledged and logged.
  Client seeder(authority_, enclave_.measurement());
  ASSERT_TRUE(seeder.Connect(server_->port()).ok());
  std::map<std::string, std::string> seeded;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "seed-" + std::to_string(i);
    const std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(seeder.Set(key, value).ok());
    seeded[key] = value;
  }

  // Live load: three client threads keep writing and reading their own keys
  // (which hash across all partitions) with retry-on-recovering enabled.
  // Operations on healthy partitions must never fail; operations on the
  // tampered one may surface kIntegrityFailure (the detecting op) and are
  // otherwise absorbed by the typed-retry loop.
  constexpr int kLoadThreads = 3;
  constexpr size_t kTamperTarget = 0;
  std::atomic<bool> stop_load{false};
  std::atomic<int> healthy_partition_failures{0};
  std::atomic<uint64_t> ops_done{0};
  std::vector<std::map<std::string, std::string>> acked(kLoadThreads);
  std::vector<std::thread> load;
  for (int t = 0; t < kLoadThreads; ++t) {
    load.emplace_back([&, t] {
      ClientOptions copts;
      copts.recovering_retries = 200;
      copts.recovering_backoff_ms = 5;
      Client client(authority_, enclave_.measurement(), true, copts);
      if (!client.Connect(server_->port()).ok()) {
        ++healthy_partition_failures;
        return;
      }
      int round = 0;
      while (!stop_load.load()) {
        const std::string key =
            "live-t" + std::to_string(t) + "-" + std::to_string(round % 20);
        const std::string value = "r" + std::to_string(round);
        const bool on_target = store_.PartitionOf(key) == kTamperTarget;
        if (client.Set(key, value).ok()) {
          acked[t][key] = value;
        } else if (!on_target) {
          ++healthy_partition_failures;
        }
        const std::string probe = "seed-" + std::to_string(round % 200);
        Result<std::string> got = client.Get(probe);
        if (store_.PartitionOf(probe) != kTamperTarget &&
            (!got.ok() || got.value() != seeded[probe])) {
          ++healthy_partition_failures;
        }
        ++ops_done;
        ++round;
      }
    });
  }

  // Let the load warm up, then strike partition 0 under the facade lock
  // (the adversary hitting between two enclave operations).
  while (ops_done.load() < 50) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t served_before = server_->requests_served();
  const uint64_t recoveries_before = healer_->recoveries();
  TamperAgent agent(99);
  ASSERT_TRUE(agent.TamperPartition(store_, kTamperTarget, TamperMode::kMacForge).ok());
  const std::string victim = agent.last_target_key();
  ASSERT_EQ(store_.PartitionOf(victim), kTamperTarget);

  // A no-retry probe watches the victim key: it must see only typed codes
  // (kIntegrityFailure from the detecting op, kPartitionRecovering while
  // healing) and then a healthy value again — never a wrong one. (No ASSERTs
  // inside this window: load threads are still joinable.)
  ClientOptions no_retry;
  Client probe(authority_, enclave_.measurement(), true, no_retry);
  const bool probe_connected = probe.Connect(server_->port()).ok();
  const bool victim_seeded = seeded.count(victim) > 0;
  bool saw_typed_error = false;
  bool healed_readback = false;
  std::string probe_violation;
  const auto probe_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (probe_connected && std::chrono::steady_clock::now() < probe_deadline) {
    Result<std::string> got = probe.Get(victim);
    if (got.ok()) {
      // Seeded keys are immutable in this test, so a successful read must be
      // exact; live keys keep changing under their owner thread.
      if (victim_seeded && got.value() != seeded[victim]) {
        probe_violation = "wrong value '" + got.value() + "' for " + victim;
        break;
      }
      // Done once a recovery ran (a load thread may have triggered detection
      // and the maintenance thread healed between our probes).
      if (saw_typed_error || healer_->recoveries() > recoveries_before) {
        healed_readback = true;
        break;
      }
    } else {
      const Code code = got.status().code();
      if (code != Code::kIntegrityFailure && code != Code::kPartitionRecovering) {
        probe_violation = "unexpected error: " + got.status().ToString();
        break;
      }
      saw_typed_error = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Wait (without asserting) for the maintenance thread to finish healing.
  // The quarantine flag clears inside RecoverOne() before Tick() bumps the
  // recovery counter, so wait for both — otherwise a preempted maintenance
  // thread makes recoveries() read 0 on an already-healed store.
  bool healed = false;
  const auto heal_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < heal_deadline) {
    if (store_.QuarantinedCount() == 0 &&
        healer_->recoveries() > recoveries_before) {
      healed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  stop_load.store(true);
  for (auto& t : load) {
    t.join();
  }

  ASSERT_TRUE(probe_connected);
  EXPECT_TRUE(probe_violation.empty()) << probe_violation;
  ASSERT_TRUE(healed) << "recovery did not complete: "
                      << healer_->last_error().ToString();
  EXPECT_TRUE(saw_typed_error || healer_->recoveries() > recoveries_before)
      << "tamper was never surfaced";
  EXPECT_TRUE(healed_readback) << "victim key never came back healthy";

  // (a) other partitions never returned an error;
  EXPECT_EQ(healthy_partition_failures.load(), 0);
  // (b) the healer actually ran a recovery on the live server;
  EXPECT_GE(healer_->recoveries(), 1u);
  // (c) the server was never restarted — same object, still serving, with
  //     strictly more requests than before the attack;
  EXPECT_GT(server_->requests_served(), served_before);
  // (d) zero acknowledged-write loss: every seeded and every live-acked
  //     write reads back exactly, including keys in the healed partition.
  Client verify(authority_, enclave_.measurement());
  ASSERT_TRUE(verify.Connect(server_->port()).ok());
  for (const auto& [key, value] : seeded) {
    Result<std::string> got = verify.Get(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), value) << key;
  }
  for (const auto& per_thread : acked) {
    for (const auto& [key, value] : per_thread) {
      Result<std::string> got = verify.Get(key);
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
      EXPECT_EQ(got.value(), value) << key;
    }
  }
  // The full store passes a fresh audit.
  EXPECT_TRUE(store_.ScrubAll().ok());
}

TEST_F(SelfHealNetTest, BackgroundScrubDetectsAndHealsSilentTamper) {
  StartStack();

  Client client(authority_, enclave_.measurement());
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  std::map<std::string, std::string> seeded;
  for (int i = 0; i < 100; ++i) {
    const std::string key = "quiet-" + std::to_string(i);
    ASSERT_TRUE(client.Set(key, "v" + std::to_string(i)).ok());
    seeded[key] = "v" + std::to_string(i);
  }

  // Corrupt a partition and then issue NO client operation at all: only the
  // paced background scrub can notice. It must quarantine and heal without
  // any foreground traffic.
  TamperAgent agent(41);
  ASSERT_TRUE(agent.TamperPartition(store_, 1, TamperMode::kBitFlipCiphertext).ok());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (healer_->recoveries() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "scrub never detected the tamper: " << healer_->last_error().ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  WaitHealed(std::chrono::seconds(30));
  EXPECT_GE(healer_->violations_detected() + healer_->recoveries(), 1u);

  // Every acknowledged write survived the silent attack.
  for (const auto& [key, value] : seeded) {
    Result<std::string> got = client.Get(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), value) << key;
  }
  EXPECT_TRUE(store_.ScrubAll().ok());
}

// kStats with no deployment hook: the WAL, the healer and the partitioned
// store register their metrics in the registry the server folds, so a tamper
// and its heal show up in the frame with exact values.
TEST_F(SelfHealNetTest, StatsCarryWalHealAndPartitionMetricsWithoutAHook) {
  constexpr uint32_t kWindowCapUs = 1600;
  StartStack(kWindowCapUs);
  Client client(authority_, enclave_.measurement());
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  constexpr uint64_t kSets = 40;
  for (uint64_t i = 0; i < kSets; ++i) {
    ASSERT_TRUE(client.Set("stat-" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(client.Delete("stat-0").ok());
  ASSERT_TRUE(client.MSet({{"stat-m1", "x"}, {"stat-m2", "y"}}).ok());
  EXPECT_EQ(client.Delete("absent").code(), Code::kNotFound);  // not a mutation
  constexpr uint64_t kAckedMutations = kSets + 1 + 2;

  // Silent tamper: only the background scrub can find it; the healer
  // quarantines and rebuilds the partition on the maintenance thread.
  TamperAgent agent(17);
  ASSERT_TRUE(agent.TamperPartition(store_, 1, TamperMode::kBitFlipCiphertext).ok());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (healer_->recoveries() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "scrub never detected the tamper: " << healer_->last_error().ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  WaitHealed(std::chrono::seconds(30));
  ASSERT_TRUE(wal_->CompactShard(0, SnapshotDir()).ok());

  Result<obs::MetricsSnapshot> snap = client.Stats();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->CounterValue("wal.records"), kAckedMutations);
  // Every singleton ack waited for its own group commit.
  EXPECT_GE(snap->CounterValue("wal.commits"), kSets + 1);
  EXPECT_EQ(snap->CounterValue("wal.compactions"), 1u);
  EXPECT_EQ(snap->GaugeValue("wal.shards"), 4);
  EXPECT_GE(snap->CounterValue("heal.recoveries"), 1u);
  EXPECT_EQ(snap->CounterValue("heal.failed_recoveries"), 0u);
  EXPECT_EQ(snap->GaugeValue("store.partitions"), 4);
  EXPECT_EQ(snap->GaugeValue("store.quarantined"), 0);
  EXPECT_EQ(snap->GaugeValue("store.partition.1.quarantined"), 0);
  // One definition of each WAL metric: the frame carries the registry's
  // values (nothing rewrites the adaptive window after the fact).
  const obs::MetricsSnapshot local = registry_.Snapshot();
  for (const char* name : {"wal.records", "wal.commits", "wal.fsyncs", "wal.compactions",
                           "wal.window_us", "wal.log_bytes", "wal.shards"}) {
    EXPECT_EQ(snap->CounterValue(name), local.CounterValue(name)) << name;
    EXPECT_EQ(snap->GaugeValue(name), local.GaugeValue(name)) << name;
  }
  EXPECT_LE(snap->GaugeValue("wal.window_us"), int64_t{kWindowCapUs});
}

TEST_F(SelfHealNetTest, DepthOneVerbsKeepSingletonResponsesCountersAndSpans) {
  StartStack();
  ClientOptions copts;
  copts.enable_tracing = true;
  Client client(authority_, enclave_.measurement(), /*encrypt=*/true, copts);
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  const uint64_t records_before = registry_.GetCounter("wal.records").Value();

  // One request in flight at a time: every frame is a run of one.
  const auto run = [&](net::OpCode op, std::string key, std::string value, int64_t delta) {
    net::Request request;
    request.op = op;
    request.key = std::move(key);
    request.value = std::move(value);
    request.delta = delta;
    Result<net::Response> response = client.Execute(request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? *response : net::Response{};
  };
  std::vector<net::Response> responses;
  [[maybe_unused]] uint64_t trace_id = 0;
  obs::TraceSetSampleEvery(1);
  {
    const obs::Scope root = obs::TraceRoot("test.depth_one");
    trace_id = root.trace_id();
    responses.push_back(run(net::OpCode::kSet, "d1", "a", 0));
    responses.push_back(run(net::OpCode::kAppend, "d1", "b", 0));
    responses.push_back(run(net::OpCode::kSet, "ctr", "41", 0));
    responses.push_back(run(net::OpCode::kIncrement, "ctr", "", 1));
    responses.push_back(run(net::OpCode::kGet, "d1", "", 0));
    responses.push_back(run(net::OpCode::kGet, "absent", "", 0));
  }
  obs::TraceSetSampleEvery(256);  // restore before any assert can bail

  // Singleton response semantics: only gets and increments carry a value.
  const std::vector<std::pair<Code, std::string>> want = {
      {Code::kOk, ""}, {Code::kOk, ""},   {Code::kOk, ""},
      {Code::kOk, "42"}, {Code::kOk, "ab"}, {Code::kNotFound, ""}};
  ASSERT_EQ(responses.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(responses[i].status, want[i].first) << i;
    EXPECT_EQ(responses[i].value, want[i].second) << i;
  }

  const obs::MetricsSnapshot snap = registry_.Snapshot();
  EXPECT_EQ(snap.CounterValue("net.ops.set"), 2u);
  EXPECT_EQ(snap.CounterValue("net.ops.append"), 1u);
  EXPECT_EQ(snap.CounterValue("net.ops.increment"), 1u);
  EXPECT_EQ(snap.CounterValue("net.ops.get"), 2u);
  EXPECT_EQ(snap.Histogram("net.latency.set")->count, 2u);
  EXPECT_EQ(snap.Histogram("net.latency.get")->count, 2u);
  // A run of one is not a coalesced batch, and not a kBatch frame either.
  EXPECT_EQ(snap.CounterValue("net.coalesced.batches"), 0u);
  EXPECT_EQ(snap.CounterValue("net.coalesced.ops"), 0u);
  EXPECT_EQ(snap.Histogram("net.coalesce_depth")->count, 0u);
  EXPECT_EQ(snap.CounterValue("net.batches"), 0u);
  EXPECT_EQ(snap.CounterValue("net.batch_ops.set"), 0u);
  // Four mutations, four records (Append and Increment log resulting state).
  EXPECT_EQ(snap.CounterValue("wal.records") - records_before, 4u);
  EXPECT_EQ(wal_->Get("d1").value(), "ab");

#if SHIELD_OBS_ENABLED
  Result<std::vector<obs::SpanRecord>> dump = client.TraceDump();
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  std::map<std::string, int> names;
  for (const obs::SpanRecord& span : *dump) {
    if (span.trace_id == trace_id && span.name.rfind("server.", 0) == 0) {
      ++names[span.name];
    }
  }
  const std::map<std::string, int> want_names = {
      {"server.set", 2}, {"server.append", 1}, {"server.increment", 1}, {"server.get", 2}};
  EXPECT_EQ(names, want_names);
#endif
}

}  // namespace
}  // namespace shield
