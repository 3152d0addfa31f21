// ssbench: the repository benchmark. Starts the real shieldstore_server
// daemon, drives it over loopback with net::Client, and reports end-to-end
// and per-layer metrics. See ssbench/README.md for the workloads, phases and
// metric definitions.
//
//   ssbench_gen --workload get_hot --seed 1 --seconds 15 --trace 0
//       --server PATH/shieldstore_server --work-dir DIR
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. A wrong value or a lost acked write exits 1.
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ssbench/src/ladder.h"
#include "ssbench/src/oracle.h"
#include "ssbench/src/proc.h"
#include "ssbench/src/stats.h"
#include "src/net/client.h"
#include "src/obs/snapshot.h"
#include "src/sgx/attestation.h"
#include "src/workload/generator.h"

namespace ssbench {
namespace {

using shield::Code;
using shield::Status;
using shield::net::Client;
using shield::net::ClientOptions;
using shield::net::OpCode;
using shield::net::Request;
using shield::obs::MetricsSnapshot;
using shield::workload::Op;

constexpr size_t kKeyBytes = 16;
constexpr size_t kLoadConnections = 4;  // the paper's C
constexpr size_t kLoadDepth = 16;       // the paper's D
constexpr size_t kPreloadBatch = 256;
constexpr int kDeadlineMs = 1000;         // per-op deadline
constexpr int kBulkTimeoutMs = 30000;     // preload and readback batches
constexpr int kStartTimeoutMs = 60000;    // daemon exec -> listening
constexpr int kShutdownTimeoutMs = 5000;  // SIGINT -> SIGKILL
constexpr int kDeployments = 3;           // setup_s and restart_s are medians of these
constexpr int kRoundsPerDeployment = 4;
constexpr int kRounds = kDeployments * kRoundsPerDeployment;
// Connection ids stride the oracle's version space.
constexpr uint64_t kIdleConn = 0;
constexpr uint64_t kFirstLoadConn = 1;

struct Workload {
  std::string name;
  shield::workload::WorkloadConfig mix;
  uint64_t keys;
  size_t value_bytes;
  bool replicated;
  uint64_t idle_ops_per_s;  // op counts per second of --seconds
  uint64_t load_ops_per_s;
  uint64_t load_ops_min;    // per deployment, independent of --seconds
};

std::vector<Workload> Workloads() {
  using namespace shield::workload;
  return {
      {"get_hot", RD100_Z(), 200000, 128, false, 300, 100000, 0},
      // Uniform keys over ~2x the EPC: no hot keys to coalesce or keep in
      // the CPU caches, and 4x the crypto bytes per op of get_hot.
      {"get_cold", RD100_U(), 200000, 512, false, 300, 100000, 0},
      // The preload fills each of the 2 default WAL shards to ~56 MiB; 40k
      // more Sets per deployment push every shard past the 64 MiB
      // compaction threshold.
      {"set_durable", WorkloadConfig{"WR100_U", 0.0, Distribution::kUniform, 0.99, WriteKind::kSet},
       200000, 512, false, 60, 4000, 40000},
      // Replicated bulk load and standby re-bootstrap ship ~700 keys/s, so a
      // small key set keeps setup and restart short next to the load rounds.
      {"mixed_replicated", RD50_Z(), 2000, 128, true, 150, 3600, 0},
  };
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 15;
  bool trace = false;
  std::string server;
  std::string work_dir;
  double scale = 1.0;  // < 1 shrinks keys and op counts (smoke runs only)
};

// Everything the phases count, shared across threads.
struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> wrong{0};
  std::mutex mu;
  std::string first_error;

  void Wrong(const std::string& why) {
    wrong.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    if (first_error.empty()) {
      first_error = why;
    }
  }
};

// One daemon deployment: the primary and, for replicated workloads, its
// warm standby. Only the flags that pick the deployment are passed.
struct Deployment {
  std::string binary;
  std::string dir;
  bool replicated = false;
  Daemon primary;
  Daemon standby;
  int shutdown_timeouts = 0;

  std::string PrimaryDir() const { return dir + "/primary"; }

  bool StartPrimary(const std::string& log_name) {
    std::vector<std::string> args{"--port", "0", "--heal-dir", PrimaryDir()};
    if (replicated) {
      args.push_back("--replicate-to");
      args.push_back(std::to_string(standby.port()));
    }
    return primary.Start(binary, args, dir + "/" + log_name, kStartTimeoutMs);
  }

  bool Start() {
    std::filesystem::create_directories(dir);
    if (replicated &&
        !standby.Start(binary, {"--port", "0", "--heal-dir", dir + "/standby", "--replica-of", "0"},
                       dir + "/standby.log", kStartTimeoutMs)) {
      return false;
    }
    return StartPrimary("primary.log");
  }

  void Stop() {
    for (Daemon* d : {&primary, &standby}) {
      if (d->running() && !d->Stop(kShutdownTimeoutMs)) {
        ++shutdown_timeouts;
      }
    }
  }

  void Wipe() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

// `timeout_ms` bounds every receive, the attestation handshake included.
std::unique_ptr<Client> Connect(const shield::sgx::AttestationAuthority& authority,
                                const Daemon& daemon, int timeout_ms = kDeadlineMs) {
  ClientOptions o;
  // The daemon is already listening when a client connects, so a failed
  // attempt means a wedged daemon, not a slow one: one try, no backoff.
  o.connect_attempts = 1;
  o.recv_timeout_ms = timeout_ms;
  o.send_timeout_ms = timeout_ms;
  auto client = std::make_unique<Client>(authority, daemon.measurement(), true, o);
  if (!client->Connect(daemon.port()).ok()) {
    return nullptr;
  }
  return client;
}

// Preloads every key at version 0 with MSet batches from `clients`.
bool Preload(std::vector<std::unique_ptr<Client>>& clients, const Workload& w, uint64_t keys,
             Tally& tally) {
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < clients.size(); ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t base = t * kPreloadBatch; base < keys && ok;
           base += kPreloadBatch * clients.size()) {
        std::vector<std::pair<std::string, std::string>> pairs;
        for (uint64_t k = base; k < std::min(keys, base + kPreloadBatch); ++k) {
          pairs.emplace_back(shield::workload::KeyAt(k, kKeyBytes),
                             shield::workload::ValueFor(k, 0, w.value_bytes));
        }
        tally.attempted.fetch_add(pairs.size());
        if (!clients[t]->MSet(pairs).ok()) {
          tally.failed.fetch_add(pairs.size());
          ok = false;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  return ok;
}

// Checks a Get response against the oracle. Not-found is a wrong answer:
// every key was preloaded and nothing deletes. Any other non-OK status is a
// failed op.
void CheckGet(const Oracle& oracle, uint64_t key, const shield::net::Response& r, Tally& tally) {
  if (r.status == Code::kNotFound) {
    tally.Wrong("key " + std::to_string(key) + ": lost (get returned not-found)");
    return;
  }
  if (r.status != Code::kOk) {
    tally.failed.fetch_add(1);
    return;
  }
  uint64_t v = 0;
  std::string why;
  if (!oracle.CheckValue(key, r.value, &v, &why)) {
    tally.Wrong(why);
  }
}

// The idle and load phases alternate in equal rounds, spread over
// kDeployments fresh deployments, and report the median round. A few
// seconds of interference from outside the benchmark, or a deployment that
// starts in a slow state, then moves a minority of rounds, not the result.
// Failed ops stay in every round they hit.
struct PhaseResult {
  Samples get;  // every op of the phase, for the per-verb tails
  Samples set;
  std::vector<double> round_get_p50_us;
  std::vector<double> round_set_p50_us;
  std::vector<double> round_p50_us;
  std::vector<double> round_p90_us;
  std::vector<double> round_p99_us;
  std::vector<double> round_kops;
  std::vector<double> round_cpu_us_per_op;  // daemon CPU, load rounds only
  uint64_t completed = 0;
  uint64_t last_deployment_completed = 0;
  uint64_t refused = 0;  // never sent: the connection could not reattest
  double wall_s = 0;     // load rounds only

  void Merge(const PhaseResult& other) {
    get.Merge(other.get);
    set.Merge(other.set);
    for (auto [to, from] : {std::pair{&round_get_p50_us, &other.round_get_p50_us},
                            {&round_set_p50_us, &other.round_set_p50_us},
                            {&round_p50_us, &other.round_p50_us},
                            {&round_p90_us, &other.round_p90_us},
                            {&round_p99_us, &other.round_p99_us},
                            {&round_kops, &other.round_kops},
                            {&round_cpu_us_per_op, &other.round_cpu_us_per_op}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    completed += other.completed;
    last_deployment_completed = other.completed;
    refused += other.refused;
    wall_s += other.wall_s;
  }
};

Request MakeRequest(const Op& op, Oracle& oracle, uint64_t conn, uint64_t* next_version,
                    uint64_t* version_out) {
  Request req;
  req.key = shield::workload::KeyAt(op.key_index, kKeyBytes);
  *version_out = 0;
  if (op.kind == Op::Kind::kGet) {
    req.op = OpCode::kGet;
  } else {
    req.op = OpCode::kSet;
    *version_out = oracle.Issue(conn, next_version, op.key_index);
    req.value = shield::workload::ValueFor(op.key_index, *version_out, oracle.value_bytes());
  }
  return req;
}

// Idle phase: depth 1, alternating Get and Set on keys from the workload's
// distribution, so both verbs' service latency is measured on every
// workload. Each round attests a fresh connection, which may land on
// another reactor thread.
class IdlePhase {
 public:
  IdlePhase(const shield::sgx::AttestationAuthority& authority, const Daemon& daemon,
            const Workload& w, uint64_t keys, uint64_t ops_per_round, uint64_t seed,
            Oracle& oracle, Tally& tally)
      : authority_(authority), daemon_(daemon), ops_(ops_per_round),
        gen_(w.mix, keys, seed * 7919 + 11), oracle_(oracle), tally_(tally) {}

  void Round() {
    const uint64_t deadline_ns = uint64_t{kDeadlineMs} * 1000000;
    std::unique_ptr<Client> client = Connect(authority_, daemon_);
    Samples get;
    Samples set;
    for (uint64_t i = 0; i < ops_; ++i) {
      Op op = gen_.Next();
      op.kind = i % 2 == 0 ? Op::Kind::kGet : Op::Kind::kSet;
      uint64_t version = 0;
      const Request req = MakeRequest(op, oracle_, kIdleConn, &next_version_, &version);
      tally_.attempted.fetch_add(1);
      if (client == nullptr || !client->connected()) {  // refused
        tally_.failed.fetch_add(1);
        ++res_.refused;
        continue;
      }
      const uint64_t t0 = NowNs();
      auto r = client->Execute(req);
      const uint64_t lat = NowNs() - t0;
      Samples& s = op.kind == Op::Kind::kGet ? get : set;
      if (!r.ok() || lat > deadline_ns) {
        tally_.failed.fetch_add(1);
        s.Add(deadline_ns);
        if (!r.ok()) {
          (void)client->Reconnect();
        }
        continue;
      }
      s.Add(lat);
      ++res_.completed;
      if (op.kind == Op::Kind::kGet) {
        CheckGet(oracle_, op.key_index, *r, tally_);
      } else if (r->status == Code::kOk) {
        oracle_.Ack(op.key_index, version);
      } else {
        tally_.failed.fetch_add(1);
      }
    }
    res_.round_get_p50_us.push_back(get.PercentileUs(0.5));
    res_.round_set_p50_us.push_back(set.PercentileUs(0.5));
    res_.get.Merge(get);
    res_.set.Merge(set);
  }

  const PhaseResult& result() const { return res_; }

 private:
  const shield::sgx::AttestationAuthority& authority_;
  const Daemon& daemon_;
  uint64_t ops_;
  shield::workload::WorkloadGenerator gen_;
  uint64_t next_version_ = 0;
  Oracle& oracle_;
  Tally& tally_;
  PhaseResult res_;
};

// Load phase: each connection keeps kLoadDepth requests in flight (closed
// loop) and drains them at the end of every round. A response that misses
// the deadline fails every op still in flight on that connection; they
// enter the percentiles at the deadline and the connection reattests. A
// connection that cannot reattest has the rest of its quota refused.
class LoadPhase {
 public:
  LoadPhase(std::vector<std::unique_ptr<Client>>& clients, const Workload& w, uint64_t keys,
            uint64_t ops_per_round, uint64_t seed, Oracle& oracle, Tally& tally)
      : clients_(clients), quota_(ops_per_round / clients.size()), oracle_(oracle),
        tally_(tally) {
    for (size_t c = 0; c < clients.size(); ++c) {
      conns_.emplace_back(
          shield::workload::WorkloadGenerator(w.mix, keys, seed * 1000003 + kFirstLoadConn + c));
    }
  }

  // `daemon_cpu` reads the CPU seconds the daemons have used so far.
  template <typename CpuFn>
  void Round(CpuFn daemon_cpu) {
    const double cpu0 = daemon_cpu();
    const uint64_t round_start = NowNs();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients_.size(); ++c) {
      threads.emplace_back(
          [this, c] { RunConnection(*clients_[c], kFirstLoadConn + c, conns_[c]); });
    }
    for (auto& th : threads) {
      th.join();
    }
    const double round_s = static_cast<double>(NowNs() - round_start) / 1e9;
    const double cpu_s = daemon_cpu() - cpu0;
    Samples all;
    uint64_t completed = 0;
    for (Conn& st : conns_) {
      all.Merge(st.get);
      all.Merge(st.set);
      res_.get.Merge(st.get);
      res_.set.Merge(st.set);
      completed += st.completed;
      st.get.ns.clear();
      st.set.ns.clear();
      st.completed = 0;
    }
    res_.completed += completed;
    res_.wall_s += round_s;
    res_.round_kops.push_back(static_cast<double>(completed) / 1e3 / round_s);
    res_.round_cpu_us_per_op.push_back(cpu_s * 1e6 /
                                       static_cast<double>(std::max<uint64_t>(completed, 1)));
    res_.round_p50_us.push_back(all.PercentileUs(0.5));
    res_.round_p90_us.push_back(all.PercentileUs(0.9));
    res_.round_p99_us.push_back(all.PercentileUs(0.99));
    res_.refused = 0;
    for (const Conn& st : conns_) {
      res_.refused += st.refused;
    }
  }

  const PhaseResult& result() const { return res_; }

 private:
  struct Pending {
    Op op;
    uint64_t version;
    uint64_t t0;
  };
  struct Conn {
    explicit Conn(shield::workload::WorkloadGenerator g) : gen(std::move(g)) {}
    shield::workload::WorkloadGenerator gen;
    uint64_t next_version = 0;
    bool dead = false;
    uint64_t refused = 0;
    Samples get;  // this round
    Samples set;
    uint64_t completed = 0;
  };

  void RunConnection(Client& client, uint64_t conn_id, Conn& st) {
    const uint64_t deadline_ns = uint64_t{kDeadlineMs} * 1000000;
    uint64_t issued = 0;
    std::deque<Pending> inflight;
    auto refuse_rest = [&] {
      st.refused += quota_ - issued;
      tally_.attempted.fetch_add(quota_ - issued);
      tally_.failed.fetch_add(quota_ - issued);
      issued = quota_;
      st.dead = true;
    };
    auto fail_all = [&] {
      for (const Pending& p : inflight) {
        tally_.failed.fetch_add(1);
        (p.op.kind == Op::Kind::kGet ? st.get : st.set).Add(deadline_ns);
      }
      inflight.clear();
      if (!client.Reconnect().ok()) {
        refuse_rest();
      }
    };
    if (st.dead) {
      refuse_rest();
    }
    while (issued < quota_ || !inflight.empty()) {
      bool send_failed = false;
      while (inflight.size() < kLoadDepth && issued < quota_) {
        Pending p{st.gen.Next(), 0, 0};
        const Request req = MakeRequest(p.op, oracle_, conn_id, &st.next_version, &p.version);
        ++issued;
        tally_.attempted.fetch_add(1);
        p.t0 = NowNs();
        inflight.push_back(p);
        if (!client.SendRequest(req).ok()) {
          send_failed = true;
          break;
        }
      }
      if (send_failed) {
        fail_all();
        continue;
      }
      auto r = client.ReceiveResponse();
      if (!r.ok()) {
        fail_all();
        continue;
      }
      const Pending p = inflight.front();
      inflight.pop_front();
      const uint64_t lat = NowNs() - p.t0;
      Samples& s = p.op.kind == Op::Kind::kGet ? st.get : st.set;
      if (lat > deadline_ns) {
        tally_.failed.fetch_add(1);
        s.Add(deadline_ns);
        continue;
      }
      s.Add(lat);
      ++st.completed;
      if (p.op.kind == Op::Kind::kGet) {
        CheckGet(oracle_, p.op.key_index, *r, tally_);
      } else if (r->status == Code::kOk) {
        oracle_.Ack(p.op.key_index, p.version);
      } else {
        tally_.failed.fetch_add(1);
      }
    }
  }

  std::vector<std::unique_ptr<Client>>& clients_;
  uint64_t quota_;  // per connection per round
  Oracle& oracle_;
  Tally& tally_;
  std::vector<Conn> conns_;
  PhaseResult res_;
};

// Reads every key back after the restart and checks it against the oracle.
uint64_t Readback(std::vector<std::unique_ptr<Client>>& clients, uint64_t keys,
                  const Oracle& oracle, Tally& tally) {
  std::atomic<uint64_t> checked{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < clients.size(); ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t base = t * kPreloadBatch; base < keys; base += kPreloadBatch * clients.size()) {
        std::vector<std::string> batch;
        for (uint64_t k = base; k < std::min(keys, base + kPreloadBatch); ++k) {
          batch.push_back(shield::workload::KeyAt(k, kKeyBytes));
        }
        tally.attempted.fetch_add(batch.size());
        auto r = clients[t]->MGet(batch);
        if (!r.ok()) {
          tally.failed.fetch_add(batch.size());
          tally.Wrong("readback batch at key " + std::to_string(base) + " failed: " +
                      r.status().ToString());
          continue;
        }
        for (size_t i = 0; i < r->size(); ++i) {
          const uint64_t key = base + i;
          std::string why;
          if ((*r)[i].status == Code::kNotFound) {
            tally.Wrong("key " + std::to_string(key) + ": lost after restart");
          } else if ((*r)[i].status != Code::kOk) {
            tally.failed.fetch_add(1);
          } else if (!oracle.CheckDurable(key, (*r)[i].value, &why)) {
            tally.Wrong(why);
          }
          checked.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  return checked.load();
}

double HistUs(const MetricsSnapshot& d, const char* name, double q) {
  const shield::obs::HistogramData* h = d.Histogram(name);
  return h == nullptr ? 0.0 : h->Quantile(q) / 1e3;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double CpuSecondsSelf() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// Host CPU time stolen by the hypervisor and total CPU time, in ticks, from
// the first line of /proc/stat. Other tenants' load shows up as steal.
std::pair<double, double> HostStealAndTotalTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0;
  double steal = 0;
  for (int i = 0; i < 8; ++i) {
    double v = 0;
    in >> v;
    total += v;
    steal = i == 7 ? v : steal;
  }
  return {steal, total};
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed, const MetricList& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void PrintTable(const std::string& title, const MetricList& metrics) {
  std::printf("%s\n", title.c_str());
  for (const MetricValue& m : metrics) {
    std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int Run(const Args& args) {
  Workload w;
  bool found = false;
  for (const Workload& cand : Workloads()) {
    if (cand.name == args.workload) {
      w = cand;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const uint64_t keys = std::max<uint64_t>(64, static_cast<uint64_t>(w.keys * args.scale));
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  const size_t connections = std::min<size_t>(kLoadConnections, cpus);
  // Whole rounds: an even number of idle ops per round, equal load quotas.
  auto round_to = [](double n, uint64_t unit) {
    return std::max<uint64_t>(unit, static_cast<uint64_t>(n) / unit * unit);
  };
  const uint64_t idle_ops =
      round_to(static_cast<double>(w.idle_ops_per_s) * args.seconds * args.scale, 2 * kRounds);
  const uint64_t load_ops = round_to(
      std::max<double>(static_cast<double>(w.load_ops_per_s) * args.seconds,
                       static_cast<double>(w.load_ops_min * kDeployments)) * args.scale,
      connections * kRounds * 8);
  const uint64_t idle_per_round = idle_ops / kRounds;
  const uint64_t load_per_round = load_ops / kRounds;

  shield::sgx::AttestationAuthority authority(shield::AsBytes(std::string("dev-authority")));
  const auto [steal0, ticks0] = HostStealAndTotalTicks();
  Tally tally;
  MetricList e2e;
  MetricList layer;
  auto fail = [&](const std::string& why) {
    std::fprintf(stderr, "ssbench: %s\n", why.c_str());
    return 1;
  };

  // --- kDeployments times: setup (exec, attest, preload), idle and load
  // rounds, alternating, then a kill -9 restart with full readback. Each
  // deployment has its own heal dir and its own oracle.
  std::vector<double> setup_times;
  std::vector<double> restart_times;
  std::vector<double> rss_values;
  uint64_t read_back = 0;
  int shutdown_timeouts = 0;
  std::unique_ptr<Deployment> dep;
  std::unique_ptr<Oracle> oracle;
  std::vector<std::unique_ptr<Client>> clients;
  std::unique_ptr<Client> stats_client;
  PhaseResult idle;
  PhaseResult load;
  double client_cpu = 0.0;
  shield::Result<MetricsSnapshot> before = Status(Code::kIoError);
  MetricsSnapshot after;
  MetricsSnapshot d;  // the last deployment's rounds
  MetricsSnapshot final_stats;
  uint64_t compactions = 0;  // summed over the deployments
  int64_t backlog_max = 0;
  int64_t inflight_max = 0;
  std::mutex last_mu;
  // Keeps the last snapshot the daemon answered: a wedged daemon answers no
  // kStats, and the deltas then end at the last good one.
  auto read_stats = [&](Client* c) {
    auto snap = c != nullptr ? c->Stats() : shield::Result<MetricsSnapshot>(Status(Code::kIoError));
    std::lock_guard<std::mutex> lock(last_mu);
    if (snap.ok()) {
      backlog_max = std::max(backlog_max, snap->GaugeValue("repl.backlog_entries"));
      inflight_max = std::max(inflight_max, snap->GaugeValue("net.inflight"));
      after = std::move(*snap);
    }
    return after;
  };
  for (int rep = 0; rep < kDeployments; ++rep) {
    if (dep != nullptr) {
      dep->Stop();
      shutdown_timeouts += dep->shutdown_timeouts;
      dep->Wipe();
    }
    dep = std::make_unique<Deployment>();
    dep->binary = args.server;
    dep->dir = args.work_dir + "/deploy" + std::to_string(rep);
    dep->replicated = w.replicated;
    oracle = std::make_unique<Oracle>(keys, w.value_bytes, idle_ops + load_ops / connections);
    const uint64_t t0 = NowNs();
    if (!dep->Start()) {
      return fail("daemon did not start; see " + dep->dir);
    }
    for (size_t c = 0; c < connections; ++c) {
      clients.push_back(Connect(authority, dep->primary, kBulkTimeoutMs));
      if (clients.back() == nullptr) {
        return fail("attestation failed");
      }
    }
    if (!Preload(clients, w, keys, tally)) {
      return fail("preload failed");
    }
    setup_times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    oracle->AckPreload();

    // Load connections reattest with the per-op deadline as their timeout.
    clients.clear();
    for (size_t c = 0; c < connections; ++c) {
      clients.push_back(Connect(authority, dep->primary));
      if (clients.back() == nullptr) {
        return fail("attestation failed");
      }
    }
    stats_client = Connect(authority, dep->primary);
    before = stats_client != nullptr ? stats_client->Stats() : before;
    if (!before.ok()) {
      return fail("stats failed: " + before.status().ToString());
    }
    {
      std::lock_guard<std::mutex> lock(last_mu);
      after = *before;
      backlog_max = 0;
      inflight_max = 0;
    }
    // The gauge maxima are per-layer metrics, so an untraced run leaves the
    // daemon unpolled during its rounds.
    std::atomic<bool> sampling{args.trace};
    std::thread sampler([&] {
      std::unique_ptr<Client> c = sampling ? Connect(authority, dep->primary) : nullptr;
      while (c != nullptr && c->connected() && sampling.load()) {
        read_stats(c.get());
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
    const uint64_t seed = args.seed * kDeployments + rep;
    IdlePhase idle_phase(authority, dep->primary, w, keys, idle_per_round, seed, *oracle, tally);
    LoadPhase load_phase(clients, w, keys, load_per_round, seed, *oracle, tally);
    for (int round = 0; round < kRoundsPerDeployment; ++round) {
      idle_phase.Round();
      const double cpu0 = CpuSecondsSelf();
      load_phase.Round([&] { return dep->primary.CpuSeconds() + dep->standby.CpuSeconds(); });
      client_cpu += CpuSecondsSelf() - cpu0;
    }
    sampling = false;
    sampler.join();
    read_stats(stats_client.get());
    idle.Merge(idle_phase.result());
    load.Merge(load_phase.result());
    // Per-layer kStats deltas cover the last deployment's rounds.
    d = shield::obs::Delta(*before, after);

    // Let background compaction of the load's log bytes run, then read the
    // cumulative counters and the daemon's peak RSS before the kill.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    final_stats = read_stats(stats_client.get());
    compactions += final_stats.CounterValue("wal.compactions");
    rss_values.push_back(dep->primary.PeakRssMb());

    // --- restart: kill -9 -> restarted daemon answers a verified Get.
    clients.clear();
    stats_client.reset();
    const uint64_t kill_t0 = NowNs();
    dep->primary.Kill9();
    if (!dep->StartPrimary("primary-restart.log")) {
      return fail("restarted daemon did not come up; see " + dep->dir);
    }
    {
      std::unique_ptr<Client> c = Connect(authority, dep->primary, kBulkTimeoutMs);
      if (c == nullptr) {
        return fail("attestation after restart failed");
      }
      const uint64_t key = 0;
      auto r = c->Get(shield::workload::KeyAt(key, kKeyBytes));
      restart_times.push_back(static_cast<double>(NowNs() - kill_t0) / 1e9);
      std::string why;
      tally.attempted.fetch_add(1);
      if (!r.ok()) {
        tally.Wrong("first get after restart failed: " + r.status().ToString());
      } else if (!oracle->CheckDurable(key, *r, &why)) {
        tally.Wrong(why);
      }
    }
    for (size_t c = 0; c < connections; ++c) {
      clients.push_back(Connect(authority, dep->primary, kBulkTimeoutMs));
      if (clients.back() == nullptr) {
        return fail("attestation after restart failed");
      }
    }
    read_back += Readback(clients, keys, *oracle, tally);
    clients.clear();
  }
  dep->Stop();
  shutdown_timeouts += dep->shutdown_timeouts;
  const uint64_t ops = load.last_deployment_completed + idle.last_deployment_completed;
  const auto [steal1, ticks1] = HostStealAndTotalTicks();

  const uint64_t sets = d.CounterValue("net.ops.set") + d.CounterValue("net.batch_ops.set");
  const uint64_t gets = d.CounterValue("store.gets");
  // Gated end-to-end metrics: their run-to-run spread on a shared 4-core
  // host stays inside the bounds in BENCHMARK.json. The daemon's CPU time
  // per op stands in for the op rate, which follows the CPU time the
  // hypervisor steals (see README.md).
  e2e = {
      {"load_cpu_us_per_op", Median(load.round_cpu_us_per_op), "us"},
      {"setup_s", Median(setup_times), "s"},
      {"restart_s", Median(restart_times), "s"},
      {"rss_mb", Median(rss_values), "MiB"},
  };
  // End-to-end metrics that are printed and recorded with the per-layer
  // set but not gated: their run-to-run spread on a shared host is too
  // wide for any allowed bound (see README.md).
  const MetricList recorded = {
      {"load_kops", Median(load.round_kops), "kop/s"},
      {"idle_set_p50_us", Median(idle.round_set_p50_us), "us"},
      {"load_p50_us", Median(load.round_p50_us), "us"},
      {"load_p90_us", Median(load.round_p90_us), "us"},
      {"load_p99_us", Median(load.round_p99_us), "us"},
      {"load_get_p99_us", load.get.PercentileUs(0.99), "us"},
      {"load_set_p99_us", load.set.PercentileUs(0.99), "us"},
      {"idle_get_p50_us", Median(idle.round_get_p50_us), "us"},
  };

  const double attempted = static_cast<double>(tally.attempted.load());
  const double user_bytes =
      static_cast<double>(sets) * static_cast<double>(kKeyBytes + w.value_bytes);
  const double appended_log_bytes =
      static_cast<double>(after.GaugeValue("wal.log_bytes") -
                          before->GaugeValue("wal.log_bytes")) +
      static_cast<double>(d.CounterValue("wal.compacted_bytes"));
  const uint64_t records = d.CounterValue("wal.records");
  layer = recorded;
  layer.insert(layer.end(), {
      {"net.ops_per_submit",
       Ratio(static_cast<double>(d.CounterValue("net.coalesced.ops")),
             static_cast<double>(d.CounterValue("net.coalesced.batches"))), "ops"},
      {"net.enclave_submit_p50_us", HistUs(d, "stage.enclave_submit", 0.5), "us"},
      {"net.session_open_p50_us", HistUs(d, "stage.session_open", 0.5), "us"},
      {"net.session_seal_p50_us", HistUs(d, "stage.session_seal", 0.5), "us"},
      {"net.reactor_loop_lag_p99_us", HistUs(d, "net.reactor_loop_lag", 0.99), "us"},
      {"net.inflight_max", static_cast<double>(inflight_max), "ops"},
      {"sgx.ecalls_per_op", Ratio(static_cast<double>(d.CounterValue("sgx.ecalls")), ops), "count"},
      {"sgx.epc_faults_per_kop",
       Ratio(static_cast<double>(d.CounterValue("sgx.epc.faults")), ops / 1e3), "count"},
      {"store.search_decrypt_p50_us", HistUs(d, "stage.search_decrypt", 0.5), "us"},
      {"store.mac_verify_p50_us", HistUs(d, "stage.mac_verify", 0.5), "us"},
      {"store.mac_batch_p50_us", HistUs(d, "stage.mac_batch", 0.5), "us"},
      {"store.decryptions_per_get",
       Ratio(static_cast<double>(d.CounterValue("store.decryptions")), gets), "count"},
      {"store.mac_verifications_per_op",
       Ratio(static_cast<double>(d.CounterValue("store.mac_verifications")), ops), "count"},
      {"crypto.ctr_bytes_per_op",
       Ratio(static_cast<double>(d.CounterValue("store.crypto.ctr_bytes")), ops), "B"},
      {"crypto.cmac_bytes_per_op",
       Ratio(static_cast<double>(d.CounterValue("store.crypto.cmac_bytes")), ops), "B"},
      {"wal.append_p50_us", HistUs(d, "stage.wal_append", 0.5), "us"},
      {"wal.commit_wait_p50_us", HistUs(d, "stage.commit_wait", 0.5), "us"},
      {"wal.fsync_p50_us", HistUs(d, "wal.fsync_ns", 0.5), "us"},
      {"wal.ops_per_commit",
       Ratio(static_cast<double>(records), static_cast<double>(d.CounterValue("wal.commits"))),
       "ops"},
      {"wal.commits_per_record",
       Ratio(static_cast<double>(d.CounterValue("wal.commits")), static_cast<double>(records)),
       "count"},
      {"wal.log_bytes_per_user_byte", Ratio(appended_log_bytes, user_bytes), "ratio"},
      {"wal.compactions", static_cast<double>(compactions), "count"},
      {"bench.refused_ops", static_cast<double>(idle.refused + load.refused), "count"},
      {"bench.error_rate", Ratio(static_cast<double>(tally.failed.load()), attempted), "ratio"},
      {"bench.client_cpu_share", Ratio(client_cpu, load.wall_s * cpus), "ratio"},
      {"bench.host_steal_share", Ratio(steal1 - steal0, ticks1 - ticks0), "ratio"},
      {"daemon.shutdown_timeouts", static_cast<double>(shutdown_timeouts), "count"},
  });
  if (w.replicated) {
    layer.insert(layer.end(), {
        {"repl.entries_per_frame",
         Ratio(static_cast<double>(d.CounterValue("repl.shipped_entries")),
               static_cast<double>(d.CounterValue("repl.shipped_frames"))), "count"},
        {"repl.backlog_max", static_cast<double>(backlog_max), "count"},
    });
  }

  char head[512];
  std::snprintf(head, sizeof(head),
                "workload %s seed %llu: %llu keys x %zu B, idle %llu ops, load %llu ops "
                "(%zu x %zu in flight; medians of %d rounds), setup x%d, %lld WAL shards, "
                "%llu keys read back after %d restarts",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(keys), w.value_bytes,
                static_cast<unsigned long long>(idle_ops),
                static_cast<unsigned long long>(load_ops), connections, kLoadDepth, kRounds,
                kDeployments, static_cast<long long>(final_stats.GaugeValue("wal.shards")),
                static_cast<unsigned long long>(read_back), kDeployments);
  PrintTable(head, e2e);
  PrintTable("recorded, not gated:", recorded);
  std::printf("  samples: %zu idle gets, %zu idle sets, %zu load gets, %zu load sets\n",
              idle.get.count(), idle.set.count(), load.get.count(), load.set.count());
  auto print_rounds = [](const char* name, const std::vector<double>& v) {
    std::printf("  %-34s", name);
    for (double x : v) {
      std::printf(" %.4g", x);
    }
    std::printf("\n");
  };
  print_rounds("rounds: load_kops", load.round_kops);
  print_rounds("rounds: load_cpu_us_per_op", load.round_cpu_us_per_op);
  print_rounds("rounds: load_p50_us", load.round_p50_us);
  print_rounds("rounds: load_p99_us", load.round_p99_us);
  print_rounds("rounds: idle_get_p50_us", idle.round_get_p50_us);
  print_rounds("rounds: idle_set_p50_us", idle.round_set_p50_us);
  print_rounds("setups: setup_s", setup_times);
  print_rounds("restarts: restart_s", restart_times);
  std::printf("  %-34s %14.6f ratio (%llu failed of %llu attempted)\n", "error_rate",
              Ratio(static_cast<double>(tally.failed.load()), attempted),
              static_cast<unsigned long long>(tally.failed.load()),
              static_cast<unsigned long long>(tally.attempted.load()));

  if (args.trace) {
    LadderConfig lc;
    lc.mix = w.mix;
    lc.keys = keys;
    lc.value_bytes = w.value_bytes;
    lc.key_bytes = kKeyBytes;
    lc.seed = args.seed;
    lc.threads = connections;
    lc.scale = args.scale;
    lc.work_dir = args.work_dir + "/ladder";
    lc.trace_path = args.work_dir + "-trace.json";
    MetricList ladder;
    if (Status s = RunLadder(lc, &ladder); !s.ok()) {
      return fail("ladder failed: " + s.ToString());
    }
    layer.insert(layer.end(), ladder.begin(), ladder.end());
    PrintTable("per-layer (kStats deltas over the last deployment's rounds, then the ladder)",
               layer);
  }

  const bool correct = tally.wrong.load() == 0;
  if (!correct) {
    std::fprintf(stderr, "ssbench: %llu wrong answers; first: %s\n",
                 static_cast<unsigned long long>(tally.wrong.load()), tally.first_error.c_str());
  }
  PrintJson(correct, tally.attempted.load(), tally.failed.load(), args.trace ? layer : e2e);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ssbench

int main(int argc, char** argv) {
  ssbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::max(1, std::atoi(value));
    } else if (flag == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else if (flag == "--server") {
      args.server = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--scale") {
      args.scale = std::strtod(value, nullptr);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.workload.empty() || args.server.empty() || args.work_dir.empty()) {
    std::fprintf(stderr,
                 "usage: ssbench_gen --workload NAME --server PATH --work-dir DIR "
                 "[--seed N] [--seconds N] [--trace 0|1] [--scale F]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);
  std::filesystem::create_directories(args.work_dir);
  const int rc = ssbench::Run(args);
  std::filesystem::remove_all(args.work_dir, ec);
  return rc;
}
