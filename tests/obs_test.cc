// Observability layer tests: histogram bucket math and quantiles against a
// sorted-sample oracle, concurrent recorder exactness, snapshot/delta
// semantics, the versioned kStats wire codec (round-trip + decode fuzz), and
// the text renderings.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/obs/audit.h"
#include "src/obs/metrics.h"
#include "src/obs/snapshot.h"
#include "src/obs/tracer.h"
#include "src/obs/watchdog.h"

namespace shield::obs {
namespace {

// ------------------------------------------------------------- histograms

TEST(HistogramTest, BucketBoundsAreConsistent) {
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    const uint64_t lb = Histogram::BucketLowerBound(i);
    EXPECT_EQ(Histogram::BucketOf(lb), i) << "lb of bucket " << i;
    if (i + 1 < Histogram::kNumBuckets) {
      const uint64_t next = Histogram::BucketLowerBound(i + 1);
      EXPECT_GT(next, lb) << "bounds must be strictly increasing";
      EXPECT_EQ(Histogram::BucketOf(next - 1), i) << "ub-1 of bucket " << i;
    }
  }
  // Relative bucket width <= 25% from 16 up: the quantile error bound the
  // oracle test below leans on.
  for (uint64_t v : {16ull, 100ull, 4096ull, 1234567ull, 99999999999ull}) {
    const size_t b = Histogram::BucketOf(v);
    const uint64_t lb = Histogram::BucketLowerBound(b);
    const uint64_t ub = Histogram::BucketUpperBound(b);
    EXPECT_LE(static_cast<double>(ub), static_cast<double>(lb) * 1.25 + 1e-9);
  }
}

TEST(HistogramTest, SmallValuesExact) {
  Histogram h;
  for (int i = 0; i < 10; ++i) {
    h.Record(1);
  }
  const HistogramData d = h.Data();
#if !SHIELD_OBS_ENABLED
  EXPECT_EQ(d.count, 0u);  // recording compiled out
#else
  EXPECT_EQ(d.count, 10u);
  EXPECT_EQ(d.sum, 10u);
  EXPECT_EQ(d.max, 1u);
  // Values 0..3 land in width-1 buckets; every quantile is clamped into
  // [bucket lb, observed max] = exactly 1.
  EXPECT_DOUBLE_EQ(d.Quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(d.Quantile(0.99), 1.0);
  EXPECT_DOUBLE_EQ(d.Mean(), 1.0);
#endif
}

TEST(HistogramTest, EmptyHistogramIsZero) {
  Histogram h;
  const HistogramData d = h.Data();
  EXPECT_EQ(d.count, 0u);
  EXPECT_DOUBLE_EQ(d.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.Mean(), 0.0);
  EXPECT_TRUE(d.buckets.empty());
}

// Quantile estimates vs the exact sorted-sample oracle, across distributions
// with very different shapes. The log2-with-2-sub-bits layout bounds the
// relative error by the bucket width (<= 25% for values >= 16), and the
// estimate is clamped to the observed max, so ratio in [0.74, 1.31] is a
// guaranteed envelope, not a tuned tolerance.
TEST(HistogramTest, QuantilesMatchSortedOracle) {
  Xoshiro256 rng(0x0b5ULL);
  const auto check = [](std::vector<uint64_t> values, const char* label) {
    Histogram h;
    for (const uint64_t v : values) {
      h.Record(v);
    }
    std::sort(values.begin(), values.end());
    const HistogramData d = h.Data();
#if !SHIELD_OBS_ENABLED
    EXPECT_EQ(d.count, 0u) << label;  // recording compiled out
    return;
#endif
    ASSERT_EQ(d.count, values.size());
    for (const double q : {0.10, 0.50, 0.90, 0.95, 0.99, 1.0}) {
      // Same target-rank convention as HistogramData::Quantile: the smallest
      // value with at least ceil(q * count) samples at or below it.
      const size_t rank = std::max<size_t>(
          1, static_cast<size_t>(std::ceil(q * static_cast<double>(values.size()))));
      const uint64_t oracle = values[std::min(rank, values.size()) - 1];
      const double est = d.Quantile(q);
      if (oracle >= 16) {
        const double ratio = est / static_cast<double>(oracle);
        EXPECT_GE(ratio, 0.74) << label << " q=" << q << " oracle=" << oracle;
        EXPECT_LE(ratio, 1.31) << label << " q=" << q << " oracle=" << oracle;
      } else {
        EXPECT_NEAR(est, static_cast<double>(oracle), 4.0) << label << " q=" << q;
      }
    }
    EXPECT_DOUBLE_EQ(d.Quantile(1.0), static_cast<double>(values.back())) << label;
  };

  std::vector<uint64_t> uniform;
  for (int i = 0; i < 20000; ++i) {
    uniform.push_back(rng.NextBelow(1'000'000));
  }
  check(std::move(uniform), "uniform");

  std::vector<uint64_t> heavy_tail;  // latency-shaped: tight body, long tail
  for (int i = 0; i < 20000; ++i) {
    const uint64_t body = 500 + rng.NextBelow(200);
    heavy_tail.push_back(rng.NextBelow(100) == 0 ? body * (10 + rng.NextBelow(1000)) : body);
  }
  check(std::move(heavy_tail), "heavy_tail");

  std::vector<uint64_t> bimodal;  // cache hit vs EPC fault
  for (int i = 0; i < 20000; ++i) {
    bimodal.push_back(rng.NextBelow(2) == 0 ? 100 + rng.NextBelow(50)
                                            : 50'000 + rng.NextBelow(10'000));
  }
  check(std::move(bimodal), "bimodal");

  std::vector<uint64_t> tiny = {0, 1, 1, 2, 3, 3, 3, 5, 8, 13};
  check(std::move(tiny), "tiny");
}

TEST(HistogramTest, MergeAndSubtract) {
  Histogram a;
  Histogram b;
  for (int i = 0; i < 100; ++i) {
    a.Record(100);
    b.Record(100);
    b.Record(10'000);
  }
  HistogramData da = a.Data();
  const HistogramData db = b.Data();
  da.Merge(db);
#if !SHIELD_OBS_ENABLED
  EXPECT_EQ(da.count, 0u);  // recording compiled out
#else
  EXPECT_EQ(da.count, 300u);
  EXPECT_EQ(da.sum, 100u * 100 + 100u * 100 + 100u * 10'000);
  EXPECT_EQ(da.max, 10'000u);

  HistogramData diff = db;
  diff.Subtract(a.Data());  // same shape at the 100-bucket
  EXPECT_EQ(diff.count, 100u);
  for (const auto& [index, n] : diff.buckets) {
    EXPECT_EQ(index, static_cast<uint16_t>(Histogram::BucketOf(10'000)));
    EXPECT_EQ(n, 100u);
  }
#endif
}

// -------------------------------------------------- concurrent recording

TEST(MetricsTest, ConcurrentRecordersAreExact) {
  Registry registry;
  Counter& counter = registry.GetCounter("test.ops");
  Gauge& gauge = registry.GetGauge("test.level");
  Histogram& hist = registry.GetHistogram("test.latency");
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(1000 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        counter.Inc();
        gauge.Add(1);
        gauge.Add(-1);
        hist.Record(rng.NextBelow(1'000'000));
      }
    });
  }
  // Concurrent snapshots must be tear-free (each value a valid atomic fold)
  // while recorders run; exercised for TSan as much as for the asserts.
  for (int i = 0; i < 50; ++i) {
    const MetricsSnapshot snap = registry.Snapshot();
    const HistogramData* h = snap.Histogram("test.latency");
    ASSERT_NE(h, nullptr);
    uint64_t bucket_total = 0;
    for (const auto& [index, n] : h->buckets) {
      bucket_total += n;
    }
    EXPECT_EQ(bucket_total, h->count);
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(gauge.Value(), 0);
#if SHIELD_OBS_ENABLED
  EXPECT_EQ(counter.Value(), uint64_t{kThreads} * kOpsPerThread);
  EXPECT_EQ(hist.Data().count, uint64_t{kThreads} * kOpsPerThread);
#endif
}

TEST(MetricsTest, ResetClearsEverything) {
  Registry registry;
  registry.GetCounter("a").Inc(7);
  registry.GetGauge("b").Set(9);
  registry.GetHistogram("c").Record(123);
  registry.Reset();
  EXPECT_EQ(registry.GetCounter("a").Value(), 0u);
  EXPECT_EQ(registry.GetGauge("b").Value(), 0);
  EXPECT_EQ(registry.GetHistogram("c").Data().count, 0u);
}

TEST(MetricsTest, ScopedStageRecordsIntoPreRegisteredHistograms) {
  Registry registry;
  // Every stage histogram exists even before any recording.
  const MetricsSnapshot before = registry.Snapshot();
  for (size_t s = 0; s < kStageCount; ++s) {
    const std::string name = "stage." + std::string(StageName(static_cast<Stage>(s)));
    EXPECT_TRUE(before.Has(name)) << name;
  }
  {
    Scope stage(&registry, Stage::kDecode);
  }
  {
    Scope null_registry(nullptr, Stage::kDecode);  // must be safe
  }
#if SHIELD_OBS_ENABLED
  EXPECT_EQ(registry.StageHistogram(Stage::kDecode).Data().count, 1u);
#endif
}

// ------------------------------------------------------ snapshot and wire

MetricsSnapshot BuildSample() {
  Registry registry;
  registry.GetCounter("net.ops.get").Inc(42);
  registry.GetCounter("net.ops.set").Inc(17);
  registry.GetGauge("net.inflight").Set(-3);
  Histogram& h = registry.GetHistogram("net.latency.get");
  for (int i = 1; i <= 1000; ++i) {
    h.Record(static_cast<uint64_t>(i) * 997);
  }
  return registry.Snapshot();
}

TEST(SnapshotTest, WireRoundTripPreservesEverything) {
  const MetricsSnapshot snap = BuildSample();
  const Bytes wire = EncodeStatsSnapshot(snap);
  const Result<MetricsSnapshot> back = DecodeStatsSnapshot(wire);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->version, kStatsVersion);
  EXPECT_EQ(back->unix_nanos, snap.unix_nanos);
  ASSERT_EQ(back->metrics.size(), snap.metrics.size());
  for (size_t i = 0; i < snap.metrics.size(); ++i) {
    const Metric& a = snap.metrics[i];
    const Metric& b = back->metrics[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.counter, b.counter);
    EXPECT_EQ(a.gauge, b.gauge);
    EXPECT_EQ(a.histogram.count, b.histogram.count);
    EXPECT_EQ(a.histogram.sum, b.histogram.sum);
    EXPECT_EQ(a.histogram.max, b.histogram.max);
    EXPECT_EQ(a.histogram.buckets, b.histogram.buckets);
  }
  // Histogram quantiles survive the trip (the CLI computes them client-side).
  const HistogramData* h = back->Histogram("net.latency.get");
  ASSERT_NE(h, nullptr);
#if SHIELD_OBS_ENABLED
  EXPECT_GT(h->Quantile(0.5), 0.0);
#endif
}

TEST(SnapshotTest, DecodeRejectsMalformedFramesTyped) {
  const Bytes good = EncodeStatsSnapshot(BuildSample());
  ASSERT_TRUE(DecodeStatsSnapshot(good).ok());

  // Empty / truncated / wrong magic / wrong version.
  EXPECT_EQ(DecodeStatsSnapshot({}).status().code(), Code::kProtocolError);
  Bytes truncated(good.begin(), good.begin() + good.size() / 2);
  EXPECT_EQ(DecodeStatsSnapshot(truncated).status().code(), Code::kProtocolError);
  Bytes bad_magic = good;
  bad_magic[0] ^= 0xff;
  EXPECT_EQ(DecodeStatsSnapshot(bad_magic).status().code(), Code::kProtocolError);
  Bytes trailing = good;
  trailing.push_back(0);
  EXPECT_EQ(DecodeStatsSnapshot(trailing).status().code(), Code::kProtocolError);
}

TEST(SnapshotTest, DecodeFuzzNeverCrashesAndFailsTyped) {
  const Bytes seed = EncodeStatsSnapshot(BuildSample());
  Xoshiro256 rng(0x57a75ULL);
  for (int i = 0; i < 20'000; ++i) {
    Bytes mutated = seed;
    const size_t flips = 1 + rng.NextBelow(16);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.NextBelow(mutated.size())] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
    }
    if (rng.NextBelow(4) == 0) {
      mutated.resize(rng.NextBelow(mutated.size() + 1));
    }
    const Result<MetricsSnapshot> decoded = DecodeStatsSnapshot(mutated);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), Code::kProtocolError) << "mutant " << i;
    }
  }
}

TEST(SnapshotTest, DeltaSubtractsCountersAndKeepsGauges) {
  Registry registry;
  Counter& ops = registry.GetCounter("ops");
  Gauge& inflight = registry.GetGauge("inflight");
  Histogram& lat = registry.GetHistogram("lat");
  ops.Inc(10);
  inflight.Set(5);
  lat.Record(100);
  const MetricsSnapshot earlier = registry.Snapshot();
  ops.Inc(32);
  inflight.Set(2);
  lat.Record(100);
  lat.Record(200'000);
  const MetricsSnapshot later = registry.Snapshot();

  const MetricsSnapshot d = Delta(earlier, later);
  const HistogramData* h = d.Histogram("lat");
  ASSERT_NE(h, nullptr);
  // A metric born after `earlier` passes through unchanged.
  registry.GetCounter("late.arrival").Inc(7);
  const MetricsSnapshot d2 = Delta(earlier, registry.Snapshot());
  EXPECT_TRUE(d2.Has("late.arrival"));
#if SHIELD_OBS_ENABLED
  EXPECT_EQ(d.CounterValue("ops"), 32u);
  EXPECT_EQ(d.GaugeValue("inflight"), 2);
  EXPECT_EQ(h->count, 2u);
  EXPECT_EQ(d2.CounterValue("late.arrival"), 7u);
#endif
}

TEST(SnapshotTest, RenderingsContainTheMetrics) {
  const MetricsSnapshot snap = BuildSample();
  const std::string prom = RenderPrometheus(snap);
  EXPECT_NE(prom.find("# TYPE shield_net_ops_get counter"), std::string::npos);
  EXPECT_NE(prom.find("shield_net_latency_get{quantile=\"0.99\"}"), std::string::npos);
#if SHIELD_OBS_ENABLED
  EXPECT_NE(prom.find("shield_net_ops_get 42"), std::string::npos);
  EXPECT_NE(prom.find("shield_net_inflight -3"), std::string::npos);
  EXPECT_NE(prom.find("shield_net_latency_get_count 1000"), std::string::npos);
#endif

  const std::string table = RenderTable(snap);
  EXPECT_NE(table.find("net.ops.get"), std::string::npos);
  EXPECT_NE(table.find("p50="), std::string::npos);
}

TEST(SnapshotTest, SetterUpsertKeepsNameOrder) {
  MetricsSnapshot snap;
  snap.SetCounter("zz", 1);
  snap.SetCounter("aa", 2);
  snap.SetGauge("mm", -9);
  snap.SetCounter("aa", 3);  // overwrite, not duplicate
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_TRUE(std::is_sorted(snap.metrics.begin(), snap.metrics.end(),
                             [](const Metric& a, const Metric& b) { return a.name < b.name; }));
  EXPECT_EQ(snap.CounterValue("aa"), 3u);
  // Encodable after hand-assembly (the bridged component path).
  EXPECT_TRUE(DecodeStatsSnapshot(EncodeStatsSnapshot(snap)).ok());
}

// ----------------------------------------------------------------- tracer

TEST(TracerTest, ContextWireRoundTrip) {
  TraceContext ctx;
  ctx.trace_id = 0x0123456789abcdefull;
  ctx.span_id = 0x00aabbccddeeff11ull & kSpanIdMask;
  ctx.sampled = true;
  uint8_t wire[kTraceContextWireSize];
  EncodeTraceContext(ctx, wire);
  const TraceContext back = DecodeTraceContext(wire);
  EXPECT_EQ(back.trace_id, ctx.trace_id);
  EXPECT_EQ(back.span_id, ctx.span_id);
  EXPECT_TRUE(back.sampled);
  EXPECT_TRUE(back.active());
}

TEST(TracerTest, SamplingEveryNIsPeriodic) {
  TraceSetSampleEvery(4);
  int fired = 0;
  for (int i = 0; i < 64; ++i) {
    if (SampleRoot()) {
      ++fired;
    }
  }
  EXPECT_EQ(fired, SHIELD_OBS_ENABLED ? 16 : 0);
  TraceSetSampleEvery(0);
  for (int i = 0; i < 16; ++i) {
    EXPECT_FALSE(SampleRoot());
  }
  TraceSetSampleEvery(256);  // restore the default for neighbors
}

TEST(TracerTest, ScopesRecordOnlyWhenSampled) {
  TraceSetSampleEvery(0);
  TraceDrain();
  TraceConsume();  // clear anything a neighbor left behind
  {
    const Scope root = TraceRoot("unsampled");
    EXPECT_FALSE(root.active());
    Scope child("child");
    EXPECT_FALSE(child.active());
  }
  TraceDrain();
  EXPECT_TRUE(TraceConsume().empty());

  TraceSetSampleEvery(1);
  [[maybe_unused]] uint64_t trace_id = 0;
  {
    const Scope root = TraceRoot("sampled");
    EXPECT_EQ(root.active(), SHIELD_OBS_ENABLED == 1);
    trace_id = root.trace_id();
    Scope child("child");
    EXPECT_EQ(child.active(), SHIELD_OBS_ENABLED == 1);
  }
  TraceDrain();
  const std::vector<Span> spans = TraceConsume();
  TraceSetSampleEvery(256);
#if SHIELD_OBS_ENABLED
  ASSERT_EQ(spans.size(), 2u);  // child closes before root
  EXPECT_EQ(spans[0].trace_id, trace_id);
  EXPECT_EQ(spans[1].trace_id, trace_id);
  EXPECT_EQ(spans[0].parent_span, spans[1].span_id);
#else
  EXPECT_TRUE(spans.empty());
#endif
}

// Runs one stage scope on `registry` under a root sampled 1-in-`every` and
// returns the spans left behind (the stage's first, then the root's).
std::vector<Span> StageUnderRoot(Registry* registry, Stage stage, uint32_t every) {
  TraceDrain();
  TraceConsume();  // clear anything a neighbor left behind
  TraceSetSampleEvery(every);
  {
    const Scope root = TraceRoot("root");
    Scope scope(registry, stage);
    EXPECT_EQ(scope.active(), SHIELD_OBS_ENABLED && every == 1);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  TraceSetSampleEvery(256);
  TraceDrain();
  return TraceConsume();
}

TEST(TracerTest, SampledStageScopeRecordsOneSampleAndOneMatchingSpan) {
  Registry registry;
  const std::vector<Span> spans = StageUnderRoot(&registry, Stage::kWalAppend, 1);
#if SHIELD_OBS_ENABLED
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "wal.append");
  EXPECT_EQ(spans[0].trace_id, spans[1].trace_id);
  EXPECT_EQ(spans[0].parent_span, spans[1].span_id);
  EXPECT_GE(spans[0].duration_ns, 50'000u);
  const HistogramData h = registry.StageHistogram(Stage::kWalAppend).Data();
  ASSERT_EQ(h.count, 1u);
  EXPECT_EQ(h.sum, spans[0].duration_ns) << "one cycle pair serves both";
#endif
}

TEST(TracerTest, UnsampledStageScopeRecordsTheSampleButNoSpan) {
  Registry registry;
  EXPECT_TRUE(StageUnderRoot(&registry, Stage::kSearchDecrypt, 0).empty());
#if SHIELD_OBS_ENABLED
  EXPECT_EQ(registry.StageHistogram(Stage::kSearchDecrypt).Data().count, 1u);
#endif
}

TEST(TracerTest, StageScopeWithoutRegistryRecordsNoHistogram) {
  // No fallback to the global registry; the span does not need one.
  const Histogram& global = Registry::Global().StageHistogram(Stage::kMacVerify);
  const uint64_t before = global.Data().count;
  const std::vector<Span> spans = StageUnderRoot(nullptr, Stage::kMacVerify, 1);
  EXPECT_EQ(global.Data().count, before);
#if SHIELD_OBS_ENABLED
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "store.mac_verify");
#endif
}

TEST(TracerTest, DumpCodecRoundTrip) {
  std::vector<Span> spans;
  for (int i = 0; i < 5; ++i) {
    Span s;
    s.trace_id = 100 + i;
    s.span_id = 200 + i;
    s.parent_span = i == 0 ? 0 : 200;
    s.start_unix_ns = 1'000'000ull * i;
    s.duration_ns = 42 + i;
    s.tid = 7;
    s.name = "unit.test";
    spans.push_back(s);
  }
  const Bytes wire = EncodeTraceDump(spans);
  Result<std::vector<SpanRecord>> decoded = DecodeTraceDump(wire);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ((*decoded)[i].trace_id, spans[i].trace_id);
    EXPECT_EQ((*decoded)[i].span_id, spans[i].span_id);
    EXPECT_EQ((*decoded)[i].duration_ns, spans[i].duration_ns);
    EXPECT_EQ((*decoded)[i].name, "unit.test");
  }
}

// Mutation fuzz: no mutant of a valid dump may crash the decoder; truncations
// must be rejected outright.
TEST(TracerTest, DumpDecodeFuzzNeverCrashes) {
  std::vector<Span> spans;
  Span s;
  s.trace_id = 1;
  s.span_id = 2;
  s.name = "fuzz.victim";
  spans.push_back(s);
  spans.push_back(s);
  const Bytes wire = EncodeTraceDump(spans);

  for (size_t cut = 0; cut < wire.size(); ++cut) {
    const ByteSpan truncated(wire.data(), cut);
    EXPECT_FALSE(DecodeTraceDump(truncated).ok()) << "cut at " << cut;
  }
  Xoshiro256 rng(0x7ace5ULL);
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes mutant = wire;
    const size_t flips = 1 + rng.NextBelow(4);
    for (size_t f = 0; f < flips; ++f) {
      mutant[rng.NextBelow(mutant.size())] ^=
          static_cast<uint8_t>(1u << rng.NextBelow(8));
    }
    (void)DecodeTraceDump(mutant);  // must not crash; ok() either way
  }
  Bytes garbage(64);
  for (int iter = 0; iter < 500; ++iter) {
    for (auto& b : garbage) {
      b = static_cast<uint8_t>(rng.NextBelow(256));
    }
    (void)DecodeTraceDump(garbage);
  }
}

TEST(TracerTest, ChromeTraceIsWellFormedJson) {
  std::vector<SpanRecord> spans;
  SpanRecord r;
  r.trace_id = 0xabc;
  r.span_id = 1;
  r.start_unix_ns = 5'000;
  r.duration_ns = 2'000;
  r.tid = 3;
  r.pid = 1;
  r.name = "with\"quote\\and\nnewline";
  spans.push_back(r);
  const std::string json = RenderChromeTrace(spans, {"cli", "server"});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  // Control characters and quotes must be escaped, never raw.
  EXPECT_EQ(json.find("with\"quote"), std::string::npos);
  EXPECT_NE(json.find("\\\"quote"), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
}

// ------------------------------------------------------- prometheus escaping

TEST(SnapshotTest, PrometheusEscapesHostileNames) {
  MetricsSnapshot snap;
  snap.SetCounter("evil\nname{with=\"label\"} 9e9\ninjected 1", 7);
  snap.SetCounter("1starts.with.digit", 3);
  snap.SetCounter("back\\slash", 1);
  const std::string prom = RenderPrometheus(snap);
  // No raw newline or quote from a metric name may survive into the body of
  // an exposition line: every emitted line must be "# ..." or "name value".
  std::istringstream lines(prom);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP", 0) == 0 || line.rfind("# TYPE", 0) == 0)
          << "stray comment line: " << line;
      continue;
    }
    const size_t space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, space);
    for (const char c : name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_')
          << "unsanitized metric-name char " << static_cast<int>(c) << " in "
          << line;
    }
    EXPECT_FALSE(name.empty());
    EXPECT_FALSE(name[0] >= '0' && name[0] <= '9') << line;
  }
  // The HELP line keeps the original (escaped) dotted name as a pointer.
  EXPECT_NE(prom.find("\\n"), std::string::npos);
  EXPECT_EQ(prom.find("9e9\ninjected"), std::string::npos);
}

// -------------------------------------------------------------- audit chain

class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("shield_audit_test_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  Bytes FileBytes() const {
    std::ifstream in(path_, std::ios::binary);
    return Bytes(std::istreambuf_iterator<char>(in), {});
  }
  void WriteFileBytes(const Bytes& data) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  }

  std::string path_;
};

TEST_F(AuditTest, AppendVerifyRoundTrip) {
  AuditLog log;
  ASSERT_TRUE(log.Open(path_).ok());
  ASSERT_TRUE(log.Append(AuditType::kScrubFinding, "bucket 12 violated").ok());
  ASSERT_TRUE(log.Append(AuditType::kQuarantineEnter, "partition 3").ok());
  ASSERT_TRUE(log.Append(AuditType::kQuarantineExit, "partition 3 healed").ok());

  AuditChainSummary summary;
  std::vector<AuditRecord> records;
  ASSERT_TRUE(VerifyAuditFile(path_, &summary, &records).ok());
  ASSERT_EQ(summary.records, 4u);  // kStart + 3
  EXPECT_EQ(records[0].type, AuditType::kStart);
  EXPECT_EQ(records[1].type, AuditType::kScrubFinding);
  EXPECT_EQ(records[1].detail, "bucket 12 violated");
  EXPECT_EQ(records[3].type, AuditType::kQuarantineExit);
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, records[i - 1].seq + 1);
  }
}

TEST_F(AuditTest, EveryByteFlipIsDetected) {
  {
    AuditLog log;
    ASSERT_TRUE(log.Open(path_).ok());
    ASSERT_TRUE(log.Append(AuditType::kMacMismatch, "set 5 mac mismatch").ok());
    ASSERT_TRUE(log.Append(AuditType::kPromotion, "promoted").ok());
  }
  const Bytes original = FileBytes();
  ASSERT_FALSE(original.empty());
  AuditChainSummary summary;
  ASSERT_TRUE(VerifyAuditFile(path_, &summary).ok());

  for (size_t i = 0; i < original.size(); ++i) {
    Bytes mutant = original;
    mutant[i] ^= 0x01;
    WriteFileBytes(mutant);
    EXPECT_FALSE(VerifyAuditFile(path_, &summary).ok())
        << "flip at byte " << i << " went undetected";
  }
}

TEST_F(AuditTest, TruncationIsDetected) {
  {
    AuditLog log;
    ASSERT_TRUE(log.Open(path_).ok());
    ASSERT_TRUE(log.Append(AuditType::kRecovery, "partition 1 recovered").ok());
  }
  const Bytes original = FileBytes();
  AuditChainSummary full;
  std::vector<AuditRecord> records;
  ASSERT_TRUE(VerifyAuditFile(path_, &full, &records).ok());
  // Record boundaries: cuts exactly there drop whole tail records, which no
  // backward-chained file can detect on its own — those must instead change
  // the head digest the operator (or check.sh) pins out of band.
  std::vector<size_t> boundaries;
  size_t off = 0;
  for (const AuditRecord& r : records) {
    off += kAuditHeaderBytes + r.detail.size() + 32;
    boundaries.push_back(off);
  }
  ASSERT_EQ(off, original.size());
  AuditChainSummary summary;
  for (size_t cut = 1; cut < original.size(); ++cut) {
    WriteFileBytes(Bytes(original.begin(), original.begin() + cut));
    if (std::find(boundaries.begin(), boundaries.end(), cut) != boundaries.end()) {
      ASSERT_TRUE(VerifyAuditFile(path_, &summary).ok());
      EXPECT_NE(summary.head, full.head) << "boundary cut kept the head";
      EXPECT_LT(summary.records, full.records);
    } else {
      EXPECT_FALSE(VerifyAuditFile(path_, &summary).ok()) << "cut at " << cut;
    }
  }
  // Trailing garbage is corruption too, not slack.
  Bytes extended = original;
  extended.push_back(0xEE);
  WriteFileBytes(extended);
  EXPECT_FALSE(VerifyAuditFile(path_, &summary).ok());
}

TEST_F(AuditTest, ReopenResumesTheChain) {
  {
    AuditLog log;
    ASSERT_TRUE(log.Open(path_).ok());
    ASSERT_TRUE(log.Append(AuditType::kTamperInject, "mode=bitflip").ok());
  }
  {
    AuditLog log;
    ASSERT_TRUE(log.Open(path_).ok());  // verifies, resumes, appends kStart
    ASSERT_TRUE(log.Append(AuditType::kSloBreach, "stage.p99 over").ok());
  }
  AuditChainSummary summary;
  std::vector<AuditRecord> records;
  ASSERT_TRUE(VerifyAuditFile(path_, &summary, &records).ok());
  ASSERT_EQ(summary.records, 4u);  // start, tamper, start, breach
  EXPECT_EQ(records[2].type, AuditType::kStart);
  EXPECT_EQ(records[3].type, AuditType::kSloBreach);
  EXPECT_EQ(records[3].seq, 3u);

  // A tampered chain refuses to open: the daemon must not extend it.
  Bytes broken = FileBytes();
  broken[broken.size() / 2] ^= 0x80;
  WriteFileBytes(broken);
  AuditLog log;
  EXPECT_FALSE(log.Open(path_).ok());
}

TEST_F(AuditTest, GlobalSinkCountsEvents) {
  AuditLog log;
  ASSERT_TRUE(log.Open(path_).ok());
  InstallAuditLog(&log);
  const uint64_t before = log.records_written();
  AuditEvent(AuditType::kEpochFenceReject, "epoch 4 < 7");
  EXPECT_EQ(log.records_written(), before + 1);
  InstallAuditLog(nullptr);
  AuditEvent(AuditType::kEpochFenceReject, "after uninstall");  // must not crash
  EXPECT_EQ(log.records_written(), before + 1);
}

// ----------------------------------------------------------------- watchdog

namespace {

MetricsSnapshot WatchdogSample(uint64_t stage_ns, uint64_t violations) {
  MetricsSnapshot snap;
  Histogram h;
  for (int i = 0; i < 1000; ++i) {
    h.Record(stage_ns);
  }
  snap.SetHistogram("stage.mac_batch", h.Data());
  snap.SetCounter("heal.violations_detected", violations);
  snap.SetGauge("repl.backlog_entries", 10);
  return snap;
}

}  // namespace

TEST(WatchdogTest, FirstCallBaselinesThenDeltasBreach) {
  SloThresholds t;
  t.stage_p99_ns = 1'000'000;  // 1ms
  SloWatchdog dog(t);
  // Baseline: a horrid p99 in the first snapshot must NOT breach (no delta).
  EXPECT_TRUE(dog.Evaluate(WatchdogSample(50'000'000, 0)).empty());
  // Steady state below threshold: no breach.
  EXPECT_TRUE(dog.Evaluate(WatchdogSample(50'000'000, 0)).empty());
  // New interval full of 80ms samples: stage p99 breach.
  MetricsSnapshot bad = WatchdogSample(50'000'000, 0);
  Histogram h;
  for (int i = 0; i < 4000; ++i) {
    h.Record(80'000'000);
  }
  bad.SetHistogram("stage.mac_batch", h.Data());
  const std::vector<SloBreach> breaches = dog.Evaluate(bad);
#if !SHIELD_OBS_ENABLED
  EXPECT_TRUE(breaches.empty());  // the samples were never recorded
  return;
#endif
  ASSERT_FALSE(breaches.empty());
  EXPECT_EQ(breaches[0].metric, "stage.mac_batch.p99");
  EXPECT_GT(breaches[0].observed, t.stage_p99_ns);
}

TEST(WatchdogTest, ScrubViolationsAndBacklogBreach) {
  SloThresholds t;
  SloWatchdog dog(t);
  EXPECT_TRUE(dog.Evaluate(WatchdogSample(1000, 5)).empty());  // baseline
  // One new violation in the interval breaches (threshold 1).
  std::vector<SloBreach> breaches = dog.Evaluate(WatchdogSample(1000, 6));
  ASSERT_EQ(breaches.size(), 1u);
  EXPECT_EQ(breaches[0].metric, "heal.violations_detected");

  // Backlog is point-in-time: exceeding it breaches immediately.
  MetricsSnapshot lagging = WatchdogSample(1000, 6);
  lagging.SetGauge("repl.backlog_entries", t.repl_backlog_entries + 1);
  breaches = dog.Evaluate(lagging);
  ASSERT_EQ(breaches.size(), 1u);
  EXPECT_EQ(breaches[0].metric, "repl.backlog_entries");
}

}  // namespace
}  // namespace shield::obs
