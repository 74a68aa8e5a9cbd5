// Continuous-telemetry tests: the bounded histogram (the registry's one
// histogram type) and its exact fold, the per-viewer QoS ledger's cause
// attribution, and the time-series sampler — including a byte-identical CSV
// golden for a seeded scenario, the same convention as trace_golden_test.
//
// Regenerating the golden after an intentional telemetry change:
//   TIGER_REGEN_GOLDEN=1 ./build/tests/telemetry_test
// then review the diff of tests/golden/timeseries_golden.csv.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/client/testbed.h"
#include "src/stats/bounded_histogram.h"
#include "src/stats/qos.h"
#include "src/sim/shard_engine.h"
#include "src/trace/timeseries.h"

namespace tiger {
namespace {

#ifndef TIGER_GOLDEN_DIR
#define TIGER_GOLDEN_DIR "tests/golden"
#endif

// ---------------------------------------------------------------------------
// BoundedHistogram
// ---------------------------------------------------------------------------

TEST(BoundedHistogramTest, ExactRunningStatistics) {
  BoundedHistogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Add(static_cast<double>(i));
  }
  EXPECT_EQ(h.count(), 1000);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 500.5);
}

TEST(BoundedHistogramTest, PercentileWithinBucketResolution) {
  BoundedHistogram h;
  for (int i = 1; i <= 10000; ++i) {
    h.Add(static_cast<double>(i));
  }
  // Log buckets at 8/decade have edges a factor of 10^(1/8) ~ 1.33 apart;
  // the interpolated estimate must land within one bucket of the truth.
  const double p50 = h.Percentile(50);
  EXPECT_GT(p50, 5000.0 / 1.34);
  EXPECT_LT(p50, 5000.0 * 1.34);
  const double p99 = h.Percentile(99);
  EXPECT_GT(p99, 9900.0 / 1.34);
  EXPECT_LT(p99, 9900.0 * 1.34);
  // Rank extremes are exact.
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 10000.0);

  // Per-disk busy fractions (disk.busy_fraction): values in [0, 1], idle
  // disks at exactly 0 in the underflow bucket.
  BoundedHistogram busy;
  for (int i = 0; i < 100; ++i) {
    busy.Add(0.0);
  }
  for (int i = 1; i <= 900; ++i) {
    busy.Add(static_cast<double>(i) / 900.0);
  }
  EXPECT_DOUBLE_EQ(busy.Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(busy.Percentile(5), 0.0);  // Inside the idle tenth.
  EXPECT_DOUBLE_EQ(busy.Percentile(100), 1.0);
  // True p50 of the fill is 400/900, p95 is 850/900.
  const double busy_p50 = busy.Percentile(50);
  EXPECT_GT(busy_p50, 400.0 / 900.0 / 1.34);
  EXPECT_LT(busy_p50, 400.0 / 900.0 * 1.34);
  const double busy_p95 = busy.Percentile(95);
  EXPECT_GT(busy_p95, 850.0 / 900.0 / 1.34);
  EXPECT_LE(busy_p95, 1.0);
}

TEST(BoundedHistogramTest, UnderflowAndOverflowAreCaptured) {
  BoundedHistogram::Options options;
  options.min_value = 1.0;
  options.max_value = 100.0;
  BoundedHistogram h(options);
  h.Add(-5.0);   // underflow (negative)
  h.Add(0.0);    // underflow
  h.Add(10.0);   // log bucket
  h.Add(1e9);    // overflow
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  int64_t total = 0;
  for (int64_t b : h.buckets()) {
    total += b;
  }
  EXPECT_EQ(total, 4);
  // Percentiles stay inside the observed range even for unbounded buckets.
  EXPECT_GE(h.Percentile(1), -5.0);
  EXPECT_LE(h.Percentile(99), 1e9);
}

TEST(BoundedHistogramTest, MemoryIsFixed) {
  BoundedHistogram h;
  const size_t buckets_before = h.bucket_count();
  for (int i = 0; i < 200000; ++i) {
    h.Add(static_cast<double>(i % 977) + 0.5);
  }
  EXPECT_EQ(h.bucket_count(), buckets_before);
  EXPECT_EQ(h.count(), 200000);
}

void ExpectSameHistogram(const BoundedHistogram& a, const BoundedHistogram& b) {
  EXPECT_EQ(a.buckets(), b.buckets());
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.Percentile(50), b.Percentile(50));
  EXPECT_EQ(a.Percentile(95), b.Percentile(95));
  EXPECT_EQ(a.Percentile(99), b.Percentile(99));
}

TEST(BoundedHistogramTest, MergeEqualsOneFill) {
  // TigerSystem folds each shard's registry into a reset target at every
  // snapshot; the fold must equal one histogram fed every sample.
  BoundedHistogram all;
  BoundedHistogram part_a;
  BoundedHistogram part_b;
  for (int i = 0; i < 5000; ++i) {
    const double v = static_cast<double>((i * 2654435761u) % 100003) / 7.0;
    all.Add(v);
    (i % 3 == 0 ? part_a : part_b).Add(v);
  }
  all.Add(0.0);  // Underflow.
  part_b.Add(0.0);
  all.Add(1e9);  // Overflow.
  part_a.Add(1e9);

  BoundedHistogram target;
  target.Add(42.0);  // Stale contents from an earlier snapshot.
  target.Reset();
  target.MergeFrom(part_a);
  target.MergeFrom(part_b);
  ExpectSameHistogram(target, all);

  // One donor into a reset target is an exact copy: a one-shard run's fold.
  BoundedHistogram single;
  single.Add(3.0);
  single.Reset();
  single.MergeFrom(part_a);
  ExpectSameHistogram(single, part_a);
  EXPECT_EQ(single.Summary(), part_a.Summary());
}

// ---------------------------------------------------------------------------
// QosLedger
// ---------------------------------------------------------------------------

TEST(QosLedgerTest, ClientGlitchConsumesServerAnnotation) {
  QosLedger ledger;
  const ViewerId v(7);
  ledger.AnnotateServerCause(TimePoint::FromMicros(1000), v, 42,
                             GlitchCause::kPrimaryDiskOverload, /*cub=*/3);
  EXPECT_EQ(ledger.pending_annotations(), 1u);
  ledger.RecordClientLate(TimePoint::FromMicros(2000), v, 42);
  EXPECT_EQ(ledger.pending_annotations(), 0u);
  ASSERT_EQ(ledger.glitches().size(), 1u);
  EXPECT_EQ(ledger.glitches().front().cause, GlitchCause::kPrimaryDiskOverload);
  EXPECT_EQ(ledger.glitches().front().kind, GlitchKind::kLate);
  EXPECT_EQ(ledger.GlitchesByCause(GlitchCause::kPrimaryDiskOverload), 1);
}

TEST(QosLedgerTest, FirstAnnotationWins) {
  QosLedger ledger;
  const ViewerId v(1);
  ledger.AnnotateServerCause(TimePoint::FromMicros(1), v, 5, GlitchCause::kMirrorFallback, 0);
  ledger.AnnotateServerCause(TimePoint::FromMicros(2), v, 5, GlitchCause::kDroppedControl, 1);
  ledger.RecordClientLost(TimePoint::FromMicros(9), v, 5);
  ASSERT_EQ(ledger.glitches().size(), 1u);
  EXPECT_EQ(ledger.glitches().front().cause, GlitchCause::kMirrorFallback)
      << "the root cause must not be repainted by downstream annotations";
  // Both annotations are still counted as made.
  EXPECT_EQ(ledger.AnnotationsByCause(GlitchCause::kMirrorFallback), 1);
  EXPECT_EQ(ledger.AnnotationsByCause(GlitchCause::kDroppedControl), 1);
}

TEST(QosLedgerTest, UnannotatedGlitchFallsIntoFailureWindow) {
  QosLedger ledger;
  ledger.RecordClientLost(TimePoint::FromMicros(5), ViewerId(2), 11);
  ASSERT_EQ(ledger.glitches().size(), 1u);
  EXPECT_EQ(ledger.glitches().front().cause, GlitchCause::kFailureWindow);
}

TEST(QosLedgerTest, PerViewerRollupAndRates) {
  QosLedger ledger;
  const ViewerId a(1);
  const ViewerId b(2);
  for (int i = 0; i < 98; ++i) {
    ledger.RecordClientBlock(a);
  }
  ledger.RecordClientBlock(b);
  ledger.RecordClientBlock(b);
  ledger.RecordClientLate(TimePoint::FromMicros(1), a, 10);
  ledger.RecordClientLost(TimePoint::FromMicros(2), a, 11);
  EXPECT_EQ(ledger.ViewerRollup(a).late, 1);
  EXPECT_EQ(ledger.ViewerRollup(a).lost, 1);
  EXPECT_EQ(ledger.ViewerRollup(b).late, 0);
  EXPECT_NEAR(ledger.ViewerRollup(a).GlitchRate(), 2.0 / 98.0, 1e-12);
  EXPECT_DOUBLE_EQ(ledger.ViewerRollup(b).GlitchRate(), 0.0);
  EXPECT_EQ(ledger.total_blocks(), 100);
  EXPECT_NEAR(ledger.FleetRollup().GlitchRate(), 2.0 / 100.0, 1e-12);
  // CSV: header plus one row per glitch, cause spelled out.
  const std::string csv = ledger.Csv();
  EXPECT_EQ(csv.compare(0, 34, "when_us,viewer,position,kind,cause"), 0);
  EXPECT_NE(csv.find("1,1,10,late,failure_window"), std::string::npos);
  EXPECT_NE(csv.find("2,1,11,lost,failure_window"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TimeSeriesSampler
// ---------------------------------------------------------------------------

TEST(TimeSeriesSamplerTest, CountersSampleAsDeltasGaugesAsValues) {
  Simulator sim;
  MetricsRegistry metrics;
  TimeSeriesSampler::Options options;
  options.interval = Duration::Seconds(1);
  TimeSeriesSampler sampler(&sim, &metrics, options);

  int64_t& sent = metrics.Counter("blocks_sent");
  double& depth = metrics.Gauge("queue_depth");
  sent = 10;
  depth = 3.0;
  sampler.SampleNow();  // delta 10 (from implicit 0)
  sent = 25;
  depth = 7.0;
  sampler.SampleNow();  // delta 15

  const std::string csv = sampler.Csv();
  std::istringstream in(csv);
  std::string header;
  std::string row1;
  std::string row2;
  std::getline(in, header);
  std::getline(in, row1);
  std::getline(in, row2);
  EXPECT_EQ(header, "time_s,blocks_sent,queue_depth");
  EXPECT_EQ(row1, "0.000000,10.000000,3.000000");
  EXPECT_EQ(row2, "0.000000,15.000000,7.000000");
}

TEST(TimeSeriesSamplerTest, HistogramQuantilesAppearOnceDataExists) {
  Simulator sim;
  MetricsRegistry metrics;
  TimeSeriesSampler sampler(&sim, &metrics);

  BoundedHistogram& lat = metrics.Hist("latency");
  sampler.SampleNow();  // empty histogram: no series yet
  EXPECT_EQ(sampler.series_count(), 0u);
  lat.Add(5.0);
  lat.Add(15.0);
  sampler.SampleNow();
  EXPECT_EQ(sampler.series_count(), 2u);  // latency.p50 and latency.p95
  const std::string csv = sampler.Csv();
  EXPECT_NE(csv.find("latency.p50"), std::string::npos);
  EXPECT_NE(csv.find("latency.p95"), std::string::npos);
  // The first row has empty cells for the late-born series.
  std::istringstream in(csv);
  std::string header;
  std::string row1;
  std::getline(in, header);
  std::getline(in, row1);
  EXPECT_EQ(row1, "0.000000,,");
}

TEST(TimeSeriesSamplerTest, EngineTaskSamplesAtCadence) {
  // TigerSystem drives the sampler from an engine periodic task; a one-shard
  // engine fires it at exactly every interval.
  ShardEngine engine({1, 1, Duration::Micros(300)});
  MetricsRegistry metrics;
  TimeSeriesSampler::Options options;
  options.interval = Duration::Millis(500);
  TimeSeriesSampler sampler(&engine.shard(0), &metrics, options);
  metrics.Counter("ticks") = 0;
  int refreshes = 0;
  sampler.SetRefreshCallback([&refreshes] { refreshes++; });
  engine.AddPeriodicTask(options.interval, [&sampler] { sampler.SampleNow(); });
  engine.RunFor(Duration::Seconds(5));
  EXPECT_EQ(sampler.tick_count(), 10u);
  EXPECT_EQ(refreshes, 10);
  std::istringstream in(sampler.Csv());
  std::string line;
  std::getline(in, line);  // header
  std::getline(in, line);
  EXPECT_EQ(line.compare(0, 9, "0.500000,"), 0) << line;
}

TEST(TimeSeriesSamplerTest, RingEvictsOldestButKeepsAlignment) {
  Simulator sim;
  MetricsRegistry metrics;
  TimeSeriesSampler::Options options;
  options.interval = Duration::Seconds(1);
  options.ring_capacity = 4;
  TimeSeriesSampler sampler(&sim, &metrics, options);
  int64_t& c = metrics.Counter("n");
  for (int i = 0; i < 10; ++i) {
    c += 1;
    sampler.SampleNow();
  }
  EXPECT_EQ(sampler.total_ticks(), 10u);
  EXPECT_EQ(sampler.tick_count(), 4u);
  const std::string csv = sampler.Csv();
  // 4 retained rows, each a delta of exactly 1.
  std::istringstream in(csv);
  std::string line;
  std::getline(in, line);  // header
  int rows = 0;
  while (std::getline(in, line)) {
    EXPECT_NE(line.find(",1.000000"), std::string::npos) << line;
    rows++;
  }
  EXPECT_EQ(rows, 4);
}

TEST(TimeSeriesSamplerTest, ChromeCounterEventsAreSpliceableFragments) {
  Simulator sim;
  MetricsRegistry metrics;
  TimeSeriesSampler sampler(&sim, &metrics);
  metrics.Counter("x") = 3;
  sampler.SampleNow();
  const std::string fragment = sampler.ChromeCounterEvents();
  EXPECT_EQ(fragment.compare(0, 2, ",\n"), 0) << "must splice after existing events";
  EXPECT_NE(fragment.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(fragment.find("\"name\":\"x\""), std::string::npos);
  EXPECT_NE(fragment.find("\"value\":3.000000"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: seeded scenario, golden CSV, Perfetto counter tracks
// ---------------------------------------------------------------------------

constexpr uint64_t kSeed = 7;

TigerConfig GoldenConfig() {
  TigerConfig config;
  config.shape = SystemShape{3, 1, 2};
  return config;
}

struct TelemetryRun {
  std::string csv;
  std::string json;
  std::string chrome_trace;
  size_t series = 0;
  int64_t qos_late = 0;
  int64_t qos_lost = 0;
};

// Same scenario family as trace_golden_test: three cubs, two viewers, one
// disk-error burst — plus the 1 Hz sampler this test is about.
TelemetryRun RunTelemetryScenario() {
  Testbed testbed(GoldenConfig(), kSeed);
  TigerSystem& system = testbed.system();
  system.EnableTimeSeries(Duration::Seconds(1));

  testbed.AddContent(3, Duration::Seconds(20));
  testbed.Start();
  testbed.AddViewer(FileId(0));
  testbed.AddViewer(FileId(1));
  system.InjectDiskErrorBurst(DiskId(1), TimePoint::Zero() + Duration::Seconds(6),
                              TimePoint::Zero() + Duration::Seconds(9), 0.9);
  testbed.RunFor(Duration::Seconds(16));

  TelemetryRun run;
  run.csv = system.timeseries()->Csv();
  run.json = system.timeseries()->Json();
  run.chrome_trace = system.tracer()->ChromeJson(system.timeseries()->ChromeCounterEvents());
  run.series = system.timeseries()->series_count();
  run.qos_late = system.qos_ledger().total_late();
  run.qos_lost = system.qos_ledger().total_lost();
  return run;
}

TEST(TelemetryGoldenTest, SameSeedProducesByteIdenticalCsv) {
  TelemetryRun a = RunTelemetryScenario();
  TelemetryRun b = RunTelemetryScenario();
  EXPECT_GE(a.series, 3u);
  EXPECT_EQ(a.csv, b.csv);
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.chrome_trace, b.chrome_trace);
}

TEST(TelemetryGoldenTest, CsvMatchesCheckedInGolden) {
  const std::string golden_path = std::string(TIGER_GOLDEN_DIR) + "/timeseries_golden.csv";
  TelemetryRun run = RunTelemetryScenario();

  if (std::getenv("TIGER_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << golden_path;
    out << run.csv;
    GTEST_SKIP() << "regenerated " << golden_path;
  }

  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in) << "missing " << golden_path
                  << " — run TIGER_REGEN_GOLDEN=1 ./build/tests/telemetry_test";
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(run.csv, buf.str())
      << "timeseries CSV diverged from the golden; if intentional, regenerate "
         "with TIGER_REGEN_GOLDEN=1 and review the diff";
}

TEST(TelemetryGoldenTest, ChromeTraceCarriesCounterTracks) {
  TelemetryRun run = RunTelemetryScenario();
  EXPECT_NE(run.chrome_trace.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(run.chrome_trace.find("\"name\":\"qos.client_blocks_complete_count\""),
            std::string::npos);
  // Still one valid JSON document: the fragment splices inside the array.
  EXPECT_EQ(run.chrome_trace.compare(0, 1, "{"), 0);
  EXPECT_EQ(run.chrome_trace.substr(run.chrome_trace.size() - 3), "]}\n")
      << "event array must close after the spliced counters";
}

}  // namespace
}  // namespace tiger
