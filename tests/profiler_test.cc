// Self-profiler tests (DESIGN.md §6i).
//
// Three layers:
//   1. ProfScope mechanics — exclusive (self) time, intrusive nesting, and
//      the no-profiler-installed fast path.
//   2. TigerConfig::AutoShardCount — the sim_shards=0 auto-tune policy.
//   3. End-to-end determinism on the 100-cub / 8-shard quick shape: the
//      "counts" document is byte-identical across same-seed runs and across
//      thread counts, attribution covers >= 95% of engine wall time, and a
//      multi-thread run reports a non-zero barrier-stall fraction.
//
// Tick *values* are machine-dependent, so the scope tests only assert
// ordering properties (child-heavy work dominates parent self time), never
// absolute durations.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/audit/auditor.h"
#include "src/core/config.h"
#include "src/core/system.h"
#include "src/net/network.h"
#include "src/trace/profiler.h"

namespace tiger {
namespace {

// --- ProfScope mechanics -----------------------------------------------------

// Burns enough work that the enclosing scope accumulates a clearly non-zero
// tick count on any host clock source.
uint64_t BurnWork() {
  volatile uint64_t x = 0;
  for (uint64_t i = 0; i < 50000; ++i) {
    x = x + i * i;
  }
  return x;
}

TEST(ProfScopeTest, CountsAndSelfTicksAreRecorded) {
  Profiler prof;
  {
    ScopedProfilerInstall install(&prof);
    {
      TIGER_PROF_SCOPE(kVStateDecode);
      BurnWork();
    }
    {
      TIGER_PROF_SCOPE(kVStateDecode);
      BurnWork();
    }
  }
  EXPECT_EQ(prof.bucket(ProfCategory::kVStateDecode).count, 2u);
  EXPECT_GT(prof.bucket(ProfCategory::kVStateDecode).self_ticks, 0u);
  EXPECT_EQ(prof.bucket(ProfCategory::kScheduleApply).count, 0u);
}

TEST(ProfScopeTest, SelfTimeExcludesNestedScopes) {
  Profiler prof;
  {
    ScopedProfilerInstall install(&prof);
    TIGER_PROF_SCOPE(kVStateDecode);  // Parent does (almost) nothing itself.
    {
      TIGER_PROF_SCOPE(kScheduleApply);  // Child does all the work.
      BurnWork();
      BurnWork();
    }
  }
  const Profiler::Bucket& parent = prof.bucket(ProfCategory::kVStateDecode);
  const Profiler::Bucket& child = prof.bucket(ProfCategory::kScheduleApply);
  EXPECT_EQ(parent.count, 1u);
  EXPECT_EQ(child.count, 1u);
  EXPECT_GT(child.self_ticks, 0u);
  // Exclusive-time contract: the parent was charged only for its own glue,
  // not the child's burn loop.
  EXPECT_LT(parent.self_ticks, child.self_ticks);
}

TEST(ProfScopeTest, ItemsScopeCountsOnePerItemReadAtExit) {
  Profiler prof;
  {
    ScopedProfilerInstall install(&prof);
    std::vector<int> batch;
    {
      TIGER_PROF_ITEMS_SCOPE(kVStateDecode, batch);
      batch.assign(5, 0);  // Filled inside the scope, like a decode buffer.
      BurnWork();
    }
    batch.clear();
    {
      TIGER_PROF_ITEMS_SCOPE(kVStateDecode, batch);  // Empty: still one.
    }
  }
  const Profiler::Bucket& decode = prof.bucket(ProfCategory::kVStateDecode);
  EXPECT_EQ(decode.count, 6u);
  // A fresh profiler times every scope, so every item is a sample and the
  // count/samples scaling of self time stays 1.
  EXPECT_EQ(decode.samples, 6u);
  EXPECT_GT(decode.self_ticks, 0u);

  // Outside an armed event the items are counted but not sampled.
  Profiler unarmed;
  unarmed.ArmTiming(false);
  {
    ScopedProfilerInstall install(&unarmed);
    const std::vector<int> batch(3, 0);
    TIGER_PROF_ITEMS_SCOPE(kVStateDecode, batch);
  }
  EXPECT_EQ(unarmed.bucket(ProfCategory::kVStateDecode).count, 3u);
  EXPECT_EQ(unarmed.bucket(ProfCategory::kVStateDecode).samples, 0u);
}

TEST(ProfScopeTest, NoProfilerInstalledRecordsNothing) {
  ASSERT_EQ(Profiler::Current(), nullptr);
  {
    TIGER_PROF_SCOPE(kTimerDispatch);
    BurnWork();
  }
  // Install one afterwards and confirm the earlier scope left no residue via
  // the intrusive stack.
  Profiler prof;
  {
    ScopedProfilerInstall install(&prof);
    TIGER_PROF_SCOPE(kTimerDispatch);
  }
  EXPECT_EQ(prof.bucket(ProfCategory::kTimerDispatch).count, 1u);
}

TEST(ProfScopeTest, ScopedInstallRestoresPrevious) {
  Profiler outer;
  Profiler inner;
  ScopedProfilerInstall a(&outer);
  EXPECT_EQ(Profiler::Current(), &outer);
  {
    ScopedProfilerInstall b(&inner);
    EXPECT_EQ(Profiler::Current(), &inner);
  }
  EXPECT_EQ(Profiler::Current(), &outer);
}

// --- AutoShardCount ----------------------------------------------------------

TEST(AutoShardCountTest, PolicyMatchesDocumentedFormula) {
  // ~12 cubs per shard, capped by hardware threads, clamped to [1, 256].
  EXPECT_EQ(TigerConfig::AutoShardCount(100, 8), 8);
  EXPECT_EQ(TigerConfig::AutoShardCount(100, 16), 8);
  EXPECT_EQ(TigerConfig::AutoShardCount(48, 16), 4);
  EXPECT_EQ(TigerConfig::AutoShardCount(12, 16), 1);
  EXPECT_EQ(TigerConfig::AutoShardCount(11, 16), 1);   // Floor at 1.
  EXPECT_EQ(TigerConfig::AutoShardCount(1, 1), 1);
  EXPECT_EQ(TigerConfig::AutoShardCount(10000, 4), 4);  // Hardware-capped.
  EXPECT_EQ(TigerConfig::AutoShardCount(10000, 1000), 256);  // Hard ceiling.
}

// --- end-to-end: the 100-cub / 8-shard quick shape ---------------------------

constexpr int kCubs = 100;
constexpr double kLoad = 0.5;
constexpr Duration kRunFor = Duration::Seconds(8);

struct ProfiledRun {
  uint64_t events = 0;
  std::string counts_json;
  std::string full_json;
  std::string timeseries_csv;
  std::string chrome_trace;
};

ProfiledRun RunShape(uint64_t seed, int shards, int threads, bool profiled) {
  TigerConfig config;
  config.shape.num_cubs = kCubs;
  config.simulate_data_plane = false;
  config.sim_shards = shards;
  config.sim_threads = threads;
  TigerSystem system(config, seed);
  system.EnableTimeSeries(Duration::Seconds(1));
  if (profiled) {
    system.EnableProfiling();
  }
  // The auditor's observer hooks count under kQosAudit, so the qos_audit
  // category has traffic to count.
  ScheduleAuditor auditor(&system.sim(), &system.config());
  auditor.Attach(&system);
  auditor.Start();
  SinkEndpoint sink;
  NetAddress sink_addr = system.net().Attach(&sink, "sink", config.client_nic_bps);
  const int streams = static_cast<int>(static_cast<double>(config.MaxStreams()) * kLoad);
  FileId file = system
                    .AddFile("content", config.max_stream_bps,
                             config.block_play_time * (config.shape.TotalDisks() + 600))
                    .value();
  EXPECT_EQ(system.BootstrapStreams(streams, sink_addr, file, config.max_stream_bps), streams);
  system.Start();
  system.RunUntil(TimePoint::Zero() + kRunFor);

  ProfiledRun run;
  run.events = system.processed_events();
  if (profiled) {
    run.counts_json = system.ProfileCountsJson();
    run.full_json = system.ProfileJson();
  }
  run.timeseries_csv = system.timeseries()->Csv();
  run.chrome_trace = system.tracer()->ChromeJson(system.timeseries()->ChromeCounterEvents());
  return run;
}

// Extracts the number following `"key":` in a rendered JSON document.
double JsonNumber(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << "missing key " << key;
  if (pos == std::string::npos) {
    return -1.0;
  }
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

TEST(ProfilerSystemTest, CountsAreSeedDeterministicAndThreadCountInvariant) {
  ProfiledRun a = RunShape(11, /*shards=*/8, /*threads=*/1, /*profiled=*/true);
  ProfiledRun b = RunShape(11, /*shards=*/8, /*threads=*/1, /*profiled=*/true);
  ProfiledRun four = RunShape(11, /*shards=*/8, /*threads=*/4, /*profiled=*/true);
  // Different seed guards against the counts document being a constant.
  ProfiledRun other = RunShape(12, /*shards=*/8, /*threads=*/4, /*profiled=*/true);

  EXPECT_GT(a.events, 10000u) << "shape unexpectedly idle";
  // Same seed, same shard count: the deterministic counts document is
  // byte-identical across runs AND across worker-thread counts.
  EXPECT_EQ(a.counts_json, b.counts_json);
  EXPECT_EQ(a.counts_json, four.counts_json);
  EXPECT_NE(a.counts_json, other.counts_json);

  // The dispatch-level categories actually fired.
  EXPECT_GT(JsonNumber(a.counts_json, "timer_dispatch"), 0.0);
  EXPECT_GT(JsonNumber(a.counts_json, "msg_hop"), 0.0);
  EXPECT_GT(JsonNumber(a.counts_json, "vstate_decode"), 0.0);
  EXPECT_GT(JsonNumber(a.counts_json, "schedule_apply"), 0.0);
  EXPECT_GT(JsonNumber(a.counts_json, "qos_audit"), 0.0);
  EXPECT_GT(JsonNumber(a.counts_json, "windows"), 0.0);
}

TEST(ProfilerSystemTest, AttributionCoversEngineWallTime) {
  ProfiledRun one = RunShape(11, /*shards=*/8, /*threads=*/1, /*profiled=*/true);
  ProfiledRun four = RunShape(11, /*shards=*/8, /*threads=*/4, /*profiled=*/true);

  // The five driver-loop intervals tile the measured span, so attribution
  // must cover >= 95% of the wall time TigerSystem spent inside Run*.
  EXPECT_GE(JsonNumber(one.full_json, "attributed_fraction"), 0.95);
  EXPECT_GE(JsonNumber(four.full_json, "attributed_fraction"), 0.95);

  // A multi-thread run observes real barrier waits.
  EXPECT_GT(JsonNumber(four.full_json, "barrier_stall_fraction"), 0.0);

  // Machine-dependent fields exist and are sane.
  EXPECT_GT(JsonNumber(four.full_json, "total_run_ns"), 0.0);
  EXPECT_GT(JsonNumber(four.full_json, "window_utilization"), 0.0);
}

TEST(ProfilerSystemTest, SerialProfilingDoesNotPerturbObservables) {
  ProfiledRun plain = RunShape(7, /*shards=*/1, /*threads=*/1, /*profiled=*/false);
  ProfiledRun prof = RunShape(7, /*shards=*/1, /*threads=*/1, /*profiled=*/true);

  EXPECT_GT(plain.events, 10000u);
  EXPECT_EQ(plain.events, prof.events);
  EXPECT_EQ(plain.timeseries_csv, prof.timeseries_csv);
  EXPECT_EQ(plain.chrome_trace, prof.chrome_trace);

  // Serial counts are deterministic too.
  ProfiledRun prof2 = RunShape(7, /*shards=*/1, /*threads=*/1, /*profiled=*/true);
  EXPECT_EQ(prof.counts_json, prof2.counts_json);
  EXPECT_GT(JsonNumber(prof.counts_json, "timer_dispatch"), 0.0);
  // A one-shard run is an engine run too: its driver intervals tile the
  // measured wall time like a sharded run's.
  EXPECT_GE(JsonNumber(prof.full_json, "attributed_fraction"), 0.95);
}

}  // namespace
}  // namespace tiger
