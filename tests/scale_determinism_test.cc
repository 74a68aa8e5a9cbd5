// Large-shape determinism smoke: the 100-cub control plane, run twice from
// one seed, must be bit-for-bit reproducible.
//
// The zero-allocation work recycles hash-map nodes (schedule-view buckets,
// seen-instance entries) and pre-mints bucket stashes at construction; any of
// those could silently perturb hash-map iteration order — and with it event
// order, metrics, and traces — while every small-shape golden still passed.
// This smoke runs the big shape the scale sweep measures and compares every
// observable dump byte-for-byte: the time-series CSV/JSON, the Chrome trace
// (with spliced counter tracks), aggregate protocol counters, per-cub control
// traffic, and the event count itself. Wall-clock never enters any of them,
// so equality is exact or the run is nondeterministic.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "src/audit/auditor.h"
#include "src/client/testbed.h"
#include "src/core/system.h"
#include "src/net/network.h"

namespace tiger {
namespace {

constexpr int kCubs = 100;
constexpr double kLoad = 0.5;
// Past the ~20s seen-instance retention horizon, so eviction, node recycling
// and re-admission — the machinery most likely to disturb iteration order —
// all run inside the compared window.
constexpr Duration kRunFor = Duration::Seconds(24);

struct RunDump {
  uint64_t events = 0;
  std::string timeseries_csv;
  std::string timeseries_json;
  std::string chrome_trace;
  std::string control_bps;  // One formatted line per sampled cub.
  Cub::Counters counters;
};

RunDump RunOnce(uint64_t seed) {
  TigerConfig config;
  config.shape.num_cubs = kCubs;
  config.simulate_data_plane = false;
  TigerSystem system(config, seed);
  system.EnableTimeSeries(Duration::Seconds(1));
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

  RunDump dump;
  dump.events = system.processed_events();
  dump.timeseries_csv = system.timeseries()->Csv();
  dump.timeseries_json = system.timeseries()->Json();
  dump.chrome_trace = system.tracer()->ChromeJson(system.timeseries()->ChromeCounterEvents());
  dump.counters = system.TotalCubCounters();
  for (int c = 0; c < kCubs; c += 9) {
    char line[64];
    std::snprintf(line, sizeof(line), "cub %d: %.6f bps\n", c,
                  system.CubControlTrafficBps(CubId(static_cast<uint32_t>(c)),
                                              TimePoint::Zero(), system.sim().Now()));
    dump.control_bps += line;
  }
  return dump;
}

TEST(ScaleDeterminismTest, SameSeedTwiceIsByteIdenticalAt100Cubs) {
  RunDump a = RunOnce(11);
  RunDump b = RunOnce(11);
  // A third run from a different seed guards against the dumps being
  // degenerate constants, which would make the equalities below vacuous.
  RunDump c = RunOnce(12);
  EXPECT_NE(a.chrome_trace, c.chrome_trace);

  EXPECT_GT(a.events, 100000u) << "shape unexpectedly idle";
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.timeseries_csv, b.timeseries_csv);
  EXPECT_EQ(a.timeseries_json, b.timeseries_json);
  EXPECT_EQ(a.chrome_trace, b.chrome_trace);
  EXPECT_EQ(a.control_bps, b.control_bps);
  EXPECT_EQ(a.counters.records_received, b.counters.records_received);
  EXPECT_EQ(a.counters.records_new, b.counters.records_new);
  EXPECT_EQ(a.counters.records_duplicate, b.counters.records_duplicate);
  EXPECT_EQ(a.counters.blocks_sent, b.counters.blocks_sent);
  EXPECT_EQ(a.counters.inserts, b.counters.inserts);

  // The ring is actually doing schedule management, not idling: forwarding
  // traffic flows and the view accepts records throughout.
  EXPECT_GT(a.counters.records_new, 0);
  EXPECT_NE(a.control_bps.find("cub 0:"), std::string::npos);
}

// --- sharded engine (DESIGN.md §6h) -----------------------------------------
//
// The parallel engine's contract is stronger than same-seed reproducibility:
// for a fixed shard count, every observable dump must be byte-identical
// across *thread counts*. This sweep runs the 100-cub shape on 8 shards with
// 1 worker thread and again with 4, under full instrumentation (time series,
// tracing, the auditor's hooks), and compares the
// time-series CSV, the merged trace text dump, the folded metrics, the
// auditor's divergence report and the event count byte-for-byte.

constexpr Duration kShardedRunFor = Duration::Seconds(12);

struct ShardedDump {
  uint64_t events = 0;
  uint64_t clamped_posts = 0;
  std::string timeseries_csv;
  std::string trace_text;
  std::string audit_report;
  std::string fault_log;
  std::string qos_summary;
  Cub::Counters counters;
};

ShardedDump RunShardedOnce(uint64_t seed, int shards, int threads,
                           bool profiled = false) {
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
  system.RunUntil(TimePoint::Zero() + kShardedRunFor);

  ShardedDump dump;
  dump.events = system.processed_events();
  dump.clamped_posts = system.engine() != nullptr ? system.engine()->clamped_posts() : 0;
  dump.timeseries_csv = system.timeseries()->Csv();
  dump.trace_text = system.TraceTextDump();
  dump.audit_report = auditor.ReportJson();
  dump.fault_log = system.fault_stats().EventLog();
  dump.qos_summary = system.qos_ledger().SummaryText();
  dump.counters = system.TotalCubCounters();
  return dump;
}

TEST(ScaleDeterminismTest, ShardedOutputIsThreadCountInvariantAt100Cubs) {
  ShardedDump one = RunShardedOnce(11, /*shards=*/8, /*threads=*/1);
  ShardedDump four = RunShardedOnce(11, /*shards=*/8, /*threads=*/4);
  // A different seed guards against the dumps being degenerate constants.
  ShardedDump other = RunShardedOnce(12, /*shards=*/8, /*threads=*/4);
  EXPECT_NE(one.trace_text, other.trace_text);

  EXPECT_GT(one.events, 50000u) << "shape unexpectedly idle";
  EXPECT_EQ(one.events, four.events);
  // The lookahead contract held: no cross-shard post ever needed clamping.
  EXPECT_EQ(one.clamped_posts, 0u);
  EXPECT_EQ(four.clamped_posts, 0u);
  EXPECT_EQ(one.timeseries_csv, four.timeseries_csv);
  EXPECT_EQ(one.trace_text, four.trace_text);
  EXPECT_EQ(one.audit_report, four.audit_report);
  EXPECT_EQ(one.fault_log, four.fault_log);
  EXPECT_EQ(one.qos_summary, four.qos_summary);
  EXPECT_EQ(one.counters.records_received, four.counters.records_received);
  EXPECT_EQ(one.counters.records_new, four.counters.records_new);
  EXPECT_EQ(one.counters.blocks_sent, four.counters.blocks_sent);
  EXPECT_EQ(one.counters.inserts, four.counters.inserts);

  // Actually exercising the ring, not idling.
  EXPECT_GT(one.counters.records_new, 0);
  EXPECT_NE(one.trace_text.find("cub"), std::string::npos);
}

// The self-profiler's contract (DESIGN.md §6i): enabling it has zero effect
// on logical execution. Every observable dump from a profiled run must be
// byte-identical to the unprofiled run above — same seed, same shard count,
// same thread count, full instrumentation.
TEST(ScaleDeterminismTest, ProfiledShardedRunIsByteIdenticalToUnprofiled) {
  ShardedDump plain = RunShardedOnce(11, /*shards=*/8, /*threads=*/4);
  ShardedDump prof = RunShardedOnce(11, /*shards=*/8, /*threads=*/4,
                                    /*profiled=*/true);

  EXPECT_GT(plain.events, 50000u) << "shape unexpectedly idle";
  EXPECT_EQ(plain.events, prof.events);
  EXPECT_EQ(plain.clamped_posts, prof.clamped_posts);
  EXPECT_EQ(plain.timeseries_csv, prof.timeseries_csv);
  EXPECT_EQ(plain.trace_text, prof.trace_text);
  EXPECT_EQ(plain.audit_report, prof.audit_report);
  EXPECT_EQ(plain.fault_log, prof.fault_log);
  EXPECT_EQ(plain.qos_summary, prof.qos_summary);
  EXPECT_EQ(plain.counters.records_received, prof.counters.records_received);
  EXPECT_EQ(plain.counters.records_new, prof.counters.records_new);
  EXPECT_EQ(plain.counters.blocks_sent, prof.counters.blocks_sent);
  EXPECT_EQ(plain.counters.inserts, prof.counters.inserts);
}

// --- observers never perturb the run ----------------------------------------
//
// Every observer — auditor, invariant checker, time-series sampler, flight
// recorder, SLO monitor — polls from an engine barrier task and writes only
// through the journal, so attaching all of them must leave the protocol run
// untouched: the same events, cub counters and client-observed QoS, at one
// shard and at four. The scenario carries a data plane, looping viewers, a
// cub power cut with revive, and one corrupted viewer-state forward, so
// takeovers, mirror service, rejoin and the auditor's divergence path all run
// under observation.
//
// The auditor's verdict rests on its hooks and the views' landing logs alone,
// so an auditor-only run without tracing must report byte-for-byte what the
// fully observed, traced run reports.

enum class Observers { kNone, kAuditorOnly, kAll };

struct ProtocolOutcome {
  uint64_t events = 0;
  Cub::Counters counters;
  QosLedger::Rollup qos;
  int64_t divergences = 0;
  std::string audit_report;
};

ProtocolOutcome RunObservedScenario(int shards, Observers observers) {
  TigerConfig config;
  config.shape = SystemShape{8, 2, 2};
  config.sim_shards = shards;
  Testbed testbed(config, /*seed=*/21);
  TigerSystem& system = testbed.system();
  std::unique_ptr<ScheduleAuditor> auditor;
  if (observers == Observers::kAll) {
    system.EnableInvariantChecker();
    system.EnableTimeSeries(Duration::Seconds(1));
    system.EnableFlightRecorder();
    SloMonitor::Options slo;
    slo.max_incidents = 0;  // Evaluate and count breaches; write no bundles.
    system.EnableSloMonitor(slo);
  }
  if (observers != Observers::kNone) {
    auditor = std::make_unique<ScheduleAuditor>(&system.sim(), &system.config());
    auditor->Attach(&system);
  }
  testbed.AddContent(8, Duration::Seconds(120));
  testbed.Start();
  if (auditor != nullptr) {
    auditor->Start();
  }
  testbed.AddLoopingViewers(48, Duration::Seconds(4));
  system.FailCubAt(TimePoint::Zero() + Duration::Seconds(12), CubId(3));
  system.ReviveCubAt(TimePoint::Zero() + Duration::Seconds(30), CubId(3));
  testbed.RunUntil(TimePoint::Zero() + Duration::Seconds(8));
  system.cub(CubId(1)).InjectAuditCorruption();
  testbed.RunUntil(TimePoint::Zero() + Duration::Seconds(60));

  // Only the flight recorder turns tracing on.
  EXPECT_EQ(system.tracer() != nullptr, observers == Observers::kAll);
  ProtocolOutcome out;
  out.events = system.processed_events();
  out.counters = system.TotalCubCounters();
  out.qos = system.qos_ledger().FleetRollup();
  if (auditor != nullptr) {
    out.divergences = auditor->total_divergences();
    out.audit_report = auditor->ReportJson();
  }
  return out;
}

TEST(ScaleDeterminismTest, ObserversNeverPerturbTheRun) {
  for (const int shards : {1, 4}) {
    SCOPED_TRACE("sim_shards=" + std::to_string(shards));
    const ProtocolOutcome bare = RunObservedScenario(shards, Observers::kNone);
    const ProtocolOutcome seen = RunObservedScenario(shards, Observers::kAll);
    const ProtocolOutcome audited = RunObservedScenario(shards, Observers::kAuditorOnly);

    // The scenario exercises what the observers watch.
    EXPECT_GT(bare.counters.takeovers, 0);
    EXPECT_GT(bare.counters.rejoins, 0);
    EXPECT_GT(bare.qos.blocks, 1000);
    EXPECT_GT(bare.qos.late + bare.qos.lost, 0) << "the power cut must cost some blocks";
    EXPECT_GT(seen.divergences, 0) << "the corrupted forward must be caught";

    // Tracing plays no part in the audit.
    EXPECT_EQ(seen.audit_report, audited.audit_report);
    EXPECT_EQ(bare.events, audited.events);

    EXPECT_EQ(bare.events, seen.events);
    const Cub::Counters& a = bare.counters;
    const Cub::Counters& b = seen.counters;
    EXPECT_EQ(a.records_received, b.records_received);
    EXPECT_EQ(a.records_new, b.records_new);
    EXPECT_EQ(a.records_duplicate, b.records_duplicate);
    EXPECT_EQ(a.records_killed_by_deschedule, b.records_killed_by_deschedule);
    EXPECT_EQ(a.records_too_late, b.records_too_late);
    EXPECT_EQ(a.records_conflict, b.records_conflict);
    EXPECT_EQ(a.blocks_sent, b.blocks_sent);
    EXPECT_EQ(a.fragments_sent, b.fragments_sent);
    EXPECT_EQ(a.server_missed_blocks, b.server_missed_blocks);
    EXPECT_EQ(a.deschedules_received, b.deschedules_received);
    EXPECT_EQ(a.deschedules_applied, b.deschedules_applied);
    EXPECT_EQ(a.inserts, b.inserts);
    EXPECT_EQ(a.takeovers, b.takeovers);
    EXPECT_EQ(a.buffer_stalls, b.buffer_stalls);
    EXPECT_EQ(a.failures_detected, b.failures_detected);
    EXPECT_EQ(a.disk_read_errors, b.disk_read_errors);
    EXPECT_EQ(a.mirror_recoveries, b.mirror_recoveries);
    EXPECT_EQ(a.rejoins, b.rejoins);
    EXPECT_EQ(bare.qos.blocks, seen.qos.blocks);
    EXPECT_EQ(bare.qos.late, seen.qos.late);
    EXPECT_EQ(bare.qos.lost, seen.qos.lost);
    for (size_t c = 0; c < static_cast<size_t>(GlitchCause::kCauseCount); ++c) {
      EXPECT_EQ(bare.qos.by_cause[c], seen.qos.by_cause[c]) << "cause " << c;
    }
  }
}

}  // namespace
}  // namespace tiger
