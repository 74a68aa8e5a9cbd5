// Chaos harness: one seeded scenario combining message delay/duplication, a
// transient disk-error burst, a limping disk, and a cub crash-restart —
// replayed under the schedule invariant checker.
//
// What it proves:
//  * the §4 coherence invariants hold through every injected fault;
//  * losses stay inside the analyzable windows (deadman detection + the
//    blocks that died with the crashed copies), never open-ended;
//  * a revived cub rejoins the distributed schedule and serves new viewers;
//  * the whole run is deterministic: one seed fixes the exact fault sequence.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/audit/auditor.h"
#include "src/client/testbed.h"
#include "src/frontier/runner.h"
#include "src/frontier/scenario.h"

namespace tiger {
namespace {

TigerConfig ChaosConfig() {
  TigerConfig config;
  config.shape = SystemShape{8, 1, 2};
  return config;
}

struct ChaosOutcome {
  std::string event_log;
  int64_t invariant_violations = 0;
  int64_t landings_checked = 0;
  int64_t slot_conflicts = 0;
  ViewerClient::Stats totals;
  Cub::Counters counters;
  int64_t delayed = 0;
  int64_t duplicated = 0;
  int64_t disk_errors = 0;
  int64_t limped = 0;
  int64_t rejoin_events = 0;
  // The viewer started after the revive, on a file whose start disk belongs
  // to the revived cub.
  int64_t late_plays_started = 0;
  int64_t late_inserts_at_revived_cub = 0;
  double late_startup_seconds = 0.0;
  // --- QoS ledger (src/stats/qos.h) ---
  QosLedger::Rollup qos_fleet;
  int64_t qos_glitches_retained = 0;
  int64_t qos_failure_window_glitches = 0;
  int64_t qos_mirror_annotations = 0;
  int64_t qos_overload_annotations = 0;
  // --- time-series sampler ---
  size_t ts_series = 0;
  size_t ts_ticks = 0;
  std::string ts_csv;
  // --- schedule auditor (shadow global schedule) ---
  int64_t audit_divergences = 0;
  int64_t audit_chains = 0;
  int64_t audit_rescued = 0;
  int64_t audit_checks = 0;
  int64_t audit_by_class[static_cast<size_t>(
      ScheduleAuditor::DivergenceClass::kClassCount)] = {};
  std::string audit_report;
};

ChaosOutcome RunChaosScenario(uint64_t seed, bool print_summary) {
  Testbed testbed(ChaosConfig(), seed);
  TigerSystem& system = testbed.system();
  system.EnableInvariantChecker();
  system.EnableNetFaultPlan();
  system.EnableTracing();
  // Continuous telemetry: one metrics snapshot per simulated second, exported
  // below as CSV next to the trace when CI collects artifacts.
  system.EnableTimeSeries(Duration::Seconds(1));
  // The shadow-schedule auditor rides along on every chaos run: lineage
  // evidence in, divergence report out (uploaded as a CI artifact on failure).
  ScheduleAuditor auditor(&system.sim(), &system.config());
  auditor.Attach(&system);

  const TimePoint t0 = TimePoint::Zero();
  // Delay and duplicate cub-originated control messages for overlapping
  // windows. Sources are restricted to cubs so a duplicated ClientRequest
  // cannot make the controller create a second play instance — that would be
  // a client-retry semantic this scenario does not model.
  NetFaultPlan* plan = system.net_fault_plan();
  for (int c = 0; c < system.cub_count(); ++c) {
    NetFaultPlan::Rule delay;
    delay.kind = NetFaultPlan::RuleKind::kDelay;
    delay.src = system.cub(CubId(static_cast<uint32_t>(c))).address();
    delay.start = t0 + Duration::Seconds(10);
    delay.end = t0 + Duration::Seconds(25);
    delay.probability = 0.3;
    delay.delay = Duration::Millis(40);
    plan->AddRule(delay);

    NetFaultPlan::Rule dup;
    dup.kind = NetFaultPlan::RuleKind::kDuplicate;
    dup.src = delay.src;
    dup.start = t0 + Duration::Seconds(12);
    dup.end = t0 + Duration::Seconds(30);
    dup.probability = 0.2;
    dup.copies = 1;
    plan->AddRule(dup);
  }

  // Files 0..7 start on disks 0..7 (round-robin); with one disk per cub,
  // file 4 starts on the disk of cub 4 — the cub this scenario crashes.
  testbed.AddContent(8, Duration::Seconds(60));
  testbed.Start();
  auditor.Start();
  for (int i = 0; i < 4; ++i) {
    testbed.AddViewer(FileId(static_cast<uint32_t>(i)));
  }

  // One transient-error burst: disk 2 reports media errors on most reads for
  // three seconds, then recovers. The disk never dies.
  system.InjectDiskErrorBurst(DiskId(2), t0 + Duration::Seconds(15),
                              t0 + Duration::Seconds(18), 0.6);
  // Disk 5 limps at half throughput for a few seconds (thermal recal).
  system.InjectDiskLimp(DiskId(5), t0 + Duration::Seconds(12), t0 + Duration::Seconds(16),
                        2, 1);
  // Cub 4 loses power at 20 s and is rebooted at 35 s — well after the
  // deadman protocol has declared it dead and takeovers have engaged.
  system.FailCubAt(t0 + Duration::Seconds(20), CubId(4));
  system.ReviveCubAt(t0 + Duration::Seconds(35), CubId(4));

  testbed.RunFor(Duration::Seconds(40));

  // The rejoined cub must serve brand-new viewers: start a play whose first
  // block lives on its disk.
  const int64_t inserts_before = system.cub(CubId(4)).counters().inserts;
  ViewerClient& late = testbed.AddViewer(FileId(4));
  testbed.RunFor(Duration::Seconds(70));

  ChaosOutcome out;
  out.event_log = system.fault_stats().EventLog();
  out.invariant_violations =
      static_cast<int64_t>(system.invariant_checker()->violations().size());
  out.landings_checked = system.invariant_checker()->landings_checked();
  out.slot_conflicts = system.invariant_checker()->conflict_count();
  out.totals = testbed.TotalClientStats();
  out.counters = system.TotalCubCounters();
  out.delayed = system.fault_stats().Count(FaultStats::Kind::kMessageDelayed);
  out.duplicated = system.fault_stats().Count(FaultStats::Kind::kMessageDuplicated);
  out.disk_errors = system.fault_stats().Count(FaultStats::Kind::kTransientDiskError);
  out.limped = system.fault_stats().Count(FaultStats::Kind::kLimpedRead);
  out.rejoin_events = system.fault_stats().Count(FaultStats::Kind::kCubRejoin);
  out.qos_fleet = system.qos_ledger().FleetRollup();
  out.qos_glitches_retained = static_cast<int64_t>(system.qos_ledger().glitches().size());
  out.qos_failure_window_glitches =
      system.qos_ledger().GlitchesByCause(GlitchCause::kFailureWindow);
  out.qos_mirror_annotations =
      system.qos_ledger().AnnotationsByCause(GlitchCause::kMirrorFallback);
  out.qos_overload_annotations =
      system.qos_ledger().AnnotationsByCause(GlitchCause::kPrimaryDiskOverload);
  out.ts_series = system.timeseries()->series_count();
  out.ts_ticks = system.timeseries()->tick_count();
  out.ts_csv = system.timeseries()->Csv();
  out.late_plays_started = late.stats().plays_started;
  out.late_inserts_at_revived_cub = system.cub(CubId(4)).counters().inserts - inserts_before;
  out.audit_divergences = auditor.total_divergences();
  out.audit_chains = auditor.chains_seen();
  out.audit_rescued = auditor.rescued_by_second_successor();
  out.audit_checks = auditor.checks_run();
  for (size_t c = 0; c < static_cast<size_t>(ScheduleAuditor::DivergenceClass::kClassCount);
       ++c) {
    out.audit_by_class[c] =
        auditor.CountFor(static_cast<ScheduleAuditor::DivergenceClass>(c));
  }
  out.audit_report = auditor.ReportJson();
  if (late.startup_latency().count() > 0) {
    out.late_startup_seconds = late.startup_latency().Mean();
  }
  if (print_summary) {
    for (const auto& violation : system.invariant_checker()->violations()) {
      ADD_FAILURE() << "invariant violated at " << violation.when << ": " << violation.what;
    }
    system.fault_stats().PrintSummary();
    system.SnapshotMetrics(t0, system.sim().Now());
    system.metrics()->PrintSummary();
    // When CI provides an artifact directory, leave the full trace and the
    // metrics snapshot behind — on failure the workflow uploads them, so a
    // flaky-looking chaos run can be opened in Perfetto instead of rerun.
    if (const char* dir = std::getenv("TIGER_ARTIFACT_DIR"); dir != nullptr) {
      EXPECT_TRUE(system.WriteChromeTrace(std::string(dir) + "/chaos_trace.json"));
      EXPECT_TRUE(system.metrics()->WriteSummary(std::string(dir) + "/chaos_metrics.txt"));
      EXPECT_TRUE(system.timeseries()->WriteCsv(std::string(dir) + "/chaos_timeseries.csv"));
      EXPECT_TRUE(system.qos_ledger().WriteCsv(std::string(dir) + "/chaos_qos.csv"));
      EXPECT_TRUE(auditor.WriteReportJson(std::string(dir) + "/divergence_report.json"));
      EXPECT_TRUE(auditor.WriteLineageCsv(std::string(dir) + "/lineage.csv"));
    }
  }
  return out;
}

// An all-healthy run (no injected faults) under the auditor: every record's
// lineage must reassemble into a coherent shadow schedule with zero
// divergence of any class.
struct HealthyAuditOutcome {
  int64_t divergences = 0;
  int64_t chains = 0;
  int64_t forwards = 0;
  int64_t checks = 0;
  std::string report;
};

HealthyAuditOutcome RunHealthyAuditScenario(uint64_t seed) {
  Testbed testbed(ChaosConfig(), seed);
  TigerSystem& system = testbed.system();
  system.EnableInvariantChecker();
  ScheduleAuditor auditor(&system.sim(), &system.config());
  auditor.Attach(&system);
  testbed.AddContent(8, Duration::Seconds(45));
  testbed.Start();
  auditor.Start();
  // Seed-varied load: between 3 and 6 viewers across different files.
  const int viewers = 3 + static_cast<int>(seed % 4);
  for (int i = 0; i < viewers; ++i) {
    testbed.AddViewer(FileId(static_cast<uint32_t>((seed + i) % 8)));
  }
  testbed.RunFor(Duration::Seconds(60));

  HealthyAuditOutcome out;
  out.divergences = auditor.total_divergences();
  out.chains = auditor.chains_seen();
  out.forwards = auditor.forwards_observed();
  out.checks = auditor.checks_run();
  out.report = auditor.ReportJson();
  return out;
}

TEST(ChaosTest, SeededFaultPlanHoldsInvariantsAndBoundsGlitches) {
  ChaosOutcome out = RunChaosScenario(97, /*print_summary=*/true);

  // Every planned fault class actually fired.
  EXPECT_GT(out.delayed, 0);
  EXPECT_GT(out.duplicated, 0);
  EXPECT_GT(out.disk_errors, 0);
  EXPECT_GT(out.limped, 0);
  EXPECT_EQ(out.rejoin_events, 1);
  EXPECT_EQ(out.counters.rejoins, 1);
  EXPECT_GT(out.counters.disk_read_errors, 0);
  EXPECT_GT(out.counters.mirror_recoveries, 0)
      << "transient read errors must engage the mirror fallback";
  EXPECT_GT(out.counters.takeovers, 0) << "the crash must engage takeovers";

  // Schedule coherence held throughout.
  EXPECT_GT(out.landings_checked, 100);
  EXPECT_EQ(out.invariant_violations, 0);
  EXPECT_EQ(out.slot_conflicts, 0);
  EXPECT_EQ(out.counters.records_conflict, 0);

  // Every committed viewer was served or its loss is accounted: all five
  // plays ran to completion, and losses stay inside the detection window
  // (deadman timeout of blocks per live stream) plus the crashed copies.
  EXPECT_EQ(out.totals.plays_completed, 5);
  EXPECT_LE(out.totals.lost_blocks, 4 * 15);
  EXPECT_LE(out.totals.late_blocks, 20);

  // The revived cub rejoined the hallucination: it inserted and served a
  // brand-new viewer within a schedule revolution or two of the request.
  EXPECT_EQ(out.late_plays_started, 1);
  EXPECT_GE(out.late_inserts_at_revived_cub, 1)
      << "the start must be inserted by the revived cub itself";
  EXPECT_GT(out.late_startup_seconds, 0.0);
  EXPECT_LT(out.late_startup_seconds, 5.0);

  // --- QoS ledger: every client-observed glitch is attributed to a cause ---
  EXPECT_EQ(out.qos_fleet.blocks, out.totals.blocks_complete)
      << "ledger denominator must match the clients' own count";
  EXPECT_EQ(out.qos_fleet.late, out.totals.late_blocks);
  EXPECT_EQ(out.qos_fleet.lost, out.totals.lost_blocks);
  int64_t attributed = 0;
  for (size_t c = 0; c < static_cast<size_t>(GlitchCause::kCauseCount); ++c) {
    attributed += out.qos_fleet.by_cause[c];
  }
  EXPECT_EQ(attributed, out.qos_fleet.late + out.qos_fleet.lost)
      << "every glitch must carry exactly one cause";
  EXPECT_EQ(out.qos_glitches_retained, out.qos_fleet.late + out.qos_fleet.lost)
      << "no glitches were dropped in this scenario";
  // The injected faults show up as correctly attributed entries: the cub-4
  // crash loses blocks whose server died without annotating (failure window),
  // and the disk-error burst / limp force server-side annotations.
  EXPECT_GT(out.qos_fleet.lost, 0);
  EXPECT_GT(out.qos_failure_window_glitches, 0)
      << "crash-window losses must be attributed to the failure window";
  EXPECT_GT(out.qos_mirror_annotations, 0)
      << "the disk-error burst must annotate mirror fallbacks";

  // --- time-series sampler: continuous and exported ---
  EXPECT_GE(out.ts_series, 3u) << "counters, gauges and quantiles must all sample";
  EXPECT_GE(out.ts_ticks, 100u) << "one tick per simulated second for 110 s";
  EXPECT_EQ(out.ts_csv.compare(0, 7, "time_s,"), 0);

  // --- shadow-schedule auditor: even under faults, the evidence reassembles
  // into a coherent schedule. The crash can only produce the divergence
  // classes the paper's failure analysis predicts (records that died with
  // the crashed cub); the correctness classes stay silent.
  EXPECT_GT(out.audit_chains, 0);
  EXPECT_GT(out.audit_checks, 100);
  EXPECT_GT(out.audit_rescued, 0)
      << "the crash must exercise §4.1.1's second-successor rescue";
  using DC = ScheduleAuditor::DivergenceClass;
  for (size_t c = 0; c < static_cast<size_t>(DC::kClassCount); ++c) {
    const auto cls = static_cast<DC>(c);
    if (cls == DC::kTrulyLostRecord) {
      continue;  // Blocks that died with the crash are bounded, not zero.
    }
    EXPECT_EQ(out.audit_by_class[c], 0)
        << ScheduleAuditor::ClassName(cls) << "\n" << out.audit_report;
  }
}

TEST(ChaosTest, IdenticalSeedsProduceIdenticalFaultSequences) {
  ChaosOutcome a = RunChaosScenario(1234, /*print_summary=*/false);
  ChaosOutcome b = RunChaosScenario(1234, /*print_summary=*/false);
  EXPECT_FALSE(a.event_log.empty());
  EXPECT_EQ(a.event_log, b.event_log) << "same seed must replay the same faults";
  EXPECT_EQ(a.totals.blocks_complete, b.totals.blocks_complete);
  EXPECT_EQ(a.totals.lost_blocks, b.totals.lost_blocks);
  EXPECT_EQ(a.counters.records_received, b.counters.records_received);
  EXPECT_EQ(a.invariant_violations, 0);
  EXPECT_EQ(b.invariant_violations, 0);
  // The continuous telemetry is part of the determinism contract too.
  EXPECT_EQ(a.ts_csv, b.ts_csv) << "same seed must sample identical time series";
  EXPECT_EQ(a.qos_fleet.late, b.qos_fleet.late);
  EXPECT_EQ(a.qos_fleet.lost, b.qos_fleet.lost);
}

// Ten different all-healthy interleavings: the shadow global schedule the
// auditor reconstructs from lineage evidence must match every cub's local
// window exactly — zero divergence on every seed.
TEST(ChaosTest, AuditorTenSeedHealthySweepReportsZeroDivergence) {
  const std::vector<uint64_t> seeds = {3, 17, 42, 97, 251, 1009, 4099, 20011, 65537, 999983};
  for (uint64_t seed : seeds) {
    HealthyAuditOutcome out = RunHealthyAuditScenario(seed);
    EXPECT_EQ(out.divergences, 0) << "seed " << seed << "\n" << out.report;
    EXPECT_GT(out.chains, 0) << "seed " << seed;
    EXPECT_GT(out.forwards, 0) << "seed " << seed;
    EXPECT_GT(out.checks, 100) << "seed " << seed;
  }
}

// The single-seed test above proves one scripted run in depth; this sweep
// proves the invariants are not a property of one lucky seed. Ten different
// fault interleavings, zero violations in any of them.
TEST(ChaosTest, TenSeedSweepHoldsInvariantsOnEverySeed) {
  const std::vector<uint64_t> seeds = {3, 17, 42, 97, 251, 1009, 4099, 20011, 65537, 999983};
  int64_t total_disk_errors = 0;
  for (uint64_t seed : seeds) {
    ChaosOutcome out = RunChaosScenario(seed, /*print_summary=*/false);
    EXPECT_EQ(out.invariant_violations, 0) << "seed " << seed;
    EXPECT_EQ(out.slot_conflicts, 0) << "seed " << seed;
    EXPECT_EQ(out.counters.records_conflict, 0) << "seed " << seed;
    EXPECT_GT(out.landings_checked, 100) << "seed " << seed;
    // The crash/revive is scripted, so the rejoin fires under every seed;
    // the disk-error burst is probabilistic per read and a rare seed can
    // dodge it entirely, so that one is asserted across the sweep.
    EXPECT_EQ(out.rejoin_events, 1) << "seed " << seed;
    total_disk_errors += out.disk_errors;
  }
  EXPECT_GT(total_disk_errors, 0) << "the burst never fired on any seed";
}

// The scripted chaos scenario above, re-expressed as a serializable
// ScenarioDescriptor and run through the frontier harness: same fault mix
// (delay + duplication windows, a disk-error burst, a limping disk, a cub
// crash-restart with a post-revive viewer probe), now replayable from text
// via tools/replay_scenario like any tournament counterexample.
frontier::ScenarioDescriptor ChaosDescriptor(uint64_t seed) {
  using Kind = frontier::ScenarioAction::Kind;
  frontier::ScenarioDescriptor d;
  d.family = "chaos_seed";
  d.seed = seed;
  d.cubs = 8;
  d.disks_per_cub = 1;
  d.decluster = 2;
  d.files = 8;
  d.file_s = 60;
  d.viewers = 4;
  d.run_ms = 110000;
  d.loss_budget = 60;  // The scripted test's bound: 4 streams x 15 + late.
  d.late_viewer_file = 4;  // File 4 starts on the crashed-and-revived cub.
  d.late_viewer_at_ms = 40000;

  frontier::ScenarioAction a;
  a.kind = Kind::kDelayFromCub;
  a.target = -1;
  a.at_ms = 10000;
  a.end_ms = 25000;
  a.prob_ppm = 300000;
  a.delay_ms = 40;
  d.actions.push_back(a);

  a = {};
  a.kind = Kind::kDuplicateFromCub;
  a.target = -1;
  a.at_ms = 12000;
  a.end_ms = 30000;
  a.prob_ppm = 200000;
  a.aux = 1;
  d.actions.push_back(a);

  a = {};
  a.kind = Kind::kDiskBurst;
  a.target = 2;
  a.at_ms = 15000;
  a.end_ms = 18000;
  a.prob_ppm = 600000;
  d.actions.push_back(a);

  a = {};
  a.kind = Kind::kDiskLimp;
  a.target = 5;
  a.at_ms = 12000;
  a.end_ms = 16000;
  a.delay_ms = 2;
  a.aux = 1;
  d.actions.push_back(a);

  a = {};
  a.kind = Kind::kFailCub;
  a.target = 4;
  a.at_ms = 20000;
  d.actions.push_back(a);

  a = {};
  a.kind = Kind::kReviveCub;
  a.target = 4;
  a.at_ms = 35000;
  d.actions.push_back(a);
  return d;
}

TEST(ChaosTest, DescriptorDrivenSeedsSurviveAndStayDeterministic) {
  for (uint64_t seed : {3u, 97u, 999983u}) {
    // Round-trip through the text form first: what runs is what replays.
    auto parsed = frontier::ScenarioDescriptor::Parse(ChaosDescriptor(seed).ToText());
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    ASSERT_EQ(parsed.value(), ChaosDescriptor(seed));
    const frontier::ScenarioOutcome out = frontier::RunScenario(parsed.value());
    EXPECT_EQ(out.invariant_violations, 0) << "seed " << seed;
    EXPECT_LE(out.verdict, frontier::Verdict::kQosGlitches)
        << "seed " << seed << "\n" << frontier::OutcomeSummary(out);
    EXPECT_TRUE(out.survivable) << "seed " << seed << "\n"
                                << frontier::OutcomeSummary(out);
    EXPECT_GE(out.rejoins, 1) << "seed " << seed;
    EXPECT_GT(out.faults_fired, 0) << "seed " << seed;
    EXPECT_EQ(out.livelock_timeouts, 0) << "seed " << seed;
  }
  // Same seed, same descriptor: every counter in the outcome matches.
  const std::string once = frontier::OutcomeSummary(frontier::RunScenario(ChaosDescriptor(97)));
  const std::string twice = frontier::OutcomeSummary(frontier::RunScenario(ChaosDescriptor(97)));
  EXPECT_EQ(once, twice);
}

TEST(ChaosTest, DifferentSeedsDiverge) {
  ChaosOutcome a = RunChaosScenario(1, /*print_summary=*/false);
  ChaosOutcome b = RunChaosScenario(2, /*print_summary=*/false);
  // Both hold the invariants...
  EXPECT_EQ(a.invariant_violations, 0);
  EXPECT_EQ(b.invariant_violations, 0);
  // ...but the dice differ, so the fault sequences do too.
  EXPECT_NE(a.event_log, b.event_log);
}

}  // namespace
}  // namespace tiger
