// Unit tests for the observability layer: the FlightRecorder's window —
// a bounded read of the tracers' rings — and checkpoint ring, and the
// SloMonitor's burn-rate math, probe breaches and deterministic state
// rendering.

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/core/system.h"
#include "src/net/network.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/slo_monitor.h"
#include "src/stats/qos.h"

namespace tiger {
namespace {

TimePoint At(int64_t seconds) { return TimePoint::Zero() + Duration::Seconds(seconds); }

// Records one BLOCK_SENT instant (a = the second) at each whole second in
// [first, last] on `track`.
void InstantEachSecond(Simulator* sim, Tracer* tracer, TraceTrackId track, int64_t first,
                       int64_t last) {
  for (int64_t s = first; s <= last; ++s) {
    sim->RunUntil(At(s));
    tracer->Instant(track, TraceEventType::kBlockSent, TraceArgs{.a = s});
  }
}

FlightRecorder::Options Window(int64_t retention_s, size_t capacity) {
  FlightRecorder::Options options;
  options.retention = Duration::Seconds(retention_s);
  options.capacity = capacity;
  return options;
}

TEST(FlightRecorderTest, RetainsOnlyTheTimeWindow) {
  Simulator sim;
  Tracer tracer(&sim);
  const TraceTrackId track = tracer.RegisterTrack("cub0");
  InstantEachSecond(&sim, &tracer, track, 0, 10);
  const FlightRecorder recorder(Window(5, 100), /*num_cubs=*/2);
  // Newest is at 10s; everything before 5s falls outside the window, though
  // it still sits in the tracer's ring.
  const std::vector<TraceEvent> window = recorder.WindowEvents({&tracer});
  ASSERT_EQ(window.size(), 6u);
  EXPECT_EQ(window.front().when, At(5));
  EXPECT_EQ(window.back().when, At(10));
  EXPECT_EQ(tracer.MergedEvents().size(), 11u);
}

TEST(FlightRecorderTest, CapacityEvictsOldestEvenInsideWindow) {
  Simulator sim;
  Tracer tracer(&sim);
  const TraceTrackId track = tracer.RegisterTrack("cub0");
  InstantEachSecond(&sim, &tracer, track, 0, 9);
  const FlightRecorder recorder(Window(1000, 4), 1);
  const std::vector<TraceEvent> window = recorder.WindowEvents({&tracer});
  ASSERT_EQ(window.size(), 4u);
  EXPECT_EQ(window.front().when, At(6));
  EXPECT_EQ(window.back().when, At(9));
}

TEST(FlightRecorderTest, WindowEventsRenumbersSeqOldestFirst) {
  Simulator sim;
  Tracer tracer(&sim);
  const TraceTrackId track = tracer.RegisterTrack("cub0");
  for (int i = 0; i < 900; ++i) {
    tracer.Instant(track, TraceEventType::kBlockSent);  // All at t=0.
  }
  InstantEachSecond(&sim, &tracer, track, 10, 12);
  const FlightRecorder recorder(Window(5, 8), 1);
  const std::vector<TraceEvent> window = recorder.WindowEvents({&tracer});
  ASSERT_EQ(window.size(), 3u);
  for (size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i].args.a, 10 + static_cast<int64_t>(i));
    EXPECT_EQ(window[i].seq, i + 1);  // Tracer seq 901.., renumbered for the dump.
  }
}

TEST(FlightRecorderTest, OldSpanIsFilteredWithoutEndingTheWalk) {
  Simulator sim;
  Tracer tracer(&sim);
  const TraceTrackId track = tracer.RegisterTrack("disk0");
  tracer.Instant(track, TraceEventType::kBlockSent, TraceArgs{.a = 0});  // Ends the walk.
  sim.RunUntil(At(6));
  tracer.Instant(track, TraceEventType::kBlockSent, TraceArgs{.a = 6});
  sim.RunUntil(At(7));
  // A span recorded inside the window that started before its horizon...
  tracer.Complete(track, TraceEventType::kDiskService, At(1), Duration::Seconds(6),
                  TraceArgs{.a = 1});
  sim.RunUntil(At(8));
  // ...and one that started inside it.
  tracer.Complete(track, TraceEventType::kDiskService, At(7), Duration::Seconds(1),
                  TraceArgs{.a = 7});
  sim.RunUntil(At(10));
  tracer.Instant(track, TraceEventType::kBlockSent, TraceArgs{.a = 10});

  // Horizon at 5s: the span that starts at 1s is out, and the walk must go
  // on past it to the instant at 6s.
  const FlightRecorder recorder(Window(5, 100), 1);
  const std::vector<TraceEvent> window = recorder.WindowEvents({&tracer});
  ASSERT_EQ(window.size(), 3u);
  EXPECT_EQ(window[0].args.a, 6);
  EXPECT_EQ(window[1].args.a, 7);
  EXPECT_EQ(window[1].phase, TracePhase::kComplete);
  EXPECT_EQ(window[2].args.a, 10);
}

TEST(FlightRecorderTest, CheckpointRingReusesOldestSlot) {
  FlightRecorder::Options options;
  options.checkpoint_capacity = 2;
  FlightRecorder recorder(options, /*num_cubs=*/3);
  for (int64_t s = 1; s <= 3; ++s) {
    FlightRecorder::Checkpoint* ckpt = recorder.BeginCheckpoint(At(s));
    ASSERT_NE(ckpt, nullptr);
    ASSERT_EQ(ckpt->cubs.size(), 3u);  // Preallocated to the cub count.
    ckpt->viewers = s;
    ckpt->cubs[0].entries = static_cast<uint32_t>(s);
  }
  EXPECT_EQ(recorder.checkpoint_count(), 2u);
  const std::string text = recorder.CheckpointsText();
  // The @1s checkpoint was overwritten; @2s and @3s survive, oldest first.
  EXPECT_EQ(text.find("@1000000"), std::string::npos);
  const size_t at2 = text.find("@2000000");
  const size_t at3 = text.find("@3000000");
  ASSERT_NE(at2, std::string::npos);
  ASSERT_NE(at3, std::string::npos);
  EXPECT_LT(at2, at3);
}

TEST(FlightRecorderTest, ReusedCheckpointSlotIsZeroed) {
  FlightRecorder::Options options;
  options.checkpoint_capacity = 1;
  FlightRecorder recorder(options, 2);
  FlightRecorder::Checkpoint* first = recorder.BeginCheckpoint(At(1));
  first->viewers = 7;
  first->cubs[1].holds = 9;
  FlightRecorder::Checkpoint* second = recorder.BeginCheckpoint(At(2));
  EXPECT_EQ(second, first);  // Same slot, recycled in place.
  EXPECT_EQ(second->viewers, 0);
  EXPECT_EQ(second->cubs[1].holds, 0u);
  EXPECT_EQ(second->when, At(2));
}

// ---------------------------------------------------------------------------
// The bundle window of a running system

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// A control-plane ring of 8 cubs bootstrapped to half load, one cub cut at
// 3 s, with the flight recorder on; one bundle is dumped at 8 s.
class RecorderRun {
 public:
  static constexpr uint64_t kSeed = 5;

  RecorderRun(int shards, FlightRecorder::Options options, size_t ring_capacity,
              const std::string& tag)
      : system_(Config(shards), kSeed),
        dir_(testing::TempDir() + "/obs_window_" + tag) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    system_.EnableTracing(ring_capacity);
    system_.EnableFlightRecorder(options);
    system_.SetIncidentDir(dir_);
    const TigerConfig& config = system_.config();
    const NetAddress sink = system_.net().Attach(&sink_, "sink", config.client_nic_bps);
    const int streams = config.MaxStreams() / 2;
    const FileId file =
        system_
            .AddFile("content", config.max_stream_bps,
                     config.block_play_time * (config.shape.TotalDisks() + 600))
            .value();
    EXPECT_EQ(system_.BootstrapStreams(streams, sink, file, config.max_stream_bps), streams);
    system_.FailCubAt(At(3), CubId(2));
    system_.Start();
    system_.RunUntil(At(8));
    EXPECT_TRUE(system_.TriggerIncident("window_test"));
  }

  TigerSystem& system() { return system_; }
  std::string FlightTrace() const {
    return ReadFile(dir_ + "/incident_s" + std::to_string(kSeed) + "_0/flight_trace.txt");
  }

 private:
  static TigerConfig Config(int shards) {
    TigerConfig config;
    config.shape.num_cubs = 8;
    config.simulate_data_plane = false;
    config.sim_shards = shards;
    config.sim_threads = 1;
    return config;
  }

  TigerSystem system_;
  std::string dir_;
  SinkEndpoint sink_;
};

// What the window must be: the newest `capacity` of the merged trace's
// events within `retention` of its last one, renumbered.
std::vector<TraceEvent> ExpectedWindow(const std::vector<TraceEvent>& merged,
                                       const FlightRecorder::Options& options,
                                       size_t* in_horizon) {
  std::vector<TraceEvent> window;
  const TimePoint horizon = merged.back().when - options.retention;
  for (const TraceEvent& event : merged) {
    if (event.when >= horizon) {
      window.push_back(event);
    }
  }
  *in_horizon = window.size();
  if (window.size() > options.capacity) {
    window.erase(window.begin(),
                 window.end() - static_cast<std::ptrdiff_t>(options.capacity));
  }
  for (size_t i = 0; i < window.size(); ++i) {
    window[i].seq = i + 1;
  }
  return window;
}

TEST(FlightRecorderWindowTest, WindowIsTheCappedFilteredSuffixOfTheMergedTrace) {
  for (const int shards : {1, 4}) {
    // The first bound is set by the horizon, the second by the capacity.
    for (const size_t capacity : {size_t{65536}, size_t{700}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " capacity=" + std::to_string(capacity));
      const FlightRecorder::Options options = Window(2, capacity);
      RecorderRun run(shards, options, 32768,
                      "suffix_" + std::to_string(shards) + "_" + std::to_string(capacity));
      const std::vector<TraceEvent> merged = run.system().MergedTraceEvents();
      ASSERT_FALSE(merged.empty());
      size_t in_horizon = 0;
      const std::vector<TraceEvent> expected = ExpectedWindow(merged, options, &in_horizon);
      EXPECT_LT(in_horizon, merged.size());
      if (capacity == 700) {
        EXPECT_GT(in_horizon, capacity) << "the capacity must bind";
      } else {
        EXPECT_LT(in_horizon, capacity) << "the horizon must bind";
      }
      const uint64_t recorded = merged.size() + run.system().TraceDropped();
      EXPECT_EQ(run.FlightTrace(),
                Tracer::TextDumpOf(expected, run.system().tracer()->TrackNames(),
                                   recorded - expected.size()));
    }
  }
}

struct DumpCounts {
  uint64_t dropped = 0;
  std::vector<std::string> events;  // Event lines without their seq column.
};

DumpCounts ParseDump(const std::string& text) {
  DumpCounts counts;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# WARNING: ring buffers dropped ", 0) == 0) {
      counts.dropped = std::stoull(line.substr(32));
    } else {
      counts.events.push_back(line.substr(line.find(' ')));
    }
  }
  return counts;
}

TEST(FlightRecorderWindowTest, RingWrapInsideTheHorizonCountsAsDropped) {
  const FlightRecorder::Options options = Window(5, 65536);
  RecorderRun wide(1, options, 32768, "wrap_wide");
  RecorderRun tight(1, options, 64, "wrap_tight");
  // Tracing never changes the run, so both recorded the same events; only
  // the tight rings wrapped inside the 5 s horizon.
  const uint64_t recorded = wide.system().tracer()->recorded();
  ASSERT_EQ(tight.system().tracer()->recorded(), recorded);
  EXPECT_EQ(wide.system().TraceDropped(), 0u);
  const DumpCounts w = ParseDump(wide.FlightTrace());
  const DumpCounts t = ParseDump(tight.FlightTrace());
  EXPECT_EQ(w.dropped + w.events.size(), recorded);
  EXPECT_EQ(t.dropped + t.events.size(), recorded);
  EXPECT_LT(t.events.size(), w.events.size());
  EXPECT_GT(t.dropped, w.dropped);
  // What the tight rings still hold is shown as it is: a subsequence of the
  // full window.
  size_t next = 0;
  for (const std::string& event : t.events) {
    while (next < w.events.size() && w.events[next] != event) {
      ++next;
    }
    ASSERT_LT(next, w.events.size()) << "not in the full window: " << event;
    ++next;
  }
}

// ---------------------------------------------------------------------------
// SloMonitor

// Delivers `blocks` clean blocks (spread across `viewers`) and `glitches`
// lost blocks for viewer 0, stamped `when`.
void Feed(QosLedger* ledger, TimePoint when, int blocks, int glitches, int viewers = 4) {
  static int64_t position = 0;
  for (int b = 0; b < blocks; ++b) {
    ledger->RecordClientBlock(ViewerId(static_cast<uint32_t>(b % viewers)));
  }
  for (int g = 0; g < glitches; ++g) {
    ledger->RecordClientLost(when, ViewerId(0), position++);
  }
}

TEST(SloMonitorTest, QuietRunNeverBreaches) {
  QosLedger ledger;
  SloMonitor::Options options;
  SloMonitor monitor(&ledger, options);
  int breaches = 0;
  monitor.SetIncidentHandler([&](const std::string&) { ++breaches; });
  for (int64_t s = 1; s <= 30; ++s) {
    Feed(&ledger, At(s), /*blocks=*/100, /*glitches=*/0);
    monitor.Evaluate(At(s));
  }
  EXPECT_EQ(breaches, 0);
  EXPECT_EQ(monitor.state().breach_ticks, 0);
  EXPECT_EQ(monitor.state().burn_short, 0.0);
  EXPECT_TRUE(monitor.state().first_breach_reason.empty());
}

TEST(SloMonitorTest, FastBurnMathAndBreach) {
  QosLedger ledger;
  SloMonitor::Options options;
  options.glitch_budget = 0.01;   // 1 glitch per 100 blocks allowed.
  options.fast_burn = 10.0;       // Page at 10x: 10 glitches per 100 blocks.
  options.slow_burn = 1000.0;          // Park the slow-window rule...
  options.viewer_glitch_budget = 1e9;  // ...and the per-viewer rule.
  SloMonitor monitor(&ledger, options);
  std::vector<std::string> reasons;
  monitor.SetIncidentHandler([&](const std::string& r) { reasons.push_back(r); });
  // Warm up below the threshold, then burst well above it.
  for (int64_t s = 1; s <= 3; ++s) {
    Feed(&ledger, At(s), 100, 0);
    monitor.Evaluate(At(s));
  }
  EXPECT_TRUE(reasons.empty());
  Feed(&ledger, At(4), 100, 20);
  monitor.Evaluate(At(4));
  // Short window covers the whole run so far: 20 glitches / 400 delivered
  // blocks = 0.05 rate → 5x burn: no page yet.
  EXPECT_TRUE(reasons.empty());
  Feed(&ledger, At(5), 20, 80);
  monitor.Evaluate(At(5));
  // Now 100 glitches / 420 blocks ≈ 0.238 rate → ≈24x burn.
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0], "slo_fast_burn");
  EXPECT_GE(monitor.state().burn_short, options.fast_burn);
  EXPECT_EQ(monitor.state().first_breach_reason, "slo_fast_burn");
  EXPECT_EQ(monitor.state().first_breach_when, At(5));
}

TEST(SloMonitorTest, ProbeBreachOutranksBurn) {
  QosLedger ledger;
  SloMonitor::Options options;
  // Park the budget rules so only the probe can breach (the glitch burst
  // below would otherwise page on its own in later ticks).
  options.glitch_budget = 1e9;
  options.viewer_glitch_budget = 1e9;
  SloMonitor monitor(&ledger, options);
  int64_t violations = 0;
  monitor.AddBreachProbe("invariant_violation", [&] { return violations; });
  std::vector<std::string> reasons;
  monitor.SetIncidentHandler([&](const std::string& r) { reasons.push_back(r); });
  Feed(&ledger, At(1), 10, 10);  // Massive burn *and* a probe delta...
  violations = 3;
  monitor.Evaluate(At(1));
  // ...but the probe is the incident, not the symptom: it names the breach.
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0], "invariant_violation");
  // Flat probe afterwards: no re-breach from the same counter value.
  monitor.Evaluate(At(2));
  monitor.Evaluate(At(3));
  EXPECT_EQ(monitor.state().breach_ticks, 1);
}

TEST(SloMonitorTest, ProbeBaselineSnapshotAtRegistration) {
  QosLedger ledger;
  SloMonitor monitor(&ledger, SloMonitor::Options());
  int64_t count = 42;  // Pre-existing violations must not fire the probe.
  monitor.AddBreachProbe("invariant_violation", [&] { return count; });
  int breaches = 0;
  monitor.SetIncidentHandler([&](const std::string&) { ++breaches; });
  monitor.Evaluate(At(1));
  EXPECT_EQ(breaches, 0);
  count = 43;
  monitor.Evaluate(At(2));
  EXPECT_EQ(breaches, 1);
}

TEST(SloMonitorTest, WorstViewerBudget) {
  QosLedger ledger;
  SloMonitor::Options options;
  options.glitch_budget = 1e9;  // Park the fleet rules.
  options.viewer_glitch_budget = 0.5;
  SloMonitor monitor(&ledger, options);
  std::vector<std::string> reasons;
  monitor.SetIncidentHandler([&](const std::string& r) { reasons.push_back(r); });
  // Viewer 1 is healthy; viewer 0 loses every other block.
  for (int i = 0; i < 10; ++i) {
    ledger.RecordClientBlock(ViewerId(0));
    ledger.RecordClientBlock(ViewerId(1));
  }
  for (int i = 0; i < 6; ++i) {
    ledger.RecordClientLost(At(1), ViewerId(0), i);
  }
  monitor.Evaluate(At(1));
  // Viewer 0: 6 glitches / 10 blocks = 0.6 rate → 1.2x of its 0.5 budget.
  EXPECT_EQ(monitor.state().worst_viewer, 0u);
  EXPECT_NEAR(monitor.state().worst_viewer_burn, 1.2, 1e-9);
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0], "viewer_budget_exhausted");
}

TEST(SloMonitorTest, StateJsonIsDeterministic) {
  auto run = [] {
    QosLedger ledger;
    SloMonitor monitor(&ledger, SloMonitor::Options());
    int64_t probe = 0;
    monitor.AddBreachProbe("audit_divergence", [&] { return probe; });
    for (int64_t s = 1; s <= 10; ++s) {
      Feed(&ledger, At(s), 50, s == 7 ? 5 : 0);
      monitor.Evaluate(At(s));
    }
    return monitor.StateJson();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\": \"tiger-slo-v1\""), std::string::npos);
  EXPECT_NE(a.find("\"audit_divergence\""), std::string::npos);
}

}  // namespace
}  // namespace tiger
