// Golden-trace tests: the structured tracer's text rendering of a seeded
// 3-cub scenario is byte-stable — across two runs in the same process, and
// against a checked-in golden file. Any change to protocol event ordering
// shows up as a diff here before it shows up as a subtle bench regression.
//
// Regenerating the golden after an intentional protocol change:
//   TIGER_REGEN_GOLDEN=1 ./build/tests/trace_golden_test
// then review the diff of tests/golden/trace_golden.txt like any other code.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/client/testbed.h"
#include "src/trace/trace.h"

namespace tiger {
namespace {

#ifndef TIGER_GOLDEN_DIR
#define TIGER_GOLDEN_DIR "tests/golden"
#endif

constexpr uint64_t kSeed = 7;

TigerConfig GoldenConfig() {
  TigerConfig config;
  config.shape = SystemShape{3, 1, 2};
  return config;
}

struct GoldenRun {
  std::string text;
  std::string chrome_json;
  Cub::Counters counters;
  uint64_t events_recorded = 0;
  uint64_t events_dropped = 0;
};

// The scenario: three cubs, two viewers in steady state, one transient
// disk-error burst severe enough to force at least one mirror fallback.
GoldenRun RunGoldenScenario() {
  Testbed testbed(GoldenConfig(), kSeed);
  TigerSystem& system = testbed.system();
  system.EnableTracing();

  testbed.AddContent(3, Duration::Seconds(20));
  testbed.Start();
  testbed.AddViewer(FileId(0));
  testbed.AddViewer(FileId(1));

  const TimePoint t0 = TimePoint::Zero();
  system.InjectDiskErrorBurst(DiskId(1), t0 + Duration::Seconds(6),
                              t0 + Duration::Seconds(9), 0.9);
  testbed.RunFor(Duration::Seconds(16));

  GoldenRun run;
  run.text = system.tracer()->TextDump();
  run.chrome_json = system.tracer()->ChromeJson();
  run.counters = system.TotalCubCounters();
  run.events_recorded = system.tracer()->recorded();
  run.events_dropped = system.tracer()->dropped();
  return run;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

// On mismatch, points at the first diverging line instead of dumping two
// multi-thousand-line blobs.
void ExpectSameTrace(const std::string& expected, const std::string& actual,
                     const std::string& what) {
  if (expected == actual) {
    return;
  }
  const std::vector<std::string> a = SplitLines(expected);
  const std::vector<std::string> b = SplitLines(actual);
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) {
    ++i;
  }
  ADD_FAILURE() << what << ": traces diverge at line " << (i + 1) << " of " << a.size()
                << " expected / " << b.size() << " actual\n"
                << "  expected: " << (i < a.size() ? a[i] : "<end of trace>") << "\n"
                << "  actual:   " << (i < b.size() ? b[i] : "<end of trace>") << "\n"
                << "(regen with TIGER_REGEN_GOLDEN=1 after an intentional protocol change)";
}

TEST(TraceGoldenTest, SameSeedYieldsByteIdenticalTraces) {
  GoldenRun first = RunGoldenScenario();
  GoldenRun second = RunGoldenScenario();
  ASSERT_GT(first.events_recorded, 0u);
  EXPECT_EQ(first.events_dropped, 0u) << "golden scenario must fit in the rings";
  ExpectSameTrace(first.text, second.text, "two same-seed runs");
  EXPECT_EQ(first.chrome_json, second.chrome_json);
}

TEST(TraceGoldenTest, MatchesCheckedInGolden) {
  const std::string golden_path = std::string(TIGER_GOLDEN_DIR) + "/trace_golden.txt";
  GoldenRun run = RunGoldenScenario();
  ASSERT_FALSE(run.text.empty());

  if (std::getenv("TIGER_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << run.text;
    out.close();
    GTEST_SKIP() << "regenerated " << golden_path;
  }

  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " — regen with TIGER_REGEN_GOLDEN=1";
  std::ostringstream buf;
  buf << in.rdbuf();
  ExpectSameTrace(buf.str(), run.text, "golden file");
}

TEST(TraceGoldenTest, ScenarioCoversTheInterestingProtocolSteps) {
  GoldenRun run = RunGoldenScenario();
  // The burst on disk 1 must actually push at least one block through the
  // declustered mirror chain.
  EXPECT_GT(run.counters.mirror_recoveries, 0);
  EXPECT_GT(run.counters.blocks_sent, 0);

  // Every protocol layer shows up in the text rendering.
  for (const char* needle :
       {"VSTATE_HOP", "VSTATE_FWD", "VSTATE_RECV", "VSTATE_APPLY", "SLOT_SERVICE",
        "SLOT_INSERT", "MIRROR_FALLBACK", "DISK_SERVICE", "BLOCK_SENT", "MSG_HOP"}) {
    EXPECT_NE(run.text.find(needle), std::string::npos) << "trace lacks " << needle;
  }
}

TEST(TraceGoldenTest, ChromeJsonIsWellFormedEnoughForPerfetto) {
  GoldenRun run = RunGoldenScenario();
  const std::string& json = run.chrome_json;
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.find("{\"displayTimeUnit\""), 0u);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Track naming metadata for the timeline UI.
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"cub0\""), std::string::npos);
  EXPECT_NE(json.find("\"disk1\""), std::string::npos);
  // The spans the acceptance criteria name.
  EXPECT_NE(json.find("VSTATE_HOP"), std::string::npos);
  EXPECT_NE(json.find("SLOT_SERVICE"), std::string::npos);
  EXPECT_NE(json.find("MIRROR_FALLBACK"), std::string::npos);
  EXPECT_NE(json.find("DISK_SERVICE"), std::string::npos);

  // Structural sanity: braces and brackets balance, and every async begin
  // has exactly one matching end phase ("ph":"b" / "ph":"e" counts match).
  int64_t braces = 0;
  int64_t brackets = 0;
  for (char c : json) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

// --- Tracer unit behavior -----------------------------------------------

TEST(TracerTest, RingWrapsAndCountsDrops) {
  Simulator sim;
  Tracer tracer(&sim, Tracer::Options{/*ring_capacity=*/4, /*enabled=*/true});
  const TraceTrackId track = tracer.RegisterTrack("t");
  for (int i = 0; i < 10; ++i) {
    tracer.Instant(track, TraceEventType::kBlockSent, TraceArgs{.a = i});
  }
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const std::vector<TraceEvent> events = tracer.MergedEvents();
  ASSERT_EQ(events.size(), 4u);
  // Oldest events were overwritten; the survivors are the newest four, in
  // global sequence order.
  EXPECT_EQ(events.front().args.a, 6);
  EXPECT_EQ(events.back().args.a, 9);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

TEST(TracerTest, MergedEventsInterleaveTracksBySequence) {
  Simulator sim;
  Tracer tracer(&sim);
  const TraceTrackId a = tracer.RegisterTrack("a");
  const TraceTrackId b = tracer.RegisterTrack("b");
  tracer.Instant(a, TraceEventType::kBlockSent);
  tracer.Instant(b, TraceEventType::kBlockMissed);
  tracer.Instant(a, TraceEventType::kBlockSent);
  const std::vector<TraceEvent> events = tracer.MergedEvents();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].track, a);
  EXPECT_EQ(events[1].track, b);
  EXPECT_EQ(events[2].track, a);
  EXPECT_EQ(tracer.TrackName(b), "b");
}

}  // namespace
}  // namespace tiger
