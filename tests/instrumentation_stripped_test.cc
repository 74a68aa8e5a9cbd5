// Verifies the compile-time strip switch: with TIGER_INSTRUMENTATION_ENABLED=0
// every TIGER_TRACE_* and TIGER_PROF_* call site compiles away entirely — no
// tracer call, no ProfScope object, no thread-local read — while the class
// definitions stay identical to the enabled build (ODR safety for mixed
// translation units), so Tracer and Profiler remain usable directly.

#define TIGER_INSTRUMENTATION_ENABLED 0
#include "src/trace/profiler.h"
#include "src/trace/trace.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/simulator.h"

namespace tiger {
namespace {

TEST(InstrumentationStrippedTest, TraceMacrosRecordNothing) {
  Simulator sim;
  Tracer tracer(&sim);
  const TraceTrackId track = tracer.RegisterTrack("t");
  uint64_t flow = 0;
  // With instrumentation stripped each macro expands to ((void)0): legal as a
  // plain statement, and a live tracer records nothing.
  TIGER_TRACE_INSTANT(&tracer, track, TraceEventType::kBlockSent, TraceArgs{.a = 1});
  TIGER_TRACE_BEGIN_FLOW(flow, &tracer, track, TraceEventType::kMsgHop);
  TIGER_TRACE_END_FLOW(&tracer, track, TraceEventType::kMsgHop, flow);
  TIGER_TRACE_COMPLETE(&tracer, track, TraceEventType::kDiskService, sim.Now(),
                       Duration::Micros(5));
  EXPECT_EQ(flow, 0u);
  EXPECT_EQ(tracer.TrackName(track), "t");
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.TextDump(), "");
}

TEST(InstrumentationStrippedTest, ProfMacrosRecordNothing) {
  Profiler prof;
  ScopedProfilerInstall install(&prof);
  const std::vector<int> batch(3, 0);
  {
    TIGER_PROF_SCOPE(kTimerDispatch);
    TIGER_PROF_SCOPE(kVStateDecode);
    TIGER_PROF_ITEMS_SCOPE(kVStateDecode, batch);
  }
  for (int c = 0; c < kProfCategoryCount; ++c) {
    EXPECT_EQ(prof.bucket(static_cast<ProfCategory>(c)).count, 0u);
    EXPECT_EQ(prof.bucket(static_cast<ProfCategory>(c)).self_ticks, 0u);
  }
}

TEST(InstrumentationStrippedTest, ClassesRemainUsableDirectly) {
  // The strip removes macro call sites only; the types themselves stay live
  // so TigerSystem and the sharded engine still link.
  Simulator sim;
  Tracer tracer(&sim);
  const TraceTrackId track = tracer.RegisterTrack("t");
  tracer.Instant(track, TraceEventType::kBlockSent);
  const uint64_t flow = tracer.BeginFlow(track, TraceEventType::kMsgHop);
  EXPECT_NE(flow, 0u);
  tracer.EndFlow(track, TraceEventType::kMsgHop, flow);
  EXPECT_EQ(tracer.recorded(), 3u);
  EXPECT_NE(tracer.TextDump().find("BLOCK_SENT"), std::string::npos);

  Profiler prof;
  prof.Add(ProfCategory::kMsgHop, 3, 42);
  EXPECT_EQ(prof.bucket(ProfCategory::kMsgHop).count, 3u);
  EXPECT_EQ(prof.bucket(ProfCategory::kMsgHop).self_ticks, 42u);
  prof.Reset();
  EXPECT_EQ(prof.bucket(ProfCategory::kMsgHop).count, 0u);

  ShardEngineProfiler engine(4);
  EXPECT_EQ(engine.shards(), 4);
  engine.shard_profiler(2).Add(ProfCategory::kSlotService, 1, 7);
  EXPECT_EQ(engine.Aggregated(ProfCategory::kSlotService).count, 1u);
  EXPECT_EQ(engine.Aggregated(ProfCategory::kSlotService).self_ticks, 7u);
}

}  // namespace
}  // namespace tiger
