// Verifies the compile-time kill switch: with TIGER_PROFILING_ENABLED=0 the
// TIGER_PROF_SCOPE macro must compile away entirely — no ProfScope object,
// no thread-local read — while the class definitions stay identical to the
// enabled build (ODR safety for mixed translation units; mirrors
// TIGER_TRACING_ENABLED in src/trace/trace.h).

#define TIGER_PROFILING_ENABLED 0
#include "src/trace/profiler.h"

#include <gtest/gtest.h>

#include <vector>

namespace tiger {
namespace {

TEST(ProfilerStrippedTest, MacroIsANoOpStatement) {
  Profiler prof;
  ScopedProfilerInstall install(&prof);
  const std::vector<int> batch(3, 0);
  {
    // With profiling stripped this expands to ((void)0): legal as a plain
    // statement, records nothing even with a profiler installed.
    TIGER_PROF_SCOPE(kTimerDispatch);
    TIGER_PROF_SCOPE(kVStateDecode);
    TIGER_PROF_ITEMS_SCOPE(kVStateDecode, batch);
  }
  for (int c = 0; c < kProfCategoryCount; ++c) {
    EXPECT_EQ(prof.bucket(static_cast<ProfCategory>(c)).count, 0u);
    EXPECT_EQ(prof.bucket(static_cast<ProfCategory>(c)).self_ticks, 0u);
  }
}

TEST(ProfilerStrippedTest, ClassesRemainUsableDirectly) {
  // The stripped build removes macro call sites only; the types themselves
  // stay live so TigerSystem and the sharded engine still link.
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
