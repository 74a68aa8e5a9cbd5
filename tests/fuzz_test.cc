// Randomized protocol fuzzing: arbitrary interleavings of start, stop and
// failure injection, checked by the schedule invariant checker.
//
// The hallucinated global schedule must stay coherent no matter how the
// operations interleave: no slot ever double-booked, every block sent on a
// slot boundary, and the idempotence counters must absorb whatever the
// churn produces.

#include <gtest/gtest.h>

#include "src/client/testbed.h"

namespace tiger {
namespace {

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzTest, RandomChurnPreservesScheduleCoherence) {
  const uint64_t seed = GetParam();
  TigerConfig config;
  config.shape = SystemShape{6, 1, 2};
  Testbed testbed(config, seed);
  testbed.system().EnableInvariantChecker();
  testbed.AddContent(10, Duration::Seconds(25));
  testbed.Start();

  Rng rng(seed * 7919 + 13);
  const int64_t capacity = testbed.system().geometry().slot_count();
  bool cub_failed = false;
  std::vector<ViewerClient*> active;

  for (int op = 0; op < 120; ++op) {
    testbed.RunFor(rng.UniformDuration(Duration::Millis(100), Duration::Millis(1500)));
    const int choice = static_cast<int>(rng.UniformInt(0, 99));
    if (choice < 55) {
      // Start a new play if there is headroom.
      if (testbed.ActiveViewerCount() < capacity - 2) {
        ViewerClient& viewer = testbed.AddViewer(
            FileId(static_cast<uint32_t>(rng.UniformInt(0, 9))));
        active.push_back(&viewer);
      }
    } else if (choice < 85) {
      // Stop a random play.
      if (!active.empty()) {
        size_t pick = rng.PickIndex(active.size());
        active[pick]->RequestStop();
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    } else if (choice < 93 && !cub_failed && op > 20) {
      // One cub failure per run (single-failure tolerance regime).
      cub_failed = true;
      testbed.system().FailCubNow(CubId(static_cast<uint32_t>(rng.UniformInt(0, 5))));
    }
    // Remaining probability: just let time pass.
  }
  // Drain: let every play finish or get cleaned up.
  testbed.RunFor(Duration::Seconds(40));

  const InvariantChecker* checker = testbed.system().invariant_checker();
  EXPECT_EQ(checker->conflict_count(), 0) << "slot double-booked under churn";
  EXPECT_EQ(checker->mistimed_send_count(), 0) << "block sent off the slot boundary";
  for (const InvariantChecker::Violation& violation : checker->violations()) {
    ADD_FAILURE() << violation.what;
  }

  Cub::Counters counters = testbed.system().TotalCubCounters();
  EXPECT_EQ(counters.records_conflict, 0);
  EXPECT_GT(counters.inserts, 0);
  EXPECT_GT(checker->insert_count(), 0);

  ViewerClient::Stats totals = testbed.TotalClientStats();
  EXPECT_GT(totals.blocks_complete, 0);
  if (!cub_failed) {
    EXPECT_EQ(totals.lost_blocks, 0) << "losses are only permitted around failures";
  } else {
    // Bounded by the detection window: each active stream crosses the dead
    // cub at most twice during ~8 s on a 6-cub ring.
    EXPECT_LE(totals.lost_blocks, 3 * capacity);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
                                           16));

}  // namespace
}  // namespace tiger
