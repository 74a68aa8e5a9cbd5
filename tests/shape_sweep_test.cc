// Property sweep: the full protocol must work at every valid system shape,
// not just the paper's testbed. Each combination runs a short end-to-end
// workload (and, where the shape tolerates it, a cub failure) under the
// schedule invariant checker.

#include <gtest/gtest.h>

#include <tuple>

#include "src/client/testbed.h"

namespace tiger {
namespace {

class ShapeSweepTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ShapeSweepTest, DeliveryAndCoherenceHold) {
  auto [cubs, disks_per_cub, decluster] = GetParam();
  SystemShape shape{cubs, disks_per_cub, decluster};
  if (!shape.Valid()) {
    GTEST_SKIP() << "invalid shape";
  }
  TigerConfig config;
  config.shape = shape;
  Testbed testbed(config, 1000 + static_cast<uint64_t>(cubs * 100 + disks_per_cub * 10 +
                                                       decluster));
  testbed.system().EnableInvariantChecker();
  testbed.AddContent(4, Duration::Seconds(25));
  testbed.Start();

  const int viewers = std::min<int>(8, static_cast<int>(config.MaxStreams()) - 1);
  for (int i = 0; i < viewers; ++i) {
    testbed.AddViewer(FileId(static_cast<uint32_t>(i % 4)));
  }
  testbed.RunFor(Duration::Seconds(45));

  ViewerClient::Stats totals = testbed.TotalClientStats();
  EXPECT_EQ(totals.plays_started, viewers);
  EXPECT_EQ(totals.plays_completed, viewers);
  EXPECT_EQ(totals.blocks_complete, viewers * 25);
  EXPECT_EQ(totals.lost_blocks, 0);
  EXPECT_EQ(testbed.system().invariant_checker()->conflict_count(), 0);
  EXPECT_EQ(testbed.system().invariant_checker()->mistimed_send_count(), 0);
  EXPECT_EQ(testbed.system().TotalCubCounters().records_conflict, 0);
}

TEST_P(ShapeSweepTest, SurvivesOneCubFailure) {
  auto [cubs, disks_per_cub, decluster] = GetParam();
  SystemShape shape{cubs, disks_per_cub, decluster};
  // Single-failure tolerance needs the mirror fragments to land on other
  // cubs and the ring to stay functional.
  if (!shape.Valid() || cubs < 4) {
    GTEST_SKIP();
  }
  TigerConfig config;
  config.shape = shape;
  Testbed testbed(config, 2000 + static_cast<uint64_t>(cubs * 100 + disks_per_cub * 10 +
                                                       decluster));
  testbed.system().EnableInvariantChecker();
  testbed.AddContent(3, Duration::Seconds(50));
  testbed.Start();
  for (int i = 0; i < 3; ++i) {
    testbed.AddViewer(FileId(static_cast<uint32_t>(i)));
  }
  testbed.RunFor(Duration::Seconds(8));
  testbed.system().FailCubNow(CubId(1));
  testbed.RunFor(Duration::Seconds(60));

  ViewerClient::Stats totals = testbed.TotalClientStats();
  EXPECT_EQ(totals.plays_completed, 3);
  // Mirror coverage only exists when fragments fit on other cubs; with
  // decluster < cubs this always holds. Losses stay within the detection
  // window: each stream crosses the dead cub at most a few times in ~8 s.
  const int64_t window_crossings =
      3 * (Duration::Seconds(9) / (config.block_play_time * cubs) + 2);
  EXPECT_LE(totals.lost_blocks, window_crossings * disks_per_cub + 3);
  EXPECT_GT(totals.fragments_received, 0);
  EXPECT_EQ(testbed.system().invariant_checker()->conflict_count(), 0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ShapeSweepTest,
                         ::testing::Combine(::testing::Values(3, 4, 6, 9),
                                            ::testing::Values(1, 2),
                                            ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace tiger
