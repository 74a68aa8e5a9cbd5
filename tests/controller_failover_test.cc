// Controller fault tolerance — the work the paper left to the product team.
//
// "While the Tiger controller is a single point of failure in the current
// implementation, the distributed schedule work described in this paper
// removes the major function that the controller in a centralized Tiger
// system would have... Making its remaining functions fault tolerant is a
// simple exercise." (§2.3, §3.3)
//
// These tests demonstrate both halves: running streams never depended on the
// controller in the first place, and a warm standby restores the remaining
// contact-point functions via address takeover.

#include <gtest/gtest.h>

#include "src/client/testbed.h"

namespace tiger {
namespace {

TigerConfig SmallConfig() {
  TigerConfig config;
  config.shape = SystemShape{4, 1, 2};
  return config;
}

TEST(ControllerFailoverTest, RunningStreamsSurviveControllerDeathWithoutBackup) {
  // The distributed schedule's headline property: the controller plays no
  // part in steady-state delivery.
  Testbed testbed(SmallConfig(), 81);
  testbed.system().EnableInvariantChecker();
  testbed.AddContent(2, Duration::Seconds(60));
  testbed.Start();
  testbed.AddViewer(FileId(0));
  testbed.AddViewer(FileId(1));
  testbed.RunFor(Duration::Seconds(10));
  ASSERT_EQ(testbed.TotalClientStats().plays_started, 2);

  testbed.system().FailControllerNow();
  testbed.RunFor(Duration::Seconds(55));

  ViewerClient::Stats totals = testbed.TotalClientStats();
  EXPECT_EQ(totals.plays_completed, 2);
  EXPECT_EQ(totals.lost_blocks, 0) << "delivery must not involve the controller";
  EXPECT_EQ(totals.late_blocks, 0);
  EXPECT_EQ(testbed.system().invariant_checker()->conflict_count(), 0);
}

// Run on one shard and on two: the standby must live on an engine shard the
// run actually advances, whatever the shard count.
class ControllerFailoverShardsTest : public ::testing::TestWithParam<int> {};

TEST_P(ControllerFailoverShardsTest, StandbyTakesOverNewStarts) {
  TigerConfig config = SmallConfig();
  config.sim_shards = GetParam();
  Testbed testbed(config, 83);
  testbed.system().EnableInvariantChecker();
  testbed.system().EnableBackupController();
  testbed.AddContent(2, Duration::Seconds(40));
  testbed.Start();
  testbed.AddViewer(FileId(0));
  testbed.RunFor(Duration::Seconds(5));

  testbed.system().FailControllerNow();
  // Let the standby detect and take over (deadman timeout + margin).
  testbed.RunFor(Duration::Seconds(10));
  ASSERT_TRUE(testbed.system().backup_controller()->took_over());

  // A brand-new start goes to the same well-known address and succeeds.
  ViewerClient& late_viewer = testbed.AddViewer(FileId(1));
  testbed.RunFor(Duration::Seconds(8));
  EXPECT_EQ(late_viewer.stats().plays_started, 1);
  EXPECT_LT(late_viewer.startup_latency().Mean(), 3.0)
      << "post-takeover starts pay no extra penalty";

  testbed.RunFor(Duration::Seconds(45));
  ViewerClient::Stats totals = testbed.TotalClientStats();
  EXPECT_EQ(totals.plays_completed, 2);
  EXPECT_EQ(totals.lost_blocks, 0);
  EXPECT_EQ(testbed.system().invariant_checker()->conflict_count(), 0);
}

INSTANTIATE_TEST_SUITE_P(Shards, ControllerFailoverShardsTest, ::testing::Values(1, 2));

TEST(ControllerFailoverTest, StopsWorkAcrossFailover) {
  // The standby has no routing stubs for pre-failover plays; the deschedule
  // pipeline's fallback (purge queues, recover the slot from cub views)
  // must still stop the stream.
  Testbed testbed(SmallConfig(), 85);
  testbed.system().EnableInvariantChecker();
  testbed.system().EnableBackupController();
  testbed.AddContent(1, Duration::Seconds(120));
  testbed.Start();
  ViewerClient& viewer = testbed.AddViewer(FileId(0));
  testbed.RunFor(Duration::Seconds(5));
  ASSERT_EQ(viewer.stats().plays_started, 1);

  testbed.system().FailControllerNow();
  testbed.RunFor(Duration::Seconds(10));
  ASSERT_TRUE(testbed.system().backup_controller()->took_over());

  int64_t blocks_at_stop = viewer.stats().blocks_complete;
  viewer.RequestStop();
  testbed.RunFor(Duration::Seconds(15));
  EXPECT_LE(viewer.stats().blocks_complete, blocks_at_stop + 4)
      << "the standby must stop a play it never saw start";
  EXPECT_GT(testbed.system().TotalCubCounters().deschedules_applied, 0);
}

TEST(ControllerFailoverTest, StandbyStaysQuietWhilePrimaryLives) {
  Testbed testbed(SmallConfig(), 87);
  testbed.system().EnableBackupController();
  testbed.AddContent(1, Duration::Seconds(30));
  testbed.Start();
  testbed.AddViewer(FileId(0));
  testbed.RunFor(Duration::Seconds(40));
  EXPECT_FALSE(testbed.system().backup_controller()->took_over());
  EXPECT_EQ(testbed.system().backup_controller()->counters().starts_routed, 0);
  EXPECT_EQ(testbed.TotalClientStats().plays_completed, 1);
}

}  // namespace
}  // namespace tiger
