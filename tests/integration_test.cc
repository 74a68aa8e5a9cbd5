// End-to-end system tests: full protocol, data path and client verification
// on small Tiger configurations.

#include <gtest/gtest.h>

#include "src/client/testbed.h"

namespace tiger {
namespace {

TigerConfig SmallConfig() {
  TigerConfig config;
  config.shape = SystemShape{4, 1, 2};
  config.block_play_time = Duration::Seconds(1);
  config.block_bytes = 262144;
  config.max_stream_bps = Megabits(2);
  return config;
}

TEST(IntegrationTest, SingleViewerReceivesEveryBlockOnTime) {
  Testbed testbed(SmallConfig(), /*seed=*/42);
  testbed.system().EnableInvariantChecker();
  testbed.AddContent(1, Duration::Seconds(20));
  testbed.Start();
  ViewerClient& viewer = testbed.AddViewer(FileId(0));
  testbed.RunFor(Duration::Seconds(40));

  EXPECT_EQ(viewer.stats().plays_started, 1);
  EXPECT_EQ(viewer.stats().plays_completed, 1);
  EXPECT_EQ(viewer.stats().blocks_complete, 20);
  EXPECT_EQ(viewer.stats().lost_blocks, 0);
  EXPECT_EQ(viewer.stats().late_blocks, 0);
  EXPECT_EQ(testbed.system().invariant_checker()->conflict_count(), 0);
  EXPECT_EQ(testbed.system().invariant_checker()->mistimed_send_count(), 0);
  EXPECT_EQ(testbed.system().TotalCubCounters().server_missed_blocks, 0);
  EXPECT_EQ(testbed.system().TotalCubCounters().records_conflict, 0);
}

TEST(IntegrationTest, StartupLatencyAtLowLoadIsAboutTwoSeconds) {
  Testbed testbed(SmallConfig(), 7);
  testbed.AddContent(1, Duration::Seconds(10));
  testbed.Start();
  ViewerClient& viewer = testbed.AddViewer(FileId(0));
  testbed.RunFor(Duration::Seconds(20));

  ASSERT_EQ(viewer.startup_latency().count(), 1u);
  // 1 s block transmission + scheduling lead + queue wait + network latency.
  EXPECT_GT(viewer.startup_latency().Mean(), 1.6);
  EXPECT_LT(viewer.startup_latency().Mean(), 2.5);
}

TEST(IntegrationTest, ManyViewersAllStreamsComplete) {
  Testbed testbed(SmallConfig(), 3);
  testbed.system().EnableInvariantChecker();
  testbed.AddContent(8, Duration::Seconds(25));
  testbed.Start();
  for (int i = 0; i < 12; ++i) {
    testbed.AddViewer(FileId(static_cast<uint32_t>(i % 8)));
  }
  testbed.RunFor(Duration::Seconds(60));

  ViewerClient::Stats totals = testbed.TotalClientStats();
  EXPECT_EQ(totals.plays_started, 12);
  EXPECT_EQ(totals.plays_completed, 12);
  EXPECT_EQ(totals.blocks_complete, 12 * 25);
  EXPECT_EQ(totals.lost_blocks, 0);
  EXPECT_EQ(testbed.system().invariant_checker()->conflict_count(), 0);
  EXPECT_EQ(testbed.system().TotalCubCounters().records_conflict, 0);
}

TEST(IntegrationTest, ViewerStatesStayWithinLeadBounds) {
  // Steady state: records should arrive between min and max lead before
  // their due time (after the post-insertion ramp of ~maxLead hops).
  Testbed testbed(SmallConfig(), 11);
  testbed.AddContent(1, Duration::Seconds(40));
  testbed.Start();
  testbed.AddViewer(FileId(0));
  testbed.RunFor(Duration::Seconds(15));

  // Inspect every cub's view: pending (unserved) records should not lead by
  // more than maxVStateLead (+ forwarding slack).
  const TigerConfig& config = testbed.system().config();
  for (int c = 0; c < 4; ++c) {
    Cub& cub = testbed.system().cub(CubId(static_cast<uint32_t>(c)));
    const_cast<ScheduleView&>(cub.view()).ForEachEntry([&](ScheduleEntry& entry) {
      Duration lead = entry.record().due - entry.received;
      EXPECT_LE(lead, config.max_vstate_lead + Duration::Seconds(1))
          << "record " << entry.record().ToString() << " at cub " << c;
    });
  }
}

TEST(IntegrationTest, StopPlayDeschedulesAndFreesSlot) {
  Testbed testbed(SmallConfig(), 5);
  testbed.system().EnableInvariantChecker();
  testbed.AddContent(1, Duration::Seconds(60));
  testbed.Start();
  ViewerClient& viewer = testbed.AddViewer(FileId(0));
  testbed.RunFor(Duration::Seconds(10));
  EXPECT_EQ(viewer.stats().plays_started, 1);
  int64_t blocks_at_stop = viewer.stats().blocks_complete;
  EXPECT_GT(blocks_at_stop, 4);
  viewer.RequestStop();
  testbed.RunFor(Duration::Seconds(15));

  // Delivery stops promptly: at most a couple of in-flight blocks after stop.
  EXPECT_LE(viewer.stats().blocks_complete, blocks_at_stop + 3);
  Cub::Counters totals = testbed.system().TotalCubCounters();
  EXPECT_GT(totals.deschedules_received, 0);
  EXPECT_GT(totals.deschedules_applied, 0);
  EXPECT_EQ(totals.records_conflict, 0);

  // The freed slot is reusable: a new viewer starts fine.
  ViewerClient& second = testbed.AddViewer(FileId(0));
  testbed.RunFor(Duration::Seconds(10));
  EXPECT_EQ(second.stats().plays_started, 1);
  EXPECT_EQ(testbed.system().invariant_checker()->conflict_count(), 0);
}

TEST(IntegrationTest, CubFailureMirrorsTakeOver) {
  // Kill one cub mid-play. Streams must continue from declustered mirrors;
  // only blocks due from the dead cub inside the detection window are lost.
  TigerConfig config = SmallConfig();
  Testbed testbed(config, 21);
  testbed.system().EnableInvariantChecker();
  testbed.AddContent(2, Duration::Seconds(60));
  testbed.Start();
  ViewerClient& v0 = testbed.AddViewer(FileId(0));
  ViewerClient& v1 = testbed.AddViewer(FileId(1));
  testbed.RunFor(Duration::Seconds(10));
  EXPECT_EQ(testbed.TotalClientStats().plays_started, 2);

  testbed.system().FailCubNow(CubId(2));
  testbed.RunFor(Duration::Seconds(55));

  ViewerClient::Stats totals = testbed.TotalClientStats();
  EXPECT_EQ(totals.plays_completed, 2);
  // Each stream visits the dead cub once every 4 s; with a ~7 s deadman
  // window it loses at most ~3 blocks, and loses at least one.
  EXPECT_GT(totals.lost_blocks, 0);
  EXPECT_LE(totals.lost_blocks, 8);
  // After detection, mirror fragments carried the dead cub's share.
  EXPECT_GT(totals.fragments_received, 0);
  EXPECT_EQ(totals.fragments_received % config.shape.decluster_factor, 0)
      << "fragments must arrive in complete decluster sets";
  Cub::Counters cubs = testbed.system().TotalCubCounters();
  EXPECT_GT(cubs.takeovers, 0);
  EXPECT_GT(cubs.failures_detected, 0);
  // Takeover synthesis re-creates records that were already in flight; the
  // idempotent receive path must have absorbed them.
  EXPECT_GT(cubs.records_duplicate, 0);
  EXPECT_EQ(cubs.records_conflict, 0);
  EXPECT_EQ(testbed.system().invariant_checker()->conflict_count(), 0);
  EXPECT_EQ(v0.stats().blocks_complete + v1.stats().blocks_complete + totals.lost_blocks,
            2 * 60);
}

TEST(IntegrationTest, ControlTrafficIsModest) {
  Testbed testbed(SmallConfig(), 13);
  testbed.AddContent(4, Duration::Seconds(120));
  testbed.Start();
  for (int i = 0; i < 8; ++i) {
    testbed.AddViewer(FileId(static_cast<uint32_t>(i % 4)));
  }
  testbed.RunFor(Duration::Seconds(30));
  TimePoint b = testbed.sim().Now();
  TimePoint a = b - Duration::Seconds(10);
  // 8 streams over 4 cubs: ~2 records/s/cub forwarded twice at 100 B plus
  // heartbeats; far below the paper's 21 KB/s ceiling for a full system.
  double bps = testbed.system().CubControlTrafficBps(CubId(0), a, b);
  EXPECT_GT(bps, 100.0);
  EXPECT_LT(bps, 21000.0);
}

}  // namespace
}  // namespace tiger
