// Controller routing behaviour.

#include <gtest/gtest.h>

#include "src/client/testbed.h"

namespace tiger {
namespace {

TigerConfig SmallConfig() {
  TigerConfig config;
  config.shape = SystemShape{4, 1, 2};
  return config;
}

TEST(ControllerTest, StartRoutedToCubHoldingFirstBlock) {
  Testbed testbed(SmallConfig(), 71);
  testbed.AddContent(4, Duration::Seconds(30));
  testbed.Start();
  TigerSystem& system = testbed.system();

  // File 2's start disk is 2 (round-robin assignment), owned by cub 2.
  const FileInfo& file = system.catalog().Get(FileId(2));
  CubId expected = system.config().shape.CubOfDisk(file.start_disk);

  testbed.AddViewer(FileId(2));
  testbed.RunFor(Duration::Seconds(5));
  EXPECT_EQ(system.cub(expected).counters().inserts, 1)
      << "the insertion must happen at the cub holding block 0";
  EXPECT_EQ(system.controller().counters().starts_routed, 1);
  EXPECT_EQ(system.controller().counters().confirms_received, 1);
}

TEST(ControllerTest, StartRoutedAroundKnownFailure) {
  Testbed testbed(SmallConfig(), 73);
  testbed.AddContent(4, Duration::Seconds(30));
  testbed.Start();
  TigerSystem& system = testbed.system();
  const FileInfo& file = system.catalog().Get(FileId(1));
  CubId owner = system.config().shape.CubOfDisk(file.start_disk);

  // Fail the owner and let the deadman + notices settle.
  system.FailCubNow(owner);
  testbed.RunFor(Duration::Seconds(10));
  ASSERT_TRUE(system.controller().failure_view().IsCubFailed(owner));

  ViewerClient& viewer = testbed.AddViewer(FileId(1));
  testbed.RunFor(Duration::Seconds(8));
  EXPECT_EQ(viewer.stats().plays_started, 1)
      << "start must be routed to the living successor";
  // Post-detection routing adds no deadman wait: startup is the normal ~2 s.
  EXPECT_LT(viewer.startup_latency().Mean(), 3.5);
}

TEST(ControllerTest, StopForUnknownViewerIsHarmless) {
  Testbed testbed(SmallConfig(), 75);
  testbed.AddContent(1, Duration::Seconds(30));
  testbed.Start();
  auto viewer = std::make_unique<ViewerClient>(&testbed.sim(), ViewerId(500),
                                               &testbed.system().config(),
                                               &testbed.system().catalog(),
                                               &testbed.system().net());
  viewer->SetAddressBook(&testbed.system().addresses());
  // Stop without ever starting: client-side no-op.
  viewer->RequestStop();
  testbed.RunFor(Duration::Seconds(2));
  EXPECT_EQ(testbed.system().controller().counters().stops_routed, 0);
}

TEST(ControllerTest, ActivePlayRegistryTracksLifecycle) {
  Testbed testbed(SmallConfig(), 77);
  testbed.AddContent(1, Duration::Seconds(10));
  testbed.Start();
  EXPECT_EQ(testbed.system().controller().active_play_count(), 0);
  testbed.AddViewer(FileId(0));
  testbed.RunFor(Duration::Seconds(3));
  EXPECT_EQ(testbed.system().controller().active_play_count(), 1);
  // The registry purges on its own cadence after the play ends.
  testbed.RunFor(Duration::Seconds(120));
  EXPECT_EQ(testbed.system().controller().active_play_count(), 0);
}

TEST(ControllerTest, StopRoutedToCurrentServingCub) {
  Testbed testbed(SmallConfig(), 79);
  testbed.system().EnableInvariantChecker();
  testbed.AddContent(1, Duration::Seconds(60));
  testbed.Start();
  ViewerClient& viewer = testbed.AddViewer(FileId(0));
  testbed.RunFor(Duration::Seconds(20));
  int64_t deschedules_before = testbed.system().TotalCubCounters().deschedules_received;
  viewer.RequestStop();
  testbed.RunFor(Duration::Seconds(3));
  // The deschedule reached cubs and was applied (not dropped as mis-routed).
  Cub::Counters totals = testbed.system().TotalCubCounters();
  EXPECT_GT(totals.deschedules_received, deschedules_before);
  EXPECT_GT(totals.deschedules_applied, 0);
}

}  // namespace
}  // namespace tiger
