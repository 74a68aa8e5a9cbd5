// Bootstrapped steady state: the control-plane bench path must be
// self-consistent — injected streams keep themselves alive through the
// normal forwarding machinery.

#include <gtest/gtest.h>

#include "src/core/system.h"

namespace tiger {
namespace {

TEST(BootstrapTest, StreamsSelfPerpetuate) {
  TigerConfig config;
  config.shape = SystemShape{6, 1, 2};
  config.simulate_data_plane = false;
  TigerSystem system(config, 91);
  system.EnableInvariantChecker();
  SinkEndpoint sink;
  NetAddress sink_addr = system.net().Attach(&sink, "sink", config.client_nic_bps);
  FileId file = system
                    .AddFile("content", config.max_stream_bps,
                             config.block_play_time * (config.shape.TotalDisks() + 600))
                    .value();

  const int streams = 20;
  int made = system.BootstrapStreams(streams, sink_addr, file, config.max_stream_bps);
  ASSERT_EQ(made, streams);
  system.Start();
  system.RunUntil(TimePoint::Zero() + Duration::Seconds(30));

  Cub::Counters totals = system.TotalCubCounters();
  // Every stream serves one block per second; with data-plane off the send
  // path still counts blocks.
  EXPECT_NEAR(static_cast<double>(totals.blocks_sent), streams * 28.0, streams * 3.0);
  EXPECT_EQ(totals.records_conflict, 0);
  EXPECT_EQ(totals.server_missed_blocks, 0);
  EXPECT_EQ(system.invariant_checker()->conflict_count(), 0);
  EXPECT_EQ(system.invariant_checker()->mistimed_send_count(), 0);
}

TEST(BootstrapTest, RefusesMoreThanCapacity) {
  TigerConfig config;
  config.shape = SystemShape{4, 1, 2};
  config.simulate_data_plane = false;
  TigerSystem system(config, 93);
  SinkEndpoint sink;
  NetAddress sink_addr = system.net().Attach(&sink, "sink", config.client_nic_bps);
  FileId file = system
                    .AddFile("content", config.max_stream_bps,
                             config.block_play_time * (config.shape.TotalDisks() + 600))
                    .value();
  const int64_t capacity = system.geometry().slot_count();
  int made = system.BootstrapStreams(static_cast<int>(capacity), sink_addr, file,
                                     config.max_stream_bps);
  EXPECT_EQ(made, capacity);
}

TEST(BootstrapTest, FullCapacityControlTrafficMatchesFigureEight) {
  // At 602 bootstrapped streams, the per-cub control traffic should sit in
  // the band the fig8 bench reports (records dominate; batching amortizes
  // headers).
  TigerConfig config;  // Paper shape.
  config.simulate_data_plane = false;
  TigerSystem system(config, 95);
  SinkEndpoint sink;
  NetAddress sink_addr = system.net().Attach(&sink, "sink", config.client_nic_bps);
  FileId file = system
                    .AddFile("content", config.max_stream_bps,
                             config.block_play_time * (config.shape.TotalDisks() + 600))
                    .value();
  int made = system.BootstrapStreams(602, sink_addr, file, config.max_stream_bps);
  ASSERT_EQ(made, 602);
  system.Start();
  system.RunUntil(TimePoint::Zero() + Duration::Seconds(20));
  const TimePoint a = TimePoint::FromMicros(10000000);
  const TimePoint b = TimePoint::FromMicros(20000000);
  double bps = system.CubControlTrafficBps(CubId(0), a, b);
  // 43 streams/cub x 2 copies x 100 B = 8.6 KB/s plus amortized headers.
  EXPECT_GT(bps, 7000.0);
  EXPECT_LT(bps, 12000.0);
  // The distributed half of §3.3: once every stream is running, the
  // controller sends no control traffic at all; the cubs carry the schedule.
  EXPECT_EQ(system.ControllerControlTrafficBps(a, b), 0.0);
}

}  // namespace
}  // namespace tiger
