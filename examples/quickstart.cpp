// Quickstart: bring up a small Tiger, play one file, watch the blocks land.
//
// Builds a 4-cub / 4-disk system (decluster factor 2), stores one 15-second
// 2 Mbit/s file, starts a viewer, and prints the delivery timeline plus the
// schedule-protocol counters that made it happen.

#include <cstdio>

#include "src/client/testbed.h"

int main() {
  using namespace tiger;

  TigerConfig config;
  config.shape = SystemShape{/*num_cubs=*/4, /*disks_per_cub=*/1, /*decluster_factor=*/2};

  Testbed testbed(config, /*seed=*/2024);
  testbed.system().EnableInvariantChecker();

  std::printf("Tiger quickstart: %d cubs, %d disks, %lld schedule slots\n",
              config.shape.num_cubs, config.shape.TotalDisks(),
              static_cast<long long>(testbed.system().geometry().slot_count()));
  std::printf("block play time %s, effective block service time %s\n\n",
              config.block_play_time.ToString().c_str(),
              testbed.system().geometry().effective_block_service_time().ToString().c_str());

  testbed.AddContent(/*count=*/1, /*file_duration=*/Duration::Seconds(15));
  testbed.Start();

  ViewerClient& viewer = testbed.AddViewer(FileId(0));
  testbed.RunFor(Duration::Seconds(8));

  std::printf("mid-play view sizes (each cub holds only its window of the hallucinated\n"
              "global schedule — bounded regardless of system size):\n");
  for (int c = 0; c < config.shape.num_cubs; ++c) {
    Cub& cub = testbed.system().cub(CubId(static_cast<uint32_t>(c)));
    std::printf("  cub %d: %zu schedule entries in view\n", c, cub.view().entry_count());
  }
  std::printf("\n");
  testbed.RunFor(Duration::Seconds(17));

  const ViewerClient::Stats& stats = viewer.stats();
  std::printf("viewer results:\n");
  std::printf("  startup latency : %.3f s (request to last byte of first block)\n",
              viewer.startup_latency().Mean());
  std::printf("  blocks received : %lld of 15\n", static_cast<long long>(stats.blocks_complete));
  std::printf("  late blocks     : %lld\n", static_cast<long long>(stats.late_blocks));
  std::printf("  lost blocks     : %lld\n", static_cast<long long>(stats.lost_blocks));

  Cub::Counters cubs = testbed.system().TotalCubCounters();
  std::printf("\nschedule protocol activity:\n");
  std::printf("  slot insertions        : %lld\n", static_cast<long long>(cubs.inserts));
  std::printf("  viewer states received : %lld (each block's state visits two cubs)\n",
              static_cast<long long>(cubs.records_received));
  std::printf("  blocks sent            : %lld\n", static_cast<long long>(cubs.blocks_sent));
  std::printf("  schedule conflicts     : %d (must be 0)\n",
              testbed.system().invariant_checker()->conflict_count());

  return 0;
}
