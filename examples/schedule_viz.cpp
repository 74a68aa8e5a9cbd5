// ASCII rendering of the Tiger schedules — the paper's Figures 3 and 4.
//
// Figure 3 (disk schedule): a strip of slots with the per-disk play pointers
// marching through it one block play time apart.
// Figure 4 (network schedule): time x bandwidth, entries stacked by bitrate,
// with the fragmentation gap visible.

#include <cstdio>
#include <string>
#include <vector>

#include "src/client/testbed.h"
#include "src/schedule/network_schedule.h"

namespace {

using namespace tiger;

void RenderDiskSchedule() {
  std::printf("=== Figure 3: the disk schedule (a 4-cub, 4-disk Tiger) ===\n\n");
  TigerConfig config;
  config.shape = SystemShape{4, 1, 2};
  Testbed testbed(config, 11);
  testbed.system().EnableInvariantChecker();
  testbed.AddContent(4, Duration::Seconds(120));
  testbed.Start();
  for (int i = 0; i < 9; ++i) {
    testbed.AddViewer(FileId(static_cast<uint32_t>(i % 4)));
  }
  testbed.RunFor(Duration::Seconds(12));

  const ScheduleGeometry& geometry = testbed.system().geometry();
  const TimePoint now = testbed.sim().Now();
  const int64_t slots = geometry.slot_count();

  // Slot occupancy, reconstructed from cub views (each viewer appears at the
  // cubs near its current play point; the hallucinated global schedule is
  // assembled here only for display).
  std::vector<char> occupancy(static_cast<size_t>(slots), '.');
  for (int c = 0; c < config.shape.num_cubs; ++c) {
    const_cast<ScheduleView&>(testbed.system().cub(CubId(static_cast<uint32_t>(c))).view())
        .ForEachEntry([&](ScheduleEntry& entry) {
          if (!entry.record().is_mirror()) {
            occupancy[entry.record().slot.value()] =
                static_cast<char>('0' + entry.record().viewer.value() % 10);
          }
        });
  }
  std::printf("slots (0..%lld), digit = viewer id occupying the slot:\n  ",
              static_cast<long long>(slots - 1));
  for (int64_t s = 0; s < slots; ++s) {
    std::printf("%c", occupancy[static_cast<size_t>(s)]);
  }
  std::printf("\n\ndisk pointers (one block play time apart, wrapping):\n");
  for (int d = 0; d < geometry.total_disks(); ++d) {
    Duration pos = geometry.DiskPointer(DiskId(static_cast<uint32_t>(d)), now);
    int64_t slot = geometry.SlotAtOffset(pos).value();
    std::string strip(static_cast<size_t>(slots), ' ');
    strip[static_cast<size_t>(slot)] = 'v';
    std::printf("  disk %d: %s (slot %lld)\n", d, strip.c_str(),
                static_cast<long long>(slot));
  }
  std::printf("\n");
}

void RenderNetworkSchedule() {
  std::printf("=== Figure 4: the network schedule (3 cubs, 6 Mbit/s NICs) ===\n\n");
  // Recreate the paper's example: viewers of 1-3 Mbit/s at staggered offsets,
  // including the unusable gap between viewer 4's end and viewer 2's start.
  NetworkSchedule schedule(Duration::Seconds(1), 3, Megabits(6));
  struct Entry {
    const char* name;
    int64_t start_ms;
    int64_t mbps;
  };
  const Entry entries[] = {
      {"viewer 4", 0, 2},    {"viewer 1", 300, 2},  {"viewer 3", 650, 1},
      {"viewer 0", 1125, 3}, {"viewer 2", 1900, 2}, {"viewer 5", 2400, 1},
  };
  uint64_t next = 1;
  for (const Entry& e : entries) {
    schedule.Insert(Duration::Millis(e.start_ms), Megabits(e.mbps), false,
                    ViewerId(static_cast<uint32_t>(next)), PlayInstanceId(next));
    next++;
  }

  // Render the load profile: rows = Mbit levels (top = 6), cols = 100 ms.
  const int cols = static_cast<int>(schedule.length().micros() / 100000);
  std::printf("bandwidth\n");
  for (int level = 6; level >= 1; --level) {
    std::printf("  %d Mbit |", level);
    for (int col = 0; col < cols; ++col) {
      int64_t load = schedule.LoadAt(Duration::Millis(col * 100 + 50));
      std::printf("%c", load >= level * 1000000 ? '#' : ' ');
    }
    std::printf("|\n");
  }
  std::printf("         +");
  for (int col = 0; col < cols; ++col) {
    std::printf("-");
  }
  std::printf("+\n          0s        1s        2s        (3 cubs x 1 s, wraps)\n\n");

  for (const Entry& e : entries) {
    std::printf("  %-9s %lld Mbit/s at %.2fs\n", e.name, static_cast<long long>(e.mbps),
                e.start_ms / 1000.0);
  }
  std::printf("\nfragmentation: a new 1-block-play-time entry cannot start in (0.9s, 1.0s)\n");
  for (int64_t ms : {910, 950, 990}) {
    std::printf("  CanInsert(%.2fs, 2 Mbit/s) = %s\n", ms / 1000.0,
                schedule.CanInsert(Duration::Millis(ms), Megabits(2)) ? "yes" : "no");
  }
  std::printf("  -> \"the gap in the schedule is slightly too short\" (§3.2)\n");
}

}  // namespace

int main() {
  RenderDiskSchedule();
  RenderNetworkSchedule();
  return 0;
}
