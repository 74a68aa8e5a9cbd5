// Microbenchmarks of schedule-management operations (google-benchmark).
//
// Supports the paper's claim that "the amount of work done to implement the
// Tiger schedule is small relative to the work needed to move megabytes of
// data per second from the disk to the network" — every operation here is
// sub-microsecond to a few microseconds, versus ~tens of milliseconds of
// CPU to packetize one block.

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/config.h"
#include "src/layout/striping.h"
#include "src/schedule/geometry.h"
#include "src/schedule/network_schedule.h"
#include "src/schedule/schedule_view.h"
#include "src/schedule/viewer_state.h"

namespace tiger {
namespace {

TigerConfig PaperConfig() { return TigerConfig{}; }

void BM_SlotBoundaryMath(benchmark::State& state) {
  ScheduleGeometry geometry = PaperConfig().MakeGeometry();
  int64_t slot = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(geometry.SlotStartOffset(slot));
    slot = (slot + 97) % geometry.slot_count();
  }
}
BENCHMARK(BM_SlotBoundaryMath);

void BM_DiskPointer(benchmark::State& state) {
  ScheduleGeometry geometry = PaperConfig().MakeGeometry();
  int64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        geometry.DiskPointer(DiskId(13), TimePoint::FromMicros(t)));
    t += 1234567;
  }
}
BENCHMARK(BM_DiskPointer);

void BM_NextOwnership(benchmark::State& state) {
  TigerConfig config = PaperConfig();
  ScheduleGeometry geometry = config.MakeGeometry();
  OwnershipWindows windows(&geometry, config.MakeOwnershipParams());
  int64_t t = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(windows.NextOwnership(DiskId(7), TimePoint::FromMicros(t)));
    t += 93023;
  }
}
BENCHMARK(BM_NextOwnership);

void BM_ViewerStateEncodeDecode(benchmark::State& state) {
  ViewerStateRecord record;
  record.viewer = ViewerId(42);
  record.instance = PlayInstanceId(777);
  record.file = FileId(3);
  record.position = 1234;
  record.slot = SlotId(567);
  record.sequence = 1234;
  record.bitrate_bps = Megabits(2);
  record.due = TimePoint::FromMicros(999999999);
  for (auto _ : state) {
    auto wire = record.Encode();
    benchmark::DoNotOptimize(ViewerStateRecord::Decode(wire));
  }
}
BENCHMARK(BM_ViewerStateEncodeDecode);

void BM_ViewApplyViewerState(benchmark::State& state) {
  ScheduleView view(Duration::Seconds(3));
  ViewerStateRecord record;
  record.viewer = ViewerId(1);
  record.instance = PlayInstanceId(1);
  record.slot = SlotId(100);
  int64_t seq = 0;
  for (auto _ : state) {
    record.sequence = seq++;
    record.due = TimePoint::FromMicros(seq * 1000000);
    benchmark::DoNotOptimize(view.ApplyViewerState(record, record.due));
    if (seq % 512 == 0) {
      view.EvictBefore(record.due - Duration::Seconds(1), record.due);
    }
  }
}
BENCHMARK(BM_ViewApplyViewerState);

// One cub's EvictionTick on a steady view: each 1 s tick lands the records
// that keep the view's size constant (untimed), then evicts what fell behind
// the 8 s retention (timed). The argument is the lead in seconds, how far
// ahead of its due a record lands. At 9 s (the default max_vstate_lead) the
// view is ring_control-sized: ~1,100 entries in ~600 buckets, ~65 of them
// leaving per tick. Longer leads grow the view while the turnover per tick
// stays at 65, so a tick whose cost tracks what expires stays flat across
// the arguments, and one that walks the view grows with it.
void BM_ViewEvictSteadyState(benchmark::State& state) {
  constexpr int64_t kLandedPerTick = 65;
  const Duration lead = Duration::Seconds(state.range(0));
  const Duration retention = Duration::Seconds(8);
  // About two entries per bucket, as on a ring_control cub.
  const int64_t slots = kLandedPerTick * (state.range(0) + 8) * 100 / 185;
  ScheduleView view(Duration::Seconds(3), static_cast<size_t>(slots) + 16);
  ViewerStateRecord record;
  record.instance = PlayInstanceId(1);
  int64_t landed = 0;
  TimePoint now = TimePoint::FromMicros(0);
  auto tick = [&] {
    now += Duration::Seconds(1);
    for (int64_t i = 0; i < kLandedPerTick; ++i, ++landed) {
      record.viewer = ViewerId(static_cast<uint32_t>(landed % slots));
      record.slot = SlotId(static_cast<uint32_t>(landed % slots));
      record.sequence = landed;
      record.due = now + lead + Duration::Micros(i);
      view.ApplyViewerState(record, now);
    }
  };
  // Warm up past one full lead + retention so the view is at its working size.
  for (int64_t i = 0; i < state.range(0) + 20; ++i) {
    tick();
    view.EvictBefore(now - retention, now);
  }
  int64_t evicted = 0;
  for (auto _ : state) {
    state.PauseTiming();
    tick();
    state.ResumeTiming();
    const int n = view.EvictBefore(now - retention, now);
    benchmark::DoNotOptimize(n);
    evicted += n;
  }
  state.counters["entries"] = static_cast<double>(view.entry_count());
  state.counters["evicted_per_tick"] =
      static_cast<double>(evicted) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_ViewEvictSteadyState)->Arg(9)->Arg(36)->Arg(144);

// A per-entry timer resolving its entry. The view is ring_control-sized
// (~1,100 entries in ~600 buckets, as in BM_ViewEvictSteadyState at 9 s),
// and the refs are visited in shuffled order so consecutive lookups do not
// walk the slab in landing order.
void BM_ViewGetCold(benchmark::State& state) {
  constexpr int64_t kSlots = 600;
  constexpr int64_t kEntries = 1100;
  ScheduleView view(Duration::Seconds(3), kSlots + 16, 2 * kEntries);
  std::vector<ScheduleView::EntryRef> refs;
  ViewerStateRecord record;
  record.instance = PlayInstanceId(1);
  const TimePoint now = TimePoint::FromMicros(0);
  for (int64_t i = 0; i < kEntries; ++i) {
    record.viewer = ViewerId(static_cast<uint32_t>(i % kSlots));
    record.slot = SlotId(static_cast<uint32_t>(i % kSlots));
    record.sequence = i;
    record.due = now + Duration::Seconds(9) + Duration::Micros(i);
    ScheduleView::EntryRef ref;
    view.ApplyViewerState(record, now, &ref);
    refs.push_back(ref);
  }
  Rng rng(1);
  for (size_t i = refs.size() - 1; i > 0; --i) {
    std::swap(refs[i], refs[rng.PickIndex(i + 1)]);
  }
  size_t next = 0;
  for (auto _ : state) {
    const ScheduleEntry* entry = view.Get(refs[next]);
    benchmark::DoNotOptimize(entry->record().due);
    next = next + 1 == refs.size() ? 0 : next + 1;
  }
  state.counters["entries"] = static_cast<double>(view.entry_count());
}
BENCHMARK(BM_ViewGetCold);

void BM_NetworkScheduleCanInsert(benchmark::State& state) {
  NetworkSchedule schedule(Duration::Seconds(1), 14, 155000000);
  // Populate to ~80% with 2 Mbit entries.
  uint64_t instance = 1;
  for (int i = 0; i < 800; ++i) {
    Duration offset = Duration::Micros((i * 977537) % schedule.length().micros());
    if (schedule.CanInsert(offset, Megabits(2))) {
      schedule.Insert(offset, Megabits(2), false, ViewerId(1), PlayInstanceId(instance++));
    }
  }
  int64_t x = 0;
  for (auto _ : state) {
    Duration offset = Duration::Micros(x % schedule.length().micros());
    benchmark::DoNotOptimize(schedule.CanInsert(offset, Megabits(2)));
    x += 250000;
  }
  state.SetLabel(std::to_string(schedule.entry_count()) + " entries");
}
BENCHMARK(BM_NetworkScheduleCanInsert);

void BM_StripingMath(benchmark::State& state) {
  TigerConfig config = PaperConfig();
  StripeLayout layout(config.shape);
  Catalog catalog(config.block_play_time, config.block_bytes, true);
  FileId file = catalog.AddFile("f", Megabits(2), Duration::Seconds(3600), DiskId(5)).value();
  const FileInfo& info = catalog.Get(file);
  int64_t block = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(layout.PrimaryDisk(info, block));
    benchmark::DoNotOptimize(layout.SecondaryLocation(info, block, 2));
    block = (block + 1) % info.block_count;
  }
}
BENCHMARK(BM_StripingMath);

void BM_SoonestServingDisk(benchmark::State& state) {
  ScheduleGeometry geometry = PaperConfig().MakeGeometry();
  int64_t s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(geometry.SoonestServingDisk(
        SlotId(static_cast<uint32_t>(s)), TimePoint::FromMicros(123456789)));
    s = (s + 31) % geometry.slot_count();
  }
}
BENCHMARK(BM_SoonestServingDisk);

}  // namespace
}  // namespace tiger

BENCHMARK_MAIN();
