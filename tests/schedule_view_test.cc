// The cub-local schedule view: idempotence and deschedule semantics (§4.1).

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/schedule/schedule_view.h"

namespace tiger {
namespace {

ViewerStateRecord MakeRecord(uint32_t viewer, uint64_t instance, uint32_t slot, int64_t seq,
                             int64_t due_micros) {
  ViewerStateRecord record;
  record.viewer = ViewerId(viewer);
  record.instance = PlayInstanceId(instance);
  record.file = FileId(0);
  record.position = seq;
  record.slot = SlotId(slot);
  record.sequence = seq;
  record.bitrate_bps = Megabits(2);
  record.due = TimePoint::FromMicros(due_micros);
  return record;
}

class ScheduleViewTest : public ::testing::Test {
 protected:
  ScheduleViewTest() : view_(Duration::Seconds(3)) {}
  ScheduleView view_;
  TimePoint now_ = TimePoint::FromMicros(10000000);
};

TEST_F(ScheduleViewTest, DuplicatesIgnored) {
  // "Receiving a viewer state is idempotent: Duplicates are ignored." (§4.1.1)
  ViewerStateRecord record = MakeRecord(1, 100, 5, 0, 15000000);
  EXPECT_EQ(view_.ApplyViewerState(record, now_), ScheduleView::ApplyResult::kNew);
  EXPECT_EQ(view_.ApplyViewerState(record, now_), ScheduleView::ApplyResult::kDuplicate);
  EXPECT_EQ(view_.entry_count(), 1u);
}

TEST_F(ScheduleViewTest, SuccessiveBlocksAreSeparateEntries) {
  EXPECT_EQ(view_.ApplyViewerState(MakeRecord(1, 100, 5, 0, 15000000), now_),
            ScheduleView::ApplyResult::kNew);
  EXPECT_EQ(view_.ApplyViewerState(MakeRecord(1, 100, 5, 1, 16000000), now_),
            ScheduleView::ApplyResult::kNew);
  EXPECT_EQ(view_.entry_count(), 2u);
}

TEST_F(ScheduleViewTest, ConflictDetected) {
  EXPECT_EQ(view_.ApplyViewerState(MakeRecord(1, 100, 5, 0, 15000000), now_),
            ScheduleView::ApplyResult::kNew);
  // A different play instance at the same slot and due time is a protocol
  // violation the view reports.
  EXPECT_EQ(view_.ApplyViewerState(MakeRecord(2, 200, 5, 0, 15000000), now_),
            ScheduleView::ApplyResult::kConflict);
}

TEST_F(ScheduleViewTest, DescheduleRemovesOnlyMatchingInstance) {
  // "If this instance of viewer is in this schedule slot, remove the
  // viewer." (§4.1.2)
  view_.ApplyViewerState(MakeRecord(1, 100, 5, 0, 15000000), now_);
  view_.ApplyViewerState(MakeRecord(2, 200, 6, 0, 15100000), now_);

  DescheduleRecord wrong_instance{ViewerId(1), PlayInstanceId(999), SlotId(5)};
  EXPECT_TRUE(view_.ApplyDeschedule(wrong_instance, now_, now_ + Duration::Seconds(9))
                  .removed.empty());

  DescheduleRecord right{ViewerId(1), PlayInstanceId(100), SlotId(5)};
  auto outcome = view_.ApplyDeschedule(right, now_, now_ + Duration::Seconds(9));
  EXPECT_EQ(outcome.removed.size(), 1u);
  EXPECT_TRUE(outcome.new_hold);
  EXPECT_EQ(view_.entry_count(), 1u);  // Viewer 2 untouched.
}

TEST_F(ScheduleViewTest, DescheduleOnEmptySlotIsHarmless) {
  // "Having a deschedule request floating around after the slot has been
  // reallocated will not cause incorrect results." (§4.1.2)
  DescheduleRecord record{ViewerId(1), PlayInstanceId(100), SlotId(5)};
  auto outcome = view_.ApplyDeschedule(record, now_, now_ + Duration::Seconds(9));
  EXPECT_TRUE(outcome.removed.empty());
  EXPECT_TRUE(outcome.new_hold);
  // A NEW instance can still occupy the slot.
  EXPECT_EQ(view_.ApplyViewerState(MakeRecord(3, 300, 5, 0, 15000000), now_),
            ScheduleView::ApplyResult::kNew);
}

TEST_F(ScheduleViewTest, HeldDeschedulekillsLateViewerStates) {
  DescheduleRecord kill{ViewerId(1), PlayInstanceId(100), SlotId(5)};
  view_.ApplyDeschedule(kill, now_, now_ + Duration::Seconds(9));
  EXPECT_EQ(view_.ApplyViewerState(MakeRecord(1, 100, 5, 3, 15000000), now_),
            ScheduleView::ApplyResult::kKilledByDeschedule);
  // After the hold expires the record would be accepted — but then it is
  // also too late to matter (see TooLateRecordsDiscarded).
  TimePoint later = now_ + Duration::Seconds(10);
  EXPECT_EQ(view_.ApplyViewerState(MakeRecord(1, 100, 5, 3, 25000000), later),
            ScheduleView::ApplyResult::kNew);
}

TEST_F(ScheduleViewTest, DuplicateDescheduleReportsNoNewHold) {
  DescheduleRecord kill{ViewerId(1), PlayInstanceId(100), SlotId(5)};
  EXPECT_TRUE(view_.ApplyDeschedule(kill, now_, now_ + Duration::Seconds(9)).new_hold);
  EXPECT_FALSE(view_.ApplyDeschedule(kill, now_, now_ + Duration::Seconds(12)).new_hold);
  EXPECT_EQ(view_.hold_count(), 1u);
}

TEST_F(ScheduleViewTest, TooLateRecordsDiscarded) {
  // "If a viewer state arrives so late that the cub would have already
  // discarded any deschedules for that slot, the cub discards the viewer
  // state" — so a viewer cannot be spontaneously rescheduled (§4.1.2).
  ViewerStateRecord stale = MakeRecord(1, 100, 5, 0, now_.micros() - 4000000);
  EXPECT_EQ(view_.ApplyViewerState(stale, now_), ScheduleView::ApplyResult::kTooLate);
  // Within the horizon it is still accepted.
  ViewerStateRecord recent = MakeRecord(1, 100, 5, 1, now_.micros() - 2000000);
  EXPECT_EQ(view_.ApplyViewerState(recent, now_), ScheduleView::ApplyResult::kNew);
}

TEST_F(ScheduleViewTest, SlotOccupancyByExactDueTime) {
  view_.ApplyViewerState(MakeRecord(1, 100, 5, 0, 15000000), now_);
  EXPECT_TRUE(view_.SlotOccupiedAt(SlotId(5), TimePoint::FromMicros(15000000)));
  EXPECT_FALSE(view_.SlotOccupiedAt(SlotId(5), TimePoint::FromMicros(15000001)));
  EXPECT_FALSE(view_.SlotOccupiedAt(SlotId(6), TimePoint::FromMicros(15000000)));
  // Mirror records do not count as primary occupancy.
  ViewerStateRecord mirror = MakeRecord(2, 200, 7, 0, 16000000);
  mirror.mirror_fragment = 1;
  view_.ApplyViewerState(mirror, now_);
  EXPECT_FALSE(view_.SlotOccupiedAt(SlotId(7), TimePoint::FromMicros(16000000)));
  EXPECT_TRUE(view_.SlotBusyNear(SlotId(7), TimePoint::FromMicros(16000000),
                                 Duration::Millis(1)));
}

TEST_F(ScheduleViewTest, DescheduleKillsMirrorFragmentsToo) {
  ViewerStateRecord primary = MakeRecord(1, 100, 5, 0, 15000000);
  view_.ApplyViewerState(primary, now_);
  for (int j = 0; j < 4; ++j) {
    ViewerStateRecord fragment = primary;
    fragment.mirror_fragment = j;
    fragment.due = primary.due + Duration::Millis(250) * j;
    view_.ApplyViewerState(fragment, now_);
  }
  EXPECT_EQ(view_.entry_count(), 5u);
  DescheduleRecord kill{ViewerId(1), PlayInstanceId(100), SlotId(5)};
  auto outcome = view_.ApplyDeschedule(kill, now_, now_ + Duration::Seconds(9));
  EXPECT_EQ(outcome.removed.size(), 5u);
  EXPECT_EQ(view_.entry_count(), 0u);
}

TEST_F(ScheduleViewTest, EvictionDropsPastEntriesAndExpiredHolds) {
  view_.ApplyViewerState(MakeRecord(1, 100, 5, 0, 11000000), now_);
  view_.ApplyViewerState(MakeRecord(2, 200, 6, 0, 30000000), now_);
  DescheduleRecord kill{ViewerId(3), PlayInstanceId(300), SlotId(9)};
  view_.ApplyDeschedule(kill, now_, now_ + Duration::Seconds(2));

  TimePoint later = now_ + Duration::Seconds(5);
  int evicted = view_.EvictBefore(TimePoint::FromMicros(12000000), later);
  EXPECT_EQ(evicted, 1);
  EXPECT_EQ(view_.entry_count(), 1u);
  EXPECT_EQ(view_.hold_count(), 0u);
}

TEST_F(ScheduleViewTest, FindByKey) {
  ViewerStateRecord record = MakeRecord(1, 100, 5, 7, 15000000);
  view_.ApplyViewerState(record, now_);
  ScheduleEntry* entry = view_.Find(record.DedupKey());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->record().sequence, 7);
  ViewerStateRecord other = record;
  other.sequence = 8;
  EXPECT_EQ(view_.Find(other.DedupKey()), nullptr);
}

}  // namespace
}  // namespace tiger
