// The two-dimensional network schedule (§3.2).

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/schedule/network_schedule.h"

namespace tiger {
namespace {

class NetworkScheduleTest : public ::testing::Test {
 protected:
  // 3 cubs, 1 s play time, 6 Mbit/s capacity: the scale of the paper's
  // Figure 4 example.
  NetworkScheduleTest() : schedule_(Duration::Seconds(1), 3, Megabits(6)) {}
  NetworkSchedule schedule_;
  uint64_t next_ = 1;

  NetworkSchedule::EntryId Add(int64_t start_ms, int64_t mbps) {
    const uint64_t id = next_++;
    return schedule_.Insert(Duration::Millis(start_ms), Megabits(mbps), false,
                            ViewerId(static_cast<uint32_t>(id)), PlayInstanceId(id));
  }
};

TEST_F(NetworkScheduleTest, LoadProfileSumsOverlaps) {
  Add(0, 2);
  Add(500, 3);
  EXPECT_EQ(schedule_.LoadAt(Duration::Millis(250)), Megabits(2));
  EXPECT_EQ(schedule_.LoadAt(Duration::Millis(750)), Megabits(5));
  EXPECT_EQ(schedule_.LoadAt(Duration::Millis(1250)), Megabits(3));
  EXPECT_EQ(schedule_.LoadAt(Duration::Millis(1750)), 0);
  EXPECT_EQ(schedule_.PeakLoad(Duration::Zero(), schedule_.length()), Megabits(5));
}

TEST_F(NetworkScheduleTest, EntriesWrapAroundTheScheduleEnd) {
  Add(2500, 4);  // Covers [2.5s, 3.0s) and wraps to [0, 0.5s).
  EXPECT_EQ(schedule_.LoadAt(Duration::Millis(2750)), Megabits(4));
  EXPECT_EQ(schedule_.LoadAt(Duration::Millis(250)), Megabits(4));
  EXPECT_EQ(schedule_.LoadAt(Duration::Millis(1000)), 0);
  EXPECT_EQ(schedule_.PeakLoad(Duration::Millis(2400), Duration::Millis(400)), Megabits(4));
}

TEST_F(NetworkScheduleTest, CanInsertRespectsCapacity) {
  Add(0, 4);
  EXPECT_TRUE(schedule_.CanInsert(Duration::Zero(), Megabits(2)));
  EXPECT_FALSE(schedule_.CanInsert(Duration::Zero(), Megabits(3)));
  // Half-overlapping: the overlap [0.5, 1.0) carries 4, so 3 more overflows.
  EXPECT_FALSE(schedule_.CanInsert(Duration::Millis(500), Megabits(3)));
  // Disjoint region is free.
  EXPECT_TRUE(schedule_.CanInsert(Duration::Millis(1000), Megabits(6)));
}

TEST_F(NetworkScheduleTest, Figure4FragmentationGap) {
  // Recreates the §3.2 observation: "The free bandwidth below the 6 Mbit/s
  // level between when viewer 4 finishes sending and when viewer 2 starts is
  // unusable, because any new entry would be one block play time long, and
  // the gap in the schedule is slightly too short."
  Add(0, 2);     // Viewer 4: [0, 1.0) at 2 Mbit.
  Add(900, 4);   // Underlay filling the rest of the band.
  Add(1900, 2);  // Viewer 2 starts slightly before viewer 4's lap would fit.
  // A 2 Mbit entry cannot start anywhere in (900, 1000): the gap before the
  // 1900 entry is 1000 - 100 = 900 ms < one block play time.
  for (int64_t ms = 901; ms < 1000; ms += 7) {
    EXPECT_FALSE(schedule_.CanInsert(Duration::Millis(ms), Megabits(2))) << ms;
  }
}

TEST_F(NetworkScheduleTest, RemoveRestoresCapacity) {
  NetworkSchedule::EntryId id = Add(0, 6);
  EXPECT_FALSE(schedule_.CanInsert(Duration::Zero(), Megabits(1)));
  EXPECT_TRUE(schedule_.Remove(id));
  EXPECT_TRUE(schedule_.CanInsert(Duration::Zero(), Megabits(6)));
  EXPECT_FALSE(schedule_.Remove(id)) << "double remove";
  EXPECT_EQ(schedule_.entry_count(), 0u);
  EXPECT_EQ(schedule_.total_committed_bps(), 0);
}

TEST_F(NetworkScheduleTest, ReservationsHoldSpaceUntilCommitted) {
  NetworkSchedule::EntryId id =
      schedule_.Insert(Duration::Zero(), Megabits(4), /*reservation=*/true, ViewerId(1),
                       PlayInstanceId(77));
  EXPECT_FALSE(schedule_.CanInsert(Duration::Zero(), Megabits(3)));
  EXPECT_TRUE(schedule_.Get(id)->reservation);
  EXPECT_TRUE(schedule_.CommitReservation(id));
  EXPECT_FALSE(schedule_.Get(id)->reservation);
  EXPECT_EQ(schedule_.FindByInstance(PlayInstanceId(77)), id);
  EXPECT_EQ(schedule_.FindByInstance(PlayInstanceId(78)), std::nullopt);
}

TEST_F(NetworkScheduleTest, MeanUtilizationAndFreeFraction) {
  // One 6 Mbit entry over 1 of 3 seconds: utilization = 1/3.
  Add(0, 6);
  EXPECT_NEAR(schedule_.MeanUtilization(), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(schedule_.FreeFraction(), 2.0 / 3.0, 1e-9);
}

TEST_F(NetworkScheduleTest, AdmissibleStartMeasureShrinksWithLoad) {
  Duration before = schedule_.AdmissibleStartMeasure(Megabits(2), Duration::Millis(50));
  EXPECT_EQ(before, schedule_.length());
  Add(0, 6);
  Duration after = schedule_.AdmissibleStartMeasure(Megabits(2), Duration::Millis(50));
  EXPECT_LT(after, before);
  // A block-play-time-wide hole around the full-height entry is unusable.
  EXPECT_LE(after, Duration::Millis(1000 + 50));
}

TEST_F(NetworkScheduleTest, PeakLoadOverWrappedWindow) {
  Add(0, 2);
  Add(2800, 3);  // Wraps into [0, 0.8).
  EXPECT_EQ(schedule_.PeakLoad(Duration::Millis(2600), Duration::Millis(600)), Megabits(5));
}

}  // namespace
}  // namespace tiger
