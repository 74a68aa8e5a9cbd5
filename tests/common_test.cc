// Foundations: time, ids, rng, result, units, the text-file writer.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "src/common/ids.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/text_file.h"
#include "src/common/time.h"
#include "src/common/units.h"

namespace tiger {
namespace {

TEST(TimeTest, DurationArithmetic) {
  EXPECT_EQ(Duration::Seconds(2) + Duration::Millis(500), Duration::Millis(2500));
  EXPECT_EQ(Duration::Seconds(3) - Duration::Seconds(5), -Duration::Seconds(2));
  EXPECT_EQ(Duration::Seconds(10) / 4, Duration::Millis(2500));
  EXPECT_EQ(Duration::Millis(2500) * 4, Duration::Seconds(10));
  EXPECT_EQ(Duration::Seconds(10) / Duration::Seconds(3), 3);
  EXPECT_EQ(Duration::Seconds(10) % Duration::Seconds(3), Duration::Seconds(1));
}

TEST(TimeTest, DurationComparisons) {
  EXPECT_LT(Duration::Millis(999), Duration::Seconds(1));
  EXPECT_GE(Duration::Micros(1000000), Duration::Seconds(1));
  EXPECT_EQ(Duration::Zero().micros(), 0);
}

TEST(TimeTest, TimePointArithmetic) {
  TimePoint t = TimePoint::FromMicros(5000000);
  EXPECT_EQ(t + Duration::Seconds(2), TimePoint::FromMicros(7000000));
  EXPECT_EQ(t - Duration::Seconds(2), TimePoint::FromMicros(3000000));
  EXPECT_EQ(t - TimePoint::FromMicros(1000000), Duration::Seconds(4));
}

TEST(TimeTest, ToStringPicksNaturalUnit) {
  EXPECT_EQ(Duration::Seconds(3).ToString(), "3s");
  EXPECT_EQ(Duration::Millis(250).ToString(), "250ms");
  EXPECT_EQ(Duration::Micros(7).ToString(), "7us");
}

TEST(IdsTest, DistinctTypesCompareOnlyWithThemselves) {
  CubId cub(3);
  DiskId disk(3);
  EXPECT_EQ(cub, CubId(3));
  EXPECT_NE(cub, CubId(4));
  EXPECT_EQ(disk.value(), cub.value());  // Values equal, types distinct.
}

TEST(IdsTest, InvalidIds) {
  EXPECT_FALSE(SlotId::Invalid().valid());
  EXPECT_TRUE(SlotId(0).valid());
  EXPECT_FALSE(PlayInstanceId().valid());
}

TEST(IdsTest, Hashable) {
  std::unordered_set<ViewerId> set;
  set.insert(ViewerId(1));
  set.insert(ViewerId(1));
  set.insert(ViewerId(2));
  EXPECT_EQ(set.size(), 2u);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, ForkedStreamsAreIndependent) {
  Rng parent(9);
  Rng child1 = parent.Fork();
  Rng child2 = parent.Fork();
  // Different streams (overwhelmingly likely to differ immediately).
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (child1.NextRaw() != child2.NextRaw()) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformDurationInclusive) {
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    Duration d = rng.UniformDuration(Duration::Millis(10), Duration::Millis(20));
    EXPECT_GE(d, Duration::Millis(10));
    EXPECT_LE(d, Duration::Millis(20));
  }
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = 42;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);

  Result<int> err = Status::Error("nope");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().message(), "nope");
}

TEST(UnitsTest, TransferTimeRoundsUp) {
  // 1 byte at 8 bits/sec = exactly 1 second.
  EXPECT_EQ(TransferTime(1, 8), Duration::Seconds(1));
  // 250000 bytes at 2 Mbit/s = exactly 1 second (the Tiger block).
  EXPECT_EQ(TransferTime(250000, Megabits(2)), Duration::Seconds(1));
  // Rounding up: 1 byte at 1 Gbit/s is 8 ns -> 1 us.
  EXPECT_EQ(TransferTime(1, 1000000000), Duration::Micros(1));
}

TEST(UnitsTest, BytesForDurationInvertsTransferTime) {
  EXPECT_EQ(BytesForDuration(Duration::Seconds(1), Megabits(2)), 250000);
  EXPECT_EQ(BytesForDuration(Duration::Millis(250), Megabits(2)), 62500);
}

TEST(TextFileTest, WritesWholeTextAndReportsFailures) {
  const std::string path = ::testing::TempDir() + "/text_file_test.txt";
  ASSERT_TRUE(WriteTextFile(path, "first version, longer\n"));
  ASSERT_TRUE(WriteTextFile(path, "a,b\n1,2\n"));  // Truncates.
  std::ifstream in(path, std::ios::binary);
  std::ostringstream read;
  read << in.rdbuf();
  EXPECT_EQ(read.str(), "a,b\n1,2\n");
  std::filesystem::remove(path);

  EXPECT_FALSE(WriteTextFile(::testing::TempDir() + "/no_such_dir/x.txt", "x"));
  if (std::filesystem::exists("/dev/full")) {
    // The open succeeds and the buffered write is accepted; only the flush
    // at close fails.
    EXPECT_FALSE(WriteTextFile("/dev/full", "x"));
  }
}

}  // namespace
}  // namespace tiger
