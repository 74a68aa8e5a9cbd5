// The schedule invariant checker, driven through its hooks.
//
// Each of the four checks (insert-time double booking, slot-boundary sends,
// lead bounds, due coherence) must fire on a crafted input and stay silent
// on its legal twin. The system case proves the hooks are wired: a corrupted
// viewer-state forward is reported as due-coherence violations naming the
// corrupted key, and as nothing else, identically at every thread count.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/client/testbed.h"
#include "src/core/invariant_checker.h"

namespace tiger {
namespace {

TimePoint At(double seconds) { return TimePoint::Zero() + Duration::Seconds(seconds); }

ViewerStateRecord::Key KeyOf(uint64_t instance, uint32_t slot, int64_t sequence) {
  return ViewerStateRecord::Key{instance, slot, sequence, -1};
}

class InvariantCheckerHooksTest : public ::testing::Test {
 protected:
  InvariantCheckerHooksTest() : geometry_(config_.MakeGeometry()), checker_(&geometry_, config_) {}

  std::string Violations() const {
    std::string out;
    for (const InvariantChecker::Violation& v : checker_.violations()) {
      out += v.what + "\n";
    }
    return out;
  }

  TigerConfig config_;
  ScheduleGeometry geometry_;
  InvariantChecker checker_;
};

TEST_F(InvariantCheckerHooksTest, InsertIntoAnOccupiedSlotIsADoubleBooking) {
  checker_.OnInsert(SlotId(7), PlayInstanceId(1), At(10));
  checker_.OnInsert(SlotId(8), PlayInstanceId(2), At(10));
  EXPECT_TRUE(checker_.violations().empty()) << Violations();

  checker_.OnInsert(SlotId(7), PlayInstanceId(3), At(11));
  EXPECT_EQ(checker_.conflict_count(), 1);
  ASSERT_EQ(checker_.violations().size(), 1u);
  EXPECT_EQ(checker_.violations()[0].when, At(11));
  EXPECT_NE(checker_.violations()[0].what.find("slot 7 double-booked"), std::string::npos);
  EXPECT_NE(checker_.violations()[0].what.find("instance 3 joins 1 live occupant"),
            std::string::npos);
}

TEST_F(InvariantCheckerHooksTest, RemovedOccupantFreesItsSlot) {
  checker_.OnInsert(SlotId(7), PlayInstanceId(1), At(10));
  checker_.OnRemove(SlotId(7), PlayInstanceId(1));
  checker_.OnInsert(SlotId(7), PlayInstanceId(2), At(12));
  // Removing an instance the slot does not hold changes nothing.
  checker_.OnRemove(SlotId(7), PlayInstanceId(9));
  checker_.OnRemove(SlotId(4), PlayInstanceId(2));
  EXPECT_EQ(checker_.insert_count(), 2);
  EXPECT_EQ(checker_.conflict_count(), 0);
  EXPECT_TRUE(checker_.violations().empty()) << Violations();
}

TEST_F(InvariantCheckerHooksTest, SendOffTheSlotBoundaryIsMistimed) {
  const DiskId disk(2);
  const SlotId slot(5);
  const TimePoint due = geometry_.NextSlotStart(disk, slot, At(30));
  checker_.OnPrimarySend(slot, disk, due, due);
  EXPECT_TRUE(checker_.violations().empty()) << Violations();

  const TimePoint off = due + Duration::Millis(1);
  checker_.OnPrimarySend(slot, disk, off, off);
  EXPECT_EQ(checker_.mistimed_send_count(), 1);
  ASSERT_EQ(checker_.violations().size(), 1u);
  EXPECT_EQ(checker_.violations()[0].when, off);
  EXPECT_NE(checker_.violations()[0].what.find("not a slot boundary"), std::string::npos);
}

TEST_F(InvariantCheckerHooksTest, LandingBeyondTheLeadBoundIsAViolation) {
  const Duration max_lead = config_.max_vstate_lead + config_.block_play_time * 2;
  const TimePoint now = At(20);
  // Exactly at the bound is legal.
  checker_.OnLanding(CubId(1), KeyOf(1, 3, 0), now + max_lead, now);
  EXPECT_TRUE(checker_.violations().empty()) << Violations();

  checker_.OnLanding(CubId(2), KeyOf(2, 4, 0), now + max_lead + Duration::Micros(1), now);
  ASSERT_EQ(checker_.violations().size(), 1u);
  EXPECT_EQ(checker_.violations()[0].what,
            "cub2 landed instance 2 slot 4 seq 0 fragment -1 " +
                std::to_string((max_lead + Duration::Micros(1)).micros()) +
                "us ahead of its due time (max " + std::to_string(max_lead.micros()) + "us)");
  EXPECT_EQ(checker_.landings_checked(), 2);
}

TEST_F(InvariantCheckerHooksTest, TwoLandingsOfOneKeyWithDifferentDuesMismatch) {
  const ViewerStateRecord::Key key = KeyOf(4, 9, 12);
  const TimePoint due = At(30);
  checker_.OnLanding(CubId(0), key, due, At(25));
  // Every copy carrying the same due is coherent, whichever cub lands it.
  checker_.OnLanding(CubId(1), key, due, At(25.5));
  checker_.OnLanding(CubId(1), KeyOf(4, 9, 13), due + config_.block_play_time, At(26));
  EXPECT_TRUE(checker_.violations().empty()) << Violations();

  checker_.OnLanding(CubId(2), key, due + Duration::Millis(1), At(26));
  ASSERT_EQ(checker_.violations().size(), 1u);
  EXPECT_EQ(checker_.violations()[0].when, At(26));
  EXPECT_EQ(checker_.violations()[0].what,
            "due mismatch for instance 4 slot 9 seq 12 fragment -1: cub0 landed it due " +
                std::to_string(due.micros()) + "us, cub2 due " +
                std::to_string((due + Duration::Millis(1)).micros()) + "us");
}

TEST_F(InvariantCheckerHooksTest, KeyExpiresAtItsLateHorizon) {
  const ViewerStateRecord::Key key = KeyOf(4, 9, 12);
  const TimePoint due = At(30);
  const TimePoint horizon = due + config_.deschedule_hold;
  checker_.OnLanding(CubId(0), key, due, At(25));
  // Up to due + deschedule_hold a view still accepts the key, so a copy
  // with another due is still a mismatch...
  checker_.OnLanding(CubId(1), key, due + Duration::Millis(1), horizon);
  EXPECT_EQ(checker_.violations().size(), 1u) << Violations();
  // ...but past it no view accepts the first copy's key any more: the next
  // landing starts afresh, and the index only answers to its own due.
  const TimePoint later = horizon + Duration::Micros(1);
  checker_.OnLanding(CubId(2), key, later + Duration::Seconds(2), later);
  checker_.OnLanding(CubId(3), key, later + Duration::Seconds(2), later);
  EXPECT_EQ(checker_.violations().size(), 1u) << Violations();
  checker_.OnLanding(CubId(3), key, later + Duration::Seconds(3), later);
  EXPECT_EQ(checker_.violations().size(), 2u) << Violations();
}

// --- wired into a running system -------------------------------------------

TigerConfig CorruptionConfig(int threads) {
  TigerConfig config;
  config.shape = SystemShape{8, 2, 2};
  config.sim_shards = 8;
  config.sim_threads = threads;
  return config;
}

std::vector<InvariantChecker::Violation> RunCorruptedForward(int threads, bool corrupt) {
  Testbed testbed(CorruptionConfig(threads), /*seed=*/11);
  TigerSystem& system = testbed.system();
  system.EnableInvariantChecker();
  testbed.AddContent(4, Duration::Seconds(40));
  testbed.Start();
  for (int i = 0; i < 4; ++i) {
    testbed.AddViewer(FileId(static_cast<uint32_t>(i)));
  }
  testbed.RunFor(Duration::Seconds(10));
  if (corrupt) {
    system.cub(CubId(1)).InjectAuditCorruption();
  }
  testbed.RunFor(Duration::Seconds(20));
  EXPECT_GT(system.invariant_checker()->landings_checked(), 100);
  return system.invariant_checker()->violations();
}

TEST(InvariantCheckerSystemTest, CorruptedForwardIsADueMismatchAndNothingElse) {
  EXPECT_TRUE(RunCorruptedForward(1, /*corrupt=*/false).empty());

  const std::vector<InvariantChecker::Violation> one = RunCorruptedForward(1, true);
  ASSERT_FALSE(one.empty()) << "the corrupted forward must be caught";
  std::string key;
  for (const InvariantChecker::Violation& v : one) {
    // Only due coherence fires, always on one key, whose two copies sit the
    // injected 1ms apart.
    char key_text[96] = {};
    unsigned first_cub = 0;
    unsigned second_cub = 0;
    long long first_due = 0;
    long long second_due = 0;
    ASSERT_EQ(std::sscanf(v.what.c_str(), "due mismatch for %95[^:]: cub%u landed it due %lldus, cub%u due %lldus",
                          key_text, &first_cub, &first_due, &second_cub, &second_due),
              5)
        << v.what;
    EXPECT_EQ(std::llabs(first_due - second_due), 1000) << v.what;
    EXPECT_NE(first_cub, second_cub) << v.what;
    if (key.empty()) {
      key = key_text;
    }
    EXPECT_EQ(key, key_text) << v.what;
  }

  const std::vector<InvariantChecker::Violation> four = RunCorruptedForward(4, true);
  ASSERT_EQ(four.size(), one.size());
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(four[i].when, one[i].when);
    EXPECT_EQ(four[i].what, one[i].what);
  }
}

}  // namespace
}  // namespace tiger
