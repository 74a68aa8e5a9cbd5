// Simulated disk: queueing, service times, utilization, failure.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "src/disk/disk.h"
#include "src/disk/disk_model.h"
#include "src/sim/simulator.h"

namespace tiger {
namespace {

TEST(DiskTest, ReadsCompleteInFifoOrder) {
  Simulator sim;
  SimulatedDisk disk(&sim, "d0", DiskId(0), UltrastarModel(), Rng(1));
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    disk.SubmitRead(DiskZone::kOuter, 262144, [&order, i](bool) { order.push_back(i); });
  }
  EXPECT_EQ(disk.queue_depth(), 5u);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(disk.reads_completed(), 5);
  EXPECT_EQ(disk.bytes_read(), 5 * 262144);
  EXPECT_EQ(disk.queue_depth(), 0u);
}

TEST(DiskTest, ServiceTimeWithinModelBounds) {
  Simulator sim;
  DiskModel model = UltrastarModel();
  SimulatedDisk disk(&sim, "d0", DiskId(0), model, Rng(2));
  TimePoint done;
  disk.SubmitRead(DiskZone::kOuter, 262144, [&](bool) { done = sim.Now(); });
  sim.Run();
  Duration elapsed = done - TimePoint::Zero();
  EXPECT_GE(elapsed, model.seek_min + model.TransferTime(DiskZone::kOuter, 262144));
  EXPECT_LE(elapsed, model.WorstCaseReadTime(DiskZone::kOuter, 262144));
}

TEST(DiskTest, UtilizationTracksBusyTime) {
  Simulator sim;
  SimulatedDisk disk(&sim, "d0", DiskId(0), UltrastarModel(), Rng(3));
  // 10 back-to-back reads: the disk is busy the whole stretch.
  TimePoint finished;
  for (int i = 0; i < 10; ++i) {
    disk.SubmitRead(DiskZone::kOuter, 262144, [&](bool) { finished = sim.Now(); });
  }
  sim.Run();
  double util = disk.busy_meter().UtilizationBetween(TimePoint::Zero(), finished);
  EXPECT_GT(util, 0.999);
}

TEST(DiskTest, HaltDropsQueueSilently) {
  Simulator sim;
  SimulatedDisk disk(&sim, "d0", DiskId(0), UltrastarModel(), Rng(4));
  int completions = 0;
  for (int i = 0; i < 5; ++i) {
    disk.SubmitRead(DiskZone::kOuter, 262144, [&](bool) { completions++; });
  }
  disk.Halt();
  sim.Run();
  EXPECT_EQ(completions, 0);
  // New reads on a dead disk are ignored.
  disk.SubmitRead(DiskZone::kOuter, 262144, [&](bool) { completions++; });
  sim.Run();
  EXPECT_EQ(completions, 0);
}

TEST(DiskTest, BlipsLengthenSomeReads) {
  Simulator sim;
  DiskModel model = UltrastarModel();
  model.blip_probability = 0.2;
  model.blip_min = Duration::Millis(300);
  model.blip_max = Duration::Millis(300);
  SimulatedDisk disk(&sim, "d0", DiskId(0), model, Rng(5));
  int slow = 0;
  TimePoint last = TimePoint::Zero();
  for (int i = 0; i < 200; ++i) {
    disk.SubmitRead(DiskZone::kOuter, 262144, [&, i](bool) {
      Duration service = sim.Now() - last;
      last = sim.Now();
      if (service > model.WorstCaseReadTime(DiskZone::kOuter, 262144)) {
        slow++;
      }
      (void)i;
    });
  }
  sim.Run();
  EXPECT_GT(slow, 10);
  EXPECT_LT(slow, 80);
}

TEST(DiskTest, EdfDisciplineServesNearestDeadlineFirst) {
  Simulator sim;
  SimulatedDisk disk(&sim, "d0", DiskId(0), UltrastarModel(), Rng(6));
  disk.set_discipline(DiskQueueDiscipline::kEarliestDeadlineFirst);
  std::vector<int> order;
  // First read starts immediately; the rest queue with inverted deadlines.
  disk.SubmitRead(DiskZone::kOuter, 262144, [&](bool) { order.push_back(0); },
                  TimePoint::FromMicros(9000000));
  disk.SubmitRead(DiskZone::kOuter, 262144, [&](bool) { order.push_back(1); },
                  TimePoint::FromMicros(8000000));
  disk.SubmitRead(DiskZone::kOuter, 262144, [&](bool) { order.push_back(2); },
                  TimePoint::FromMicros(2000000));
  disk.SubmitRead(DiskZone::kOuter, 262144, [&](bool) { order.push_back(3); },
                  TimePoint::FromMicros(5000000));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 1}));
}

TEST(DiskTest, FifoIgnoresDeadlines) {
  Simulator sim;
  SimulatedDisk disk(&sim, "d0", DiskId(0), UltrastarModel(), Rng(6));
  std::vector<int> order;
  disk.SubmitRead(DiskZone::kOuter, 262144, [&](bool) { order.push_back(0); },
                  TimePoint::FromMicros(9000000));
  disk.SubmitRead(DiskZone::kOuter, 262144, [&](bool) { order.push_back(1); },
                  TimePoint::FromMicros(1000000));
  disk.SubmitRead(DiskZone::kOuter, 262144, [&](bool) { order.push_back(2); },
                  TimePoint::FromMicros(5000000));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// Reads submitted while others are queued and in service complete in
// arrival order, across the queue's growth and drain.
TEST(DiskTest, InterleavedSubmissionsCompleteInArrivalOrder) {
  Simulator sim;
  SimulatedDisk disk(&sim, "d0", DiskId(0), UltrastarModel(), Rng(7));
  std::vector<int> order;
  int submitted = 0;
  std::function<void()> submit = [&] {
    const int i = submitted++;
    disk.SubmitRead(DiskZone::kOuter, 262144, [&, i](bool) {
      order.push_back(i);
      // Each completion queues two more until 300 reads, then one in three.
      for (int more = 0; more < (submitted < 300 ? 2 : (i % 3 == 0 ? 1 : 0)); ++more) {
        if (submitted < 400) {
          submit();
        }
      }
    });
  };
  for (int i = 0; i < 3; ++i) {
    submit();
  }
  sim.Run();
  std::vector<int> expected(static_cast<size_t>(submitted));
  for (int i = 0; i < submitted; ++i) {
    expected[static_cast<size_t>(i)] = i;
  }
  EXPECT_GT(submitted, 300);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(disk.queue_depth(), 0u);
}

// Earliest-deadline-first picks from the middle of the queue; the rest keep
// their arrival order, so equal deadlines go first-come first-served.
TEST(DiskTest, EarliestDeadlineFirstAcrossALongQueue) {
  Simulator sim;
  SimulatedDisk disk(&sim, "d0", DiskId(0), UltrastarModel(), Rng(8));
  disk.set_discipline(DiskQueueDiscipline::kEarliestDeadlineFirst);
  std::vector<std::pair<int64_t, int>> order;
  std::vector<std::pair<int64_t, int>> expected;
  Rng rng(9);
  for (int i = 0; i < 40; ++i) {
    const int64_t deadline = rng.UniformInt(1, 8) * 1000000;
    disk.SubmitRead(DiskZone::kOuter, 262144,
                    [&order, deadline, i](bool) { order.emplace_back(deadline, i); },
                    TimePoint::FromMicros(deadline));
    if (i > 0) {
      expected.emplace_back(deadline, i);  // Read 0 is in service at once.
    }
  }
  EXPECT_EQ(disk.queue_depth(), 40u);
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  sim.Run();
  ASSERT_EQ(order.size(), 40u);
  EXPECT_EQ(order[0].second, 0);
  order.erase(order.begin());
  EXPECT_EQ(order, expected);
}

// A cub's read completion captures the cub, the entry ref, the byte count
// and the block-cache key (48 bytes); it must be stored inline, or every
// simulated read would heap-allocate its callback.
TEST(DiskTest, CubSizedCompletionIsStoredInline) {
  struct Capture {
    void* cub;
    uint64_t ref;
    int64_t bytes;
    uint32_t file;
    int64_t position;
    int32_t fragment;
  } capture{};
  static_assert(sizeof(Capture) == 48);
  SimulatedDisk::Completion done([capture](bool) { (void)capture; });
  EXPECT_TRUE(done.is_inline());
}

TEST(DiskModelTest, ServiceBudgetExceedsMean) {
  DiskModel model = UltrastarModel();
  Duration mean = model.MeanServiceTime(262144, 4, true);
  Duration budget = model.ServiceBudget(262144, 4, true);
  EXPECT_GT(budget, mean);
  EXPECT_LT(budget, mean * 2);
}

TEST(DiskModelTest, FaultTolerantBudgetCoversMirrorRead) {
  DiskModel model = UltrastarModel();
  Duration without = model.ServiceBudget(262144, 4, false);
  Duration with = model.ServiceBudget(262144, 4, true);
  EXPECT_GT(with, without);
  // The extra is roughly one quarter-size inner-zone read (with headroom).
  Duration fragment = model.MeanReadTime(DiskZone::kInner, 65536);
  EXPECT_GT(with - without, fragment);
  EXPECT_LT(with - without, fragment * 2);
}

}  // namespace
}  // namespace tiger
