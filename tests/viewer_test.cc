// ViewerClient deadline checking, driven block by block.
//
// The viewer declares a block lost on a grid of 1 s checks anchored where
// its chain of checks started (or on the arrival of a later block, if that
// comes first). These tests pin the grid: which tick declares a drop, when a
// new play keeps the old grid, and when it starts a new one. Each case hands
// blocks to one viewer at chosen instants, with no cubs in the way.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "src/client/viewer.h"
#include "src/core/address_book.h"
#include "src/core/config.h"
#include "src/core/messages.h"
#include "src/layout/catalog.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"
#include "src/stats/qos.h"

namespace tiger {
namespace {

TimePoint At(double seconds) {
  return TimePoint::Zero() + Duration::Micros(std::llround(seconds * 1e6));
}

class ViewerTest : public ::testing::Test {
 protected:
  ViewerTest()
      : net_(&sim_, NetworkConfig{}, Rng(7)),
        catalog_(config_.block_play_time, config_.block_bytes, /*single_bitrate=*/true),
        viewer_(&sim_, ViewerId(1), &config_, &catalog_, &net_) {
    book_.controller = net_.Attach(&controller_, "controller", config_.cub_nic_bps);
    file_ = catalog_.AddFile("f", config_.max_stream_bps, Duration::Seconds(12), DiskId(0))
                .value();
    viewer_.SetAddressBook(&book_);
    viewer_.SetQosLedger(&qos_);
  }

  void PlayAt(double seconds) {
    sim_.ScheduleAt(At(seconds), [this] { viewer_.RequestPlay(file_); });
  }
  void StopAt(double seconds) {
    sim_.ScheduleAt(At(seconds), [this] { viewer_.RequestStop(); });
  }
  // Hands block `position` of play `instance` to the viewer at `seconds`.
  void BlockAt(double seconds, uint64_t instance, int64_t position) {
    sim_.ScheduleAt(At(seconds), [this, instance, position] {
      auto msg = std::make_shared<BlockDataMsg>();
      msg->viewer = ViewerId(1);
      msg->instance = PlayInstanceId(instance);
      msg->file = file_;
      msg->position = position;
      MessageEnvelope envelope;
      envelope.payload = msg;
      viewer_.HandleMessage(envelope);
    });
  }

  // (instant the loss was declared, absolute position) per ledger loss.
  std::vector<std::pair<TimePoint, int64_t>> LedgerLosses() const {
    std::vector<std::pair<TimePoint, int64_t>> out;
    for (const QosLedger::Glitch& g : qos_.glitches()) {
      if (g.kind == GlitchKind::kLost) {
        out.emplace_back(g.when, g.position);
      }
    }
    return out;
  }

  Simulator sim_;
  TigerConfig config_;
  Network net_;
  Catalog catalog_;
  SinkEndpoint controller_;
  AddressBook book_;
  QosLedger qos_;
  ViewerClient viewer_;
  FileId file_;
};

using Losses = std::vector<std::pair<TimePoint, int64_t>>;

// Play at 0.25 s: checks tick at 1.25, 2.25, ... The first block lands at
// 1.5 s, so block k's loss deadline is 3.5 + k s; later blocks land 0.1 s
// early. Block 3 (deadline 6.5) is dropped and nothing lands between its
// deadline and the 7.25 tick, which declares it. Block 8 (deadline 11.5) is
// dropped too, but block 10 lands 0.1 s late, at 11.6, and declares it on
// arrival, ahead of the 12.25 tick.
TEST_F(ViewerTest, DroppedBlockIsDeclaredLostOnTheFirstTickPastItsDeadline) {
  PlayAt(0.25);
  BlockAt(1.5, 77, 0);
  for (int64_t p = 1; p < 12; ++p) {
    if (p != 3 && p != 8 && p != 10) {
      BlockAt(1.4 + static_cast<double>(p), 77, p);
    }
  }
  BlockAt(11.6, 77, 10);
  sim_.RunUntil(At(20));

  EXPECT_EQ(viewer_.stats().lost_blocks, 2);
  EXPECT_EQ(viewer_.stats().late_blocks, 0);
  EXPECT_EQ(viewer_.stats().blocks_complete, 10);
  EXPECT_EQ(viewer_.stats().plays_completed, 1);
  EXPECT_FALSE(viewer_.playing());
  // loss_times() holds each lost block's expected arrival.
  EXPECT_EQ(viewer_.loss_times(), (std::vector<TimePoint>{At(4.5), At(9.5)}));
  EXPECT_EQ(LedgerLosses(), (Losses{{At(7.25), 3}, {At(11.6), 8}}));
}

// A deadline that falls on a tick is declared by that tick: the first block
// lands at 1.25 s, so dropped block 3's deadline is the 6.25 tick.
TEST_F(ViewerTest, DeadlineOnATickIsDeclaredByThatTick) {
  PlayAt(0.25);
  BlockAt(1.25, 77, 0);
  for (int64_t p : {1, 2, 4, 5, 6}) {
    BlockAt(1.2 + static_cast<double>(p), 77, p);
  }
  StopAt(7.5);
  sim_.RunUntil(At(20));

  EXPECT_EQ(viewer_.stats().lost_blocks, 1);
  EXPECT_EQ(LedgerLosses(), (Losses{{At(6.25), 3}}));
}

// Play A at 0.25 s runs blocks 0-5 and stops at 6.6 s, when its next check
// (for block 6's 9.5 s deadline) lies past the 7.25 tick. Play B is
// requested at 7.0 s, before that tick, so the chain goes on and B's drops
// are declared on A's grid: B's first block lands at 8.1 s, so block 2's
// deadline is 12.1 (tick 12.25) and block 3's is 13.1 (tick 13.25). A grid
// anchored at B's request would have declared them at 13.0 and 14.0.
TEST_F(ViewerTest, StopThenPlayBeforeTheNextTickKeepsTheGrid) {
  PlayAt(0.25);
  for (int64_t p = 0; p < 6; ++p) {
    BlockAt(1.5 + static_cast<double>(p), 77, p);
  }
  StopAt(6.6);
  PlayAt(7.0);
  BlockAt(8.1, 78, 0);
  BlockAt(9.1, 78, 1);
  StopAt(13.5);
  sim_.RunUntil(At(20));

  EXPECT_EQ(viewer_.stats().plays_requested, 2);
  EXPECT_EQ(viewer_.stats().lost_blocks, 2);
  EXPECT_EQ(viewer_.loss_times(), (std::vector<TimePoint>{At(10.1), At(11.1)}));
  EXPECT_EQ(LedgerLosses(), (Losses{{At(12.25), 2}, {At(13.25), 3}}));
}

// The same play A, stopped at 6.6 s; the 7.25 tick finds no play and ends
// the chain. Play B is requested at 8.0 s, after an idle gap of 1.4 s, and
// starts a new grid at 8.0: ticks at 9.0, 10.0, ... B's first block lands at
// 9.2 s, so block 2's deadline is 13.2, declared at the 14.0 tick (A's grid
// would have said 13.25).
TEST_F(ViewerTest, IdleGapLongerThanATickStartsANewGrid) {
  PlayAt(0.25);
  for (int64_t p = 0; p < 6; ++p) {
    BlockAt(1.5 + static_cast<double>(p), 77, p);
  }
  StopAt(6.6);
  PlayAt(8.0);
  BlockAt(9.2, 78, 0);
  BlockAt(10.2, 78, 1);
  StopAt(14.5);
  sim_.RunUntil(At(20));

  EXPECT_EQ(viewer_.stats().lost_blocks, 1);
  EXPECT_EQ(viewer_.loss_times(), (std::vector<TimePoint>{At(11.2)}));
  EXPECT_EQ(LedgerLosses(), (Losses{{At(14.0), 2}}));
}

// Blocks may complete far ahead of the retire cursor: here block 0 lands,
// then 11 down to 1, all inside block 1's loss deadline. Every one counts,
// nothing is lost, and the play completes when the gap closes.
TEST_F(ViewerTest, BlocksFarAheadOfTheCursorAreKept) {
  PlayAt(0.25);
  BlockAt(1.5, 77, 0);
  for (int64_t p = 11; p >= 1; --p) {
    BlockAt(1.6 + 0.1 * static_cast<double>(11 - p), 77, p);
  }
  BlockAt(1.65, 77, 11);  // A duplicate of a completed block is ignored.
  sim_.RunUntil(At(20));

  EXPECT_EQ(viewer_.stats().blocks_complete, 12);
  EXPECT_EQ(viewer_.stats().lost_blocks, 0);
  EXPECT_EQ(viewer_.stats().plays_completed, 1);
  EXPECT_TRUE(LedgerLosses().empty());
}

}  // namespace
}  // namespace tiger
