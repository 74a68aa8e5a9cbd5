// The cub-local schedule view: idempotence and deschedule semantics (§4.1).

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
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

TEST_F(ScheduleViewTest, RefResolvesTheLandedEntry) {
  ViewerStateRecord record = MakeRecord(1, 100, 5, 7, 15000000);
  ScheduleView::EntryRef ref;
  ASSERT_EQ(view_.ApplyViewerState(record, now_, &ref), ScheduleView::ApplyResult::kNew);
  const ScheduleEntry* entry = view_.Get(ref);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->record().sequence, 7);
  EXPECT_EQ(view_.RefOf(*entry), ref);
  // A duplicate lands nothing and leaves the out-parameter alone.
  ScheduleView::EntryRef untouched;
  EXPECT_EQ(view_.ApplyViewerState(record, now_, &untouched),
            ScheduleView::ApplyResult::kDuplicate);
  EXPECT_EQ(untouched, ScheduleView::EntryRef{});
  EXPECT_EQ(view_.Get(ScheduleView::EntryRef{}), nullptr);
}

TEST_F(ScheduleViewTest, RefGoesStaleOnDeschedule) {
  ScheduleView::EntryRef ref;
  view_.ApplyViewerState(MakeRecord(1, 100, 5, 0, 15000000), now_, &ref);
  DescheduleRecord kill{ViewerId(1), PlayInstanceId(100), SlotId(5)};
  ASSERT_EQ(view_.ApplyDeschedule(kill, now_, now_ + Duration::Seconds(9)).removed.size(), 1u);
  EXPECT_EQ(view_.Get(ref), nullptr);
}

TEST_F(ScheduleViewTest, RefGoesStaleOnEviction) {
  ScheduleView::EntryRef gone;
  ScheduleView::EntryRef kept;
  view_.ApplyViewerState(MakeRecord(1, 100, 5, 0, 11000000), now_, &gone);
  view_.ApplyViewerState(MakeRecord(2, 200, 6, 0, 30000000), now_, &kept);
  ASSERT_EQ(view_.EvictBefore(TimePoint::FromMicros(12000000), now_ + Duration::Seconds(5)), 1);
  EXPECT_EQ(view_.Get(gone), nullptr);
  ASSERT_NE(view_.Get(kept), nullptr);
  EXPECT_EQ(view_.Get(kept)->record().viewer, ViewerId(2));
}

TEST_F(ScheduleViewTest, RefGoesStaleWhenItsSlotIsReused) {
  ScheduleView::EntryRef old_ref;
  view_.ApplyViewerState(MakeRecord(1, 100, 5, 0, 15000000), now_, &old_ref);
  DescheduleRecord kill{ViewerId(1), PlayInstanceId(100), SlotId(5)};
  view_.ApplyDeschedule(kill, now_, now_ + Duration::Seconds(9));
  // The next landing reuses the freed slab slot under a new generation.
  ScheduleView::EntryRef new_ref;
  view_.ApplyViewerState(MakeRecord(2, 200, 6, 0, 15100000), now_, &new_ref);
  ASSERT_EQ(new_ref.index, old_ref.index);
  EXPECT_NE(new_ref.generation, old_ref.generation);
  EXPECT_EQ(view_.Get(old_ref), nullptr);
  ASSERT_NE(view_.Get(new_ref), nullptr);
  EXPECT_EQ(view_.Get(new_ref)->record().viewer, ViewerId(2));
}

TEST_F(ScheduleViewTest, RefDoesNotAliasAcrossARebuild) {
  // A cub rebuilds its view on rejoin. A ref from before the rebuild must
  // not name whatever the rebuilt view lands at the same slab index.
  ScheduleView::EntryRef old_ref;
  view_.ApplyViewerState(MakeRecord(1, 100, 5, 0, 15000000), now_, &old_ref);
  const ViewerStateRecord next = MakeRecord(2, 200, 6, 0, 15100000);

  // What carrying the generation base prevents: a view that starts over at
  // generation 1 hands the same ref to the new entry.
  ScheduleView restarted(Duration::Seconds(3));
  ScheduleView::EntryRef restarted_ref;
  restarted.ApplyViewerState(next, now_, &restarted_ref);
  ASSERT_EQ(restarted_ref, old_ref);
  EXPECT_NE(restarted.Get(old_ref), nullptr);

  view_ = ScheduleView(Duration::Seconds(3), 0, 0, view_.next_generation());
  ScheduleView::EntryRef new_ref;
  view_.ApplyViewerState(next, now_, &new_ref);
  ASSERT_EQ(new_ref.index, old_ref.index);
  EXPECT_EQ(view_.Get(old_ref), nullptr);
  ASSERT_NE(view_.Get(new_ref), nullptr);
  EXPECT_EQ(view_.Get(new_ref)->record().viewer, ViewerId(2));
}

TEST_F(ScheduleViewTest, SlabReservedForEntriesDoesNotGrow) {
  ScheduleView view(Duration::Seconds(3), 4, 8);
  const size_t capacity = view.slab_capacity();
  ASSERT_GE(capacity, 8u);
  // Churn far more landings through the view than its reserve, never more
  // than eight live at once: freed slots are reused, so the slab stays put.
  for (int64_t i = 0; i < 200; ++i) {
    const TimePoint now = TimePoint::FromMicros(i * 1000000);
    view.EvictBefore(now - Duration::Seconds(7), now);
    view.ApplyViewerState(MakeRecord(1, 100, static_cast<uint32_t>(i % 4), i, now.micros()), now);
    ASSERT_LE(view.entry_count(), 8u);
  }
  EXPECT_EQ(view.slab_size(), 8u);
  EXPECT_EQ(view.slab_capacity(), capacity);
}

// The view's semantics with the eviction it had before the expiry index:
// every EvictBefore walks every bucket. Buckets are created and erased
// through the same map operations as the view's, so an equal ForEachEntry
// sequence also shows that evicting buckets in a different order leaves the
// surviving ones in the same iteration order.
class ReferenceView {
 public:
  explicit ReferenceView(Duration late_horizon) : late_horizon_(late_horizon) {}

  ScheduleView::ApplyResult Apply(const ViewerStateRecord& record, TimePoint now) {
    if (record.due + late_horizon_ < now) {
      return ScheduleView::ApplyResult::kTooLate;
    }
    if (auto it = buckets_.find(record.slot); it != buckets_.end()) {
      for (const Hold& hold : it->second.holds) {
        if (hold.hold_until >= now && hold.deschedule.viewer == record.viewer &&
            hold.deschedule.instance == record.instance) {
          return ScheduleView::ApplyResult::kKilledByDeschedule;
        }
      }
    }
    Bucket& bucket = buckets_[record.slot];
    for (const ViewerStateRecord& entry : bucket.entries) {
      if (entry.DedupKey() == record.DedupKey()) {
        return ScheduleView::ApplyResult::kDuplicate;
      }
    }
    for (const ViewerStateRecord& entry : bucket.entries) {
      if (!entry.is_mirror() && !record.is_mirror() && entry.due == record.due &&
          (entry.viewer != record.viewer || entry.instance != record.instance)) {
        return ScheduleView::ApplyResult::kConflict;
      }
    }
    bucket.entries.push_back(record);
    return ScheduleView::ApplyResult::kNew;
  }

  // Returns (entries removed, new hold).
  std::pair<size_t, bool> Deschedule(const DescheduleRecord& deschedule, TimePoint hold_until) {
    Bucket& bucket = buckets_[deschedule.slot];
    auto kept = std::stable_partition(
        bucket.entries.begin(), bucket.entries.end(), [&](const ViewerStateRecord& entry) {
          return entry.viewer != deschedule.viewer || entry.instance != deschedule.instance;
        });
    const size_t removed = static_cast<size_t>(bucket.entries.end() - kept);
    bucket.entries.erase(kept, bucket.entries.end());
    for (Hold& hold : bucket.holds) {
      if (hold.deschedule == deschedule) {
        hold.hold_until = std::max(hold.hold_until, hold_until);
        return {removed, false};
      }
    }
    bucket.holds.push_back(Hold{deschedule, hold_until});
    return {removed, true};
  }

  int EvictBefore(TimePoint entry_horizon, TimePoint now) {
    int evicted = 0;
    for (auto it = buckets_.begin(); it != buckets_.end();) {
      Bucket& bucket = it->second;
      auto entry_end = std::remove_if(
          bucket.entries.begin(), bucket.entries.end(),
          [&](const ViewerStateRecord& entry) { return entry.due < entry_horizon; });
      evicted += static_cast<int>(bucket.entries.end() - entry_end);
      bucket.entries.erase(entry_end, bucket.entries.end());
      std::erase_if(bucket.holds, [&](const Hold& hold) { return hold.hold_until < now; });
      it = bucket.entries.empty() && bucket.holds.empty() ? buckets_.erase(it) : std::next(it);
    }
    return evicted;
  }

  size_t entry_count() const {
    size_t n = 0;
    for (const auto& [slot, bucket] : buckets_) {
      n += bucket.entries.size();
    }
    return n;
  }
  size_t hold_count() const {
    size_t n = 0;
    for (const auto& [slot, bucket] : buckets_) {
      n += bucket.holds.size();
    }
    return n;
  }
  std::vector<ViewerStateRecord::Key> Entries() const {
    std::vector<ViewerStateRecord::Key> keys;
    for (const auto& [slot, bucket] : buckets_) {
      for (const ViewerStateRecord& entry : bucket.entries) {
        keys.push_back(entry.DedupKey());
      }
    }
    return keys;
  }

 private:
  struct Hold {
    DescheduleRecord deschedule;
    TimePoint hold_until;
  };
  struct Bucket {
    std::vector<ViewerStateRecord> entries;
    std::vector<Hold> holds;
  };
  Duration late_horizon_;
  std::unordered_map<SlotId, Bucket> buckets_;
};

std::vector<ViewerStateRecord::Key> EntryKeys(const ScheduleView& view) {
  std::vector<ViewerStateRecord::Key> keys;
  view.ForEachEntry([&](const ScheduleEntry& entry) { keys.push_back(entry.record().DedupKey()); });
  return keys;
}

// Drives one view and the reference through the same seeded mix of applies,
// deschedules and hold refreshes, evicting at 1 s steps the way a cub does,
// and requires them to agree after every step. `reserve` > 0 exercises the
// node stash, including the overflow nodes it destroys.
void RunIndexedEvictionAgainstReference(uint64_t seed, size_t reserve) {
  const Duration hold = Duration::Seconds(3);
  const Duration retention = Duration::Seconds(8);
  ScheduleView view(hold, reserve);
  ReferenceView reference(hold);
  Rng rng(seed);
  constexpr int kViewers = 24;
  constexpr int kSlots = 48;
  // The instance each viewer is playing; a kill moves it to a new one.
  std::vector<uint64_t> instance(kViewers);
  for (int v = 0; v < kViewers; ++v) {
    instance[v] = 1000 + v;
  }
  std::vector<int64_t> sequence(kViewers, 0);
  // Every ref the view handed out, with the key it landed under.
  std::vector<std::pair<ViewerStateRecord::Key, ScheduleView::EntryRef>> landed;
  TimePoint now = TimePoint::FromMicros(20'000'000);
  for (int tick = 0; tick < 120; ++tick) {
    const int ops = static_cast<int>(rng.UniformInt(0, 60));
    for (int op = 0; op < ops; ++op) {
      now += Duration::Micros(rng.UniformInt(0, 20'000));
      const int v = static_cast<int>(rng.UniformInt(0, kViewers - 1));
      const int64_t kind = rng.UniformInt(0, 9);
      if (kind < 7) {
        ViewerStateRecord record = MakeRecord(
            static_cast<uint32_t>(v), instance[v],
            static_cast<uint32_t>(rng.UniformInt(0, kSlots - 1)), sequence[v]++, 0);
        if (rng.Bernoulli(0.1)) {
          record.instance = PlayInstanceId(instance[v] - 1);  // Stale copy of a killed play.
        }
        if (rng.Bernoulli(0.3)) {
          record.mirror_fragment = static_cast<int32_t>(rng.UniformInt(0, 3));
        }
        if (rng.Bernoulli(0.1)) {
          --sequence[v];  // A duplicate (or, at another slot, a near-duplicate).
        }
        // Past dues (some too late), on-the-second dues and the 9 s lead.
        record.due = rng.Bernoulli(0.2)
                         ? TimePoint::FromMicros(now.micros() / 1'000'000 * 1'000'000)
                         : now + Duration::Micros(rng.UniformInt(-4'000'000, 9'000'000));
        ScheduleView::EntryRef ref;
        const ScheduleView::ApplyResult result = view.ApplyViewerState(record, now, &ref);
        ASSERT_EQ(result, reference.Apply(record, now)) << "tick " << tick << " op " << op;
        if (result == ScheduleView::ApplyResult::kNew) {
          landed.emplace_back(record.DedupKey(), ref);
        }
        continue;
      }
      DescheduleRecord kill{ViewerId(static_cast<uint32_t>(v)), PlayInstanceId(instance[v]),
                            SlotId(static_cast<uint32_t>(rng.UniformInt(0, kSlots - 1)))};
      if (kind == 7) {
        // Slot-less: resolved the way a cub resolves it, from the view's first
        // primary entry for the instance; nothing to apply if there is none.
        kill.slot = SlotId::Invalid();
        view.ForEachEntry([&](const ScheduleEntry& entry) {
          if (!kill.slot.valid() && entry.record().instance == kill.instance &&
              !entry.record().is_mirror()) {
            kill.slot = entry.record().slot;
          }
        });
        if (!kill.slot.valid()) {
          continue;
        }
      }
      // Kind 9 refreshes the hold with an earlier or a later expiry.
      const TimePoint hold_until =
          now + Duration::Micros(kind == 9 ? rng.UniformInt(0, 15'000'000) : 12'000'000);
      ScheduleView::DescheduleOutcome outcome = view.ApplyDeschedule(kill, now, hold_until);
      const auto [removed, new_hold] = reference.Deschedule(kill, hold_until);
      ASSERT_EQ(outcome.removed.size(), removed) << "tick " << tick << " op " << op;
      ASSERT_EQ(outcome.new_hold, new_hold) << "tick " << tick << " op " << op;
      if (kind != 9 && rng.Bernoulli(0.5)) {
        ++instance[v];  // The viewer restarts as a new play.
      }
    }
    now = TimePoint::FromMicros((now.micros() / 1'000'000 + 1) * 1'000'000);
    ASSERT_EQ(view.EvictBefore(now - retention, now),
              reference.EvictBefore(now - retention, now))
        << "tick " << tick;
    ASSERT_EQ(view.entry_count(), reference.entry_count()) << "tick " << tick;
    ASSERT_EQ(view.hold_count(), reference.hold_count()) << "tick " << tick;
    ASSERT_EQ(EntryKeys(view), reference.Entries()) << "tick " << tick;
    // Exactly one ref per live entry resolves, to that entry; every ref to
    // an entry that has left, even one whose slot was reused, resolves to
    // nothing.
    const std::vector<ViewerStateRecord::Key> live = reference.Entries();
    size_t resolved = 0;
    for (const auto& [key, ref] : landed) {
      if (const ScheduleEntry* entry = view.Get(ref)) {
        ++resolved;
        ASSERT_EQ(entry->record().DedupKey(), key) << "tick " << tick;
        ASSERT_NE(std::find(live.begin(), live.end(), key), live.end()) << "tick " << tick;
      }
    }
    ASSERT_EQ(resolved, view.entry_count()) << "tick " << tick;
  }
  // Long after the last apply, everything has aged out.
  now += Duration::Seconds(30);
  EXPECT_EQ(view.EvictBefore(now - retention, now), reference.EvictBefore(now - retention, now));
  EXPECT_EQ(view.entry_count(), 0u);
  EXPECT_EQ(view.hold_count(), 0u);
}

TEST(ScheduleViewIndexTest, IndexedEvictionMatchesFullWalk) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    RunIndexedEvictionAgainstReference(seed, 0);
    RunIndexedEvictionAgainstReference(seed, 16);
  }
}

}  // namespace
}  // namespace tiger
