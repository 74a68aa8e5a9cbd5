#include "src/schedule/schedule_view.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "src/common/check.h"
#include "src/trace/profiler.h"

namespace tiger {

ScheduleView::SlotBucket& ScheduleView::CreateBucket(SlotId slot) {
  if (!free_nodes_.empty()) {
    BucketMap::node_type node = std::move(free_nodes_.back());
    free_nodes_.pop_back();
    node.key() = slot;
    return buckets_.insert(std::move(node)).position->second;
  }
  return buckets_[slot];
}

ScheduleView::EntryRef ScheduleView::Land(const ViewerStateRecord& record, TimePoint now) {
  uint32_t index;
  if (free_slots_.empty()) {
    index = static_cast<uint32_t>(slab_.size());
    slab_.emplace_back();
    if (free_slots_.capacity() < slab_.capacity()) {
      free_slots_.reserve(slab_.capacity());
    }
  } else {
    index = free_slots_.back();
    free_slots_.pop_back();
    slab_[index] = ScheduleEntry();
  }
  ScheduleEntry& entry = slab_[index];
  entry.record_ = record;
  entry.received = now;
  entry.generation_ = next_generation_;
  if (++next_generation_ == 0) {
    next_generation_ = 1;  // 0 marks a free slot.
  }
  ++live_entries_;
  return EntryRef{index, entry.generation_};
}

void ScheduleView::Release(uint32_t index) {
  slab_[index].generation_ = 0;
  free_slots_.push_back(index);
  --live_entries_;
}

ScheduleView::ApplyResult ScheduleView::ApplyViewerState(const ViewerStateRecord& record,
                                                         TimePoint now, EntryRef* landed) {
  TIGER_PROF_SCOPE(kScheduleApply);
  const ApplyResult result = ApplyViewerStateImpl(record, now, landed);
  TIGER_TRACE_INSTANT(tracer_, trace_track_, TraceEventType::kVStateApply,
                      TraceArgs{.viewer = record.viewer.value(),
                                .slot = record.slot.value(),
                                .a = record.position,
                                .b = static_cast<int64_t>(result)});
  return result;
}

ScheduleView::ApplyResult ScheduleView::ApplyViewerStateImpl(const ViewerStateRecord& record,
                                                             TimePoint now, EntryRef* landed) {
  if (record.due + late_horizon_ < now) {
    // So late that any deschedule for it would already have been discarded;
    // accepting it could resurrect a dead viewer. Drop it (§4.1.2).
    return ApplyResult::kTooLate;
  }
  // One lookup: the holds, the dedup scan and the conflict scan all read the
  // bucket it finds, and a bucket is created only when the slot has none.
  auto it = buckets_.find(record.slot);
  SlotBucket* bucket = nullptr;
  if (it != buckets_.end()) {
    bucket = &it->second;
    for (const Hold& hold : bucket->holds) {
      if (hold.hold_until >= now && hold.deschedule.viewer == record.viewer &&
          hold.deschedule.instance == record.instance && hold.deschedule.slot == record.slot) {
        return ApplyResult::kKilledByDeschedule;
      }
    }
    // The slot is the bucket's, so the rest of the DedupKey decides.
    for (const BucketItem& item : bucket->entries) {
      if (item.instance == record.instance.value() && item.sequence == record.sequence &&
          item.mirror_fragment == record.mirror_fragment) {
        return ApplyResult::kDuplicate;
      }
    }
    // Two different viewers (or two instances) must never be scheduled into
    // the same slot for the same service time.
    if (!record.is_mirror()) {
      for (const BucketItem& item : bucket->entries) {
        if (!item.is_mirror() && item.due == record.due &&
            (item.instance != record.instance.value() ||
             slab_[item.index].record().viewer != record.viewer)) {
          return ApplyResult::kConflict;
        }
      }
    }
  } else {
    bucket = &CreateBucket(record.slot);
  }
  const EntryRef ref = Land(record, now);
  bucket->entries.push_back(BucketItem{record.instance.value(), record.sequence, record.due,
                                       record.mirror_fragment, ref.index});
  File(entry_expiry_, bucket->entry_filed, record.due, record.slot);
  if (log_landings_) {
    landings_.push_back(ref);
  }
  if (landed != nullptr) {
    *landed = ref;
  }
  return ApplyResult::kNew;
}

ScheduleView::DescheduleOutcome ScheduleView::ApplyDeschedule(const DescheduleRecord& deschedule,
                                                              TimePoint now,
                                                              TimePoint hold_until) {
  TIGER_PROF_SCOPE(kDeschedule);
  auto it = buckets_.find(deschedule.slot);
  SlotBucket& bucket = it != buckets_.end() ? it->second : CreateBucket(deschedule.slot);
  DescheduleOutcome outcome;
  auto matches = [&](const ScheduleEntry& entry) {
    return entry.record().viewer == deschedule.viewer &&
           entry.record().instance == deschedule.instance && entry.record().slot == deschedule.slot;
  };
  // Stable in-place partition by hand: std::stable_partition allocates a
  // temporary buffer on every call, and deschedules are forwarded around the
  // whole ring — each cub re-applies every copy, so this path must stay on
  // the pool like the rest of the view. Kept and removed entries both retain
  // their relative order.
  size_t keep = 0;
  for (size_t i = 0; i < bucket.entries.size(); ++i) {
    const BucketItem item = bucket.entries[i];
    if (item.instance == deschedule.instance.value() && matches(slab_[item.index])) {
      outcome.removed.push_back(slab_[item.index]);
      Release(item.index);
    } else {
      bucket.entries[keep++] = item;
    }
  }
  bucket.entries.resize(keep);

  // Record (or refresh) the hold. Duplicate deschedules are idempotent.
  bool found = false;
  for (Hold& hold : bucket.holds) {
    if (hold.deschedule == deschedule) {
      hold.hold_until = std::max(hold.hold_until, hold_until);
      found = true;
      break;
    }
  }
  if (!found) {
    bucket.holds.push_back(Hold{deschedule, hold_until});
    ++live_holds_;
    outcome.new_hold = true;
  }
  // An extended hold is still covered: the bucket's live item is no later
  // than its old hold_until.
  File(hold_expiry_, bucket.hold_filed, hold_until, deschedule.slot);
  TIGER_TRACE_INSTANT(tracer_, trace_track_, TraceEventType::kDescheduleApply,
                      TraceArgs{.viewer = deschedule.viewer.value(),
                                .slot = deschedule.slot.value(),
                                .a = static_cast<int64_t>(outcome.removed.size()),
                                .b = outcome.new_hold ? 1 : 0});
  (void)now;
  return outcome;
}

bool ScheduleView::SlotOccupiedAt(SlotId slot, TimePoint due) const {
  auto it = buckets_.find(slot);
  if (it == buckets_.end()) {
    return false;
  }
  for (const BucketItem& item : it->second.entries) {
    if (!item.is_mirror() && item.due == due) {
      return true;
    }
  }
  return false;
}

bool ScheduleView::SlotBusyNear(SlotId slot, TimePoint due, Duration epsilon) const {
  auto it = buckets_.find(slot);
  if (it == buckets_.end()) {
    return false;
  }
  for (const BucketItem& item : it->second.entries) {
    Duration gap = item.due > due ? item.due - due : due - item.due;
    if (gap < epsilon) {
      return true;
    }
  }
  return false;
}

void ScheduleView::File(ExpiryHeap& heap, TimePoint& filed, TimePoint when, SlotId slot) {
  if (when >= filed) {
    return;
  }
  filed = when;
  heap.push_back(Expiry{when, slot});
  std::push_heap(heap.begin(), heap.end(), std::greater<>());
}

int ScheduleView::EvictBefore(TimePoint entry_horizon, TimePoint now) {
  const int evicted = EvictDue(entry_expiry_, &SlotBucket::entry_filed, entry_horizon,
                               entry_horizon, now) +
                      EvictDue(hold_expiry_, &SlotBucket::hold_filed, now, entry_horizon, now);
  if (evicted > 0) {
    TIGER_TRACE_INSTANT(tracer_, trace_track_, TraceEventType::kViewEvict,
                        TraceArgs{.a = evicted});
  }
  return evicted;
}

int ScheduleView::EvictDue(ExpiryHeap& heap, TimePoint SlotBucket::*filed, TimePoint horizon,
                           TimePoint entry_horizon, TimePoint now) {
  int evicted = 0;
  while (!heap.empty() && heap.front().when < horizon) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const Expiry item = heap.back();
    heap.pop_back();
    auto it = buckets_.find(item.slot);
    if (it == buckets_.end() || it->second.*filed != item.when) {
      continue;  // Stale: the bucket was refiled or released since.
    }
    it->second.*filed = TimePoint::Max();  // The live item is gone; EvictBucket refiles.
    evicted += EvictBucket(it, entry_horizon, now);
  }
  return evicted;
}

int ScheduleView::EvictBucket(BucketMap::iterator it, TimePoint entry_horizon, TimePoint now) {
  SlotBucket& bucket = it->second;
  size_t keep = 0;
  for (const BucketItem& item : bucket.entries) {
    if (item.due < entry_horizon) {
      Release(item.index);
    } else {
      bucket.entries[keep++] = item;
    }
  }
  const int evicted = static_cast<int>(bucket.entries.size() - keep);
  bucket.entries.resize(keep);
  auto hold_end = std::remove_if(bucket.holds.begin(), bucket.holds.end(),
                                 [&](const Hold& h) { return h.hold_until < now; });
  live_holds_ -= static_cast<size_t>(bucket.holds.end() - hold_end);
  bucket.holds.erase(hold_end, bucket.holds.end());
  // Emptied buckets must leave the map, not stay: every slot in the ring
  // eventually passes through every cub, so retained empties would grow the
  // map toward the global slot count, and every ForEachEntry (failure
  // re-arm, takeover scan, rejoin reply) would pay for the whole ring instead
  // of the live window. Their nodes are stashed for reuse rather than
  // destroyed; see free_nodes_. Their items left in the index are stale from
  // here on.
  if (bucket.entries.empty() && bucket.holds.empty()) {
    bucket.entry_filed = TimePoint::Max();
    bucket.hold_filed = TimePoint::Max();
    if (free_nodes_.size() < stash_limit_) {
      free_nodes_.push_back(buckets_.extract(it));
    } else {
      // Stash already holds the steady-state working set; this node is
      // kill-transient overflow. Destroy it so its block (and its vectors')
      // go back to the payload pool rather than accreting here.
      buckets_.erase(it);
    }
    return evicted;
  }
  // Whatever is left expires no earlier than the horizons, so refiling never
  // puts an item back in front of the drain that popped this one. A kind with
  // nothing left stays at Max, which File leaves unfiled.
  TimePoint earliest_due = TimePoint::Max();
  for (const BucketItem& item : bucket.entries) {
    earliest_due = std::min(earliest_due, item.due);
  }
  File(entry_expiry_, bucket.entry_filed, earliest_due, it->first);
  TimePoint earliest_hold = TimePoint::Max();
  for (const Hold& hold : bucket.holds) {
    earliest_hold = std::min(earliest_hold, hold.hold_until);
  }
  File(hold_expiry_, bucket.hold_filed, earliest_hold, it->first);
  return evicted;
}

}  // namespace tiger
