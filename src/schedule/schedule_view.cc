#include "src/schedule/schedule_view.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "src/common/check.h"
#include "src/trace/profiler.h"

namespace tiger {

ScheduleView::SlotBucket& ScheduleView::GetOrCreateBucket(SlotId slot) {
  auto it = buckets_.find(slot);
  if (it != buckets_.end()) {
    return it->second;
  }
  if (!free_nodes_.empty()) {
    BucketMap::node_type node = std::move(free_nodes_.back());
    free_nodes_.pop_back();
    node.key() = slot;
    return buckets_.insert(std::move(node)).position->second;
  }
  return buckets_[slot];
}

ScheduleView::ApplyResult ScheduleView::ApplyViewerState(const ViewerStateRecord& record,
                                                         TimePoint now) {
  TIGER_PROF_SCOPE(kScheduleApply);
  const ApplyResult result = ApplyViewerStateImpl(record, now);
  TIGER_TRACE_INSTANT(tracer_, trace_track_, TraceEventType::kVStateApply,
                      TraceArgs{.viewer = record.viewer.value(),
                                .slot = record.slot.value(),
                                .a = record.position,
                                .b = static_cast<int64_t>(result)});
  return result;
}

ScheduleView::ApplyResult ScheduleView::ApplyViewerStateImpl(const ViewerStateRecord& record,
                                                             TimePoint now) {
  if (record.due + late_horizon_ < now) {
    // So late that any deschedule for it would already have been discarded;
    // accepting it could resurrect a dead viewer. Drop it (§4.1.2).
    return ApplyResult::kTooLate;
  }
  if (HoldsDescheduleFor(record, now)) {
    return ApplyResult::kKilledByDeschedule;
  }
  SlotBucket& bucket = GetOrCreateBucket(record.slot);
  for (const ScheduleEntry& entry : bucket.entries) {
    if (entry.record().DedupKey() == record.DedupKey()) {
      return ApplyResult::kDuplicate;
    }
  }
  // Two different viewers (or two instances) must never be scheduled into the
  // same slot for the same service time.
  for (const ScheduleEntry& entry : bucket.entries) {
    if (!entry.record().is_mirror() && !record.is_mirror() && entry.record().due == record.due &&
        (entry.record().viewer != record.viewer || entry.record().instance != record.instance)) {
      return ApplyResult::kConflict;
    }
  }
  ScheduleEntry entry;
  entry.record_ = record;
  entry.received = now;
  bucket.entries.push_back(entry);
  ++live_entries_;
  File(entry_expiry_, bucket.entry_filed, record.due, record.slot);
  if (log_landings_) {
    landings_.push_back(record.DedupKey());
  }
  return ApplyResult::kNew;
}

ScheduleView::DescheduleOutcome ScheduleView::ApplyDeschedule(const DescheduleRecord& deschedule,
                                                              TimePoint now,
                                                              TimePoint hold_until) {
  TIGER_PROF_SCOPE(kDeschedule);
  SlotBucket& bucket = GetOrCreateBucket(deschedule.slot);
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
    if (matches(bucket.entries[i])) {
      outcome.removed.push_back(std::move(bucket.entries[i]));
    } else {
      if (keep != i) {
        bucket.entries[keep] = std::move(bucket.entries[i]);
      }
      ++keep;
    }
  }
  bucket.entries.resize(keep);
  live_entries_ -= outcome.removed.size();

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

bool ScheduleView::HoldsDescheduleFor(const ViewerStateRecord& record, TimePoint now) const {
  auto it = buckets_.find(record.slot);
  if (it == buckets_.end()) {
    return false;
  }
  for (const Hold& hold : it->second.holds) {
    if (hold.hold_until >= now && hold.deschedule.viewer == record.viewer &&
        hold.deschedule.instance == record.instance && hold.deschedule.slot == record.slot) {
      return true;
    }
  }
  return false;
}

bool ScheduleView::SlotOccupiedAt(SlotId slot, TimePoint due) const {
  auto it = buckets_.find(slot);
  if (it == buckets_.end()) {
    return false;
  }
  for (const ScheduleEntry& entry : it->second.entries) {
    if (!entry.record().is_mirror() && entry.record().due == due) {
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
  for (const ScheduleEntry& entry : it->second.entries) {
    Duration gap = entry.record().due > due ? entry.record().due - due : due - entry.record().due;
    if (gap < epsilon) {
      return true;
    }
  }
  return false;
}

ScheduleEntry* ScheduleView::Find(const ViewerStateRecord::Key& key) {
  return const_cast<ScheduleEntry*>(std::as_const(*this).Find(key));
}

const ScheduleEntry* ScheduleView::Find(const ViewerStateRecord::Key& key) const {
  auto it = buckets_.find(SlotId(key.slot));
  if (it == buckets_.end()) {
    return nullptr;
  }
  for (const ScheduleEntry& entry : it->second.entries) {
    if (entry.record().DedupKey() == key) {
      return &entry;
    }
  }
  return nullptr;
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
  auto entry_end = std::remove_if(bucket.entries.begin(), bucket.entries.end(),
                                  [&](const ScheduleEntry& e) {
                                    return e.record().due < entry_horizon;
                                  });
  const int evicted = static_cast<int>(bucket.entries.end() - entry_end);
  live_entries_ -= static_cast<size_t>(evicted);
  bucket.entries.erase(entry_end, bucket.entries.end());
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
  for (const ScheduleEntry& entry : bucket.entries) {
    earliest_due = std::min(earliest_due, entry.record().due);
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
