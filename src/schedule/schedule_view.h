// A cub's local view of the (hallucinated) global disk schedule.
//
// The view stores only schedule entries near the cub's own disks — it is
// bounded by maxVStateLead ahead and a short retention behind, so its size
// does not grow with the system (§4, "a necessary but insufficient condition
// for scalability is that participants' views be limited...").
//
// The view enforces the two idempotence rules the protocol depends on:
//  * duplicate viewer states (records are routinely double-sent) are ignored;
//  * a held deschedule kills matching viewer states that arrive late, and
//    viewer states arriving later than the deschedule hold window are
//    discarded outright, so a viewer can never be spontaneously rescheduled
//    (§4.1.2).
//
// An entry's record is read-only once it lands: only the view writes it, and
// the cub sees it through a const accessor. Entries enter the view in one
// place (ApplyViewerStateImpl), which also feeds the landing log the schedule
// auditor drains — so the auditor checks each entry once, when it lands,
// instead of re-walking every view, and the single check is exact because
// nothing can change the record afterwards.

#ifndef SRC_SCHEDULE_SCHEDULE_VIEW_H_
#define SRC_SCHEDULE_SCHEDULE_VIEW_H_

#include <cstdint>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/net/payload_pool.h"
#include "src/schedule/viewer_state.h"
#include "src/trace/trace.h"

namespace tiger {

// Per-entry bookkeeping owned by the cub; the view only stores it. The
// record is the view's: set when the entry lands and never written again.
struct ScheduleEntry {
  const ViewerStateRecord& record() const { return record_; }

 private:
  friend class ScheduleView;
  ViewerStateRecord record_;  // First: the layout is the record, then bookkeeping.
  // The landing this slab slot holds (see ScheduleView::EntryRef); 0 while
  // the slot is free.
  uint32_t generation_ = 0;

 public:
  // --- cub-managed state --- (the first two flags share the generation's
  // word, which keeps the entry at 128 bytes)
  bool read_issued = false;
  bool block_ready = false;
  TimePoint received;  // Set by the view when the entry lands.
  // When servicing began (first read attempt); anchors the slot-service span.
  TimePoint service_start = TimePoint::Max();
  // A block buffer is charged to this entry (false for cache hits).
  bool buffer_held = false;
  bool sent = false;
  bool forwarded = false;
  // True for the duplicate copy held purely for fault tolerance (this cub is
  // not the serving cub for the record's disk).
  bool backup_only = false;
  // Set when a failure makes this cub responsible for mirror generation.
  bool takeover_processed = false;
  // Set when a transient read error made the serving cub dispatch this
  // block's declustered mirror chain; the primary's missed send is covered.
  bool mirror_recovery = false;
};

static_assert(!std::is_assignable_v<decltype(std::declval<ScheduleEntry&>().record()),
                                    const ViewerStateRecord&>,
              "a landed record is read-only outside ScheduleView");

class ScheduleView {
 public:
  // Bucket lists, holds and deschedule outcomes draw from the thread-local
  // payload pool, and entries live in a reserved slab: slot insert /
  // deschedule / evict churn recycles buffers, hash nodes and slab slots
  // instead of hitting the heap per event (the protocol layer's last
  // allocator — see ROADMAP item 1). Zero steady-state operator-new calls
  // once warm.
  using EntryVec = std::vector<ScheduleEntry, PoolAllocator<ScheduleEntry>>;

  // Names one landed entry: its slab index and the generation it landed
  // with. Get() resolves it in O(1) and returns nullptr once the entry has
  // been descheduled or evicted, even after a later entry reuses the index.
  // Generations come from one 32-bit counter per view, which a rebuild
  // continues from the old view's next_generation(), so none is reissued
  // before the counter wraps.
  struct EntryRef {
    uint32_t index = UINT32_MAX;
    uint32_t generation = 0;
    bool operator==(const EntryRef&) const = default;
  };

  enum class ApplyResult {
    kNew,                 // Accepted; a new entry was created.
    kDuplicate,           // Same DedupKey already present; ignored.
    kKilledByDeschedule,  // A held deschedule matches; discarded.
    kTooLate,             // Older than the deschedule hold window; discarded.
    kConflict,            // Another viewer already occupies the slot at this due time.
  };

  // `late_horizon` mirrors the deschedule hold duration: records whose due
  // time is more than this far in the past are rejected (kTooLate).
  // `reserve_buckets` pre-mints that many recycled map nodes (see
  // free_nodes_) so the eviction/creation cycle never waits for the stash to
  // reach its working level; nodes are minted one at a time through the map,
  // which keeps its bucket-array growth — and thus iteration order — on the
  // same trajectory as an unreserved view. `reserve_entries` sizes the entry
  // slab. `first_generation` is where this view's generations start; a view
  // that replaces another passes the old one's next_generation(), so no ref
  // into the old view ever resolves in the new one.
  explicit ScheduleView(Duration late_horizon, size_t reserve_buckets = 0,
                        size_t reserve_entries = 0, uint32_t first_generation = 1)
      : late_horizon_(late_horizon),
        stash_limit_(reserve_buckets == 0 ? SIZE_MAX : reserve_buckets),
        next_generation_(first_generation) {
    TIGER_DCHECK(first_generation != 0);  // 0 marks a free slab slot.
    free_nodes_.reserve(reserve_buckets);
    entry_expiry_.reserve(reserve_buckets);
    slab_.reserve(reserve_entries);
    free_slots_.reserve(reserve_entries);
    while (free_nodes_.size() < reserve_buckets) {
      const SlotId dummy(UINT32_MAX - static_cast<uint32_t>(free_nodes_.size()));
      SlotBucket& bucket = buckets_[dummy];
      bucket.entries.reserve(4);
      // One hold's worth of capacity up front: a deschedule parks a hold in
      // the slot's bucket on every cub it reaches, and recycled nodes keep
      // their vector buffers when stashed — without the reserve, each kill
      // that lands in a never-held bucket permanently moves one pool block
      // into the stash, slowly draining the pool class the message hot path
      // draws from.
      bucket.holds.reserve(1);
      free_nodes_.push_back(buckets_.extract(dummy));
    }
  }

  // Emits an event for every apply/deschedule/evict on the owning cub's
  // track. The owning cub re-wires this after rebuilding its view on rejoin.
  void SetTrace(Tracer* tracer, TraceTrackId track) {
    tracer_ = tracer;
    trace_track_ = track;
  }

  // On kNew, `*landed` (if given) names the entry just created.
  ApplyResult ApplyViewerState(const ViewerStateRecord& record, TimePoint now,
                               EntryRef* landed = nullptr);

  // Removes all entries matching (viewer, instance, slot) and records a hold.
  // Returns the removed entries (so the caller can cancel their work) and
  // whether the hold is new — duplicate deschedules refresh the hold but
  // report new_hold=false, which callers use to forward each deschedule once.
  struct DescheduleOutcome {
    EntryVec removed;  // Pool-backed: the outcome itself allocates nothing in steady state.
    bool new_hold = false;
  };
  DescheduleOutcome ApplyDeschedule(const DescheduleRecord& deschedule, TimePoint now,
                                    TimePoint hold_until);

  // Is there a non-mirror entry for `slot` due at exactly `due`? Used by the
  // insertion logic: due times are exact shared arithmetic, so the occupying
  // viewer's record (if it has arrived) matches precisely.
  bool SlotOccupiedAt(SlotId slot, TimePoint due) const;

  // Any entry (including mirrors) for this slot with due in (due-eps, due+eps)?
  bool SlotBusyNear(SlotId slot, TimePoint due, Duration epsilon) const;

  // The entry `ref` names; nullptr once it has left the view.
  ScheduleEntry* Get(EntryRef ref) {
    return const_cast<ScheduleEntry*>(std::as_const(*this).Get(ref));
  }
  const ScheduleEntry* Get(EntryRef ref) const {
    if (ref.index >= slab_.size()) {
      return nullptr;
    }
    const ScheduleEntry& entry = slab_[ref.index];
    return entry.generation_ == ref.generation ? &entry : nullptr;
  }
  // The ref of a live entry of this view (one ForEachEntry or Get handed out).
  EntryRef RefOf(const ScheduleEntry& entry) const {
    const auto index = static_cast<uint32_t>(&entry - slab_.data());
    TIGER_DCHECK(index < slab_.size() && entry.generation_ != 0);
    return EntryRef{index, entry.generation_};
  }
  // The generation the next landing gets; a rebuilt view starts here.
  uint32_t next_generation() const { return next_generation_; }

  // Landing log for the schedule auditor. Once enabled, every entry that
  // lands appends its ref, so the auditor's view diff visits only what
  // arrived since its previous check. Off unless an audit observer has been
  // attached; an un-audited view does no extra work.
  void EnableLandingLog() { log_landings_ = true; }
  // Calls fn(entry) for each entry landed since the last drain that is still
  // in the view, in landing order, then empties the log (keeping its
  // capacity). The log is audit bookkeeping, not schedule state, so draining
  // works on a const view. Call only where no shard is applying records (the
  // auditor drains at engine barriers).
  template <typename Fn>
  void DrainLandings(Fn&& fn) const {
    for (EntryRef ref : landings_) {
      if (const ScheduleEntry* entry = Get(ref)) {
        fn(*entry);
      }
    }
    landings_.clear();
  }
  void ClearLandings() const { landings_.clear(); }

  // All live entries (cub iterates to drive reads/sends/forwards), bucket by
  // bucket in map order and in landing order within a bucket.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) {
    for (auto& [slot, bucket] : buckets_) {
      for (const BucketItem& item : bucket.entries) {
        fn(slab_[item.index]);
      }
    }
  }

  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (const auto& [slot, bucket] : buckets_) {
      for (const BucketItem& item : bucket.entries) {
        fn(std::as_const(slab_[item.index]));
      }
    }
  }

  // Drops entries whose due time precedes `entry_horizon` and holds that
  // expired before `now`, and releases buckets left empty. Returns the number
  // of entries evicted. Visits only the buckets the expiry index says hold
  // something due, so a tick costs O(expired log view), not O(view); what
  // leaves, and when, is exactly what a walk of every bucket would drop.
  int EvictBefore(TimePoint entry_horizon, TimePoint now);

  // O(1): maintained at every insert/remove so per-checkpoint digests (the
  // flight recorder samples every cub once a sim-second) never walk the
  // bucket map.
  size_t entry_count() const { return live_entries_; }
  size_t hold_count() const { return live_holds_; }
  // Slab slots ever used: the view's peak entry count. The slab grows only
  // when a landing finds it full.
  size_t slab_size() const { return slab_.size(); }
  size_t slab_capacity() const { return slab_.capacity(); }

 private:
  struct Hold {
    DescheduleRecord deschedule;
    TimePoint hold_until;
  };
  // A bucket's handle on one of its entries: the slab index, and a copy of
  // the record fields the bucket scans compare (the slot is the bucket's),
  // so the dedup, conflict, occupancy and eviction scans read only the
  // bucket. Landed records are read-only, so the copy never goes stale.
  struct BucketItem {
    uint64_t instance;
    int64_t sequence;
    TimePoint due;
    int32_t mirror_fragment;
    uint32_t index;

    bool is_mirror() const { return mirror_fragment >= 0; }
  };
  struct SlotBucket {
    // The bucket's entries, in landing order.
    std::vector<BucketItem, PoolAllocator<BucketItem>> entries;
    std::vector<Hold, PoolAllocator<Hold>> holds;
    // Times this bucket is filed under in entry_expiry_ / hold_expiry_, or
    // Max when it has no live item there. The fields ride in the map node's
    // pool block, which has room for them (the node stays in the 128-byte
    // class).
    TimePoint entry_filed = TimePoint::Max();
    TimePoint hold_filed = TimePoint::Max();
  };
  using BucketMap =
      std::unordered_map<SlotId, SlotBucket, std::hash<SlotId>, std::equal_to<SlotId>,
                         PoolAllocator<std::pair<const SlotId, SlotBucket>>>;

  // Expiry index: a min-heap of (time, slot) items, one live item per bucket
  // and kind. A bucket's live item is the one whose time equals its
  // `*_filed` field, and that time is never later than the bucket's earliest
  // entry due (entry_expiry_) or hold_until (hold_expiry_). Items left behind
  // when a bucket is refiled or released are stale and are dropped when they
  // surface.
  struct Expiry {
    TimePoint when;
    SlotId slot;
    // With std::greater, the heap's front is the earliest item.
    friend bool operator>(const Expiry& a, const Expiry& b) { return a.when > b.when; }
  };
  using ExpiryHeap = std::vector<Expiry>;

  ApplyResult ApplyViewerStateImpl(const ViewerStateRecord& record, TimePoint now,
                                   EntryRef* landed);

  // Stores a new entry for `record` in a free slab slot and returns its ref.
  EntryRef Land(const ViewerStateRecord& record, TimePoint now);
  // Frees `index`'s slab slot; refs to it go stale.
  void Release(uint32_t index);

  // Files `slot` under `when` unless its live item is already no later.
  static void File(ExpiryHeap& heap, TimePoint& filed, TimePoint when, SlotId slot);
  // Pops every item due before `horizon` and evicts its bucket; returns the
  // number of entries evicted.
  int EvictDue(ExpiryHeap& heap, TimePoint SlotBucket::*filed, TimePoint horizon,
               TimePoint entry_horizon, TimePoint now);
  // Drops `it`'s expired entries and holds, then refiles the bucket or, if
  // nothing is left, releases it; returns the number of entries evicted.
  int EvictBucket(BucketMap::iterator it, TimePoint entry_horizon, TimePoint now);

  // Adds a bucket for `slot`, which must be absent. Reuses a retained node
  // from free_nodes_, so the steady-state erase/create bucket churn (slot
  // ownership rotates around the ring) never round-trips through the
  // allocator.
  SlotBucket& CreateBucket(SlotId slot);

  Duration late_horizon_;
  BucketMap buckets_;
  // Map nodes extracted by EvictBefore, kept for reuse with their entry/hold
  // vector capacities intact. Every cub's EvictionTick fires at the same sim
  // instant, so freeing these to the (capped) payload pool would overflow it
  // at large shapes and the next second's inserts would miss; retaining them
  // here makes the recycle per-view and burst-proof. Capped at the prewarm
  // reserve: deschedule holds park a transient bucket on every cub they
  // reach, and an uncapped stash would absorb each one permanently — the
  // stash grows with kill history and the size class it drains is the same
  // one kill-forward message blocks come from. Overflow nodes are destroyed
  // instead, returning their blocks to the pool.
  std::vector<BucketMap::node_type> free_nodes_;
  size_t stash_limit_;
  // Entry slab: every live entry sits at a stable index until it leaves.
  // Free slots are reused last-freed first; free_slots_ keeps capacity for
  // every slot, so releasing never allocates.
  std::vector<ScheduleEntry> slab_;
  std::vector<uint32_t> free_slots_;
  uint32_t next_generation_;
  // Reserved to the bucket reserve, which holds one live item per bucket of
  // the view's working set.
  ExpiryHeap entry_expiry_;
  ExpiryHeap hold_expiry_;
  size_t live_entries_ = 0;  // Sum of bucket entry counts.
  size_t live_holds_ = 0;    // Sum of bucket hold counts.
  Tracer* tracer_ = nullptr;
  TraceTrackId trace_track_ = 0;
  bool log_landings_ = false;
  mutable std::vector<EntryRef, PoolAllocator<EntryRef>> landings_;
};

}  // namespace tiger

#endif  // SRC_SCHEDULE_SCHEDULE_VIEW_H_
