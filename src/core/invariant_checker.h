// Runtime checker of the paper's §4 schedule invariants (test hook).
//
// The global schedule is a hallucination — no component may rely on it. The
// checker may: every cub reports its insertions, removals, primary block
// sends and view landings to it through the shard journal, and each report
// is checked as it arrives:
//
//  * no double booking (§4.1.3): a slot never holds two live play instances,
//    so an insert into a slot that still has an occupant is a conflict;
//  * slot-boundary sends: every primary block goes out exactly at a slot
//    start of its serving disk;
//  * bounded leads (§4.1.1): no view learns of a block more than
//    maxVStateLead, plus two block play times of takeover slack, before it
//    is due;
//  * due coherence (§4.1.1): every landing of one record (one DedupKey), in
//    any view, carries the same due time — due times are shared arithmetic,
//    never local clocks.
//
// Due coherence keeps one index entry per key, from its first landing until
// due + deschedule_hold. That is the views' own late horizon: past it,
// ScheduleView refuses the record as too late, so no copy of the key can
// land again and the entry can go. So the index needs no hook for entries
// leaving a view (eviction, deschedule, a cub's crash or rejoin).
//
// Cubs only write to the checker; it reads no protocol or auditor state.

#ifndef SRC_CORE_INVARIANT_CHECKER_H_
#define SRC_CORE_INVARIANT_CHECKER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/core/config.h"
#include "src/net/payload_pool.h"
#include "src/schedule/geometry.h"
#include "src/schedule/viewer_state.h"

namespace tiger {

class InvariantChecker {
 public:
  struct Violation {
    TimePoint when;
    std::string what;
  };

  InvariantChecker(const ScheduleGeometry* geometry, const TigerConfig& config);

  // Cubs call the hooks through ShardEngine::JournalAppend, so in sharded
  // runs they apply at barriers, in (shard clock, shard, sequence) order.

  // A play instance was inserted into `slot`.
  void OnInsert(SlotId slot, PlayInstanceId instance, TimePoint when);
  // A play left the schedule (deschedule applied, end of file served, or a
  // takeover found no block left to serve).
  void OnRemove(SlotId slot, PlayInstanceId instance);
  // A primary block of `slot` was sent from `disk`, due at `due`.
  void OnPrimarySend(SlotId slot, DiskId disk, TimePoint due, TimePoint now);
  // A record with `key`, due at `due`, landed in cub `cub`'s view at `now`.
  void OnLanding(CubId cub, const ViewerStateRecord::Key& key, TimePoint due, TimePoint now);

  const std::vector<Violation>& violations() const { return violations_; }
  int conflict_count() const { return conflicts_; }
  int mistimed_send_count() const { return mistimed_sends_; }
  int insert_count() const { return inserts_; }
  int64_t landings_checked() const { return landings_; }

 private:
  struct Occupancy {
    PlayInstanceId instance;
    TimePoint inserted;
  };
  struct FirstLanding {
    TimePoint due;
    CubId cub;
  };
  struct Expiry {
    TimePoint at;
    ViewerStateRecord::Key key;
    // With std::greater, the heap's front is the earliest expiry.
    friend bool operator>(const Expiry& a, const Expiry& b) { return a.at > b.at; }
  };
  struct KeyHash {
    size_t operator()(const ViewerStateRecord::Key& key) const {
      const uint64_t mixed = (key.instance * 0x9E3779B97F4A7C15ull) ^
                             (static_cast<uint64_t>(key.sequence) << 20) ^
                             (static_cast<uint64_t>(key.slot) << 8) ^
                             static_cast<uint64_t>(key.mirror_fragment + 1);
      return std::hash<uint64_t>()(mixed);
    }
  };
  using Occupants = std::vector<Occupancy, PoolAllocator<Occupancy>>;

  void AddViolation(TimePoint when, std::string what);

  const ScheduleGeometry* geometry_;
  const Duration max_lead_;
  const Duration late_horizon_;
  std::unordered_map<SlotId, Occupants, std::hash<SlotId>, std::equal_to<SlotId>,
                     PoolAllocator<std::pair<const SlotId, Occupants>>>
      occupancy_;
  std::unordered_map<ViewerStateRecord::Key, FirstLanding, KeyHash,
                     std::equal_to<ViewerStateRecord::Key>,
                     PoolAllocator<std::pair<const ViewerStateRecord::Key, FirstLanding>>>
      due_by_key_;
  std::vector<Expiry> expiries_;  // Min-heap over due_by_key_'s entries.
  int conflicts_ = 0;
  int mistimed_sends_ = 0;
  int inserts_ = 0;
  int64_t landings_ = 0;
  std::vector<Violation> violations_;
};

}  // namespace tiger

#endif  // SRC_CORE_INVARIANT_CHECKER_H_
