// Omniscient invariant checker (test hook).
//
// The global schedule is a hallucination — no component may rely on it. Tests
// may: the oracle watches every insertion, removal and block send and checks
// the invariants the protocol is supposed to preserve:
//
//  * a schedule slot is never occupied by two live play instances at once;
//  * every block sent for a slot goes out exactly at the slot's start time at
//    the serving disk (primaries) or at the declustered fragment times
//    (mirrors).
//
// Production code paths never read from the oracle.

#ifndef SRC_CORE_ORACLE_H_
#define SRC_CORE_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/schedule/geometry.h"

namespace tiger {

class ScheduleOracle {
 public:
  explicit ScheduleOracle(const ScheduleGeometry* geometry) : geometry_(geometry) {}

  // Cubs call the write hooks through ShardEngine::JournalAppend; production
  // paths only write, never read, so deferring the writes to barriers in
  // sharded runs is safe.

  // Called by the inserting cub at the moment of insertion.
  void OnInsert(SlotId slot, ViewerId viewer, PlayInstanceId instance, TimePoint when);

  // Called when a play leaves the schedule (deschedule issued or EOF served).
  void OnRemove(SlotId slot, PlayInstanceId instance, TimePoint when);

  // Called for each primary block send decision.
  void OnPrimarySend(SlotId slot, PlayInstanceId instance, DiskId disk, TimePoint due,
                     TimePoint now);

  int conflict_count() const { return conflicts_; }
  int mistimed_send_count() const { return mistimed_sends_; }
  int insert_count() const { return inserts_; }
  const std::vector<std::string>& violations() const { return violations_; }

 private:
  struct Occupancy {
    ViewerId viewer;
    PlayInstanceId instance;
    TimePoint inserted;
  };

  const ScheduleGeometry* geometry_;
  std::unordered_map<SlotId, std::vector<Occupancy>> occupancy_;
  int conflicts_ = 0;
  int mistimed_sends_ = 0;
  int inserts_ = 0;
  std::vector<std::string> violations_;
};

}  // namespace tiger

#endif  // SRC_CORE_ORACLE_H_
