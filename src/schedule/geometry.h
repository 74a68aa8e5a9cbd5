// Schedule geometry: the exact arithmetic of the Tiger disk schedule (§3.1).
//
// The schedule is a circular array of slots, one per stream of system
// capacity. Its length is (block play time × number of disks). The raw block
// service time comes from the bottleneck resource (the disk model's worst
// case, or the NIC); the slot count is the schedule length divided by it,
// rounded *down* to a whole number of slots, which stretches the effective
// service time — "the actual hardware capacity of the system as a whole is
// rounded down to the nearest stream".
//
// Slot boundaries are kept as exact rationals (length × i / slots) evaluated
// in integer microseconds, so every cub computes identical boundaries with no
// accumulated drift: slot i covers [ceil(L·i/S), ceil(L·(i+1)/S)).
//
// Each disk k has a play pointer that moves through the schedule in real
// time, one block play time behind disk k-1: pos_k(t) = (t − k·T_p) mod L.

#ifndef SRC_SCHEDULE_GEOMETRY_H_
#define SRC_SCHEDULE_GEOMETRY_H_

#include <cstdint>

#include "src/common/check.h"
#include "src/common/ids.h"
#include "src/common/time.h"

namespace tiger {

class ScheduleGeometry {
 public:
  ScheduleGeometry(int total_disks, Duration block_play_time, Duration raw_block_service_time);

  int total_disks() const { return total_disks_; }
  Duration block_play_time() const { return block_play_time_; }
  Duration schedule_length() const { return length_; }
  int64_t slot_count() const { return slots_; }

  // Effective (stretched) service time, rounded down to whole microseconds.
  // Exact boundaries never use this value; it is informational.
  Duration effective_block_service_time() const {
    return Duration::Micros(length_.micros() / slots_);
  }

  // Offset of slot i's start within the schedule, in [0, L).
  Duration SlotStartOffset(int64_t slot) const;

  // Slot containing schedule offset `pos` (0 <= pos < L).
  SlotId SlotAtOffset(Duration pos) const;

  // Position of disk k's play pointer at time t, in [0, L).
  Duration DiskPointer(DiskId disk, TimePoint t) const;

  // Earliest time >= t at which disk k's pointer sits at schedule offset
  // `offset`.
  TimePoint NextTimeAtOffset(DiskId disk, Duration offset, TimePoint t) const;

  // Earliest time >= t at which disk k's pointer reaches the start of `slot`
  // — i.e. when the block for the viewer in that slot is due at the network.
  TimePoint NextSlotStart(DiskId disk, SlotId slot, TimePoint t) const;

  struct ServingEvent {
    DiskId disk;
    TimePoint due;
  };
  // The disk that reaches `slot`'s start soonest at or after `t`, and when.
  // O(1): pointers are spaced exactly one block play time apart.
  ServingEvent SoonestServingDisk(SlotId slot, TimePoint t) const;

  // Offset arithmetic modulo the schedule length.
  Duration WrapOffset(Duration offset) const;

 private:
  int total_disks_;
  Duration block_play_time_;
  Duration length_;
  int64_t slots_;
};

// Parameters of the slot-ownership protocol (§4.1.3). A cub owns slot s via
// disk k while pos_k is inside [SlotStart(s) − scheduling_lead − duration,
// SlotStart(s) − scheduling_lead). The scheduling lead leaves time for the
// first disk read; the duration must be shorter than one block play time so
// that at most one disk pointer (hence one cub) can own a slot at a time.
struct OwnershipParams {
  Duration scheduling_lead;
  Duration duration;

  bool ValidFor(const ScheduleGeometry& geometry) const {
    return scheduling_lead >= geometry.effective_block_service_time() &&
           duration > Duration::Zero() && duration < geometry.block_play_time();
  }
};

class OwnershipWindows {
 public:
  OwnershipWindows(const ScheduleGeometry* geometry, OwnershipParams params)
      : geometry_(geometry), params_(params) {
    TIGER_CHECK(params.ValidFor(*geometry))
        << "ownership window must fit: lead >= service time, duration < play time";
  }

  const OwnershipParams& params() const { return params_; }

  // Does disk k's pointer sit inside the ownership window of `slot` at t?
  bool Owns(DiskId disk, SlotId slot, TimePoint t) const;

  struct OwnershipEvent {
    SlotId slot;
    TimePoint window_start;
    TimePoint window_end;   // Exclusive.
    TimePoint slot_start;   // When the block is due at the network.
  };

  // The first ownership window of disk k beginning at or after t.
  OwnershipEvent NextOwnership(DiskId disk, TimePoint t) const;

 private:
  const ScheduleGeometry* geometry_;
  OwnershipParams params_;
};

}  // namespace tiger

#endif  // SRC_SCHEDULE_GEOMETRY_H_
