#include "src/core/oracle.h"

#include <cstdio>

namespace tiger {

void ScheduleOracle::OnInsert(SlotId slot, ViewerId viewer, PlayInstanceId instance,
                              TimePoint when) {
  auto& occupants = occupancy_[slot];
  ++inserts_;
  if (!occupants.empty()) {
    ++conflicts_;
    char buf[240];
    std::snprintf(buf, sizeof(buf),
                  "slot %u double-booked at %.6fs: instance %llu joins %zu live occupant(s); "
                  "first occupant instance %llu inserted at %.6fs",
                  slot.value(), when.seconds(),
                  static_cast<unsigned long long>(instance.value()), occupants.size(),
                  static_cast<unsigned long long>(occupants.front().instance.value()),
                  occupants.front().inserted.seconds());
    violations_.emplace_back(buf);
  }
  occupants.push_back(Occupancy{viewer, instance, when});
}

void ScheduleOracle::OnRemove(SlotId slot, PlayInstanceId instance, TimePoint /*when*/) {
  auto it = occupancy_.find(slot);
  if (it == occupancy_.end()) {
    return;
  }
  auto& occupants = it->second;
  for (auto o = occupants.begin(); o != occupants.end(); ++o) {
    if (o->instance == instance) {
      occupants.erase(o);
      break;
    }
  }
  if (occupants.empty()) {
    occupancy_.erase(it);
  }
}

void ScheduleOracle::OnPrimarySend(SlotId slot, PlayInstanceId instance, DiskId disk,
                                   TimePoint due, TimePoint now) {
  (void)instance;
  (void)now;
  // The due time must be a slot-start instant for the serving disk.
  TimePoint canonical = geometry_->NextSlotStart(disk, slot, due);
  if (canonical != due) {
    ++mistimed_sends_;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "slot %u disk %u: send due %.6fs is not a slot boundary (expected %.6fs)",
                  slot.value(), disk.value(), due.seconds(), canonical.seconds());
    violations_.emplace_back(buf);
  }
}

}  // namespace tiger
