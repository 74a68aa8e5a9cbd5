#include "src/core/invariant_checker.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace tiger {

namespace {

std::string KeyText(const ViewerStateRecord::Key& key) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "instance %" PRIu64 " slot %u seq %" PRId64 " fragment %d",
                key.instance, key.slot, key.sequence, key.mirror_fragment);
  return buf;
}

}  // namespace

InvariantChecker::InvariantChecker(const ScheduleGeometry* geometry, const TigerConfig& config)
    : geometry_(geometry),
      // Takeover-synthesized successors can run one block past the
      // forwarding horizon; anything beyond that means a view is growing
      // unboundedly.
      max_lead_(config.max_vstate_lead + config.block_play_time * 2),
      late_horizon_(config.deschedule_hold) {}

void InvariantChecker::AddViolation(TimePoint when, std::string what) {
  violations_.push_back(Violation{when, std::move(what)});
}

void InvariantChecker::OnInsert(SlotId slot, PlayInstanceId instance, TimePoint when) {
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
    AddViolation(when, buf);
  }
  occupants.push_back(Occupancy{instance, when});
}

void InvariantChecker::OnRemove(SlotId slot, PlayInstanceId instance) {
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

void InvariantChecker::OnPrimarySend(SlotId slot, DiskId disk, TimePoint due, TimePoint now) {
  // The due time must be a slot-start instant for the serving disk.
  TimePoint canonical = geometry_->NextSlotStart(disk, slot, due);
  if (canonical != due) {
    ++mistimed_sends_;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "slot %u disk %u: send due %.6fs is not a slot boundary (expected %.6fs)",
                  slot.value(), disk.value(), due.seconds(), canonical.seconds());
    AddViolation(now, buf);
  }
}

void InvariantChecker::OnLanding(CubId cub, const ViewerStateRecord::Key& key, TimePoint due,
                                 TimePoint now) {
  ++landings_;
  if (due - now > max_lead_) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), " %" PRId64 "us ahead of its due time (max %" PRId64 "us)",
                  (due - now).micros(), max_lead_.micros());
    AddViolation(now, "cub" + std::to_string(cub.value()) + " landed " + KeyText(key) + buf);
  }
  // Keys past their late horizon can no longer land anywhere.
  while (!expiries_.empty() && expiries_.front().at < now) {
    std::pop_heap(expiries_.begin(), expiries_.end(), std::greater<>());
    due_by_key_.erase(expiries_.back().key);
    expiries_.pop_back();
  }
  auto [it, first] = due_by_key_.try_emplace(key, FirstLanding{due, cub});
  if (first) {
    expiries_.push_back(Expiry{due + late_horizon_, key});
    std::push_heap(expiries_.begin(), expiries_.end(), std::greater<>());
  } else if (it->second.due != due) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), ": cub%u landed it due %" PRId64 "us, cub%u due %" PRId64 "us",
                  it->second.cub.value(), it->second.due.micros(), cub.value(), due.micros());
    AddViolation(now, "due mismatch for " + KeyText(key) + buf);
  }
}

}  // namespace tiger
