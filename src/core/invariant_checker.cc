#include "src/core/invariant_checker.h"

#include <map>
#include <sstream>
#include <utility>

#include "src/common/logging.h"
#include "src/core/system.h"

namespace tiger {

namespace {

// Cross-view checks only consider entries at least this old: a deschedule or
// failure notice still in flight makes younger entries legitimately disagree.
constexpr Duration kSettleTime = Duration::Millis(300);

}  // namespace

InvariantChecker::InvariantChecker(Simulator* sim, TigerSystem* system, Duration period)
    : Actor(sim, "invariants"), system_(system), period_(period) {}

void InvariantChecker::AddViolation(std::string what) {
  if (!reported_.insert(what).second) {
    return;
  }
  TIGER_LOG(kError, name()) << "invariant violated: " << what;
  violations_.push_back(Violation{Now(), std::move(what)});
}

void InvariantChecker::CheckNow() {
  checks_run_++;
  const TigerConfig& config = system_->config();
  const TimePoint now = Now();
  // Takeover-synthesized successors can run one block past the forwarding
  // horizon; anything beyond that means a view is growing unboundedly.
  const Duration max_lead = config.max_vstate_lead + config.block_play_time * 2;

  struct Sighting {
    int cub;
    const ScheduleEntry* entry;
  };
  std::map<SlotId, std::vector<Sighting>> primaries_by_slot;
  std::map<ViewerStateRecord::Key, std::pair<TimePoint, int>> due_by_key;

  for (int c = 0; c < system_->cub_count(); ++c) {
    CubId id(static_cast<uint32_t>(c));
    if (system_->IsCubFailed(id)) {
      continue;
    }
    const ScheduleView& view = system_->cub(id).view();
    view.ForEachEntry([&](const ScheduleEntry& entry) {
      const ViewerStateRecord& record = entry.record();
      // Lead bounds, evaluated once per entry: the first tick after receipt.
      if (entry.received >= last_tick_) {
        const Duration lead = record.due - entry.received;
        if (lead > max_lead) {
          std::ostringstream os;
          os << "cub" << c << " received " << record.ToString() << " "
             << lead.micros() << "us ahead of its due time (max "
             << max_lead.micros() << "us)";
          AddViolation(os.str());
        } else if (lead < config.min_vstate_lead && lead >= Duration::Zero() &&
                   !record.is_mirror()) {
          lead_underruns_++;
        }
      }
      // Due-time coherence: every copy of a record agrees on when its block
      // is due, in every view, at all times.
      auto [it, inserted] =
          due_by_key.try_emplace(record.DedupKey(), std::make_pair(record.due, c));
      if (!inserted && it->second.first != record.due) {
        std::ostringstream os;
        os << "due mismatch for " << record.ToString() << ": cub" << it->second.second
           << " holds " << it->second.first.micros() << "us, cub" << c
           << " holds " << record.due.micros() << "us";
        AddViolation(os.str());
      }
      if (!record.is_mirror() && entry.received + kSettleTime <= now) {
        primaries_by_slot[record.slot].push_back(Sighting{c, &entry});
      }
    });
  }

  // Double-booking: across all settled views, two different play instances
  // must never claim the same slot with due times within one block play time.
  for (const auto& [slot, sightings] : primaries_by_slot) {
    for (size_t i = 0; i < sightings.size(); ++i) {
      for (size_t j = i + 1; j < sightings.size(); ++j) {
        const ViewerStateRecord& a = sightings[i].entry->record();
        const ViewerStateRecord& b = sightings[j].entry->record();
        if (a.instance == b.instance) {
          continue;
        }
        const Duration delta = a.due > b.due ? a.due - b.due : b.due - a.due;
        if (delta < config.block_play_time) {
          std::ostringstream os;
          os << "slot " << slot << " double-booked: instance " << a.instance << " (cub"
             << sightings[i].cub << ") and instance " << b.instance << " (cub"
             << sightings[j].cub << ") due " << delta.micros() << "us apart";
          AddViolation(os.str());
        }
      }
    }
  }
  last_tick_ = now;
}

}  // namespace tiger
