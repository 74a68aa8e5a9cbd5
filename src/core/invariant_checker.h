// Runtime checker of the §4 schedule-coherence invariants.
//
// Tiger has no global schedule; correctness means every cub's bounded view is
// a consistent fragment of the same hallucination. The checker runs inside
// the simulator as an omniscient observer (it reads every living cub's view
// directly, which no real node could) and verifies, on a fixed cadence:
//
//  * no slot is double-booked: two different play instances never occupy the
//    same slot with due times closer than one block play time (§4.1.3's
//    slot-ownership rule is what makes this hold);
//  * due-time coherence: every copy of a record (same dedup key) carries the
//    same due time in every view — due times are shared arithmetic, never
//    local clocks (§4.1.1);
//  * bounded leads: no view learns of a block more than maxVStateLead (plus
//    takeover slack) ahead of its due time (§4, bounded-view scalability).
//    Records arriving with less than minVStateLead are counted, not flagged:
//    takeovers and rejoins legitimately deliver late.
//
// Violations found during transient disagreement windows (a deschedule or
// failure notice still propagating) would be false positives, so cross-view
// checks only consider entries that have had time to settle.

#ifndef SRC_CORE_INVARIANT_CHECKER_H_
#define SRC_CORE_INVARIANT_CHECKER_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/time.h"
#include "src/sim/actor.h"

namespace tiger {

class TigerSystem;

class InvariantChecker : public Actor {
 public:
  struct Violation {
    TimePoint when;
    std::string what;
  };

  InvariantChecker(Simulator* sim, TigerSystem* system,
                   Duration period = Duration::Millis(250));

  // Runs all checks once at the current simulation time. TigerSystem calls
  // it from an engine barrier task every period(), with all shards quiesced.
  void CheckNow();

  Duration period() const { return period_; }

  const std::vector<Violation>& violations() const { return violations_; }
  int64_t checks_run() const { return checks_run_; }
  // Records first seen with less than minVStateLead of slack (informational:
  // bootstraps, takeovers and rejoins deliver late by design).
  int64_t lead_underruns() const { return lead_underruns_; }

 private:
  void AddViolation(std::string what);

  TigerSystem* system_;
  Duration period_;
  std::vector<Violation> violations_;
  // Dedup: a persistent violation is reported once, not once per tick.
  std::unordered_set<std::string> reported_;
  TimePoint last_tick_ = TimePoint::Zero();
  int64_t checks_run_ = 0;
  int64_t lead_underruns_ = 0;
};

}  // namespace tiger

#endif  // SRC_CORE_INVARIANT_CHECKER_H_
