// Deterministic scenario execution and the verdict lattice.
//
// RunScenario builds one TigerSystem from a ScenarioDescriptor, attaches
// every checker the repo has — the InvariantChecker (§4 slot conflicts, send
// timing, due coherence and lead bounds), the ScheduleAuditor's shadow global
// schedule (10 divergence classes), and the QoS ledger (client-observed
// glitches with causes) — plus a run-level *deadman watchdog*, injects the
// descriptor's faults, and classifies the outcome into the verdict lattice:
//
//   kCleanSurvive        nothing fired, nothing degraded, no glitches
//   kDegraded            faults fired / mirror chains ran, but clients saw
//                        zero late or lost blocks
//   kQosGlitches         clients saw glitches; every one is attributed and
//                        no coherence property broke
//   kDivergence          the auditor flagged a class other than truly-lost
//                        (truly-lost records are the paper's bounded crash
//                        losses, not incoherence)
//   kInvariantViolation  the InvariantChecker flagged §4 breakage
//   kLivelock            the deadman watchdog fired: some viewer made no
//                        observable progress for a whole window while active
//                        — stalled, not slow (distinguishable in Perfetto by
//                        the LIVELOCK_DEADMAN instant and the
//                        frontier.livelock_timeouts counter)
//
// Verdicts are ordered by severity; `survivable` additionally requires the
// client-lost total to stay inside the descriptor's loss budget, separating
// bounded detection-window losses from open-ended service loss.

#ifndef SRC_FRONTIER_RUNNER_H_
#define SRC_FRONTIER_RUNNER_H_

#include <cstdint>
#include <string>

#include "src/common/time.h"
#include "src/frontier/scenario.h"

namespace tiger {
namespace frontier {

enum class Verdict : uint8_t {
  kCleanSurvive = 0,
  kDegraded,
  kQosGlitches,
  kDivergence,
  kInvariantViolation,
  kLivelock,
  kVerdictCount,  // sentinel
};

const char* VerdictName(Verdict verdict);
// Returns kVerdictCount for an unknown name.
Verdict ParseVerdict(const std::string& name);

struct ScenarioOutcome {
  Verdict verdict = Verdict::kCleanSurvive;
  bool survivable = true;

  // Client side.
  int64_t plays_requested = 0;
  int64_t plays_started = 0;
  int64_t plays_completed = 0;
  int64_t blocks_complete = 0;
  int64_t late_blocks = 0;
  int64_t lost_blocks = 0;

  // Checkers.
  int64_t invariant_violations = 0;
  int64_t audit_divergences = 0;        // All classes.
  int64_t audit_divergences_fatal = 0;  // Classes other than truly-lost.
  int64_t truly_lost_records = 0;
  int64_t unattributed_glitches = 0;    // Ledger late+lost mismatch vs clients.

  // Degradation / recovery machinery.
  int64_t takeovers = 0;
  int64_t mirror_recoveries = 0;
  int64_t rejoins = 0;
  int64_t faults_fired = 0;  // Injected fault events that actually hit.

  // Deadman watchdog.
  int64_t livelock_timeouts = 0;

  // First fatal divergence class / invariant text; empty when healthy.
  std::string detail;
};

struct RunOptions {
  // A viewer with zero observable progress for this long (while active)
  // trips the deadman.
  Duration deadman_window = Duration::Seconds(20);
  // Non-empty: write the Chrome trace / auditor report there after the run.
  std::string trace_path;
  std::string audit_report_path;
  // Non-empty: arm the flight recorder + SLO monitor and write incident
  // bundles (tiger-incident-v1) under this directory. A bundle is dumped the
  // moment a breach probe or burn-rate alert fires mid-run; if none fired but
  // the final verdict is kQosGlitches or worse, one is dumped post-run. Each
  // bundle gets an outcome.txt with the final verdict so its embedded
  // scenario.txt can be replayed with a known expectation.
  std::string incident_dir;
};

ScenarioOutcome RunScenario(const ScenarioDescriptor& descriptor);
ScenarioOutcome RunScenario(const ScenarioDescriptor& descriptor, const RunOptions& options);

// One line per counter, deterministic, for the replay tool and reports.
std::string OutcomeSummary(const ScenarioOutcome& outcome);

}  // namespace frontier
}  // namespace tiger

#endif  // SRC_FRONTIER_RUNNER_H_
