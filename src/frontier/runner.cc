#include "src/frontier/runner.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "src/audit/auditor.h"
#include "src/client/testbed.h"
#include "src/common/check.h"
#include "src/common/text_file.h"
#include "src/core/messages.h"
#include "src/core/system.h"
#include "src/net/fault_plan.h"
#include "src/sim/actor.h"

namespace tiger {
namespace frontier {

namespace {

const char* const kVerdictNames[] = {
    "clean_survive", "degraded",            "qos_glitches",
    "divergence",    "invariant_violation", "livelock",
};
static_assert(sizeof(kVerdictNames) / sizeof(kVerdictNames[0]) ==
                  static_cast<size_t>(Verdict::kVerdictCount),
              "verdict name table out of sync");

// Maps a descriptor anchor name onto the wire tag NetFaultPlan keys its
// anchors by (Payload::fault_kind() == static_cast<int>(MsgKind)).
bool AnchorTagFromName(const std::string& name, int* out) {
  if (name.empty()) {
    *out = kNoAnchor;
    return true;
  }
  struct Entry {
    const char* name;
    MsgKind kind;
  };
  static const Entry kEntries[] = {
      {"vstate", MsgKind::kViewerStateBatch}, {"deschedule", MsgKind::kDeschedule},
      {"start_play", MsgKind::kStartPlay},    {"heartbeat", MsgKind::kHeartbeat},
      {"failure_notice", MsgKind::kFailureNotice},
      {"client_request", MsgKind::kClientRequest},
  };
  for (const Entry& e : kEntries) {
    if (name == e.name) {
      *out = static_cast<int>(e.kind);
      return true;
    }
  }
  return false;
}

// Run-level stall detector. Ticks once a second and tracks, per viewer, a
// progress signature over every observable counter. A viewer that is active
// (mid-play) whose signature has not moved for a whole deadman window is
// stalled, not slow: the deadman fires once per stall episode, bumping the
// frontier.livelock_timeouts counter and dropping a LIVELOCK_DEADMAN instant
// on the frontier trace track (a = how many viewers are stalled right now).
class DeadmanWatchdog : public Actor {
 public:
  DeadmanWatchdog(Simulator* sim, Testbed* bed, Duration window, MetricsRegistry* metrics,
                  Tracer* tracer, TraceTrackId track, TigerSystem* incident_target)
      : Actor(sim, "frontier-deadman"),
        bed_(bed),
        window_(window),
        metrics_(metrics),
        tracer_(tracer),
        track_(track),
        incident_target_(incident_target) {}

  void Begin() { After(kTick, [this] { Tick(); }); }

  int64_t fires() const { return fires_; }

 private:
  static constexpr Duration kTick = Duration::Seconds(1);

  struct Watch {
    int64_t signature = -1;
    TimePoint last_change;
    bool tripped = false;
  };

  static int64_t Signature(const ViewerClient::Stats& s) {
    return s.plays_requested + s.plays_started + s.plays_completed + s.blocks_complete +
           s.fragments_received + s.late_blocks + s.lost_blocks;
  }

  void Tick() {
    const TimePoint now = Now();
    const auto& viewers = bed_->viewers();
    if (watches_.size() < viewers.size()) {
      watches_.resize(viewers.size());
    }
    int64_t stalled = 0;
    int64_t newly_tripped = 0;
    for (size_t i = 0; i < viewers.size(); ++i) {
      const ViewerClient& viewer = *viewers[i];
      Watch& watch = watches_[i];
      const int64_t signature = Signature(viewer.stats());
      if (signature != watch.signature) {
        watch.signature = signature;
        watch.last_change = now;
        watch.tripped = false;
        continue;
      }
      if (viewer.playing() && now - watch.last_change >= window_) {
        ++stalled;
        if (!watch.tripped) {
          watch.tripped = true;
          ++newly_tripped;
        }
      }
    }
    if (newly_tripped > 0) {
      fires_ += newly_tripped;
      if (metrics_ != nullptr) {
        metrics_->Counter("frontier.livelock_timeouts") += newly_tripped;
      }
      if (tracer_ != nullptr) {
        TraceArgs args;
        args.a = stalled;
        tracer_->Instant(track_, TraceEventType::kLivelockDeadman, args);
      }
      if (incident_target_ != nullptr) {
        // Capture the window *around the stall*, not whatever the run looks
        // like at exit. No-op unless the recorder/monitor are armed.
        incident_target_->TriggerIncident("livelock_deadman");
      }
    }
    After(kTick, [this] { Tick(); });
  }

  Testbed* bed_;
  Duration window_;
  MetricsRegistry* metrics_;
  Tracer* tracer_;
  TraceTrackId track_;
  TigerSystem* incident_target_;
  std::vector<Watch> watches_;
  int64_t fires_ = 0;
};

// Translates one descriptor action into the system's fault primitives.
// Returns the number of guaranteed-to-fire point faults it scheduled (rule
// windows count their actual hits through FaultStats instead).
int ApplyAction(const ScenarioAction& action, TigerSystem* system, Testbed* bed) {
  const TimePoint t0 = TimePoint::Zero();
  const TimePoint at = t0 + Duration::Millis(action.at_ms);
  const TimePoint end = t0 + Duration::Millis(action.end_ms);
  const double probability =
      static_cast<double>(action.prob_ppm) / 1e6;
  int anchor_tag = kNoAnchor;
  TIGER_CHECK(AnchorTagFromName(action.anchor, &anchor_tag))
      << "unknown anchor '" << action.anchor << "'";
  switch (action.kind) {
    case ScenarioAction::Kind::kFailCub:
      system->FailCubAt(at, CubId(static_cast<uint32_t>(action.target)));
      return 1;
    case ScenarioAction::Kind::kReviveCub:
      system->ReviveCubAt(at, CubId(static_cast<uint32_t>(action.target)));
      return 0;
    case ScenarioAction::Kind::kFailDisk:
      system->FailDiskAt(at, DiskId(static_cast<uint32_t>(action.target)));
      return 1;
    case ScenarioAction::Kind::kDiskBurst:
      system->InjectDiskErrorBurst(DiskId(static_cast<uint32_t>(action.target)), at, end,
                                   probability);
      return 0;
    case ScenarioAction::Kind::kDiskLimp:
      system->InjectDiskLimp(DiskId(static_cast<uint32_t>(action.target)), at, end,
                             action.delay_ms, std::max<int64_t>(action.aux, 1));
      return 0;
    case ScenarioAction::Kind::kPartition: {
      // The named cubs are severed from every other cub and the controller;
      // the data plane (paced block sends) is not the control plane and keeps
      // flowing, exactly as a switch fabric partition would behave here.
      std::vector<FaultNetAddress> inside;
      std::vector<FaultNetAddress> outside;
      const AddressBook& addresses = system->addresses();
      for (int c = 0; c < system->cub_count(); ++c) {
        const bool isolated =
            std::find(action.group.begin(), action.group.end(), c) != action.group.end();
        (isolated ? inside : outside).push_back(addresses.CubAddress(CubId(static_cast<uint32_t>(c))));
      }
      outside.push_back(addresses.controller);
      NetFaultPlan* plan = system->net_fault_plan();
      TIGER_CHECK(plan != nullptr) << "EnableNetFaultPlan must run before actions";
      if (anchor_tag == kNoAnchor) {
        plan->AddPartition(inside, outside, at, end);
      } else {
        plan->AddPartitionAnchored(inside, outside, anchor_tag, Duration::Millis(action.at_ms),
                                   Duration::Millis(action.end_ms));
      }
      return 0;
    }
    case ScenarioAction::Kind::kFailController:
      system->FailControllerAt(at);
      return 1;
    case ScenarioAction::Kind::kDelayFromCub:
    case ScenarioAction::Kind::kDuplicateFromCub: {
      NetFaultPlan* plan = system->net_fault_plan();
      TIGER_CHECK(plan != nullptr) << "EnableNetFaultPlan must run before actions";
      for (int c = 0; c < system->cub_count(); ++c) {
        if (action.target >= 0 && action.target != c) {
          continue;
        }
        NetFaultPlan::Rule rule;
        rule.kind = action.kind == ScenarioAction::Kind::kDelayFromCub
                        ? NetFaultPlan::RuleKind::kDelay
                        : NetFaultPlan::RuleKind::kDuplicate;
        rule.src = system->cub(CubId(static_cast<uint32_t>(c))).address();
        if (anchor_tag == kNoAnchor) {
          rule.start = at;
          rule.end = end;
        } else {
          rule.anchor_kind = anchor_tag;
          rule.rel_start = Duration::Millis(action.at_ms);
          rule.rel_end = Duration::Millis(action.end_ms);
        }
        rule.probability = probability;
        rule.delay = Duration::Millis(action.delay_ms);
        rule.copies = static_cast<int>(std::max<int64_t>(action.aux, 1));
        plan->AddRule(rule);
      }
      return 0;
    }
    case ScenarioAction::Kind::kStopViewer:
      // Workload, not a fault: an explicit viewer stop puts a DescheduleMsg
      // on the wire for anchored rules (and late inserts) to race against.
      system->sim().ScheduleAt(at, [bed, target = action.target] {
        if (target >= 0 && target < static_cast<int>(bed->viewers().size())) {
          bed->viewers()[static_cast<size_t>(target)]->RequestStop();
        }
      });
      return 0;
    case ScenarioAction::Kind::kKindCount:
      break;
  }
  TIGER_CHECK(false) << "unreachable action kind";
  return 0;
}

}  // namespace

const char* VerdictName(Verdict verdict) {
  const size_t i = static_cast<size_t>(verdict);
  if (i >= static_cast<size_t>(Verdict::kVerdictCount)) {
    return "?";
  }
  return kVerdictNames[i];
}

Verdict ParseVerdict(const std::string& name) {
  for (size_t i = 0; i < static_cast<size_t>(Verdict::kVerdictCount); ++i) {
    if (name == kVerdictNames[i]) {
      return static_cast<Verdict>(i);
    }
  }
  return Verdict::kVerdictCount;
}

ScenarioOutcome RunScenario(const ScenarioDescriptor& descriptor) {
  return RunScenario(descriptor, RunOptions());
}

ScenarioOutcome RunScenario(const ScenarioDescriptor& descriptor, const RunOptions& options) {
  TigerConfig config;
  config.shape = SystemShape{descriptor.cubs, descriptor.disks_per_cub, descriptor.decluster};
  config.forward_copies = descriptor.forward_copies;
  config.reforward_on_failure = descriptor.reforward_on_failure;

  Testbed bed(config, descriptor.seed);
  TigerSystem& system = bed.system();
  system.EnableInvariantChecker();
  system.EnableNetFaultPlan();
  // A small ring is plenty: the verdict comes from the checkers, the trace is
  // a debugging aid for replayed counterexamples.
  system.EnableTracing(4096);
  if (descriptor.backup_controller) {
    system.EnableBackupController();
  }
  const TraceTrackId frontier_track = system.tracer()->RegisterTrack("frontier");

  ScheduleAuditor auditor(&system.sim(), &system.config());
  auditor.Attach(&system);

  const bool capture_incidents = !options.incident_dir.empty();
  if (capture_incidents) {
    system.EnableFlightRecorder();
    system.EnableSloMonitor();
    system.SetIncidentDir(options.incident_dir);
    // The byte-exact descriptor rides in the bundle so
    // `replay_scenario --file=<bundle>/scenario.txt` reproduces the run.
    system.SetIncidentScenarioText(descriptor.ToText());
  }

  int point_faults = 0;
  for (const ScenarioAction& action : descriptor.actions) {
    point_faults += ApplyAction(action, &system, &bed);
  }

  bed.AddContent(descriptor.files, Duration::Seconds(descriptor.file_s));
  bed.Start();
  auditor.Start();
  for (int v = 0; v < descriptor.viewers; ++v) {
    bed.AddViewer(FileId(static_cast<uint32_t>(v % descriptor.files)));
  }
  if (descriptor.late_viewer_file >= 0 && descriptor.late_viewer_at_ms >= 0) {
    system.sim().ScheduleAt(TimePoint::Zero() + Duration::Millis(descriptor.late_viewer_at_ms),
                            [&bed, &descriptor] {
                              bed.AddViewer(FileId(static_cast<uint32_t>(
                                  descriptor.late_viewer_file % descriptor.files)));
                            });
  }

  DeadmanWatchdog watchdog(&system.sim(), &bed, options.deadman_window, system.metrics(),
                           system.tracer(), frontier_track,
                           capture_incidents ? &system : nullptr);
  watchdog.Begin();

  bed.RunFor(Duration::Millis(descriptor.run_ms));

  // --- collect ---
  ScenarioOutcome outcome;
  const ViewerClient::Stats stats = bed.TotalClientStats();
  outcome.plays_requested = stats.plays_requested;
  outcome.plays_started = stats.plays_started;
  outcome.plays_completed = stats.plays_completed;
  outcome.blocks_complete = stats.blocks_complete;
  outcome.late_blocks = stats.late_blocks;
  outcome.lost_blocks = stats.lost_blocks;

  const InvariantChecker* checker = system.invariant_checker();
  outcome.invariant_violations = static_cast<int64_t>(checker->violations().size());
  outcome.audit_divergences = auditor.total_divergences();
  outcome.truly_lost_records =
      auditor.CountFor(ScheduleAuditor::DivergenceClass::kTrulyLostRecord);
  outcome.audit_divergences_fatal = outcome.audit_divergences - outcome.truly_lost_records;

  const QosLedger::Rollup rollup = system.qos_ledger().FleetRollup();
  outcome.unattributed_glitches =
      std::max<int64_t>(0, (stats.late_blocks + stats.lost_blocks) - (rollup.late + rollup.lost));

  const Cub::Counters counters = system.TotalCubCounters();
  outcome.takeovers = counters.takeovers;
  outcome.mirror_recoveries = counters.mirror_recoveries;
  outcome.rejoins = counters.rejoins;
  const FaultStats& faults = system.fault_stats();
  outcome.faults_fired = point_faults + faults.Count(FaultStats::Kind::kMessageDropped) +
                         faults.Count(FaultStats::Kind::kMessageDelayed) +
                         faults.Count(FaultStats::Kind::kMessageDuplicated) +
                         faults.Count(FaultStats::Kind::kTransientDiskError) +
                         faults.Count(FaultStats::Kind::kLimpedRead);
  outcome.livelock_timeouts = watchdog.fires();

  // --- classify (most severe applicable verdict wins) ---
  if (outcome.livelock_timeouts > 0) {
    outcome.verdict = Verdict::kLivelock;
    outcome.detail = "deadman fired: viewer made no progress for a full window";
  } else if (outcome.invariant_violations > 0) {
    outcome.verdict = Verdict::kInvariantViolation;
    outcome.detail = checker->violations().front().what;
  } else if (outcome.audit_divergences_fatal > 0) {
    outcome.verdict = Verdict::kDivergence;
    for (size_t c = 0; c < static_cast<size_t>(ScheduleAuditor::DivergenceClass::kClassCount);
         ++c) {
      const auto cls = static_cast<ScheduleAuditor::DivergenceClass>(c);
      if (cls != ScheduleAuditor::DivergenceClass::kTrulyLostRecord &&
          auditor.CountFor(cls) > 0) {
        outcome.detail = ScheduleAuditor::ClassName(cls);
        break;
      }
    }
  } else if (outcome.late_blocks + outcome.lost_blocks > 0) {
    outcome.verdict = Verdict::kQosGlitches;
  } else if (outcome.takeovers + outcome.mirror_recoveries + outcome.rejoins +
                 outcome.faults_fired >
             0) {
    outcome.verdict = Verdict::kDegraded;
  } else {
    outcome.verdict = Verdict::kCleanSurvive;
  }
  outcome.survivable = outcome.verdict <= Verdict::kQosGlitches &&
                       outcome.lost_blocks <= descriptor.loss_budget;

  if (!options.trace_path.empty()) {
    system.WriteChromeTrace(options.trace_path);
  }
  if (!options.audit_report_path.empty()) {
    auditor.WriteReportJson(options.audit_report_path);
  }
  if (capture_incidents) {
    // Breaches the online monitor can't see mid-run (e.g. a glitch burst too
    // slow for the burn windows) still deserve a bundle when the lattice says
    // the run went bad.
    if (outcome.verdict >= Verdict::kQosGlitches && system.incident_dirs().empty()) {
      system.TriggerIncident(std::string("verdict_") + VerdictName(outcome.verdict));
    }
    const std::string summary = OutcomeSummary(outcome);
    for (const std::string& dir : system.incident_dirs()) {
      const std::string path = dir + "/outcome.txt";
      if (!WriteTextFile(path, summary)) {
        std::fprintf(stderr, "frontier: cannot write %s\n", path.c_str());
      }
    }
  }
  return outcome;
}

std::string OutcomeSummary(const ScenarioOutcome& outcome) {
  std::string out;
  out += "verdict " + std::string(VerdictName(outcome.verdict)) + "\n";
  out += "survivable " + std::to_string(outcome.survivable ? 1 : 0) + "\n";
  out += "plays " + std::to_string(outcome.plays_requested) + " " +
         std::to_string(outcome.plays_started) + " " + std::to_string(outcome.plays_completed) +
         "\n";
  out += "blocks_complete " + std::to_string(outcome.blocks_complete) + "\n";
  out += "late_blocks " + std::to_string(outcome.late_blocks) + "\n";
  out += "lost_blocks " + std::to_string(outcome.lost_blocks) + "\n";
  out += "invariant_violations " + std::to_string(outcome.invariant_violations) + "\n";
  out += "audit_divergences " + std::to_string(outcome.audit_divergences) + "\n";
  out += "audit_divergences_fatal " + std::to_string(outcome.audit_divergences_fatal) + "\n";
  out += "truly_lost_records " + std::to_string(outcome.truly_lost_records) + "\n";
  out += "takeovers " + std::to_string(outcome.takeovers) + "\n";
  out += "mirror_recoveries " + std::to_string(outcome.mirror_recoveries) + "\n";
  out += "rejoins " + std::to_string(outcome.rejoins) + "\n";
  out += "faults_fired " + std::to_string(outcome.faults_fired) + "\n";
  out += "livelock_timeouts " + std::to_string(outcome.livelock_timeouts) + "\n";
  if (!outcome.detail.empty()) {
    out += "detail " + outcome.detail + "\n";
  }
  return out;
}

}  // namespace frontier
}  // namespace tiger
