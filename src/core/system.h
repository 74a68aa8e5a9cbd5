// TigerSystem: builds and owns one simulated Tiger server.
//
// Owns the event engine, the switched network, the content catalog and
// layout, every cub with its disks, and the controller. Provides fault
// injection and the aggregate metrics the benches report.
//
// There is one engine path (DESIGN.md §6h): a ShardEngine with
// config.sim_shards shards, where sim_shards == 1 is the serial run. Actors
// write shared observers through ShardEngine::JournalAppend, and every
// observer that polls on a cadence (auditor, time-series sampler,
// flight-recorder checkpoints, SLO evaluation) is an engine periodic task,
// so it always sees a quiesced, barrier-consistent instant.

#ifndef SRC_CORE_SYSTEM_H_
#define SRC_CORE_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/core/address_book.h"
#include "src/core/audit_hooks.h"
#include "src/core/config.h"
#include "src/core/controller.h"
#include "src/core/cub.h"
#include "src/core/invariant_checker.h"
#include "src/disk/disk.h"
#include "src/net/fault_plan.h"
#include "src/stats/fault_stats.h"
#include "src/stats/qos.h"
#include "src/layout/catalog.h"
#include "src/layout/striping.h"
#include "src/net/network.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/slo_monitor.h"
#include "src/schedule/geometry.h"
#include "src/sim/shard_engine.h"
#include "src/sim/simulator.h"
#include "src/trace/metrics.h"
#include "src/trace/profiler.h"
#include "src/trace/timeseries.h"
#include "src/trace/trace.h"

namespace tiger {

class TigerSystem {
 public:
  explicit TigerSystem(TigerConfig config, uint64_t seed = 1);

  TigerSystem(const TigerSystem&) = delete;
  TigerSystem& operator=(const TigerSystem&) = delete;

  // Adds a file; start disks are assigned round-robin across the stripe.
  Result<FileId> AddFile(std::string name, int64_t bitrate_bps, Duration duration);

  // Attaches the schedule invariant checker (src/core/invariant_checker.h)
  // to every cub: insertions, removals, primary sends and view landings are
  // checked as they happen. Call before Start() and before BootstrapStreams.
  void EnableInvariantChecker();

  // Installs a seeded network fault plan (drops, delays, duplicates,
  // partitions). Rules are added by the caller via net_fault_plan(). The
  // plan's dice fork off the system rng, so one seed fixes the whole run.
  void EnableNetFaultPlan();

  // Adds a warm-standby controller that takes over the controller address if
  // the primary dies (the fault-tolerance work the paper left to the product
  // team). Call before Start().
  void EnableBackupController();

  // Attaches the structured tracer and the metrics registry: one track for
  // the network, one per cub, one per disk. Call before Start(). Tracing off
  // means simply never calling this — the hot paths then pay one null check
  // per trace point.
  void EnableTracing(size_t ring_capacity = 32768);

  // Attaches the continuous time-series sampler: every registered metric is
  // snapshotted at `cadence` into bounded ring-buffer series (counters as
  // per-interval deltas, gauges as values, histograms as quantiles). Implies
  // EnableTracing(). Call before Start(); sampling begins when Start() runs.
  void EnableTimeSeries(Duration cadence = Duration::Seconds(1),
                        size_t ring_capacity = 4096);

  // Attaches the self-profiler (src/trace/profiler.h): per-category exclusive
  // CPU time and exact event counts, plus per-shard and barrier accounting.
  // Never changes logical execution — a profiled run's
  // trace/timeseries dumps are byte-identical to an unprofiled run's. Call
  // before running; idempotent.
  void EnableProfiling();
  bool profiling_enabled() const { return profiler_ != nullptr; }

  // Renders the tiger-profile-v1 document (docs/EXPERIMENTS.md E18). Counts
  // are seed-deterministic and thread-count-invariant; times_ns is
  // machine-dependent. ProfileCountsJson renders only the deterministic
  // counts object (the byte-compare surface for tests).
  std::string ProfileJson() const;
  std::string ProfileCountsJson() const;
  // Writes ProfileJson() to `path`; false on I/O failure or if profiling was
  // never enabled.
  bool WriteProfile(const std::string& path) const;

  // --- black-box observability (src/obs; DESIGN.md §6j) ---
  // Attaches the flight recorder: periodic state checkpoints, plus a bundle
  // window read from the tracers' rings at dump time (the last N sim-seconds
  // of events; no second copy of the trace). Implies EnableTracing(). Call
  // before Start().
  void EnableFlightRecorder(FlightRecorder::Options options = {});
  FlightRecorder* flight_recorder() { return flight_recorder_.get(); }

  // Attaches the online SLO burn-rate monitor over the QoS ledger. Breaches
  // (budget burns, an invariant violation, or a fatal audit divergence) dump an incident bundle —
  // at most options.max_incidents per run. Call before Start(); evaluation
  // is a barrier-aligned engine task, so results are sim_threads-invariant.
  void EnableSloMonitor(SloMonitor::Options options = {});
  SloMonitor* slo_monitor() { return slo_monitor_.get(); }

  // Where incident bundles land. Default: $TIGER_ARTIFACT_DIR, else ".".
  void SetIncidentDir(std::string dir) { incident_dir_ = std::move(dir); }
  // Byte-exact scenario text (+ seed) written into every bundle so
  // tools/replay_scenario reproduces the incident from scratch; the frontier
  // runner supplies its descriptor's ToText().
  void SetIncidentScenarioText(std::string text) {
    incident_scenario_text_ = std::move(text);
  }
  // Manual breach (the frontier deadman, post-run verdict dumps, tests).
  // Dumps a bundle unless the per-run cap is spent; returns whether one was
  // written. Call from driver/barrier context only.
  bool TriggerIncident(const std::string& reason);
  const std::vector<std::string>& incident_dirs() const { return incident_dirs_; }
  int incidents_suppressed() const { return incidents_suppressed_; }
  uint64_t seed() const { return seed_; }

  // Attaches a passive audit observer (the ScheduleAuditor) to every cub and
  // remembers it so WriteChromeTrace can splice its flow arrows. Purely
  // observational: no protocol path reads it. Call before Start(); nullptr
  // detaches.
  void SetAuditObserver(AuditObserver* auditor);
  AuditObserver* audit_observer() const { return audit_observer_; }

  // Begins cub heartbeats and ticks. Call once, before running the simulator.
  void Start();

  // --- fault injection ---
  void FailCubAt(TimePoint when, CubId cub);
  void FailDiskAt(TimePoint when, DiskId disk);
  // Fails the cub immediately (must be called from within simulation time).
  void FailCubNow(CubId cub);
  // Crash-restart recovery: brings a failed cub (and its disks) back up. The
  // cub forgets everything and rebuilds its window from living peers via the
  // rejoin protocol.
  void ReviveCubAt(TimePoint when, CubId cub);
  void ReviveCubNow(CubId cub);
  // Transient disk faults (the disk stays alive; mirror fallback covers it).
  void InjectDiskErrorBurst(DiskId disk, TimePoint start, TimePoint end,
                            double probability);
  void InjectDiskLimp(DiskId disk, TimePoint start, TimePoint end, int64_t num,
                      int64_t den = 1);
  // Power-cuts the primary controller. With a backup enabled the standby
  // takes over after its detection timeout; without one, new starts and
  // stops are lost while running streams continue untouched.
  void FailControllerNow();
  void FailControllerAt(TimePoint when);

  // --- bootstrap (control-plane benches) ---
  // Injects `count` already-playing streams directly into schedule slots,
  // bypassing the start protocol. Blocks are addressed to `sink`; the file
  // must be long enough never to hit EOF during the run.
  int BootstrapStreams(int count, NetAddress sink, FileId file, int64_t bitrate_bps);

  // --- running (DESIGN.md §6h) ---
  // The only way to advance the system: every shard, barrier tasks included.
  void RunUntil(TimePoint t);
  void RunFor(Duration d);
  uint64_t processed_events() const;

  // The engine; never null. sharded() is true for more than one shard.
  ShardEngine* engine() { return engine_.get(); }
  bool sharded() const { return engine_->sharded(); }

  // --- accessors ---
  // Shard 0's simulator: its clock and scheduler. The controller, standby,
  // viewers and bootstrap sinks live there, so use it to read Now() between
  // runs or to schedule driver events on shard 0. It is not a way to run the
  // system — RunUntil/RunFor above advance every shard and fire the barrier
  // tasks.
  Simulator& sim() { return engine_->shard(0); }
  Network& net() { return *net_; }
  const TigerConfig& config() const { return config_; }
  const Catalog& catalog() const { return *catalog_; }
  const StripeLayout& layout() const { return *layout_; }
  const ScheduleGeometry& geometry() const { return *geometry_; }
  const AddressBook& addresses() const { return addresses_; }
  Controller& controller() { return *controller_; }
  Controller* backup_controller() { return backup_controller_.get(); }
  Cub& cub(CubId id) { return *cubs_[id.value()]; }
  int cub_count() const { return static_cast<int>(cubs_.size()); }
  SimulatedDisk& disk(DiskId id);
  InvariantChecker* invariant_checker() { return invariant_checker_.get(); }
  NetFaultPlan* net_fault_plan() { return net_fault_plan_.get(); }
  FaultStats& fault_stats() { return fault_stats_; }
  // Always-on per-viewer QoS ledger (src/stats/qos.h): cubs annotate causes,
  // viewer clients report observed glitches. Cheap enough to never gate.
  // Reads are only meaningful in driver context, after a barrier.
  QosLedger& qos_ledger() { return qos_ledger_; }
  const QosLedger& qos_ledger() const { return qos_ledger_; }
  // The ledger handed to viewer clients (the same object; their writes go
  // through ShardEngine::JournalAppend).
  QosLedger* qos_sink() { return &qos_ledger_; }
  Rng& rng() { return rng_; }
  // Shard 0's tracer, nullptr before EnableTracing. It holds every event of
  // a one-shard run; sharded runs keep one tracer per shard, so use
  // MergedTraceEvents/TraceTextDump for their event data.
  Tracer* tracer() { return tracers_.empty() ? nullptr : tracers_[0].get(); }
  // The global registry, nullptr before EnableTracing. Metrics the actors
  // write (vstate.lead_ms, net.*) live in per-shard registries and reach
  // this one at each SnapshotMetrics, so read them after a snapshot.
  MetricsRegistry* metrics() { return metrics_.get(); }
  TimeSeriesSampler* timeseries() { return timeseries_.get(); }

  // All shards' trace events merged by (when, shard, per-shard order) and
  // renumbered; for one shard simply the tracer's merged ring contents.
  std::vector<TraceEvent> MergedTraceEvents() const;
  // The canonical text rendering of the merged trace (golden-diff surface);
  // byte-identical across thread counts for a fixed shard count.
  std::string TraceTextDump() const;
  uint64_t TraceDropped() const;

  // Folds the per-shard registries and the current schedule/utilization
  // state over [a, b) into the metrics registry (no-op unless EnableTracing
  // was called).
  void SnapshotMetrics(TimePoint a, TimePoint b);
  // Exports the merged trace as Chrome trace_event JSON for chrome://tracing
  // or Perfetto. Returns false if tracing is not enabled or the write failed.
  bool WriteChromeTrace(const std::string& path) const;

  // --- aggregate metrics over a window ---
  // Mean CPU utilization across living cubs, in [0, ~1].
  double MeanCubCpu(TimePoint a, TimePoint b) const;
  double ControllerCpu(TimePoint a, TimePoint b) const;
  // Mean utilization across all disks of living cubs.
  double MeanDiskUtilization(TimePoint a, TimePoint b) const;
  // Mean utilization across one cub's disks.
  double CubDiskUtilization(CubId cub, TimePoint a, TimePoint b) const;
  // Control-plane bytes/second sent by one cub to all others.
  double CubControlTrafficBps(CubId cub, TimePoint a, TimePoint b) const;
  double ControllerControlTrafficBps(TimePoint a, TimePoint b) const;
  Cub::Counters TotalCubCounters() const;
  // Aggregate block-cache hit rate across living cubs (§5: < 0.05%).
  double BlockCacheHitRate() const;
  bool IsCubFailed(CubId cub) const { return failed_cubs_[cub.value()]; }

 private:
  // Owner simulator for cub `c` (its shard's).
  Simulator* SimForCub(size_t c) { return &engine_->shard(cub_shards_[c]); }
  // Assembles the ProfileData document (folds engine stats into the kEngine*
  // category buckets and calibrates ticks→ns from the measured run).
  ProfileData BuildProfileData() const;
  // Measured ticks→ns ratio for this process (1.0 before any profiled run).
  double NsPerTick() const {
    return profile_wall_ticks_ > 0
               ? static_cast<double>(profile_wall_ns_) /
                     static_cast<double>(profile_wall_ticks_)
               : 1.0;
  }
  // SnapshotMetrics into `target`: the live registry, or the copy an
  // incident dump renders so the run's telemetry is left as it was.
  void SnapshotMetricsInto(MetricsRegistry* target, TimePoint a, TimePoint b);
  // Folds the per-shard metric registries into `target`.
  void FoldShardRegistries(MetricsRegistry* target);
  // Fills one flight-recorder checkpoint from barrier-consistent state.
  void CaptureFlightCheckpoint(TimePoint now);
  // Assembles and writes one tiger-incident-v1 bundle; false when capped or
  // nothing is enabled.
  bool DumpIncident(const std::string& reason);

  TigerConfig config_;
  Rng rng_;
  uint64_t seed_;
  // Owns the per-shard simulators; declared first so every actor holding a
  // Simulator* is destroyed before it.
  std::unique_ptr<ShardEngine> engine_;
  std::vector<int> cub_shards_;  // cub id -> owning shard (contiguous ring segments).
  // Tracing: one tracer and one metrics registry per shard; the tracers merge
  // on export and the registries fold into metrics_ at each snapshot.
  std::vector<std::unique_ptr<Tracer>> tracers_;
  std::vector<std::unique_ptr<MetricsRegistry>> shard_metrics_;
  // Black-box observability (DESIGN.md §6j).
  std::unique_ptr<FlightRecorder> flight_recorder_;
  std::unique_ptr<SloMonitor> slo_monitor_;
  std::string incident_dir_;
  std::string incident_scenario_text_;
  std::vector<std::string> incident_dirs_;
  int max_incidents_ = 1;
  int incidents_suppressed_ = 0;
  Duration timeseries_interval_;
  // Self-profiling (EnableProfiling): per-shard buckets plus the engine's
  // barrier accounting. Wall ns/ticks accumulate across Run* calls and
  // calibrate the tick clock at render time.
  std::unique_ptr<ShardEngineProfiler> profiler_;
  uint64_t profile_wall_ns_ = 0;
  uint64_t profile_wall_ticks_ = 0;
  std::unique_ptr<Network> net_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<StripeLayout> layout_;
  std::unique_ptr<ScheduleGeometry> geometry_;
  std::unique_ptr<InvariantChecker> invariant_checker_;
  std::unique_ptr<NetFaultPlan> net_fault_plan_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<TimeSeriesSampler> timeseries_;
  FaultStats fault_stats_;
  QosLedger qos_ledger_;
  TimePoint last_sample_window_start_;  // SnapshotMetrics window low edge.
  std::vector<std::unique_ptr<SimulatedDisk>> disks_;  // Index = global disk id.
  std::vector<std::unique_ptr<Cub>> cubs_;
  std::unique_ptr<Controller> controller_;
  std::unique_ptr<Controller> backup_controller_;
  AddressBook addresses_;
  AuditObserver* audit_observer_ = nullptr;
  // uint8_t, not bool: vector<bool> bit-packs, so two shards failing
  // different cubs in the same window would race on a shared byte.
  std::vector<uint8_t> failed_cubs_;
  int next_start_disk_ = 0;
  uint64_t next_bootstrap_instance_ = 1000000;
  // Bootstrap lineage epochs live in the top half of the epoch space so they
  // can never collide with the chains cubs mint themselves (which count up
  // from 1 with the same origin id).
  uint32_t next_bootstrap_epoch_ = 0x80000000u;
};

}  // namespace tiger

#endif  // SRC_CORE_SYSTEM_H_
