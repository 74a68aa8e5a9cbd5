// tiger_perfbench: one timed repetition of one benchmark workload.
//
// perfbench/run.py calls this binary once per repetition and aggregates the
// results; see perfbench/README.md for the workloads and the metric map.
//
//   tiger_perfbench --workload ring_control|vod_churn|failover_observed
//                   --seed N [--mode plain|profiled|noobs|checked] [--threads N]
//                   [--scratch DIR]
//
// Modes: `plain` is the untraced run the end-to-end numbers come from;
// `profiled` additionally turns on the self-profiler and snapshots its
// tiger-profile-v1 document at the start and the end of the measured window;
// `noobs` (failover_observed only) drops tracing, auditor, flight recorder and
// SLO monitor, so the observability stack's overhead can be measured;
// `checked` (failover_observed only) adds the InvariantChecker, too slow to
// ride along on timed runs. --threads overrides the worker-thread count of the
// sharded workload (the 1-thread determinism reference).
//
// The benchmark only uses the public system surface (TigerSystem, Testbed,
// ViewerClient, ScheduleAuditor, EnableProfiling/ProfileJson) and times its
// own calls into it. It prints one JSON object on stdout. Fields under
// "fingerprint" are functions of the logical schedule only: run.py requires
// them to be identical across every repetition of a seed, traced or not, and
// across thread counts.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/audit/auditor.h"
#include "src/client/testbed.h"
#include "src/client/viewer.h"
#include "src/common/alloc_counter.h"
#include "src/core/system.h"
#include "src/stats/qos.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif

namespace tiger {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Derives independent streams from the one --seed argument.
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Flat JSON object writer; values are appended in call order. Raw() splices
// an already-rendered JSON value (the profiler document). The benchmark keeps
// its own instead of bench/'s JsonWriter so that nothing outside perfbench/
// and src/ can change what it measures.
class Json {
 public:
  Json& Begin(const char* key = nullptr) {
    Sep(key);
    out_ += '{';
    first_ = true;
    return *this;
  }
  Json& End() {
    out_ += '}';
    first_ = false;
    return *this;
  }
  Json& Str(const char* key, const std::string& v) {
    Sep(key);
    out_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) >= 0x20) {
        out_ += c;
      }
    }
    out_ += '"';
    return *this;
  }
  Json& Int(const char* key, int64_t v) {
    Sep(key);
    out_ += std::to_string(v);
    return *this;
  }
  Json& Num(const char* key, double v) {
    Sep(key);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
  }
  Json& Nums(const char* key, const std::vector<double>& values) {
    Sep(key);
    out_ += '[';
    for (size_t i = 0; i < values.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%s%.17g", i == 0 ? "" : ",", values[i]);
      out_ += buf;
    }
    out_ += ']';
    return *this;
  }
  Json& Bool(const char* key, bool v) {
    Sep(key);
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& Raw(const char* key, const std::string& json) {
    Sep(key);
    out_ += json;
    return *this;
  }
  const std::string& str() const { return out_; }

 private:
  void Sep(const char* key) {
    if (!first_) {
      out_ += ',';
    }
    first_ = false;
    if (key != nullptr) {
      out_ += '"';
      out_ += key;
      out_ += "\":";
    }
  }
  std::string out_;
  bool first_ = true;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  std::string mode = "plain";
  int threads = -1;
  std::string scratch = ".";
};

// A fleet of viewer clients driven by one 100 ms simulated-time tick: each
// viewer loops over random files, and optional churn pauses a random playing
// viewer every tick and resumes it two seconds later. Load is scheduled in
// simulated time, so a slow host does not ease it off.
class ViewerFleet {
 public:
  static constexpr Duration kTick = Duration::Millis(100);
  static constexpr Duration kPauseFor = Duration::Seconds(2);

  ViewerFleet(TigerSystem* system, std::vector<FileId> files, uint64_t seed)
      : system_(system), files_(std::move(files)), rng_(seed) {}

  // Creates `count` viewers whose first plays start at a random position of a
  // random file, staggered uniformly over `stagger`, and starts the tick. No
  // first play starts within `clear_of_end` of its file's end.
  void Populate(int count, Duration stagger, Duration clear_of_end) {
    clear_blocks_ = clear_of_end / system_->config().block_play_time;
    Simulator& sim = system_->sim();
    for (int i = 0; i < count; ++i) {
      auto viewer = std::make_unique<ViewerClient>(
          &sim, ViewerId(static_cast<uint32_t>(i + 1)), &system_->config(),
          &system_->catalog(), &system_->net());
      viewer->SetAddressBook(&system_->addresses());
      viewer->SetQosLedger(system_->qos_sink());
      viewers_.push_back(std::move(viewer));
      started_.push_back(0);
      const Duration delay = rng_.UniformDuration(Duration::Zero(), stagger);
      sim.ScheduleAfter(delay, [this, i] { FirstPlay(static_cast<size_t>(i)); });
    }
    sim.ScheduleAfter(kTick, [this] { Tick(); });
  }

  void StartChurnAt(TimePoint when) { churn_from_ = when; }

  const std::vector<std::unique_ptr<ViewerClient>>& viewers() const { return viewers_; }
  int64_t pauses() const { return pauses_; }

  ViewerClient::Stats Totals() const {
    ViewerClient::Stats total;
    for (const auto& v : viewers_) {
      const ViewerClient::Stats& s = v->stats();
      total.plays_requested += s.plays_requested;
      total.plays_started += s.plays_started;
    }
    return total;
  }

 private:
  FileId PickFile() { return files_[rng_.PickIndex(files_.size())]; }

  void FirstPlay(size_t i) {
    const FileId file = PickFile();
    const int64_t blocks = system_->catalog().Get(file).block_count;
    viewers_[i]->RequestPlay(file, rng_.UniformInt(0, blocks - 1 - clear_blocks_));
    started_[i] = 1;
  }

  void Tick() {
    const TimePoint now = system_->sim().Now();
    if (now >= churn_from_ && !viewers_.empty()) {
      // Bounded retries keep the tick cheap; misses are deterministic too.
      for (int attempt = 0; attempt < 8; ++attempt) {
        const size_t i = rng_.PickIndex(viewers_.size());
        ViewerClient& v = *viewers_[i];
        if (v.playing() && !v.paused()) {
          v.Pause();
          if (v.paused()) {
            resumes_.push_back({now + kPauseFor, i});
            ++pauses_;
          }
          break;
        }
      }
    }
    while (!resumes_.empty() && resumes_.front().first <= now) {
      viewers_[resumes_.front().second]->Resume();
      resumes_.pop_front();
    }
    // Loop finished plays onto a fresh file from the beginning.
    for (size_t i = 0; i < viewers_.size(); ++i) {
      ViewerClient& v = *viewers_[i];
      if (started_[i] && !v.playing() && !v.paused()) {
        v.RequestPlay(PickFile(), 0);
      }
    }
    system_->sim().ScheduleAfter(kTick, [this] { Tick(); });
  }

  TigerSystem* system_;
  std::vector<FileId> files_;
  Rng rng_;
  std::vector<std::unique_ptr<ViewerClient>> viewers_;
  std::vector<uint8_t> started_;
  std::deque<std::pair<TimePoint, size_t>> resumes_;
  int64_t clear_blocks_ = 0;
  TimePoint churn_from_ = TimePoint::Max();
  int64_t pauses_ = 0;
};

// Everything one repetition measures.
struct Result {
  std::string engine;
  int shards = 1;
  int threads = 1;
  int cubs = 0;
  int64_t slots = 0;
  int64_t streams = 0;
  double construct_s = 0, content_s = 0, populate_s = 0, warmup_s = 0;
  double window_sim_s = 0;
  double window_wall_s = 0;
  std::vector<double> chunk_wall_s;
  uint64_t events_total = 0;
  uint64_t events_window = 0;
  uint64_t clamped_posts = 0;
  double control_bps_per_cub = 0;
  double mean_cub_cpu = 0;
  double disk_utilization = 0;
  Cub::Counters counters;  // Window deltas.
  int64_t plays_requested = 0, plays_started = 0;
  int64_t blocks_due = 0, late = 0, lost = 0;
  int64_t by_cause[static_cast<size_t>(GlitchCause::kCauseCount)] = {};
  std::vector<double> startup;  // Seconds, for requests issued in the window.
  double loss_window_s = 0;
  int64_t pauses = 0;
  bool has_audit = false;
  int64_t audit_divergences = 0, audit_fatal = 0, invariant_violations = 0;
  int64_t audit_by_class[static_cast<size_t>(ScheduleAuditor::DivergenceClass::kClassCount)] = {};
  int64_t incidents = 0;
  uint64_t trace_dropped = 0;
  std::string profile_warm, profile_end;
};

Cub::Counters Minus(const Cub::Counters& a, const Cub::Counters& b) {
  Cub::Counters d;
  d.records_received = a.records_received - b.records_received;
  d.records_new = a.records_new - b.records_new;
  d.records_duplicate = a.records_duplicate - b.records_duplicate;
  d.records_killed_by_deschedule = a.records_killed_by_deschedule - b.records_killed_by_deschedule;
  d.records_too_late = a.records_too_late - b.records_too_late;
  d.records_conflict = a.records_conflict - b.records_conflict;
  d.blocks_sent = a.blocks_sent - b.blocks_sent;
  d.fragments_sent = a.fragments_sent - b.fragments_sent;
  d.server_missed_blocks = a.server_missed_blocks - b.server_missed_blocks;
  d.deschedules_received = a.deschedules_received - b.deschedules_received;
  d.deschedules_applied = a.deschedules_applied - b.deschedules_applied;
  d.inserts = a.inserts - b.inserts;
  d.takeovers = a.takeovers - b.takeovers;
  d.buffer_stalls = a.buffer_stalls - b.buffer_stalls;
  d.failures_detected = a.failures_detected - b.failures_detected;
  d.disk_read_errors = a.disk_read_errors - b.disk_read_errors;
  d.mirror_recoveries = a.mirror_recoveries - b.mirror_recoveries;
  d.rejoins = a.rejoins - b.rejoins;
  return d;
}

double MeanControlBps(TigerSystem& system, TimePoint a, TimePoint b) {
  double sum = 0;
  for (int c = 0; c < system.cub_count(); ++c) {
    sum += system.CubControlTrafficBps(CubId(static_cast<uint32_t>(c)), a, b);
  }
  return sum / system.cub_count();
}

// Runs and times the measured window, in kChunks equal slices of simulated
// time, and collects the window deltas every workload shares. Repetitions of
// one seed do the same work slice by slice, so run.py can take each slice's
// median wall time across repetitions and shed transient host noise.
constexpr int kChunks = 8;

void MeasureWindow(TigerSystem& system, bool profiled, Duration window, Result* r) {
  const TimePoint from = system.sim().Now();
  const TimePoint to = from + window;
  const Cub::Counters counters_before = system.TotalCubCounters();
  const QosLedger::Rollup qos_before = system.qos_ledger().FleetRollup();
  int64_t cause_before[static_cast<size_t>(GlitchCause::kCauseCount)];
  for (size_t c = 0; c < static_cast<size_t>(GlitchCause::kCauseCount); ++c) {
    cause_before[c] = system.qos_ledger().GlitchesByCause(static_cast<GlitchCause>(c));
  }
  const uint64_t events_before = system.processed_events();
  if (profiled) {
    r->profile_warm = system.ProfileJson();
  }

  for (int k = 1; k <= kChunks; ++k) {
    const auto start = Clock::now();
    system.RunUntil(from + window * k / kChunks);
    r->chunk_wall_s.push_back(SecondsSince(start));
    r->window_wall_s += r->chunk_wall_s.back();
  }

  if (profiled) {
    r->profile_end = system.ProfileJson();
  }
  r->window_sim_s = window.seconds();
  r->events_total = system.processed_events();
  r->events_window = r->events_total - events_before;
  r->clamped_posts = system.sharded() ? system.engine()->clamped_posts() : 0;
  r->control_bps_per_cub = MeanControlBps(system, from, to);
  r->mean_cub_cpu = system.MeanCubCpu(from, to);
  r->disk_utilization = system.config().simulate_data_plane
                            ? system.MeanDiskUtilization(from, to)
                            : 0.0;
  r->counters = Minus(system.TotalCubCounters(), counters_before);
  const QosLedger::Rollup qos = system.qos_ledger().FleetRollup();
  r->late = qos.late - qos_before.late;
  r->lost = qos.lost - qos_before.lost;
  r->blocks_due = (qos.blocks - qos_before.blocks) + r->lost;
  for (size_t c = 0; c < static_cast<size_t>(GlitchCause::kCauseCount); ++c) {
    r->by_cause[c] =
        system.qos_ledger().GlitchesByCause(static_cast<GlitchCause>(c)) - cause_before[c];
  }
  r->trace_dropped = system.metrics() != nullptr ? system.TraceDropped() : 0;
  r->incidents = static_cast<int64_t>(system.incident_dirs().size());
}

// Startup latencies of plays requested in [from, until), and client totals.
void CollectClients(const ViewerFleet& fleet, const ViewerClient::Stats& before,
                    TimePoint from, TimePoint until, Result* r) {
  for (const auto& v : fleet.viewers()) {
    for (const ViewerClient::StartSample& s : v->start_samples()) {
      if (s.requested_at >= from && s.requested_at < until) {
        r->startup.push_back(s.latency_seconds);
      }
    }
  }
  const ViewerClient::Stats after = fleet.Totals();
  r->plays_requested = after.plays_requested - before.plays_requested;
  r->plays_started = after.plays_started - before.plays_started;
  r->pauses = fleet.pauses();
}

// --- ring_control: 250 cubs x 4 disks, 90% bootstrapped, control plane only,
// on the sharded engine (8 shards, 4 threads). ---
Result RunRingControl(const Args& args) {
  const Duration kWarmup = Duration::Seconds(25);
  const Duration kWindow = Duration::Seconds(40);
  Result r;
  auto t = Clock::now();
  TigerConfig config;
  config.shape.num_cubs = 250;
  config.simulate_data_plane = false;
  config.sim_shards = 8;
  config.sim_threads = args.threads > 0 ? args.threads : 4;
  TigerSystem system(config, Mix(args.seed, 1));
  SinkEndpoint sink;
  const NetAddress sink_addr = system.net().Attach(&sink, "sink", config.client_nic_bps);
  const bool profiled = args.mode == "profiled";
  if (profiled) {
    system.EnableProfiling();
  }
  r.construct_s = SecondsSince(t);

  t = Clock::now();
  const FileId file = system
                          .AddFile("content", config.max_stream_bps,
                                   config.block_play_time * (config.shape.TotalDisks() + 600))
                          .value();
  r.content_s = SecondsSince(t);

  t = Clock::now();
  // The seed sets the phase of the bootstrapped schedule against the cubs'
  // forwarding and heartbeat cadences, which start with the system.
  Rng phase_rng(Mix(args.seed, 8));
  const TimePoint bootstrap_at =
      TimePoint::Zero() + Duration::Micros(phase_rng.UniformInt(0, 999999));
  system.Start();
  system.RunUntil(bootstrap_at);
  r.slots = config.MaxStreams();
  r.streams = static_cast<int64_t>(static_cast<double>(r.slots) * 0.9);
  const int made = system.BootstrapStreams(static_cast<int>(r.streams), sink_addr, file,
                                           config.max_stream_bps);
  TIGER_CHECK(made == r.streams) << "bootstrap placed " << made << " of " << r.streams;
  r.populate_s = SecondsSince(t);

  t = Clock::now();
  system.RunUntil(bootstrap_at + kWarmup);
  r.warmup_s = SecondsSince(t);

  MeasureWindow(system, profiled, kWindow, &r);
  r.engine = system.sharded() ? "sharded" : "serial";
  r.shards = system.config().sim_shards;
  r.threads = system.config().sim_threads;
  r.cubs = system.cub_count();
  return r;
}

// --- vod_churn: 64 cubs x 4 disks, serial, full data plane, looping viewers
// on 85% of the slots over 64 short files, pause/resume churn. ---
Result RunVodChurn(const Args& args) {
  const Duration kWarmup = Duration::Seconds(60);
  const Duration kWindow = Duration::Seconds(150);
  // Plays requested this close to the window end may not have started by
  // then; leaving them out keeps the startup sample unbiased.
  const Duration kStartupTail = Duration::Seconds(10);
  Result r;
  auto t = Clock::now();
  TigerConfig config;
  config.shape.num_cubs = 64;
  Testbed testbed(config, Mix(args.seed, 2));
  TigerSystem& system = testbed.system();
  const bool profiled = args.mode == "profiled";
  if (profiled) {
    system.EnableProfiling();
  }
  r.construct_s = SecondsSince(t);

  t = Clock::now();
  Rng content_rng(Mix(args.seed, 3));
  std::vector<FileId> files;
  for (int i = 0; i < 64; ++i) {
    const Duration length = Duration::Seconds(content_rng.UniformInt(75, 105));
    files.push_back(system.AddFile("short" + std::to_string(i), config.max_stream_bps, length)
                        .value());
  }
  r.content_s = SecondsSince(t);

  t = Clock::now();
  r.slots = config.MaxStreams();
  r.streams = static_cast<int64_t>(static_cast<double>(r.slots) * 0.85);
  ViewerFleet fleet(&system, files, Mix(args.seed, 4));
  testbed.Start();
  fleet.Populate(static_cast<int>(r.streams), Duration::Seconds(20), Duration::Zero());
  r.populate_s = SecondsSince(t);

  t = Clock::now();
  testbed.RunUntil(TimePoint::Zero() + kWarmup);
  r.warmup_s = SecondsSince(t);

  const TimePoint from = system.sim().Now();
  const ViewerClient::Stats before = fleet.Totals();
  fleet.StartChurnAt(from);
  MeasureWindow(system, profiled, kWindow, &r);
  CollectClients(fleet, before, from, from + kWindow - kStartupTail, &r);
  r.engine = "serial";
  r.cubs = system.cub_count();
  return r;
}

// --- failover_observed: 28 cubs x 4 disks, serial, 85% load on hour-long
// files, full observability stack; one cub power-cut mid-window and revived
// 40 s later. ---
Result RunFailoverObserved(const Args& args) {
  const Duration kWarmup = Duration::Seconds(40);
  const Duration kWindow = Duration::Seconds(90);
  const Duration kDownFor = Duration::Seconds(40);
  Result r;
  auto t = Clock::now();
  TigerConfig config;
  config.shape.num_cubs = 28;
  Testbed testbed(config, Mix(args.seed, 5));
  TigerSystem& system = testbed.system();
  const bool observed = args.mode != "noobs";
  const bool profiled = args.mode == "profiled";
  std::unique_ptr<ScheduleAuditor> auditor;
  if (observed) {
    if (args.mode == "checked") {
      system.EnableInvariantChecker();
    }
    system.EnableTracing();
    system.EnableFlightRecorder();
    system.EnableSloMonitor();
    system.SetIncidentDir(args.scratch);
    auditor = std::make_unique<ScheduleAuditor>(&system.sim(), &system.config());
    auditor->Attach(&system);
  }
  if (profiled) {
    system.EnableProfiling();
  }
  r.construct_s = SecondsSince(t);

  t = Clock::now();
  std::vector<FileId> files;
  for (int i = 0; i < 64; ++i) {
    files.push_back(system.AddFile("hour" + std::to_string(i), config.max_stream_bps,
                                   Duration::Seconds(3600))
                        .value());
  }
  r.content_s = SecondsSince(t);

  t = Clock::now();
  r.slots = config.MaxStreams();
  r.streams = static_cast<int64_t>(static_cast<double>(r.slots) * 0.85);
  ViewerFleet fleet(&system, files, Mix(args.seed, 6));
  testbed.Start();
  if (auditor) {
    auditor->Start();
  }
  // Every viewer requests its play during warm-up, and none reaches the end
  // of its file before the run ends, so no play is requested in the window:
  // it exercises the failure path alone.
  fleet.Populate(static_cast<int>(r.streams), Duration::Seconds(20), kWarmup + kWindow);
  r.populate_s = SecondsSince(t);

  t = Clock::now();
  testbed.RunUntil(TimePoint::Zero() + kWarmup);
  r.warmup_s = SecondsSince(t);

  Rng plan_rng(Mix(args.seed, 7));
  const CubId victim(static_cast<uint32_t>(plan_rng.UniformInt(0, config.shape.num_cubs - 1)));
  const TimePoint from = system.sim().Now();
  const TimePoint cut =
      from + plan_rng.UniformDuration(Duration::Seconds(15), Duration::Seconds(25));
  const TimePoint revive = cut + kDownFor;
  system.FailCubAt(cut, victim);
  system.ReviveCubAt(revive, victim);
  const ViewerClient::Stats before = fleet.Totals();
  MeasureWindow(system, profiled, kWindow, &r);
  CollectClients(fleet, before, from, from + kWindow, &r);

  TimePoint last_loss = cut;
  for (const auto& v : fleet.viewers()) {
    for (TimePoint when : v->loss_times()) {
      if (when >= cut && when < revive) {
        last_loss = std::max(last_loss, when);
      }
    }
  }
  r.loss_window_s = (last_loss - cut).seconds();
  if (auditor) {
    r.has_audit = true;
    r.audit_divergences = auditor->total_divergences();
    r.audit_fatal = auditor->FatalDivergences();
    for (size_t k = 0; k < std::size(r.audit_by_class); ++k) {
      r.audit_by_class[k] = auditor->CountFor(static_cast<ScheduleAuditor::DivergenceClass>(k));
    }
    if (system.invariant_checker() != nullptr) {
      r.invariant_violations =
          static_cast<int64_t>(system.invariant_checker()->violations().size());
    }
  }
  r.engine = "serial";
  r.cubs = system.cub_count();
  return r;
}

int64_t PeakRssKb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

std::string Render(const Args& args, const Result& r) {
  Json j;
  j.Begin();
  j.Str("workload", args.workload).Int("seed", static_cast<int64_t>(args.seed));
  j.Str("mode", args.mode);
  j.Begin("provenance")
      .Str("compiler", PERFBENCH_COMPILER)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Bool("optimized", true)
      .Bool("sanitized", PERFBENCH_SANITIZED != 0)
      .Bool("alloc_counting", AllocCountingEnabled())
      .Int("hardware_threads", std::thread::hardware_concurrency())
      .Str("engine", r.engine)
      .Int("sim_shards", r.shards)
      .Int("sim_threads", r.threads)
      .End();
  j.Begin("timing")
      .Num("construct_s", r.construct_s)
      .Num("content_s", r.content_s)
      .Num("populate_s", r.populate_s)
      .Num("warmup_s", r.warmup_s)
      .Num("window_wall_s", r.window_wall_s)
      .Nums("chunk_wall_s", r.chunk_wall_s)
      .Int("peak_rss_kb", PeakRssKb())
      .End();
  // Logical-schedule outputs: identical for a seed whatever the mode,
  // thread count or host.
  j.Begin("fingerprint")
      .Int("cubs", r.cubs)
      .Int("slots", r.slots)
      .Int("streams", r.streams)
      .Num("window_sim_s", r.window_sim_s)
      .Int("events_total", static_cast<int64_t>(r.events_total))
      .Int("events_window", static_cast<int64_t>(r.events_window))
      .Int("clamped_posts", static_cast<int64_t>(r.clamped_posts))
      .Num("control_bps_per_cub", r.control_bps_per_cub)
      .Num("mean_cub_cpu", r.mean_cub_cpu)
      .Num("disk_utilization", r.disk_utilization);
  const Cub::Counters& c = r.counters;
  j.Int("records_received", c.records_received)
      .Int("records_new", c.records_new)
      .Int("records_duplicate", c.records_duplicate)
      .Int("records_killed_by_deschedule", c.records_killed_by_deschedule)
      .Int("records_too_late", c.records_too_late)
      .Int("records_conflict", c.records_conflict)
      .Int("blocks_sent", c.blocks_sent)
      .Int("fragments_sent", c.fragments_sent)
      .Int("server_missed_blocks", c.server_missed_blocks)
      .Int("deschedules_received", c.deschedules_received)
      .Int("deschedules_applied", c.deschedules_applied)
      .Int("inserts", c.inserts)
      .Int("takeovers", c.takeovers)
      .Int("buffer_stalls", c.buffer_stalls)
      .Int("failures_detected", c.failures_detected)
      .Int("disk_read_errors", c.disk_read_errors)
      .Int("mirror_recoveries", c.mirror_recoveries)
      .Int("rejoins", c.rejoins)
      .Int("plays_requested", r.plays_requested)
      .Int("plays_started", r.plays_started)
      .Int("pauses", r.pauses)
      .Int("blocks_due", r.blocks_due)
      .Int("late", r.late)
      .Int("lost", r.lost);
  j.Begin("glitches_by_cause");
  for (size_t k = 0; k < static_cast<size_t>(GlitchCause::kCauseCount); ++k) {
    j.Int(QosLedger::CauseName(static_cast<GlitchCause>(k)), r.by_cause[k]);
  }
  j.End();
  std::vector<double> sorted = r.startup;
  std::sort(sorted.begin(), sorted.end());
  j.Int("startup_samples", static_cast<int64_t>(sorted.size()));
  // Nearest-rank percentiles over the exact sample.
  auto rank = [&sorted](double q) {
    if (sorted.empty()) {
      return 0.0;
    }
    size_t k = static_cast<size_t>(q * static_cast<double>(sorted.size()));
    return sorted[std::min(k, sorted.size() - 1)];
  };
  j.Num("startup_s_p50", rank(0.50)).Num("startup_s_p99", rank(0.99));
  j.Num("loss_window_s", r.loss_window_s);
  j.Begin("audit_by_class");
  for (size_t k = 0; k < std::size(r.audit_by_class); ++k) {
    j.Int(ScheduleAuditor::ClassName(static_cast<ScheduleAuditor::DivergenceClass>(k)),
          r.audit_by_class[k]);
  }
  j.End();
  j.Int("audit_divergences", r.audit_divergences)
      .Int("audit_fatal", r.audit_fatal)
      .Int("invariant_violations", r.invariant_violations)
      .Int("incidents", r.incidents)
      .Int("trace_dropped", static_cast<int64_t>(r.trace_dropped));
  j.End();
  j.Bool("has_audit", r.has_audit);
  if (!r.profile_end.empty()) {
    j.Raw("profile_warm", r.profile_warm).Raw("profile_end", r.profile_end);
  }
  j.End();
  return j.str();
}

int Main(int argc, char** argv) {
  Args args;
  if (argc % 2 == 0) {
    std::fprintf(stderr, "tiger_perfbench: every flag takes a value\n");
    return 2;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--mode") {
      args.mode = value;
    } else if (flag == "--threads") {
      args.threads = std::atoi(value);
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      std::fprintf(stderr, "tiger_perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr, "tiger_perfbench: refusing to time a build without optimisation\n");
  return 3;
#endif
  if (PERFBENCH_SANITIZED) {
    std::fprintf(stderr, "tiger_perfbench: refusing to time a sanitizer build\n");
    return 3;
  }
  if (args.mode != "plain" && args.mode != "profiled" && args.mode != "noobs" &&
      args.mode != "checked") {
    std::fprintf(stderr, "tiger_perfbench: unknown mode %s\n", args.mode.c_str());
    return 2;
  }
  Result r;
  if (args.workload == "ring_control") {
    r = RunRingControl(args);
  } else if (args.workload == "vod_churn") {
    r = RunVodChurn(args);
  } else if (args.workload == "failover_observed") {
    r = RunFailoverObserved(args);
  } else {
    std::fprintf(stderr, "tiger_perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("%s\n", Render(args, r).c_str());
  return 0;
}

}  // namespace
}  // namespace tiger

int main(int argc, char** argv) { return tiger::Main(argc, argv); }
