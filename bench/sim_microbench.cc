// Event-engine and message-path microbenchmarks.
//
// The discrete-event core is the bottleneck of every Tiger experiment, so its
// throughput gets a machine-readable baseline: this bench emits
// BENCH_sim.json (schema in EXPERIMENTS.md) so CI can archive a number per
// commit and humans can diff runs. Three workloads:
//
//   schedule_fire         pure schedule+dispatch churn (self-rescheduling
//                         timers), the simulator's absolute hot path;
//   schedule_cancel_fire  the deadman pattern — every dispatch cancels and
//                         re-arms a pending timer — which stresses O(1)
//                         cancel and tombstone compaction;
//   message_hop           control-plane ping-pong through the simulated
//                         Network (payload allocation, FIFO clamp, delivery
//                         event per hop);
//   message_hop_lineage   the same hops carrying lineage-tagged viewer-state
//                         records through the wire codec (Lamport merge,
//                         successor restamp, encode/decode) — prices the
//                         audit lineage machinery against message_hop;
//   cub_ring_90pct        end-to-end distributed-schedule system at 90%
//                         load, the workload behind bench/scalability;
//   cub_ring_90pct_profiled  the same system with the self-profiler on
//                         (src/trace/profiler.h). Diffing against
//                         cub_ring_90pct prices the profiler; the measured
//                         span must dispatch exactly the same number of
//                         events (profiling never changes the logical
//                         schedule — checked, not assumed), and
//                         --profile-overhead-max=F turns the slowdown into a
//                         CI gate;
//   cub_ring_90pct_traced the same system with typed tracing on — prices
//                         trace *emission* alone, which
//                         measures ~25% on this workload (every protocol
//                         event records into per-track rings). Tracing is
//                         opt-in per run, so that cost is not gated; the
//                         entry exists as the honest baseline for:
//   cub_ring_90pct_recorded  tracing plus the flight recorder
//                         (src/obs/flight_recorder.h) — the black-box
//                         configuration an incident-capturing run uses.
//                         Diffed against cub_ring_90pct_traced this prices
//                         the recorder itself: its periodic checkpoints
//                         only, since its bundle window is read from the
//                         tracer's rings when an incident is dumped and no
//                         trace event passes through it. Checkpoints are
//                         engine barrier tasks, so the recorder adds nothing
//                         to the event stream (checked), and
//                         --recorder-overhead-max=F
//                         gates its marginal slowdown over the traced run
//                         and the zero-allocation contract.
//
// Every workload runs `warmup + reps` times and reports the best wall time
// (minimum is the stable estimator at millisecond scale). With a
// -DTIGER_COUNT_ALLOCS=ON build it also reports steady-state heap
// allocations per event, which the engine contract says must be zero for the
// timer workloads.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/alloc_counter.h"
#include "src/core/messages.h"
#include "src/core/system.h"
#include "src/net/network.h"
#include "src/net/payload_pool.h"
#include "src/sim/simulator.h"
#include "src/stats/table.h"

namespace tiger {
namespace {

struct WorkloadResult {
  std::string name;
  int reps = 0;
  int warmup_reps = 1;
  uint64_t events = 0;       // Events dispatched per rep.
  double best_wall_s = 0;    // Minimum over reps.
  double events_per_sec = 0;
  uint64_t steady_allocs = 0;  // Minimum allocs over reps (steady state).
  double allocs_per_event = 0;
};

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// Runs `body` warmup+reps times; keeps the best wall time and the minimum
// alloc count (the steady-state figure — first reps pay one-time pool and
// vector growth).
template <typename Body>
WorkloadResult Measure(const char* name, uint64_t events, int reps, Body&& body) {
  WorkloadResult r;
  r.name = name;
  r.reps = reps;
  r.events = events;
  r.best_wall_s = 1e30;
  r.steady_allocs = ~0ull;
  for (int i = 0; i < r.warmup_reps + reps; ++i) {
    const uint64_t allocs_before = AllocCount();
    const auto start = std::chrono::steady_clock::now();
    body();
    const auto end = std::chrono::steady_clock::now();
    if (i < r.warmup_reps) {
      continue;
    }
    r.best_wall_s = std::min(r.best_wall_s, Seconds(end - start));
    r.steady_allocs = std::min(r.steady_allocs, AllocCount() - allocs_before);
  }
  r.events_per_sec = static_cast<double>(r.events) / r.best_wall_s;
  r.allocs_per_event =
      static_cast<double>(r.steady_allocs) / static_cast<double>(r.events);
  return r;
}

// --- workload 1: schedule + fire -------------------------------------------

WorkloadResult ScheduleFire(bool quick) {
  const uint64_t kEvents = quick ? 400'000 : 4'000'000;
  const int kChains = 64;  // Pending-queue depth while running.
  // The simulator persists across reps so the non-warmup reps measure true
  // steady state: slab, heap and callback storage are all at capacity and
  // per-event allocations must be zero.
  Simulator sim;
  uint64_t remaining = 0;
  struct Chain {
    Simulator* sim;
    uint64_t* remaining;
    void Tick() {
      if (*remaining == 0) {
        return;
      }
      --*remaining;
      sim->ScheduleAfter(Duration::Micros(100), [this] { Tick(); });
    }
  };
  std::vector<Chain> chains(kChains, Chain{&sim, &remaining});
  return Measure("schedule_fire", kEvents, quick ? 3 : 5, [&] {
    remaining = kEvents;
    for (auto& c : chains) {
      c.Tick();
    }
    sim.Run();
    TIGER_CHECK(remaining == 0);
  });
}

// --- workload 2: schedule + cancel + fire (deadman re-arm) ------------------

WorkloadResult ScheduleCancelFire(bool quick) {
  const uint64_t kEvents = quick ? 200'000 : 2'000'000;
  Simulator sim;
  uint64_t remaining = 0;
  // The deadman pattern of src/core/cub.cc: each heartbeat cancels the
  // pending timeout and re-arms it far in the future; the timeout itself
  // almost never fires. Stresses O(1) cancel plus tombstone compaction.
  struct Node {
    Simulator* sim;
    uint64_t* remaining;
    TimerId deadman = kInvalidTimer;
    void Beat() {
      if (*remaining == 0) {
        sim->Cancel(deadman);
        return;
      }
      --*remaining;
      sim->Cancel(deadman);
      deadman = sim->ScheduleAfter(Duration::Seconds(10), [] {});
      sim->ScheduleAfter(Duration::Micros(100), [this] { Beat(); });
    }
  };
  std::vector<Node> nodes(32, Node{&sim, &remaining, kInvalidTimer});
  return Measure("schedule_cancel_fire", kEvents, quick ? 3 : 5, [&] {
    remaining = kEvents;
    for (auto& n : nodes) {
      n.Beat();
    }
    sim.Run();
    TIGER_CHECK(remaining == 0);
  });
}

// --- workload 3: control-plane message hops ---------------------------------

class PingPonger : public NetworkEndpoint {
 public:
  void Init(Network* net, NetAddress self, NetAddress peer, uint64_t* remaining) {
    net_ = net;
    self_ = self;
    peer_ = peer;
    remaining_ = remaining;
  }
  void Kick() { SendOne(); }
  void HandleMessage(const MessageEnvelope& envelope) override {
    (void)envelope;
    SendOne();
  }

 private:
  void SendOne() {
    if (*remaining_ == 0) {
      return;
    }
    --*remaining_;
    auto msg = MakePooledMessage<HeartbeatMsg>();
    msg->from = CubId(static_cast<int32_t>(self_));
    net_->Send(self_, peer_, HeartbeatMsg::WireBytes(), std::move(msg));
  }

  Network* net_ = nullptr;
  NetAddress self_ = kInvalidAddress;
  NetAddress peer_ = kInvalidAddress;
  uint64_t* remaining_ = nullptr;
};

WorkloadResult MessageHop(bool quick, uint64_t seed) {
  const uint64_t kHops = quick ? 100'000 : 1'000'000;
  const int kPairs = 8;
  Simulator sim;
  Network net(&sim, NetworkConfig{}, Rng(seed));
  uint64_t remaining = 0;
  std::vector<PingPonger> nodes(2 * kPairs);
  std::vector<NetAddress> addrs;
  for (auto& n : nodes) {
    addrs.push_back(net.Attach(&n, "bench", Megabits(1000)));
  }
  for (int p = 0; p < kPairs; ++p) {
    nodes[2 * p].Init(&net, addrs[2 * p], addrs[2 * p + 1], &remaining);
    nodes[2 * p + 1].Init(&net, addrs[2 * p + 1], addrs[2 * p], &remaining);
  }
  return Measure("message_hop", kHops, quick ? 3 : 5, [&] {
    remaining = kHops;
    for (int p = 0; p < kPairs; ++p) {
      nodes[2 * p].Kick();
    }
    sim.Run();
    TIGER_CHECK(remaining == 0);
  });
}

// --- workload 3b: message hops with lineage tagging -------------------------
//
// The same ping-pong, but each hop carries a full lineage-tagged viewer-state
// record through the real wire path: merge the Lamport clock on receive,
// advance the successor (sequence, position, due, hop count), restamp, encode
// into a batch message. Diffing against message_hop prices the audit lineage
// machinery; the acceptance bar is zero steady-state allocations per hop.

class LineagePingPonger : public NetworkEndpoint {
 public:
  void Init(Network* net, NetAddress self, NetAddress peer, uint64_t* remaining) {
    net_ = net;
    self_ = self;
    peer_ = peer;
    remaining_ = remaining;
    record_.viewer = ViewerId(static_cast<uint32_t>(self));
    record_.instance = PlayInstanceId(self);
    record_.slot = SlotId(static_cast<uint32_t>(self));
    record_.due = TimePoint::Zero() + Duration::Seconds(5);
    record_.lineage.origin_cub = static_cast<uint32_t>(self);
    record_.lineage.epoch = 1;
    record_.lineage.MarkTagged();
    scratch_.reserve(ViewerStateBatchMsg::kReserveRecords);
  }
  void Kick() { SendOne(); }
  void HandleMessage(const MessageEnvelope& envelope) override {
    const auto& batch = static_cast<const ViewerStateBatchMsg&>(*envelope.payload);
    batch.DecodeInto(&scratch_);
    for (const ViewerStateRecord& record : scratch_) {
      // Cub::MergeLineageClock's merge rule.
      if (record.lineage.lamport > lamport_) {
        lamport_ = record.lineage.lamport;
      }
      record_ = record;
    }
    SendOne();
  }

 private:
  void SendOne() {
    if (*remaining_ == 0) {
      return;
    }
    --*remaining_;
    // Successor + restamp, as in Cub::MaybeForwardEntry.
    record_.sequence++;
    record_.position++;
    record_.due += Duration::Seconds(1);
    record_.lineage.hop_count++;
    record_.lineage.lamport = ++lamport_;
    auto msg = MakePooledMessage<ViewerStateBatchMsg>();
    msg->Add(record_);
    net_->Send(self_, peer_, kViewerStateWireBytes + 16, std::move(msg));
  }

  Network* net_ = nullptr;
  NetAddress self_ = kInvalidAddress;
  NetAddress peer_ = kInvalidAddress;
  uint64_t* remaining_ = nullptr;
  ViewerStateRecord record_;
  std::vector<ViewerStateRecord> scratch_;
  uint64_t lamport_ = 0;
};

WorkloadResult MessageHopLineage(bool quick, uint64_t seed) {
  const uint64_t kHops = quick ? 100'000 : 1'000'000;
  const int kPairs = 8;
  Simulator sim;
  Network net(&sim, NetworkConfig{}, Rng(seed));
  uint64_t remaining = 0;
  std::vector<LineagePingPonger> nodes(2 * kPairs);
  std::vector<NetAddress> addrs;
  for (auto& n : nodes) {
    addrs.push_back(net.Attach(&n, "bench", Megabits(1000)));
  }
  for (int p = 0; p < kPairs; ++p) {
    nodes[2 * p].Init(&net, addrs[2 * p], addrs[2 * p + 1], &remaining);
    nodes[2 * p + 1].Init(&net, addrs[2 * p + 1], addrs[2 * p], &remaining);
  }
  return Measure("message_hop_lineage", kHops, quick ? 3 : 5, [&] {
    remaining = kHops;
    for (int p = 0; p < kPairs; ++p) {
      nodes[2 * p].Kick();
    }
    sim.Run();
    TIGER_CHECK(remaining == 0);
  });
}

// --- workload 4: end-to-end 90%-load cub ring -------------------------------

struct CubRingOutcome {
  WorkloadResult result;
  // Events over the whole measured span (all reps). Deterministic for a
  // fixed seed, unlike result.events which belongs to the best-rate rep.
  uint64_t span_events = 0;
  // Per-round events/sec, in round order. The overhead gates consume these
  // pairwise (same index = windows that ran within milliseconds of each
  // other), not the best-window figure above.
  std::vector<double> window_rates;
};

// Marginal-slowdown estimators for the overhead gates, built on paired
// rounds: round i of `variant` ran within milliseconds of round i of `base`
// on the same live machine, so each per-round rate ratio cancels slow host
// drift and only per-window jitter remains. Positive = variant is slower.
struct PairedOverhead {
  // Median per-round ratio: the honest central estimate, printed for humans
  // and recorded in baselines. On a noisy shared runner it still swings a
  // few points when one side draws most of the jitter.
  double median = 0;
  // Second-smallest per-round ratio: what the CI gate consumes. Jitter is
  // additive — it slows windows, never speeds them — so a single clean round
  // is an upper-bound-free look at the true cost; allowing one discarded
  // round covers the case where the BASE window of the cleanest round was
  // itself descheduled. A run fails only if all rounds but one exceed the
  // gate, which machine noise essentially cannot do and a genuine cost
  // regression (an allocation, an O(n) scan on the record path) always does.
  double gated = 0;
};

PairedOverhead MeasureOverhead(const CubRingOutcome& base, const CubRingOutcome& variant) {
  TIGER_CHECK(base.window_rates.size() == variant.window_rates.size() &&
              base.window_rates.size() >= 2);
  std::vector<double> overheads;
  overheads.reserve(base.window_rates.size());
  for (size_t i = 0; i < base.window_rates.size(); ++i) {
    overheads.push_back(1.0 - variant.window_rates[i] / base.window_rates[i]);
  }
  std::sort(overheads.begin(), overheads.end());
  const size_t n = overheads.size();
  PairedOverhead out;
  out.median = n % 2 == 1 ? overheads[n / 2]
                          : 0.5 * (overheads[n / 2 - 1] + overheads[n / 2]);
  out.gated = overheads[1];
  return out;
}

enum class CubRingMode { kPlain, kProfiled, kTraced, kRecorded };

// One persistent 90%-load system per variant. Constructing a fresh system
// per rep (the original shape of this workload) charged bootstrap and
// pool-fill costs to every rep, which is exactly the allocation noise
// "steady state" is defined to exclude: the protocol contract is zero heap
// allocations per event once the ring is warm, and that is what a window on
// a live system measures.
struct CubRingVariant {
  CubRingVariant(CubRingMode m, uint64_t seed) : mode(m) {
    TigerConfig config;
    config.shape.num_cubs = 14;
    config.simulate_data_plane = false;
    dist = std::make_unique<TigerSystem>(config, seed);
    sink = std::make_unique<SinkEndpoint>();
    NetAddress sink_addr =
        dist->net().Attach(sink.get(), "sink", config.client_nic_bps);
    if (mode == CubRingMode::kProfiled) {
      dist->EnableProfiling();
    } else if (mode == CubRingMode::kTraced) {
      dist->EnableTracing();
    } else if (mode == CubRingMode::kRecorded) {
      // Implies EnableTracing(): the recorder reads its window from the
      // tracer's rings at dump time. Against the traced variant this
      // isolates the recorder's own cost — the 1/s checkpoint digests —
      // from the trace emission both share.
      dist->EnableFlightRecorder();
    }
    const int streams =
        static_cast<int>(static_cast<double>(config.MaxStreams()) * 0.9);
    // Long enough that no stream hits end-of-file inside the measured horizon
    // (EOF would drain the ring and change what "steady" means).
    FileId file =
        dist->AddFile("content", config.max_stream_bps,
                      config.block_play_time * (config.shape.TotalDisks() + 600))
            .value();
    int made = dist->BootstrapStreams(streams, sink_addr, file, config.max_stream_bps);
    TIGER_CHECK(made == streams);
    dist->Start();
    out.result.name = mode == CubRingMode::kProfiled   ? "cub_ring_90pct_profiled"
                      : mode == CubRingMode::kTraced   ? "cub_ring_90pct_traced"
                      : mode == CubRingMode::kRecorded ? "cub_ring_90pct_recorded"
                                                       : "cub_ring_90pct";
    out.result.warmup_reps = 1;
    out.result.best_wall_s = 1e30;
    out.result.steady_allocs = ~0ull;
  }

  // Warmup window: pools fill, meters reserve, the view reaches steady
  // occupancy, eviction ticks begin recycling. dist->RunUntil is the one
  // way to advance the system; it also times the profiled variant's run.
  void Warmup(Duration warmup) {
    cursor = TimePoint::Zero() + warmup;
    dist->RunUntil(cursor);
    span_start_events = dist->processed_events();
  }

  void Window(Duration window) {
    WorkloadResult& r = out.result;
    const uint64_t events_before = dist->processed_events();
    const uint64_t allocs_before = AllocCount();
    const auto start = std::chrono::steady_clock::now();
    cursor = cursor + window;
    dist->RunUntil(cursor);
    const auto end = std::chrono::steady_clock::now();
    const uint64_t events = dist->processed_events() - events_before;
    const uint64_t allocs = AllocCount() - allocs_before;
    const double wall = Seconds(end - start);
    const double rate = static_cast<double>(events) / wall;
    out.window_rates.push_back(rate);
    ++r.reps;
    if (rate > best_rate) {
      best_rate = rate;
      r.events = events;
      r.best_wall_s = wall;
      r.events_per_sec = rate;
    }
    if (allocs < r.steady_allocs) {
      r.steady_allocs = allocs;
      r.allocs_per_event = static_cast<double>(allocs) / static_cast<double>(events);
    }
  }

  CubRingOutcome Finish(const std::string& profile_prefix) {
    out.span_events = dist->processed_events() - span_start_events;
    if (mode == CubRingMode::kRecorded) {
      // The overhead gate would be vacuous if the recorder never captured a
      // checkpoint.
      TIGER_CHECK(dist->flight_recorder() != nullptr &&
                  dist->flight_recorder()->checkpoint_count() > 0)
          << "recorded variant ran without the flight recorder attached";
    }
    if (mode == CubRingMode::kProfiled && !profile_prefix.empty()) {
      const std::string path = profile_prefix + out.result.name + ".profile.json";
      if (dist->WriteProfile(path)) {
        std::printf("wrote %s\n", path.c_str());
      }
    }
    return out;
  }

  CubRingMode mode;
  std::unique_ptr<TigerSystem> dist;
  std::unique_ptr<SinkEndpoint> sink;
  TimePoint cursor = TimePoint::Zero();
  uint64_t span_start_events = 0;
  double best_rate = 0;
  CubRingOutcome out;
};

// Runs all four cub-ring variants and returns their outcomes in
// {plain, profiled, traced, recorded} order.
//
// The variants exist to be DIFFED — the profiler and flight-recorder gates
// compare events/sec across them — so they are measured in interleaved
// windows over four live systems rather than run to completion one after
// another. Sequential runs let slow host drift (thermal, noisy neighbors)
// land entirely on whichever variant ran last and the marginal-overhead
// figures swing by more than the gates; adjacent interleaved windows see the
// same machine, and the best-window estimator then cancels the drift.
std::vector<CubRingOutcome> CubRingSuite(bool quick, uint64_t seed,
                                         const std::string& profile_prefix) {
  // Warmup must outlast every settling horizon in the system, the longest of
  // which is the seen-instance retention window (~20s: view retention plus
  // two deadman timeouts plus two block times) — only after entries have aged
  // out and been re-admitted is the allocation steady state reachable.
  const Duration kWarmup = Duration::Seconds(quick ? 30 : 40);
  const Duration kWindow = Duration::Seconds(quick ? 4 : 12);
  // Enough rounds that the median paired ratio settles: single windows are
  // ~5ms in quick mode and host jitter at that scale is a few percent, so
  // the gates need the median of many pairs, not a lucky best-of-few.
  const int kReps = quick ? 11 : 7;
  const CubRingMode kModes[] = {CubRingMode::kPlain, CubRingMode::kProfiled,
                                CubRingMode::kTraced, CubRingMode::kRecorded};
  std::vector<CubRingVariant> variants;
  variants.reserve(4);
  for (CubRingMode mode : kModes) {
    variants.emplace_back(mode, seed);
    variants.back().Warmup(kWarmup);
  }
  for (int rep = 0; rep < kReps; ++rep) {
    // Rotate the within-round order: with a fixed order each variant's
    // windows recur at the round period, and any periodic host interference
    // near that period aliases onto whichever variant it phase-locks with.
    for (size_t i = 0; i < variants.size(); ++i) {
      variants[(static_cast<size_t>(rep) + i) % variants.size()].Window(kWindow);
    }
  }
  std::vector<CubRingOutcome> outcomes;
  outcomes.reserve(4);
  for (CubRingVariant& v : variants) {
    outcomes.push_back(v.Finish(profile_prefix));
  }
  return outcomes;
}

int Main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  PrintHeader("sim_microbench: event-engine + message-path throughput",
              "perf baseline (no paper figure); BENCH_sim.json");
  if (!AllocCountingEnabled()) {
    std::printf("note: built without -DTIGER_COUNT_ALLOCS, allocs/event reads 0\n");
  }

  std::vector<WorkloadResult> results;
  results.push_back(ScheduleFire(args.quick));
  results.push_back(ScheduleCancelFire(args.quick));
  results.push_back(MessageHop(args.quick, args.seed));
  results.push_back(MessageHopLineage(args.quick, args.seed));
  const std::vector<CubRingOutcome> ring =
      CubRingSuite(args.quick, args.seed, args.profile_prefix);
  const CubRingOutcome& plain = ring[0];
  const CubRingOutcome& profiled = ring[1];
  const CubRingOutcome& traced = ring[2];
  const CubRingOutcome& recorded = ring[3];
  results.push_back(plain.result);
  results.push_back(profiled.result);
  results.push_back(traced.result);
  results.push_back(recorded.result);
  // The profiler's contract: it observes the run, it never steers it. Event
  // counts over the same simulated span must match exactly.
  TIGER_CHECK(plain.span_events == profiled.span_events)
      << "profiling changed the logical schedule: " << plain.span_events << " vs "
      << profiled.span_events << " events";
  const PairedOverhead overhead = MeasureOverhead(plain, profiled);
  std::printf("profiler overhead on cub_ring_90pct: median %.2f%%, gated %.2f%%%s\n",
              overhead.median * 100, overhead.gated * 100,
              args.profile_overhead_max > 0 ? " (gated)" : "");
  if (args.profile_overhead_max > 0 && overhead.gated > args.profile_overhead_max) {
    std::fprintf(stderr,
                 "sim_microbench: profiler overhead %.2f%% exceeds gate %.2f%%\n",
                 overhead.gated * 100, args.profile_overhead_max * 100);
    return 1;
  }
  // Tracing alone must not perturb the schedule either: recording into the
  // per-track rings is pure observation.
  TIGER_CHECK(plain.span_events == traced.span_events)
      << "tracing changed the logical schedule: " << plain.span_events << " vs "
      << traced.span_events << " events";
  // Same contract for the recorder: its checkpoints run as engine barrier
  // tasks, not sim events, so the event stream must be exactly the plain one.
  TIGER_CHECK(plain.span_events == recorded.span_events)
      << "flight recorder changed the logical schedule: " << plain.span_events << " vs "
      << recorded.span_events << " events";
  // Trace emission is an opt-in per-run cost (~25% on this workload, priced
  // by the traced entry but not gated). The gated figure is the recorder's
  // marginal cost over the traced run — what turning the black box on adds
  // to a run that is already tracing.
  const PairedOverhead trace_overhead = MeasureOverhead(plain, traced);
  std::printf("trace-emission overhead on cub_ring_90pct: median %.2f%% (not gated)\n",
              trace_overhead.median * 100);
  const PairedOverhead rec_overhead = MeasureOverhead(traced, recorded);
  std::printf("flight-recorder overhead on cub_ring_90pct_traced: median %.2f%%, gated %.2f%%%s\n",
              rec_overhead.median * 100, rec_overhead.gated * 100,
              args.recorder_overhead_max > 0 ? " (gated)" : "");
  if (args.recorder_overhead_max > 0) {
    if (rec_overhead.gated > args.recorder_overhead_max) {
      std::fprintf(stderr,
                   "sim_microbench: flight-recorder overhead %.2f%% exceeds gate %.2f%%\n",
                   rec_overhead.gated * 100, args.recorder_overhead_max * 100);
      return 1;
    }
    // Zero-allocation contract: with the recorder on, the steady-state alloc
    // count per event must stay at zero (only checkable in a
    // -DTIGER_COUNT_ALLOCS build; elsewhere the counter reads 0).
    if (AllocCountingEnabled() && recorded.result.steady_allocs != 0) {
      std::fprintf(stderr,
                   "sim_microbench: flight recorder allocated in steady state "
                   "(%llu allocs over the best window)\n",
                   static_cast<unsigned long long>(recorded.result.steady_allocs));
      return 1;
    }
  }

  TextTable table({"workload", "events", "best_wall_s", "events/sec", "allocs/event"});
  for (const WorkloadResult& r : results) {
    table.Row()
        .Str(r.name)
        .Int(static_cast<int64_t>(r.events))
        .Double(r.best_wall_s, 4)
        .Double(r.events_per_sec, 0)
        .Double(r.allocs_per_event, 4);
  }
  table.Print();
  if (args.csv) {
    std::printf("\n%s", table.ToCsv().c_str());
  }

  const std::string json_path =
      args.json_path.empty() ? "BENCH_sim.json" : args.json_path;
  JsonWriter json;
  json.BeginObject()
      .Kv("bench", "sim_microbench")
      .Kv("schema_version", 1)
      .Kv("seed", args.seed)
      .Kv("quick", args.quick)
      .Kv("alloc_counting_enabled", AllocCountingEnabled());
  json.Key("results").BeginArray();
  for (const WorkloadResult& r : results) {
    json.BeginObject()
        .Kv("name", r.name)
        .Kv("reps", r.reps)
        .Kv("warmup_reps", r.warmup_reps)
        .Kv("events", r.events)
        .Kv("best_wall_s", r.best_wall_s)
        .Kv("events_per_sec", r.events_per_sec)
        .Kv("steady_allocs", r.steady_allocs)
        .Kv("allocs_per_event", r.allocs_per_event)
        .EndObject();
  }
  json.EndArray().EndObject();
  if (json.WriteFile(json_path)) {
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace tiger

int main(int argc, char** argv) { return tiger::Main(argc, argv); }
