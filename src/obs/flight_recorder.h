// FlightRecorder: the bounded "black box" over the typed trace stream.
//
// A production fileserver cannot keep full-run traces: the rings in
// src/trace grow with run length (or wrap and lose the interesting part).
// The flight recorder inverts that: it subscribes to the live trace stream
// (the same TraceSink feed the ScheduleAuditor uses, so in sharded runs it
// sees the barrier-drained (when, shard, record-order) merge — one
// thread-count-invariant stream, DESIGN.md §6h) and retains only the last N
// sim-seconds of events in a fixed circular buffer, plus a small ring of
// periodic state checkpoints: per-cub schedule-window digests, viewer
// counts, failure-view beliefs and the QoS totals at that instant.
//
// Cost contract: O(1) per event, zero steady-state allocations, and — the
// part that matters in practice — near-zero cache footprint. Events are
// packed into one 64-byte line each and written with non-temporal stores
// where the ISA has them, and the record path never reads the ring, so the
// black box neither stalls on cold ring lines nor evicts the protocol's
// working set (measured on cub_ring_90pct_traced: plain stores through the
// same 4MB ring cost ~14%; the streaming version ~3% median, gated at 5% by
// bench/sim_microbench). The retention horizon is applied when a dump
// renders the window — the stream arrives in nondecreasing sim-time order
// (one shard's recording order; sharded barrier drains), so the filter is
// exact.
//
// Everything the recorder exports is derived from the logical schedule:
// same seed + same shard count ⇒ byte-identical window dumps and checkpoint
// text for any sim_threads (locked by tests/obs_incident_test.cc).
//
// Compile-time strip: like TIGER_PROFILING_ENABLED / TIGER_TRACING_ENABLED,
// building with -DTIGER_FLIGHT_RECORDER_ENABLED=0 turns the
// TIGER_FLIGHT_RECORD call sites into no-ops while the classes stay
// ODR-identical, so mixed translation units still link.

#ifndef SRC_OBS_FLIGHT_RECORDER_H_
#define SRC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/trace/trace.h"

// Compile-time switch: 0 strips every TIGER_FLIGHT_RECORD call site.
#ifndef TIGER_FLIGHT_RECORDER_ENABLED
#define TIGER_FLIGHT_RECORDER_ENABLED 1
#endif

namespace tiger {

class FlightRecorder final : public TraceSink {
 public:
  struct Options {
    // Events older than this (relative to the newest recorded event) are
    // excluded when the window is rendered; the window a bundle captures.
    Duration retention = Duration::Seconds(5);
    // Hard cap on retained events; beyond it the oldest are overwritten even
    // inside the retention window (counted, so dumps say they truncated).
    size_t capacity = 65536;
    // State-checkpoint cadence. TigerSystem drives this from an engine
    // periodic task; keep it a whole-millisecond multiple so sharded dues
    // land exactly on window barriers.
    Duration checkpoint_cadence = Duration::Seconds(1);
    // Checkpoint slots retained (ring, oldest reused).
    size_t checkpoint_capacity = 64;
  };

  // Per-cub digest inside a checkpoint: the schedule-window shape and the
  // failure-view belief, enough to see at a glance who was serving what and
  // who believed whom dead when the incident hit.
  struct CubDigest {
    uint32_t entries = 0;        // ScheduleView entry count.
    uint32_t holds = 0;          // Deschedule holds pending.
    uint8_t failed = 0;          // Actually failed (system ground truth).
    uint32_t failed_seen = 0;    // Cubs this cub's FailureView believes dead.
    int64_t records_received = 0;
    int64_t blocks_sent = 0;
  };

  struct Checkpoint {
    bool used = false;
    TimePoint when;
    int64_t viewers = 0;  // Viewers the QoS ledger has seen.
    int64_t blocks = 0;   // Client-complete blocks (cumulative).
    int64_t late = 0;
    int64_t lost = 0;
    int failed_cubs = 0;  // Ground-truth failed cub count.
    std::vector<CubDigest> cubs;  // Index = cub id; preallocated, reused.
  };

  FlightRecorder(Options options, int num_cubs);

  // TraceSink: O(1), allocation-free, read-free append (pack + streaming
  // store + counter bump).
  void OnTraceEvent(const TraceEvent& event) override;

  // Claims the next checkpoint slot (reusing the oldest once the ring is
  // full) and stamps it; the caller (TigerSystem::CaptureFlightCheckpoint)
  // fills the digests. The slot's cubs vector is already sized.
  Checkpoint* BeginCheckpoint(TimePoint when);

  const Options& options() const { return options_; }
  // Events inside the retention window right now (scans the ring; cheap at
  // test/dump scale, never called on the record path).
  size_t window_size() const;
  uint64_t recorded() const { return recorded_; }
  // Events overwritten by the capacity bound. Events merely aged out of the
  // retention window are recorded() - window_size(); a dump's "dropped" line
  // is the sum, so a truncated window is never mistaken for a quiet one.
  uint64_t evicted() const { return evicted_; }
  size_t checkpoint_count() const { return ckpt_size_; }

  // The retained window (events within `retention` of the newest), oldest
  // first, seq renumbered 1..n — ready for Tracer::TextDumpOf /
  // ChromeJsonOf. Allocates (dump time only).
  std::vector<TraceEvent> WindowEvents() const;
  // Deterministic text rendering of the checkpoint ring, oldest first.
  std::string CheckpointsText() const;

 private:
  // One ring slot: exactly one cache line, so a streaming store can replace
  // it without a read-for-ownership. seq is not stored (dumps renumber);
  // durations saturate at ~71 minutes of microseconds, far beyond any span
  // a sim emits.
  struct alignas(64) PackedEvent {
    int64_t when_us = 0;
    uint64_t flow = 0;
    int64_t viewer = 0;
    int64_t slot = 0;
    int64_t a = 0;
    int64_t b = 0;
    uint32_t dur_us = 0;
    uint32_t track = 0;
    uint8_t type = 0;
    uint8_t phase = 0;
    uint8_t pad[6] = {};
  };
  static_assert(sizeof(PackedEvent) == 64, "one slot, one cache line");

  // Horizon below which ring events fall outside the window, or INT64_MIN
  // when the ring is empty.
  int64_t WindowHorizonUs() const;

  Options options_;
  int num_cubs_;
  std::vector<PackedEvent> ring_;  // Fixed at options_.capacity.
  size_t write_ = 0;               // Next slot to overwrite.
  size_t size_ = 0;                // Retained events (<= capacity).
  uint64_t recorded_ = 0;
  uint64_t evicted_ = 0;           // Capacity overwrites.
  std::vector<Checkpoint> checkpoints_;  // Fixed at checkpoint_capacity.
  size_t ckpt_head_ = 0;
  size_t ckpt_size_ = 0;
};

// Fan-out sink: TigerSystem interposes this when both a live sink (the
// auditor) and the flight recorder are attached, so the single Tracer sink
// slot feeds both. The primary sees the event first (evidence order is
// unchanged for the auditor); the recorder's copy strips away under
// TIGER_FLIGHT_RECORDER_ENABLED=0.
class TraceFanout final : public TraceSink {
 public:
  void Set(TraceSink* primary, FlightRecorder* recorder) {
    primary_ = primary;
    recorder_ = recorder;
  }
  void OnTraceEvent(const TraceEvent& event) override;

 private:
  TraceSink* primary_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
};

}  // namespace tiger

// Call-site macro: one null check when compiled in, nothing when stripped.
#if TIGER_FLIGHT_RECORDER_ENABLED
#define TIGER_FLIGHT_RECORD(recorder, event)            \
  do {                                                  \
    ::tiger::FlightRecorder* tiger_fr_ = (recorder);    \
    if (tiger_fr_ != nullptr) {                         \
      tiger_fr_->OnTraceEvent(event);                   \
    }                                                   \
  } while (0)
#else
#define TIGER_FLIGHT_RECORD(recorder, event) ((void)0)
#endif

#endif  // SRC_OBS_FLIGHT_RECORDER_H_
