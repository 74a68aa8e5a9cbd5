// FlightRecorder: the bounded "black box" of an incident bundle.
//
// A production fileserver cannot keep full-run traces: the rings in
// src/trace grow with run length (or wrap and lose the interesting part).
// The flight recorder keeps no trace of its own. Its window is a bounded
// read of the tracers the system already owns — the last N sim-seconds of
// each track's ring, walked back from the newest event when a bundle is
// dumped — so the observability stack has one event store and the record
// path pays nothing for the black box. What the recorder does own is a small
// ring of periodic state checkpoints: per-cub schedule-window digests, viewer
// counts, failure-view beliefs and the QoS totals at that instant.
//
// Everything the recorder exports is derived from the logical schedule:
// same seed + same shard count ⇒ byte-identical window dumps and checkpoint
// text for any sim_threads (locked by tests/obs_incident_test.cc).

#ifndef SRC_OBS_FLIGHT_RECORDER_H_
#define SRC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/trace/trace.h"

namespace tiger {

class FlightRecorder {
 public:
  struct Options {
    // Events older than this (relative to the window's newest event) are
    // left out of the window a bundle captures.
    Duration retention = Duration::Seconds(5);
    // Hard cap on window events; beyond it the oldest are left out even
    // inside the retention window (a dump's "dropped" line counts them).
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

  // Claims the next checkpoint slot (reusing the oldest once the ring is
  // full) and stamps it; the caller (TigerSystem::CaptureFlightCheckpoint)
  // fills the digests. The slot's cubs vector is already sized.
  Checkpoint* BeginCheckpoint(TimePoint when);

  const Options& options() const { return options_; }
  size_t checkpoint_count() const { return ckpt_size_; }

  // The window over `shards` (one tracer per shard, in shard order), in the
  // order TigerSystem::MergedTraceEvents uses — recording order for one
  // shard, (when, shard, recording order) across several: the newest
  // `capacity` of the merged events whose `when` is within `retention` of
  // the last one, seq renumbered 1..n — ready for Tracer::TextDumpOf /
  // ChromeJsonOf. Reads only the tail of each track's ring (dump time only).
  std::vector<TraceEvent> WindowEvents(const std::vector<const Tracer*>& shards) const;
  // Deterministic text rendering of the checkpoint ring, oldest first.
  std::string CheckpointsText() const;

 private:
  Options options_;
  int num_cubs_;
  std::vector<Checkpoint> checkpoints_;  // Fixed at checkpoint_capacity.
  size_t ckpt_head_ = 0;
  size_t ckpt_size_ = 0;
};

}  // namespace tiger

#endif  // SRC_OBS_FLIGHT_RECORDER_H_
