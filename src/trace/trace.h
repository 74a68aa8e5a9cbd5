// Structured event tracing for the simulated Tiger system.
//
// Every interesting protocol step — viewer-state receive/apply/forward, slot
// insertion, deschedules, deadman fires, mirror fallback, disk service
// intervals, control-message hops — is recorded as a typed event carrying the
// simulated timestamp, the track (cub/disk/net) it happened on, and the
// viewer/slot ids involved. Three consumers:
//
//  * ChromeJson() renders a chrome://tracing / Perfetto-loadable timeline of
//    all cubs and disks (async begin/end pairs draw message hops as spans).
//  * TextDump() renders a deterministic text form: same seed, same binary,
//    byte-identical output — the golden-trace tests diff it directly,
//    extending the FaultStats::EventLog same-seed idea to the whole protocol.
//  * MetricsRegistry (src/trace/metrics.h) aggregates distributions.
//
// Events land in per-track ring buffers (drop-oldest beyond the capacity) and
// carry a global sequence number so the merged view reproduces exact recording
// order across tracks. A Tracer only records: every reader (the exports above,
// the flight recorder's bundle window) reads the rings, and nothing is
// notified as events arrive.
//
// Cost model: instrumented call sites hold a `Tracer*` that is null unless
// TigerSystem::EnableTracing() ran, and the TIGER_TRACE_* macros compile to a
// single null check in that case. Defining TIGER_INSTRUMENTATION_ENABLED=0
// (src/trace/instrumentation.h) strips the call sites entirely.
// bench/scalability prints the measured overhead of an absent and a recording
// tracer.

#ifndef SRC_TRACE_TRACE_H_
#define SRC_TRACE_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/sim/simulator.h"
#include "src/trace/instrumentation.h"

namespace tiger {

// Index of a registered track (one per cub, one per disk, one for the
// network fabric). Dense and assigned in registration order.
using TraceTrackId = uint32_t;

enum class TraceEventType : uint8_t {
  // --- viewer-state propagation (§4.1.1) ---
  kVStateReceive = 0,  // A record arrived at a cub (pre-apply).
  kVStateApply,        // ScheduleView::ApplyViewerState verdict (b = result).
  kVStateForward,      // A successor record was batched toward b successors.
  kVStateHop,          // Async span: batch left sender / reached receiver.
  // --- schedule maintenance (§4.1.2, §4.1.3) ---
  kSlotInsert,       // Ownership-window insertion of a queued start.
  kDescheduleApply,  // ScheduleView::ApplyDeschedule (a = removed, b = new hold).
  kViewEvict,        // EvictBefore dropped a entries.
  kSlotService,      // Complete span: first read attempt -> block send.
  // --- failure handling (§2.3, §4.1.1) ---
  kDeadmanFire,     // This cub declared cub a failed.
  kTakeover,        // Mirror/successor generation assumed for a dead peer.
  kMirrorFallback,  // Transient read error: declustered mirror chain dispatched.
  kRejoin,          // This cub rebooted and broadcast a RejoinRequest.
  // --- transport & data path ---
  kMsgHop,       // Async span: any control message in the fabric (a=bytes).
  kDiskService,  // Complete span: one disk read's service interval.
  kBlockSent,    // A block (b=-1) or mirror fragment (b>=0) went to the client.
  kBlockMissed,  // The send deadline passed without a block ready.
  // --- causal lineage (audit) ---
  kLineageHop,    // A lineage-tagged record was received (a=chain, b=hop).
  kVStateTtlDrop, // Hop-count TTL guard dropped a record (a=chain, b=hop).
  // --- frontier harness (src/frontier) ---
  kLivelockDeadman,  // Run-level deadman: no client progress for the window
                     // while viewers were active (a = stalled viewers).
  kTypeCount,  // sentinel
};

enum class TracePhase : uint8_t {
  kInstant = 0,
  kBegin,     // Opens a flow (async span); paired by flow id.
  kEnd,       // Closes a flow.
  kComplete,  // Self-contained span [when, when+dur].
};

// Optional ids attached to an event. -1 means "not set" and is omitted from
// renderings; `a`/`b` are type-dependent (documented per type above).
struct TraceArgs {
  int64_t viewer = -1;
  int64_t slot = -1;
  int64_t a = -1;
  int64_t b = -1;
};

struct TraceEvent {
  uint64_t seq = 0;  // Global recording order across all tracks.
  TimePoint when;
  Duration dur;       // kComplete only.
  uint64_t flow = 0;  // kBegin/kEnd pairing id; 0 = none.
  TraceTrackId track = 0;
  TraceEventType type = TraceEventType::kVStateReceive;
  TracePhase phase = TracePhase::kInstant;
  TraceArgs args;
};

class Tracer {
 public:
  struct Options {
    // Events retained per track; older events are overwritten (and counted as
    // dropped) beyond this.
    size_t ring_capacity = 32768;
    // First BeginFlow id handed out is flow_id_base + 1. Sharded runs give
    // each shard's tracer a disjoint base (shard+1 in the top 16 bits) so
    // flows stay unique in the merged export; a one-shard run has nothing to
    // merge and keeps 0 — ids 1, 2, … exactly as before.
    uint64_t flow_id_base = 0;
  };

  // Two overloads instead of a defaulted Options argument: GCC rejects
  // nested-class NSDMIs used in a default argument of the enclosing class.
  explicit Tracer(const Simulator* sim) : Tracer(sim, Options()) {}
  Tracer(const Simulator* sim, Options options);

  // Registration order fixes track ids (and therefore the exported timeline
  // layout); TigerSystem registers net, then cubs, then disks.
  TraceTrackId RegisterTrack(std::string name);

  void Instant(TraceTrackId track, TraceEventType type, TraceArgs args = {});
  // Opens an async span; returns its flow id (never 0) which the matching
  // EndFlow — possibly on another track — must pass back.
  uint64_t BeginFlow(TraceTrackId track, TraceEventType type, TraceArgs args = {});
  void EndFlow(TraceTrackId track, TraceEventType type, uint64_t flow, TraceArgs args = {});
  // Records a self-contained span [start, start+dur]; start is not after now.
  void Complete(TraceTrackId track, TraceEventType type, TimePoint start, Duration dur,
                TraceArgs args = {});

  uint64_t recorded() const { return recorded_; }
  // Events overwritten by ring wrap-around (not in any export).
  uint64_t dropped() const { return dropped_; }
  size_t track_count() const { return tracks_.size(); }
  const std::string& TrackName(TraceTrackId track) const;
  // All registered track names, in registration (id) order.
  std::vector<std::string> TrackNames() const;

  // All retained events merged across tracks, in global recording order.
  std::vector<TraceEvent> MergedEvents() const;

  // The most recently recorded retained event; nullptr when none is retained.
  const TraceEvent* Newest() const;
  // Appends the retained events with when >= horizon to *out, in global
  // recording order. Walks each track's ring back from its newest event and
  // stops at the first instant or flow event older than `horizon`: those
  // carry their recording time, which never decreases along a track, while a
  // complete span carries its start time (never after its recording time),
  // so it is filtered but never ends the walk. Costs the events walked, not
  // the rings — the flight recorder's bundle window reads the trace this way.
  void AppendEventsSince(TimePoint horizon, std::vector<TraceEvent>* out) const;

  // One line per retained event; deterministic for a deterministic run.
  std::string TextDump() const;

  // Chrome trace_event JSON (the "JSON Array Format" plus displayTimeUnit),
  // loadable in chrome://tracing and https://ui.perfetto.dev. `extra_events`
  // is an optional fragment of ",\n{...}" event objects spliced into the
  // event array before it closes — TimeSeriesSampler::ChromeCounterEvents()
  // produces one, adding counter tracks under the event timeline.
  std::string ChromeJson() const { return ChromeJson(std::string()); }
  std::string ChromeJson(const std::string& extra_events) const;

  static const char* TypeName(TraceEventType type);
  static const char* TypeCategory(TraceEventType type);

  // Static renderers over an arbitrary event list — the sharded engine merges
  // per-shard tracers into one ordered list and renders it through these, so
  // the one-shard and merged exports share one formatter. `events` must already
  // be in final order with final seq numbers; `track_names[e.track]` names
  // each event's track.
  static std::string TextDumpOf(const std::vector<TraceEvent>& events,
                                const std::vector<std::string>& track_names,
                                uint64_t dropped);
  static std::string ChromeJsonOf(const std::vector<TraceEvent>& events,
                                  const std::vector<std::string>& track_names,
                                  const std::string& extra_events);

 private:
  struct Track {
    std::string name;
    std::vector<TraceEvent> ring;  // Grows to capacity, then wraps.
    size_t next = 0;               // Overwrite cursor once full.
  };

  void Push(TraceTrackId track, TraceEvent event);

  const Simulator* sim_;
  Options options_;
  std::vector<Track> tracks_;
  uint64_t next_seq_ = 1;
  uint64_t next_flow_;  // Initialized from Options::flow_id_base.
  uint64_t recorded_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace tiger

// Call-site macros: one pointer null check when tracing is compiled in, and
// nothing at all when TIGER_INSTRUMENTATION_ENABLED=0. `tracer` is evaluated
// once.
#if TIGER_INSTRUMENTATION_ENABLED
#define TIGER_TRACE_INSTANT(tracer, track, type, ...)                \
  do {                                                               \
    ::tiger::Tracer* tiger_tr_ = (tracer);                           \
    if (tiger_tr_ != nullptr) {                                      \
      tiger_tr_->Instant((track), (type), ##__VA_ARGS__);            \
    }                                                                \
  } while (0)
#define TIGER_TRACE_COMPLETE(tracer, track, type, start, dur, ...)   \
  do {                                                               \
    ::tiger::Tracer* tiger_tr_ = (tracer);                           \
    if (tiger_tr_ != nullptr) {                                      \
      tiger_tr_->Complete((track), (type), (start), (dur), ##__VA_ARGS__); \
    }                                                                \
  } while (0)
#define TIGER_TRACE_BEGIN_FLOW(out_flow, tracer, track, type, ...)   \
  do {                                                               \
    ::tiger::Tracer* tiger_tr_ = (tracer);                           \
    if (tiger_tr_ != nullptr) {                                      \
      (out_flow) = tiger_tr_->BeginFlow((track), (type), ##__VA_ARGS__); \
    }                                                                \
  } while (0)
#define TIGER_TRACE_END_FLOW(tracer, track, type, flow, ...)         \
  do {                                                               \
    ::tiger::Tracer* tiger_tr_ = (tracer);                           \
    if (tiger_tr_ != nullptr) {                                      \
      tiger_tr_->EndFlow((track), (type), (flow), ##__VA_ARGS__);    \
    }                                                                \
  } while (0)
#else
#define TIGER_TRACE_INSTANT(tracer, track, type, ...) ((void)0)
#define TIGER_TRACE_COMPLETE(tracer, track, type, start, dur, ...) ((void)0)
#define TIGER_TRACE_BEGIN_FLOW(out_flow, tracer, track, type, ...) ((void)0)
#define TIGER_TRACE_END_FLOW(tracer, track, type, flow, ...) ((void)0)
#endif

#endif  // SRC_TRACE_TRACE_H_
