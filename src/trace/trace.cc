#include "src/trace/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/common/check.h"

namespace tiger {
namespace {

// The k-th newest event of a non-empty track ring whose overwrite cursor is
// `next` (k = 0 is the newest). Before the ring fills, next stays 0 and the
// newest is the last slot; after, the newest sits just behind the cursor.
const TraceEvent& NthNewest(const std::vector<TraceEvent>& ring, size_t next, size_t k) {
  return ring[(next + ring.size() - 1 - k) % ring.size()];
}

}  // namespace

Tracer::Tracer(const Simulator* sim, Options options)
    : sim_(sim), options_(options), next_flow_(options.flow_id_base + 1) {
  TIGER_CHECK(sim != nullptr);
  TIGER_CHECK(options_.ring_capacity > 0);
}

TraceTrackId Tracer::RegisterTrack(std::string name) {
  Track track;
  track.name = std::move(name);
  tracks_.push_back(std::move(track));
  return static_cast<TraceTrackId>(tracks_.size() - 1);
}

const std::string& Tracer::TrackName(TraceTrackId track) const {
  TIGER_CHECK(track < tracks_.size());
  return tracks_[track].name;
}

std::vector<std::string> Tracer::TrackNames() const {
  std::vector<std::string> names;
  names.reserve(tracks_.size());
  for (const Track& track : tracks_) {
    names.push_back(track.name);
  }
  return names;
}

void Tracer::Push(TraceTrackId track, TraceEvent event) {
  TIGER_DCHECK(track < tracks_.size());
  event.seq = next_seq_++;
  event.track = track;
  recorded_++;
  Track& t = tracks_[track];
  if (t.ring.size() < options_.ring_capacity) {
    t.ring.push_back(event);
    return;
  }
  // Ring full: overwrite the oldest retained event.
  t.ring[t.next] = event;
  t.next = (t.next + 1) % options_.ring_capacity;
  dropped_++;
}

void Tracer::Instant(TraceTrackId track, TraceEventType type, TraceArgs args) {
  TraceEvent event;
  event.when = sim_->Now();
  event.type = type;
  event.phase = TracePhase::kInstant;
  event.args = args;
  Push(track, event);
}

uint64_t Tracer::BeginFlow(TraceTrackId track, TraceEventType type, TraceArgs args) {
  const uint64_t flow = next_flow_++;
  TraceEvent event;
  event.when = sim_->Now();
  event.flow = flow;
  event.type = type;
  event.phase = TracePhase::kBegin;
  event.args = args;
  Push(track, event);
  return flow;
}

void Tracer::EndFlow(TraceTrackId track, TraceEventType type, uint64_t flow, TraceArgs args) {
  if (flow == 0) {
    return;  // The begin side never ran (or this is a duplicate copy).
  }
  TraceEvent event;
  event.when = sim_->Now();
  event.flow = flow;
  event.type = type;
  event.phase = TracePhase::kEnd;
  event.args = args;
  Push(track, event);
}

void Tracer::Complete(TraceTrackId track, TraceEventType type, TimePoint start, Duration dur,
                      TraceArgs args) {
  TIGER_DCHECK(dur >= Duration::Zero());
  TIGER_DCHECK(start <= sim_->Now());  // AppendEventsSince relies on it.
  TraceEvent event;
  event.when = start;
  event.dur = dur;
  event.type = type;
  event.phase = TracePhase::kComplete;
  event.args = args;
  Push(track, event);
}

std::vector<TraceEvent> Tracer::MergedEvents() const {
  std::vector<TraceEvent> merged;
  size_t total = 0;
  for (const Track& track : tracks_) {
    total += track.ring.size();
  }
  merged.reserve(total);
  for (const Track& track : tracks_) {
    merged.insert(merged.end(), track.ring.begin(), track.ring.end());
  }
  // The global sequence number restores exact recording order, regardless of
  // how each ring has wrapped.
  std::sort(merged.begin(), merged.end(),
            [](const TraceEvent& x, const TraceEvent& y) { return x.seq < y.seq; });
  return merged;
}

const TraceEvent* Tracer::Newest() const {
  const TraceEvent* newest = nullptr;
  for (const Track& track : tracks_) {
    if (!track.ring.empty()) {
      const TraceEvent& event = NthNewest(track.ring, track.next, 0);
      if (newest == nullptr || event.seq > newest->seq) {
        newest = &event;
      }
    }
  }
  return newest;
}

void Tracer::AppendEventsSince(TimePoint horizon, std::vector<TraceEvent>* out) const {
  // Two passes over the same tail: the first finds where each walk stops, so
  // the copy reserves exactly once.
  std::vector<size_t> depth(tracks_.size(), 0);
  size_t walked = 0;
  for (size_t t = 0; t < tracks_.size(); ++t) {
    const Track& track = tracks_[t];
    size_t k = 0;
    for (; k < track.ring.size(); ++k) {
      const TraceEvent& event = NthNewest(track.ring, track.next, k);
      if (event.when < horizon && event.phase != TracePhase::kComplete) {
        break;
      }
    }
    depth[t] = k;
    walked += k;
  }
  const size_t first = out->size();
  out->reserve(first + walked);
  for (size_t t = 0; t < tracks_.size(); ++t) {
    for (size_t k = 0; k < depth[t]; ++k) {
      const TraceEvent& event = NthNewest(tracks_[t].ring, tracks_[t].next, k);
      if (event.when >= horizon) {
        out->push_back(event);
      }
    }
  }
  std::sort(out->begin() + static_cast<std::ptrdiff_t>(first), out->end(),
            [](const TraceEvent& x, const TraceEvent& y) { return x.seq < y.seq; });
}

const char* Tracer::TypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kVStateReceive:
      return "VSTATE_RECV";
    case TraceEventType::kVStateApply:
      return "VSTATE_APPLY";
    case TraceEventType::kVStateForward:
      return "VSTATE_FWD";
    case TraceEventType::kVStateHop:
      return "VSTATE_HOP";
    case TraceEventType::kSlotInsert:
      return "SLOT_INSERT";
    case TraceEventType::kDescheduleApply:
      return "DESCHEDULE";
    case TraceEventType::kViewEvict:
      return "VIEW_EVICT";
    case TraceEventType::kSlotService:
      return "SLOT_SERVICE";
    case TraceEventType::kDeadmanFire:
      return "DEADMAN_FIRE";
    case TraceEventType::kTakeover:
      return "TAKEOVER";
    case TraceEventType::kMirrorFallback:
      return "MIRROR_FALLBACK";
    case TraceEventType::kRejoin:
      return "REJOIN";
    case TraceEventType::kMsgHop:
      return "MSG_HOP";
    case TraceEventType::kDiskService:
      return "DISK_SERVICE";
    case TraceEventType::kBlockSent:
      return "BLOCK_SENT";
    case TraceEventType::kBlockMissed:
      return "BLOCK_MISSED";
    case TraceEventType::kLineageHop:
      return "LINEAGE_HOP";
    case TraceEventType::kVStateTtlDrop:
      return "VSTATE_TTL_DROP";
    case TraceEventType::kLivelockDeadman:
      return "LIVELOCK_DEADMAN";
    case TraceEventType::kTypeCount:
      break;
  }
  return "?";
}

const char* Tracer::TypeCategory(TraceEventType type) {
  switch (type) {
    case TraceEventType::kVStateReceive:
    case TraceEventType::kVStateApply:
    case TraceEventType::kVStateForward:
    case TraceEventType::kVStateHop:
      return "vstate";
    case TraceEventType::kSlotInsert:
    case TraceEventType::kDescheduleApply:
    case TraceEventType::kViewEvict:
    case TraceEventType::kSlotService:
      return "schedule";
    case TraceEventType::kDeadmanFire:
    case TraceEventType::kTakeover:
    case TraceEventType::kMirrorFallback:
    case TraceEventType::kRejoin:
      return "failure";
    case TraceEventType::kMsgHop:
      return "net";
    case TraceEventType::kDiskService:
      return "disk";
    case TraceEventType::kBlockSent:
    case TraceEventType::kBlockMissed:
      return "data";
    case TraceEventType::kLineageHop:
    case TraceEventType::kVStateTtlDrop:
      return "lineage";
    case TraceEventType::kLivelockDeadman:
      return "frontier";
    case TraceEventType::kTypeCount:
      break;
  }
  return "?";
}

namespace {

char PhaseChar(TracePhase phase) {
  switch (phase) {
    case TracePhase::kInstant:
      return 'I';
    case TracePhase::kBegin:
      return 'B';
    case TracePhase::kEnd:
      return 'E';
    case TracePhase::kComplete:
      return 'C';
  }
  return '?';
}

void AppendField(std::string* out, const char* name, int64_t value) {
  char buf[48];
  int n = std::snprintf(buf, sizeof(buf), " %s=%" PRId64, name, value);
  TIGER_DCHECK(n > 0 && static_cast<size_t>(n) < sizeof(buf));
  out->append(buf, static_cast<size_t>(n));
}

}  // namespace

std::string Tracer::TextDump() const {
  return TextDumpOf(MergedEvents(), TrackNames(), dropped_);
}

std::string Tracer::TextDumpOf(const std::vector<TraceEvent>& events,
                               const std::vector<std::string>& track_names,
                               uint64_t dropped) {
  std::string out;
  char line[160];
  if (dropped > 0) {
    // Audits reading this dump must know their evidence is incomplete: the
    // rings wrapped and the oldest events are gone.
    int n = std::snprintf(line, sizeof(line),
                          "# WARNING: ring buffers dropped %" PRIu64
                          " event(s); dump is incomplete\n",
                          dropped);
    TIGER_DCHECK(n > 0 && static_cast<size_t>(n) < sizeof(line));
    out.append(line, static_cast<size_t>(n));
  }
  for (const TraceEvent& event : events) {
    int n = std::snprintf(line, sizeof(line), "%06" PRIu64 " t=%-10" PRId64 " %-7s %c %-15s",
                          event.seq, event.when.micros(),
                          track_names[event.track].c_str(), PhaseChar(event.phase),
                          TypeName(event.type));
    TIGER_DCHECK(n > 0 && static_cast<size_t>(n) < sizeof(line));
    out.append(line, static_cast<size_t>(n));
    if (event.phase == TracePhase::kComplete) {
      AppendField(&out, "dur", event.dur.micros());
    }
    if (event.flow != 0) {
      AppendField(&out, "flow", static_cast<int64_t>(event.flow));
    }
    if (event.args.viewer >= 0) {
      AppendField(&out, "viewer", event.args.viewer);
    }
    if (event.args.slot >= 0) {
      AppendField(&out, "slot", event.args.slot);
    }
    if (event.args.a != -1) {
      AppendField(&out, "a", event.args.a);
    }
    if (event.args.b != -1) {
      AppendField(&out, "b", event.args.b);
    }
    out.push_back('\n');
  }
  return out;
}

std::string Tracer::ChromeJson(const std::string& extra_events) const {
  return ChromeJsonOf(MergedEvents(), TrackNames(), extra_events);
}

std::string Tracer::ChromeJsonOf(const std::vector<TraceEvent>& events,
                                 const std::vector<std::string>& track_names,
                                 const std::string& extra_events) {
  // All tracks live in one process; each track is a thread so Perfetto lays
  // cubs/disks/net out as parallel swimlanes.
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[320];
  int n = std::snprintf(buf, sizeof(buf),
                        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
                        "\"args\":{\"name\":\"tiger\"}}");
  out.append(buf, static_cast<size_t>(n));
  for (size_t t = 0; t < track_names.size(); ++t) {
    n = std::snprintf(buf, sizeof(buf),
                      ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%zu,\"name\":\"thread_name\","
                      "\"args\":{\"name\":\"%s\"}}",
                      t + 1, track_names[t].c_str());
    TIGER_DCHECK(n > 0 && static_cast<size_t>(n) < sizeof(buf));
    out.append(buf, static_cast<size_t>(n));
  }
  for (const TraceEvent& event : events) {
    const char* name = TypeName(event.type);
    const char* cat = TypeCategory(event.type);
    const size_t tid = static_cast<size_t>(event.track) + 1;
    switch (event.phase) {
      case TracePhase::kInstant:
        n = std::snprintf(buf, sizeof(buf),
                          ",\n{\"ph\":\"i\",\"pid\":1,\"tid\":%zu,\"ts\":%" PRId64
                          ",\"name\":\"%s\",\"cat\":\"%s\",\"s\":\"t\"",
                          tid, event.when.micros(), name, cat);
        break;
      case TracePhase::kBegin:
        n = std::snprintf(buf, sizeof(buf),
                          ",\n{\"ph\":\"b\",\"pid\":1,\"tid\":%zu,\"ts\":%" PRId64
                          ",\"name\":\"%s\",\"cat\":\"%s\",\"id\":\"0x%" PRIx64 "\"",
                          tid, event.when.micros(), name, cat, event.flow);
        break;
      case TracePhase::kEnd:
        n = std::snprintf(buf, sizeof(buf),
                          ",\n{\"ph\":\"e\",\"pid\":1,\"tid\":%zu,\"ts\":%" PRId64
                          ",\"name\":\"%s\",\"cat\":\"%s\",\"id\":\"0x%" PRIx64 "\"",
                          tid, event.when.micros(), name, cat, event.flow);
        break;
      case TracePhase::kComplete:
        n = std::snprintf(buf, sizeof(buf),
                          ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"ts\":%" PRId64
                          ",\"dur\":%" PRId64 ",\"name\":\"%s\",\"cat\":\"%s\"",
                          tid, event.when.micros(), event.dur.micros(), name, cat);
        break;
    }
    TIGER_DCHECK(n > 0 && static_cast<size_t>(n) < sizeof(buf));
    out.append(buf, static_cast<size_t>(n));
    out += ",\"args\":{";
    bool first = true;
    auto arg = [&](const char* key, int64_t value) {
      if (!first) {
        out.push_back(',');
      }
      first = false;
      int m = std::snprintf(buf, sizeof(buf), "\"%s\":%" PRId64, key, value);
      out.append(buf, static_cast<size_t>(m));
    };
    arg("seq", static_cast<int64_t>(event.seq));
    if (event.args.viewer >= 0) {
      arg("viewer", event.args.viewer);
    }
    if (event.args.slot >= 0) {
      arg("slot", event.args.slot);
    }
    if (event.args.a != -1) {
      arg("a", event.args.a);
    }
    if (event.args.b != -1) {
      arg("b", event.args.b);
    }
    out += "}}";
  }
  out += extra_events;
  out += "\n]}\n";
  return out;
}

}  // namespace tiger
