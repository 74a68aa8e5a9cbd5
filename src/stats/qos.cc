#include "src/stats/qos.h"

#include "src/common/text_file.h"
#include "src/trace/profiler.h"

#include <cstdio>
#include <sstream>

namespace tiger {

const char* QosLedger::KindName(GlitchKind kind) {
  switch (kind) {
    case GlitchKind::kLate:
      return "late";
    case GlitchKind::kLost:
      return "lost";
  }
  return "?";
}

const char* QosLedger::CauseName(GlitchCause cause) {
  switch (cause) {
    case GlitchCause::kPrimaryDiskOverload:
      return "primary_disk_overload";
    case GlitchCause::kMirrorFallback:
      return "mirror_fallback";
    case GlitchCause::kDroppedControl:
      return "dropped_control";
    case GlitchCause::kDescheduleRace:
      return "deschedule_race";
    case GlitchCause::kFailureWindow:
      return "failure_window";
    case GlitchCause::kHopTtlExceeded:
      return "hop_ttl_exceeded";
    case GlitchCause::kCauseCount:
      break;
  }
  return "?";
}

void QosLedger::AnnotateServerCause(TimePoint when, ViewerId viewer, int64_t position,
                                    GlitchCause cause, uint32_t cub) {
  TIGER_PROF_SCOPE(kQosAudit);
  annotations_by_cause_[static_cast<size_t>(cause)]++;
  const Key key{viewer.value(), position};
  auto [it, inserted] = annotations_.try_emplace(key);
  if (!inserted) {
    return;  // First annotation is the root cause; keep it.
  }
  it->second = Annotation{when, cause, cub, next_annotation_order_++};
  if (annotations_.size() > kMaxAnnotations) {
    // Evict the oldest pending annotation (linear scan; eviction only happens
    // once the bound is hit, and the bound is generous).
    auto oldest = annotations_.begin();
    for (auto a = annotations_.begin(); a != annotations_.end(); ++a) {
      if (a->second.order < oldest->second.order) {
        oldest = a;
      }
    }
    annotations_.erase(oldest);
    dropped_annotations_++;
  }
}

GlitchCause QosLedger::Consume(ViewerId viewer, int64_t position) {
  auto it = annotations_.find(Key{viewer.value(), position});
  if (it == annotations_.end()) {
    return GlitchCause::kFailureWindow;
  }
  const GlitchCause cause = it->second.cause;
  annotations_.erase(it);
  return cause;
}

void QosLedger::RecordClientBlock(ViewerId viewer) {
  TIGER_PROF_SCOPE(kQosAudit);
  fleet_.blocks++;
  per_viewer_[viewer.value()].blocks++;
}

void QosLedger::AddGlitch(TimePoint when, ViewerId viewer, int64_t position,
                          GlitchKind kind) {
  const GlitchCause cause = Consume(viewer, position);
  const size_t ci = static_cast<size_t>(cause);
  Rollup& pv = per_viewer_[viewer.value()];
  if (kind == GlitchKind::kLate) {
    fleet_.late++;
    pv.late++;
  } else {
    fleet_.lost++;
    pv.lost++;
  }
  fleet_.by_cause[ci]++;
  pv.by_cause[ci]++;
  glitches_.push_back(Glitch{when, viewer, position, kind, cause});
  if (glitches_.size() > kMaxGlitches) {
    glitches_.pop_front();
    dropped_glitches_++;
  }
}

void QosLedger::RecordClientLate(TimePoint when, ViewerId viewer, int64_t position) {
  TIGER_PROF_SCOPE(kQosAudit);
  AddGlitch(when, viewer, position, GlitchKind::kLate);
}

void QosLedger::RecordClientLost(TimePoint when, ViewerId viewer, int64_t position) {
  TIGER_PROF_SCOPE(kQosAudit);
  AddGlitch(when, viewer, position, GlitchKind::kLost);
}

int64_t QosLedger::GlitchesByCause(GlitchCause cause) const {
  return fleet_.by_cause[static_cast<size_t>(cause)];
}

int64_t QosLedger::AnnotationsByCause(GlitchCause cause) const {
  return annotations_by_cause_[static_cast<size_t>(cause)];
}

QosLedger::Rollup QosLedger::ViewerRollup(ViewerId viewer) const {
  auto it = per_viewer_.find(viewer.value());
  return it == per_viewer_.end() ? Rollup{} : it->second;
}

std::string QosLedger::Csv() const {
  std::string out = "when_us,viewer,position,kind,cause\n";
  char buf[128];
  for (const Glitch& g : glitches_) {
    std::snprintf(buf, sizeof(buf), "%lld,%u,%lld,%s,%s\n",
                  static_cast<long long>(g.when.micros()), g.viewer.value(),
                  static_cast<long long>(g.position), KindName(g.kind),
                  CauseName(g.cause));
    out += buf;
  }
  return out;
}

bool QosLedger::WriteCsv(const std::string& path) const {
  return WriteTextFile(path, Csv());
}

std::string QosLedger::SummaryText() const {
  std::ostringstream out;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "qos fleet: blocks=%lld late=%lld lost=%lld glitch_rate=%.6f\n",
                static_cast<long long>(fleet_.blocks), static_cast<long long>(fleet_.late),
                static_cast<long long>(fleet_.lost), fleet_.GlitchRate());
  out << buf;
  for (size_t c = 0; c < static_cast<size_t>(GlitchCause::kCauseCount); ++c) {
    std::snprintf(buf, sizeof(buf), "qos cause %-21s glitches=%lld annotations=%lld\n",
                  CauseName(static_cast<GlitchCause>(c)),
                  static_cast<long long>(fleet_.by_cause[c]),
                  static_cast<long long>(annotations_by_cause_[c]));
    out << buf;
  }
  for (const auto& [viewer, r] : per_viewer_) {
    std::snprintf(buf, sizeof(buf),
                  "qos viewer %-4u blocks=%lld late=%lld lost=%lld glitch_rate=%.6f\n",
                  viewer, static_cast<long long>(r.blocks), static_cast<long long>(r.late),
                  static_cast<long long>(r.lost), r.GlitchRate());
    out << buf;
  }
  if (dropped_glitches_ > 0 || dropped_annotations_ > 0) {
    std::snprintf(buf, sizeof(buf), "qos dropped: glitches=%llu annotations=%llu\n",
                  static_cast<unsigned long long>(dropped_glitches_),
                  static_cast<unsigned long long>(dropped_annotations_));
    out << buf;
  }
  return out.str();
}

}  // namespace tiger
