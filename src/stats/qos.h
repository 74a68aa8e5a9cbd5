// Per-viewer QoS ledger: every late/lost block, attributed to a cause.
//
// The paper's §5 evaluation is per-viewer quality data — lost and late blocks
// per stream under unfailed, failed and reconfiguring operation. This ledger
// reproduces that accounting and goes one step further: each client-observed
// glitch is joined against server-side annotations so the *cause* is named,
// not just the count.
//
// Two halves, joined by (viewer, block position):
//
//  * Cubs annotate blocks they know they degraded or failed to serve — the
//    read missed its send deadline (primary-disk overload), the block went
//    out as declustered mirror fragments (mirror fallback), the viewer-state
//    record arrived too late to be serviced (dropped/delayed control
//    message), or the record was killed by a held deschedule (deschedule
//    race). The first annotation for a position wins: it is the root cause;
//    downstream effects (a too-late fragment of a mirror chain, say) must
//    not repaint it.
//  * Viewers report what they actually observed: blocks completing late and
//    blocks declared lost. The report consumes the matching annotation; a
//    glitch with no annotation is attributed to the failure window — the
//    serving cub died (dead machines write no annotations) or the data
//    plane lost the bytes.
//
// Annotations without a matching client glitch are normal (a mirror-recovered
// block usually still arrives on time) and are counted, not reported as
// glitches. Everything is deterministic: std::map ordering everywhere, no
// global RNG, bounded memory (drop-oldest with counters).

#ifndef SRC_STATS_QOS_H_
#define SRC_STATS_QOS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/net/payload_pool.h"

namespace tiger {

enum class GlitchKind : uint8_t { kLate = 0, kLost };

enum class GlitchCause : uint8_t {
  kPrimaryDiskOverload = 0,  // Read not complete by the send deadline (§5).
  kMirrorFallback,           // Served via the declustered mirror chain (§2.3).
  kDroppedControl,           // Viewer-state record lost/late in the control plane.
  kDescheduleRace,           // Record killed by a held deschedule (§4.1.2).
  kFailureWindow,            // No server annotation: cub death / data-plane loss.
  kHopTtlExceeded,           // Record dropped by the lineage hop-count TTL guard.
  kCauseCount,               // sentinel
};

class QosLedger {
 public:
  struct Glitch {
    TimePoint when;
    ViewerId viewer = ViewerId::Invalid();
    int64_t position = 0;
    GlitchKind kind = GlitchKind::kLate;
    GlitchCause cause = GlitchCause::kFailureWindow;
  };

  struct Rollup {
    int64_t blocks = 0;  // Client-complete blocks (the rate denominator).
    int64_t late = 0;
    int64_t lost = 0;
    int64_t by_cause[static_cast<size_t>(GlitchCause::kCauseCount)] = {};
    // Glitches per delivered block — the §5 reliability-table metric.
    double GlitchRate() const {
      return blocks == 0 ? 0.0
                         : static_cast<double>(late + lost) / static_cast<double>(blocks);
    }
  };

  // Actors call the mutators through ShardEngine::JournalAppend: sharded
  // runs defer them to barrier-ordered journals, a single shard applies them
  // at once.

  // --- server side (cubs) ---
  // Records the root cause for a block the server knows it degraded. The
  // first annotation per (viewer, position) wins; later ones only bump the
  // per-cause annotation counter.
  void AnnotateServerCause(TimePoint when, ViewerId viewer, int64_t position,
                           GlitchCause cause, uint32_t cub);

  // --- client side (viewers) ---
  void RecordClientBlock(ViewerId viewer);
  void RecordClientLate(TimePoint when, ViewerId viewer, int64_t position);
  void RecordClientLost(TimePoint when, ViewerId viewer, int64_t position);

  // Pool-backed so steady-state annotation/glitch churn (bounded, drop-oldest)
  // recycles nodes and chunks instead of allocating per event.
  using GlitchDeque = std::deque<Glitch, PoolAllocator<Glitch>>;

  // --- rollups ---
  const GlitchDeque& glitches() const { return glitches_; }
  int64_t total_late() const { return fleet_.late; }
  int64_t total_lost() const { return fleet_.lost; }
  int64_t total_blocks() const { return fleet_.blocks; }
  // Glitches attributed to `cause` (client-confirmed).
  int64_t GlitchesByCause(GlitchCause cause) const;
  // Server annotations made with `cause`, whether or not a client confirmed.
  int64_t AnnotationsByCause(GlitchCause cause) const;
  Rollup FleetRollup() const { return fleet_; }
  Rollup ViewerRollup(ViewerId viewer) const;
  size_t viewer_count() const { return per_viewer_.size(); }
  // Deterministic (viewer-id-ordered) iteration over per-viewer rollups —
  // the SLO monitor's worst-viewer scan.
  template <typename Fn>
  void ForEachViewer(Fn&& fn) const {
    for (const auto& [viewer, rollup] : per_viewer_) {
      fn(viewer, rollup);
    }
  }
  size_t pending_annotations() const { return annotations_.size(); }
  uint64_t dropped_glitches() const { return dropped_glitches_; }
  uint64_t dropped_annotations() const { return dropped_annotations_; }

  // --- rendering (deterministic; map-ordered) ---
  // One "when_us viewer position kind cause" CSV row per retained glitch, in
  // recording order, preceded by a header.
  std::string Csv() const;
  bool WriteCsv(const std::string& path) const;
  // Fleet totals, the cause breakdown, then one line per viewer.
  std::string SummaryText() const;

  static const char* KindName(GlitchKind kind);
  static const char* CauseName(GlitchCause cause);

 private:
  // Retained-glitch and pending-annotation bounds; beyond them the oldest
  // entries are dropped (rollup counters are never dropped).
  static constexpr size_t kMaxGlitches = 65536;
  static constexpr size_t kMaxAnnotations = 16384;

  struct Annotation {
    TimePoint when;
    GlitchCause cause = GlitchCause::kFailureWindow;
    uint32_t cub = 0;
    uint64_t order = 0;  // Insertion order, for oldest-first eviction.
  };
  using Key = std::pair<uint32_t, int64_t>;  // (viewer, position)

  // Consumes and returns the annotation for (viewer, position), or
  // kFailureWindow when none exists.
  GlitchCause Consume(ViewerId viewer, int64_t position);
  void AddGlitch(TimePoint when, ViewerId viewer, int64_t position, GlitchKind kind);

  std::map<Key, Annotation, std::less<Key>, PoolAllocator<std::pair<const Key, Annotation>>>
      annotations_;
  uint64_t next_annotation_order_ = 0;
  GlitchDeque glitches_;
  std::map<uint32_t, Rollup, std::less<uint32_t>, PoolAllocator<std::pair<const uint32_t, Rollup>>>
      per_viewer_;
  Rollup fleet_;
  int64_t annotations_by_cause_[static_cast<size_t>(GlitchCause::kCauseCount)] = {};
  uint64_t dropped_glitches_ = 0;
  uint64_t dropped_annotations_ = 0;
};

}  // namespace tiger

#endif  // SRC_STATS_QOS_H_
