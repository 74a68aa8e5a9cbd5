// ScheduleAuditor: a passive observer that rebuilds the global schedule no
// node holds and diffs it against what the cubs actually believe.
//
// Tiger deliberately has no global schedule — §4 calls the distributed state
// a "coherent hallucination". The auditor is the offline proof of coherence:
// it subscribes to the causal lineage evidence cubs emit (record creations,
// forwards, receives, TTL drops, kills; see src/core/audit_hooks.h),
// maintains a *shadow* global schedule from that evidence alone, and diffs the
// shadow against every living cub's local window.
//
// The diff checks each view entry once, when it lands, not every entry on
// every check: each cub's ScheduleView logs the entries that land while an
// observer is attached, and every check drains those logs. That is exact,
// because a landed record is read-only (ScheduleEntry::record() is const and
// only the view writes it) — an entry that checks out when it lands cannot
// diverge later. The diff's cost follows what changed, not view size, so the
// auditor keeps §4's limited-view discipline instead of re-reading every
// window every period.
//
// The cardinal rule keeping false positives at zero: any single piece of
// evidence may INTRODUCE shadow state (an unknown chain, a new mirror lane,
// a pending kill), because the protocol legitimately creates the same record
// in more than one place (bootstrap double-seeding, double-forwarding,
// takeover re-synthesis, rejoin replays). Divergence is flagged only on
// CONFLICTING evidence — two facts that cannot both belong to one coherent
// schedule.
//
// Divergence classes map to the paper's failure discussions:
//
//   class                     paper    meaning
//   kStaleOwnership           §4.1.3   two instances claim one slot pass
//                                      (insertion race / stale ownership)
//   kLeadBoundViolation       §4.1.1   a record arrived further ahead of its
//                                      due time than maxVStateLead allows
//   kDueMismatch              §4.1.1   a record's due/position disagrees with
//                                      the chain's shared linear arithmetic
//   kMirrorScheduleMismatch   §2.3     a declustered fragment off its lane
//                                      (failed-mode schedule incoherence)
//   kTrulyLostRecord          §4.1.1   both forwarded copies vanished and the
//                                      chain never advanced past the record
//   kOrphanKill               §4.1.2   a slot-targeted kill for an instance
//                                      no schedule evidence has ever named
//   kDuplicateKill            §4.1.2   one cub installed a fresh hold twice
//                                      for the same instance (kill loop)
//   kResurrection             §4.1.2   a killed instance re-entered a view
//                                      that had already applied the kill
//   kTtlExceeded              §4.1.1   the hop-count TTL guard fired
//   kPhantomRecord            §4       an entry landed in a view where no
//                                      evidence explains it (counted once)
//
// Records forwarded to two successors where only one copy survives are the
// paper's double-forwarding working as designed; the auditor counts them as
// rescued_by_second_successor (informational), never as divergence.

#ifndef SRC_AUDIT_AUDITOR_H_
#define SRC_AUDIT_AUDITOR_H_

#include <cstdint>
#include <deque>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/core/audit_hooks.h"
#include "src/core/config.h"
#include "src/net/payload_pool.h"
#include "src/sim/actor.h"

namespace tiger {

class TigerSystem;

class ScheduleAuditor : public Actor, public AuditObserver {
 public:
  enum class DivergenceClass : uint8_t {
    kStaleOwnership = 0,
    kLeadBoundViolation,
    kDueMismatch,
    kMirrorScheduleMismatch,
    kTrulyLostRecord,
    kOrphanKill,
    kDuplicateKill,
    kResurrection,
    kTtlExceeded,
    kPhantomRecord,
    kClassCount,  // sentinel
  };
  static const char* ClassName(DivergenceClass cls);
  static const char* ClassPaperSection(DivergenceClass cls);

  struct Divergence {
    TimePoint when;
    DivergenceClass cls = DivergenceClass::kClassCount;
    uint64_t chain = 0;  // 0 when the divergence is not chain-scoped.
    int64_t viewer = -1;
    int64_t instance = -1;
    int64_t slot = -1;
    int64_t cub = -1;
    int64_t sequence = -1;
    std::string detail;
  };

  // One step of a record's trip around the ring (kKillApplied: one cub
  // applying a kill message's lineage-tagged trip, §4.1.2).
  enum class HopKind : uint8_t {
    kCreated = 0,
    kForwarded,
    kReceived,
    kTtlDropped,
    kKillApplied,
  };
  static const char* HopKindName(HopKind kind);
  struct Hop {
    TimePoint when;
    HopKind kind = HopKind::kCreated;
    uint32_t cub = 0;   // Where the evidence was emitted.
    int32_t peer = -1;  // Forward target cub; -1 otherwise.
    int64_t sequence = 0;
    int32_t fragment = -1;
    uint16_t hop_count = 0;
    uint64_t lamport = 0;
  };
  // One chain's (or one kill's) lineage log: a ring of its newest hops. The
  // ring's storage is reserved once, at full capacity, by the first append
  // and never regrows; once full, each append overwrites the oldest hop and
  // counts it in dropped(). Indexing and iteration run oldest-first over the
  // retained hops, so a log reads like the vector it replaces. Keeping the
  // newest hops means a long-lived viewer's log still covers its latest
  // failure, which is the part a lineage query is asked to explain.
  class HopLog {
   public:
    class const_iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = Hop;
      using difference_type = std::ptrdiff_t;
      using pointer = const Hop*;
      using reference = const Hop&;
      const_iterator() = default;
      const_iterator(const HopLog* log, size_t index) : log_(log), index_(index) {}
      const Hop& operator*() const { return (*log_)[index_]; }
      const Hop* operator->() const { return &(*log_)[index_]; }
      const_iterator& operator++() {
        ++index_;
        return *this;
      }
      const_iterator operator++(int) {
        const_iterator before = *this;
        ++index_;
        return before;
      }
      bool operator==(const const_iterator& o) const { return index_ == o.index_; }

     private:
      const HopLog* log_ = nullptr;
      size_t index_ = 0;
    };

    // Member initializers instead of NSDMIs: GCC rejects a nested class's
    // NSDMIs while the enclosing class is still incomplete.
    HopLog() : head_(0), dropped_(0) {}

    size_t size() const { return ring_.size(); }
    bool empty() const { return ring_.empty(); }
    // Hops evicted to make room for newer ones.
    int64_t dropped() const { return dropped_; }
    // The i-th oldest retained hop.
    const Hop& operator[](size_t i) const {
      size_t slot = head_ + i;
      if (slot >= ring_.size()) {
        slot -= ring_.size();
      }
      return ring_[slot];
    }
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, ring_.size()); }

    // Appends `hop`, evicting the oldest once `capacity` hops are retained.
    // Every call on one log must pass the same capacity.
    void Append(const Hop& hop, size_t capacity);

   private:
    // Hop storage draws from the thread-local payload pool when it fits a
    // size class, like the chain registries below.
    std::vector<Hop, PoolAllocator<Hop>> ring_;
    size_t head_;  // Oldest retained hop once the ring is full.
    int64_t dropped_;
  };

  struct Options {
    Duration period = Duration::Millis(250);
    // A forwarded record unseen anywhere this long after the send is judged:
    // lost-and-rescued if the chain moved on, truly lost otherwise. Sized
    // past the deadman timeout so failure re-forwarding gets its chance.
    Duration lost_horizon = Duration::Seconds(9);
    // A slot-targeted kill for an unknown instance must be explained by
    // schedule evidence within this long, or it is an orphan.
    Duration orphan_horizon = Duration::Seconds(10);
    // Quiesced chains (no evidence, no pending forwards) older than this are
    // pruned so auditor memory stays bounded on long runs.
    Duration chain_retention = Duration::Seconds(600);
    // Hops retained per chain (and per killed instance): each log keeps its
    // newest max_hops_per_chain hops and counts the older ones it evicts.
    // A viewer's chain gathers ~4.3 hops/s on a 28-cub ring, so 256 covers
    // the last ~60 s of its trip: a deadman timeout, the takeover and the
    // ~8 s loss window of a failure, with room to spare.
    size_t max_hops_per_chain = 256;
    // Retained divergence records (raw per-class counters keep counting).
    size_t max_divergences = 1024;
  };

  // Standalone construction: hooks, report and lineage queries work without a
  // TigerSystem (unit tests drive the evidence interface directly). Two
  // overloads instead of a defaulted Options argument: GCC rejects
  // nested-class NSDMIs used in a default argument of the enclosing class.
  ScheduleAuditor(Simulator* sim, const TigerConfig* config)
      : ScheduleAuditor(sim, config, Options()) {}
  ScheduleAuditor(Simulator* sim, const TigerConfig* config, Options options);

  // Wires this auditor into `system`: every cub's audit hooks, which also
  // turn on each view's landing log. Tracing plays no part in the audit.
  void Attach(TigerSystem* system);

  // Begins the periodic shadow-vs-view diff: an engine barrier task every
  // options.period, where every shard is quiesced and all journals have
  // applied. Call after Attach() and before running the system.
  void Start();
  // Runs one diff/resolution pass at the current simulated time.
  void CheckNow();

  // AuditObserver:
  void OnRecordCreated(TimePoint when, uint32_t cub, CreateKind kind,
                       const ViewerStateRecord& record,
                       const RecordLineage& request) override;
  void OnRecordForwarded(TimePoint when, uint32_t from, uint32_t to,
                         const ViewerStateRecord& record) override;
  void OnRecordReceived(TimePoint when, uint32_t at, const ViewerStateRecord& record,
                        ScheduleView::ApplyResult result) override;
  void OnRecordTtlDropped(TimePoint when, uint32_t at,
                          const ViewerStateRecord& record) override;
  void OnKill(TimePoint when, uint32_t at, const DescheduleRecord& kill,
              const RecordLineage& lineage, int removed, bool new_hold) override;
  std::string ChromeFlowEvents() const override;

  // --- divergence report ---
  bool healthy() const { return total_divergences_ == 0; }
  int64_t total_divergences() const { return total_divergences_; }
  int64_t CountFor(DivergenceClass cls) const {
    return counts_[static_cast<size_t>(cls)];
  }
  const std::vector<Divergence>& divergences() const { return divergences_; }
  // AuditObserver: the incoherence count the SLO monitor polls — every class
  // except the bounded truly-lost crash losses.
  int64_t FatalDivergences() const override {
    return total_divergences_ - CountFor(DivergenceClass::kTrulyLostRecord);
  }
  // Deterministic exports: same seed, same binary, byte-identical output.
  std::string ReportJson() const override;
  std::string ReportCsv() const;
  bool WriteReportJson(const std::string& path) const;

  // --- lineage query API ---
  // Chains (origin<<32|epoch) minted for this viewer, in first-seen order.
  std::vector<uint64_t> ChainsOfViewer(ViewerId viewer) const;
  // Retained hop log of one chain (its newest max_hops_per_chain hops,
  // oldest-first); nullptr if the chain is unknown (or pruned).
  const HopLog* ChainHops(uint64_t chain) const;
  // "Show viewer 17's record's full hop chain": human-readable trip log.
  std::string ViewerLineage(ViewerId viewer) const;
  // The kill message's trip for an instance: one kKillApplied hop per cub
  // application, carrying the DescheduleMsg lineage's hop count and Lamport
  // stamp (the newest max_hops_per_chain of them, oldest-first). nullptr if
  // no kill evidence names the instance.
  const HopLog* KillHops(PlayInstanceId instance) const;
  // Full hop table as CSV (chain,origin,epoch,hop kind,time,cubs,...).
  std::string LineageCsv() const;
  bool WriteLineageCsv(const std::string& path) const;

  // --- informational counters (never divergence) ---
  int64_t rescued_by_second_successor() const { return rescued_by_second_successor_; }
  int64_t forwards_observed() const { return forwards_observed_; }
  int64_t forwards_delivered() const { return forwards_delivered_; }
  int64_t chains_seen() const { return chains_created_; }
  int64_t untagged_records() const { return untagged_records_; }
  int64_t checks_run() const { return checks_run_; }
  // View entries the diff has checked: one per landing, never per check.
  int64_t entries_audited() const { return entries_audited_; }

 private:
  struct MirrorLane {
    int64_t anchor_seq = 0;
    int32_t anchor_frag = 0;
    int64_t anchor_due_us = 0;
  };
  struct PendingForward {
    TimePoint first_sent;
    uint64_t targets_mask = 0;
    uint64_t received_mask = 0;
  };
  struct ChainState {
    uint64_t id = 0;
    int64_t viewer = -1;
    uint64_t instance = 0;
    int64_t slot = -1;
    // Primary lane: due(seq) = anchor_due + (seq - anchor_seq) * play,
    // position(seq) = anchor_pos + (seq - anchor_seq). Exact integer math —
    // the same shared arithmetic the cubs use (§4.1.1).
    bool has_anchor = false;
    int64_t anchor_seq = 0;
    int64_t anchor_due_us = 0;
    int64_t anchor_pos = 0;
    // Mirror lanes keyed by block position: fragments of one recovered block.
    std::map<int64_t, MirrorLane, std::less<int64_t>,
             PoolAllocator<std::pair<const int64_t, MirrorLane>>>
        mirror_lanes;
    uint64_t cubs_seen = 0;  // Bitmask of cubs holding direct evidence.
    // Lineage chain of the controller request that minted this record chain
    // (StartPlayMsg for insertions); 0 when no request message was involved.
    uint64_t request_chain = 0;
    int64_t max_seq_seen = 0;
    TimePoint last_evidence;
    HopLog hops;
    // Forwards not yet confirmed received, keyed by seq * 256 + fragment + 1.
    std::map<int64_t, PendingForward, std::less<int64_t>,
             PoolAllocator<std::pair<const int64_t, PendingForward>>>
        pending;
  };
  struct KillState {
    TimePoint first_when;
    TimePoint hold_until;
    int64_t viewer = -1;
    int64_t slot = -1;
    uint64_t applied_cubs = 0;    // Cubs that reported this kill.
    uint64_t fresh_hold_cubs = 0; // Cubs that installed a new hold (once each).
    bool orphan_candidate = false;
    TimePoint orphan_deadline;
    // Message-level lineage of the kill: its controller-minted chain and one
    // kKillApplied hop per application, in observation order.
    uint64_t kill_chain = 0;
    HopLog hops;
  };
  struct SlotClaim {
    int64_t due_us = 0;
    uint64_t instance = 0;
  };
  // Expiry-index items. A pending forward comes due lost_horizon after its
  // first send, an orphan candidate at its deadline, a slot claim once its
  // slot pass has played out (due + play). Each check pops only the items
  // that have come due.
  struct PendingDue {
    TimePoint first_sent;
    uint64_t chain = 0;
    int64_t key = 0;  // PendingKey of the forward.
  };
  struct OrphanDue {
    TimePoint deadline;
    uint64_t instance = 0;
  };
  struct ClaimExpiry {
    int64_t expires_us = 0;  // due_us + play.
    int64_t slot = 0;
    SlotClaim claim;
  };

  // Heap order for claim_expiry_: the soonest expiry on top.
  static bool ExpiresLater(const ClaimExpiry& x, const ClaimExpiry& y) {
    return x.expires_us > y.expires_us;
  }
  static uint64_t CubBit(uint32_t cub) { return uint64_t{1} << (cub & 63); }
  static int64_t PendingKey(int64_t sequence, int32_t fragment) {
    return sequence * 256 + fragment + 1;
  }
  // Exact declustered fragment offset: frag * play / decluster in integer
  // microseconds — identical to the cubs' non-drifting spacing arithmetic.
  int64_t FragOffsetUs(int32_t fragment) const;

  // Finds or creates the record's chain and stamps its last evidence.
  ChainState& GetChain(const ViewerStateRecord& record, TimePoint when);
  // Verifies `record` against the chain's shared arithmetic, introducing
  // anchors/lanes when absent. `cub` scopes any flagged divergence.
  void CheckArithmetic(ChainState& chain, const ViewerStateRecord& record,
                       TimePoint when, uint32_t cub);
  void Flag(DivergenceClass cls, TimePoint when, uint64_t chain, int64_t viewer,
            int64_t instance, int64_t slot, int64_t cub, int64_t sequence,
            std::string detail);
  void ResolvePendingForwards(TimePoint now);
  void ResolveOrphanKills(TimePoint now);
  void DiffViews(TimePoint now);
  void PruneState(TimePoint now);

  const TigerConfig* config_;
  Options options_;
  TigerSystem* system_ = nullptr;

  template <typename V>
  using PooledU64Map =
      std::unordered_map<uint64_t, V, std::hash<uint64_t>, std::equal_to<uint64_t>,
                         PoolAllocator<std::pair<const uint64_t, V>>>;
  using ChainIdVec = std::vector<uint64_t, PoolAllocator<uint64_t>>;

  PooledU64Map<ChainState> chains_;
  // Evidence-backed name registries (introduction order preserved for
  // deterministic queries).
  PooledU64Map<ChainIdVec> viewer_chains_;
  PooledU64Map<ChainIdVec> instance_chains_;
  ChainIdVec chain_order_;
  PooledU64Map<KillState> kills_;
  ChainIdVec kill_order_;  // Instances in first-kill order.
  PooledU64Map<std::vector<SlotClaim, PoolAllocator<SlotClaim>>> slot_claims_;

  // Expiry indexes: a check costs what comes due, not the number of chains,
  // kills or slots. The two FIFOs stay sorted by time because evidence
  // arrives in time order and each horizon is a constant (an out-of-order
  // item is inserted in place). Items are not removed when their subject
  // resolves early; a popped item whose subject is gone or re-armed is
  // stale and skipped.
  std::deque<PendingDue, PoolAllocator<PendingDue>> pending_due_;
  std::deque<OrphanDue, PoolAllocator<OrphanDue>> orphan_due_;
  // Min-heap by expires_us; claim dues do not arrive in time order.
  std::vector<ClaimExpiry> claim_expiry_;
  // Items a check resolves, sorted into the canonical order (see
  // ResolvePendingForwards); kept to reuse capacity.
  std::vector<PendingDue> due_scratch_;

  std::vector<Divergence> divergences_;
  int64_t counts_[static_cast<size_t>(DivergenceClass::kClassCount)] = {};
  int64_t total_divergences_ = 0;
  int64_t divergences_overflow_ = 0;
  // One retained Divergence per (class, chain-or-instance, cub); raw counters
  // keep counting so a storm is visible without unbounded memory.
  std::set<std::tuple<int, uint64_t, int64_t>, std::less<std::tuple<int, uint64_t, int64_t>>,
           PoolAllocator<std::tuple<int, uint64_t, int64_t>>>
      dedup_;

  int64_t rescued_by_second_successor_ = 0;
  int64_t forwards_observed_ = 0;
  int64_t forwards_delivered_ = 0;
  int64_t chains_created_ = 0;
  int64_t chains_pruned_ = 0;
  int64_t untagged_records_ = 0;
  int64_t untagged_view_entries_ = 0;
  int64_t entries_audited_ = 0;
  int64_t checks_run_ = 0;
  int64_t kills_observed_ = 0;
  bool started_ = false;
};

}  // namespace tiger

#endif  // SRC_AUDIT_AUDITOR_H_
