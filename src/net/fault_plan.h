// Deterministic control-plane fault injection.
//
// A NetFaultPlan sits between Network::Send and the fabric and decides, per
// message, whether to drop it, delay it, or deliver extra copies. Decisions
// are driven by declarative rules (time window, (src,dst) match, probability)
// evaluated against a seeded Rng, so a plan replays bit-for-bit.
//
// Guarantee boundaries (see DESIGN.md "Fault model"):
//  * Injected *delay* preserves the per-pair FIFO ordering that §4.1.3's
//    insert-after-deschedule argument requires — the Network clamps delivery
//    times per ordered pair after the plan runs, exactly as for jitter.
//  * *Drops* and *duplicates* are deliberate violations of the TCP-like
//    reliable/at-most-once contract. They are opt-in, labeled, and counted in
//    FaultStats so a test that injects them knows its own blast radius.
//  * Partitions are bidirectional drop rules: both directions between the two
//    node sets are severed for the window.
//
// Rule windows come in two forms:
//  * absolute — [start, end) in simulated time (the original form);
//  * phase-anchored — [anchor + rel_start, anchor + rel_end) where `anchor`
//    is the instant the plan first sees a message of a given kind on the
//    wire (e.g. "the first DescheduleMsg"). Anchors make timing races
//    expressible declaratively — "partition 5 ms after the first
//    deschedule" — which is what the frontier search bisects over. The
//    anchoring message itself is evaluated against the freshly armed window,
//    so rel_start = 0 covers it too.
//
// The plan only sees the control plane (Network::Send); paced data-plane
// transfers model the ATM data path, whose loss shows up as client glitches
// and is measured separately.

#ifndef SRC_NET_FAULT_PLAN_H_
#define SRC_NET_FAULT_PLAN_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/stats/fault_stats.h"

namespace tiger {

// NetAddress lives in network.h, but network.h needs fault_plan.h; keep the
// alias in sync (it is checked by a static_assert in network.h).
using FaultNetAddress = uint32_t;
constexpr FaultNetAddress kAnyAddress = static_cast<FaultNetAddress>(-2);

// A rule with anchor_kind == kNoAnchor uses its absolute window. Otherwise
// anchor_kind is the wire tag of a message kind (Payload::fault_kind(); for
// Tiger messages, static_cast<int>(MsgKind)) and the window is relative to
// the first appearance of that kind. The plan layer deliberately treats the
// tag as an opaque integer — message kinds are defined above it.
constexpr int kNoAnchor = -1;

class NetFaultPlan {
 public:
  enum class RuleKind { kDrop, kDelay, kDuplicate };

  struct Rule {
    RuleKind kind = RuleKind::kDrop;
    // Active window [start, end) in simulated time (anchor_kind == kNoAnchor).
    TimePoint start;
    TimePoint end = TimePoint::Max();
    // Phase-anchored window: active in [anchor_time(anchor_kind) + rel_start,
    // anchor_time(anchor_kind) + rel_end); dormant until the anchor arms.
    int anchor_kind = kNoAnchor;
    Duration rel_start;
    Duration rel_end;
    // Match on the ordered pair; kAnyAddress is a wildcard.
    FaultNetAddress src = kAnyAddress;
    FaultNetAddress dst = kAnyAddress;
    // Probability the rule fires for a matching message.
    double probability = 1.0;
    // kDelay: extra latency added to the message (FIFO-preserving).
    Duration delay;
    // kDuplicate: number of extra copies delivered, each `delay` after the
    // previous (0 extra delay → back-to-back FIFO deliveries).
    int copies = 1;
  };

  // What Network::Send should do with one message.
  struct Decision {
    bool drop = false;
    Duration extra_delay;
    int duplicates = 0;
    Duration duplicate_spacing;
  };

  explicit NetFaultPlan(Rng rng, FaultStats* stats = nullptr)
      : rng_(std::move(rng)), stats_(stats) {}

  void AddRule(const Rule& rule) { rules_.push_back(rule); }

  // Severs both directions between every (a,b) pair with a∈side_a, b∈side_b
  // for the window.
  void AddPartition(const std::vector<FaultNetAddress>& side_a,
                    const std::vector<FaultNetAddress>& side_b, TimePoint start, TimePoint end);

  // Same severance, but the window is anchored to the first message of
  // `anchor_kind` seen on the wire: [anchor + rel_start, anchor + rel_end).
  void AddPartitionAnchored(const std::vector<FaultNetAddress>& side_a,
                            const std::vector<FaultNetAddress>& side_b, int anchor_kind,
                            Duration rel_start, Duration rel_end);

  // Evaluates every matching rule, draws the dice, records fired faults into
  // FaultStats, and returns the combined decision. Drop wins over everything;
  // delays accumulate; duplicate counts accumulate. `msg_kind` is the
  // message's fault tag (kNoAnchor for untyped payloads): the first sighting
  // of each tag arms that tag's anchor.
  Decision Apply(TimePoint now, FaultNetAddress src, FaultNetAddress dst,
                 int msg_kind = kNoAnchor);

  // When the first message of `kind` was seen, or TimePoint::Max() if never.
  TimePoint AnchorTime(int kind) const {
    auto it = anchors_.find(kind);
    return it == anchors_.end() ? TimePoint::Max() : it->second;
  }

  void set_stats(FaultStats* stats) { stats_ = stats; }

  // Sharded mode (DESIGN.md §6h). Dice fork per shard (drawn in each shard's
  // deterministic event order, so decisions are thread-count-invariant), and
  // anchor arming is deferred: first sightings collect per shard during a
  // window and arm at the next barrier via ArmPendingAnchors(), taking the
  // earliest sighting across shards. Unlike one shard, the anchoring message
  // itself is therefore *not* covered by a rel_start-zero window — a rule
  // window starts at the first barrier after the sighting. That shift is
  // identical for every thread count, which is the property the sharded
  // determinism gate needs.
  void SetShardTopology(int shards);

  // Barrier hook: merges pending anchor sightings, earliest (time, shard)
  // first, into the armed set. Driver context only.
  void ArmPendingAnchors();

 private:
  static bool Matches(FaultNetAddress pattern, FaultNetAddress addr) {
    return pattern == kAnyAddress || pattern == addr;
  }

  bool RuleActive(const Rule& rule, TimePoint now) const;

  std::vector<Rule> rules_;
  // First-sighting instant per message tag (std::map: deterministic). In
  // sharded mode, written only at barriers; read freely during windows.
  std::map<int, TimePoint> anchors_;
  Rng rng_;
  FaultStats* stats_;
  // Sharded mode: per-shard dice and pending anchor sightings. Empty for a
  // one-shard run.
  std::vector<Rng> shard_rngs_;
  std::vector<std::vector<std::pair<int, TimePoint>>> pending_anchors_;
};

}  // namespace tiger

#endif  // SRC_NET_FAULT_PLAN_H_
