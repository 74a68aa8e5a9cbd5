#include "src/net/fault_plan.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/sim/shard_engine.h"

namespace tiger {

void NetFaultPlan::SetShardTopology(int shards) {
  TIGER_CHECK(shards >= 1);
  shard_rngs_.clear();
  pending_anchors_.clear();
  for (int i = 0; i < shards; ++i) {
    shard_rngs_.push_back(rng_.Fork());
  }
  pending_anchors_.resize(static_cast<size_t>(shards));
}

void NetFaultPlan::ArmPendingAnchors() {
  TIGER_CHECK(ShardEngine::CurrentShard() < 0);
  // Earliest sighting wins; shard index breaks exact-time ties so the armed
  // instant never depends on scan order.
  std::vector<std::pair<int, TimePoint>> merged;
  for (auto& shard_pending : pending_anchors_) {
    for (const auto& sighting : shard_pending) {
      merged.push_back(sighting);
    }
    shard_pending.clear();
  }
  std::sort(merged.begin(), merged.end(), [](const auto& a, const auto& b) {
    return a.second < b.second;
  });
  for (const auto& [kind, when] : merged) {
    anchors_.try_emplace(kind, when);
  }
}

void NetFaultPlan::AddPartition(const std::vector<FaultNetAddress>& side_a,
                                const std::vector<FaultNetAddress>& side_b, TimePoint start,
                                TimePoint end) {
  for (FaultNetAddress a : side_a) {
    for (FaultNetAddress b : side_b) {
      Rule rule;
      rule.kind = RuleKind::kDrop;
      rule.start = start;
      rule.end = end;
      rule.probability = 1.0;
      rule.src = a;
      rule.dst = b;
      rules_.push_back(rule);
      rule.src = b;
      rule.dst = a;
      rules_.push_back(rule);
    }
  }
}

void NetFaultPlan::AddPartitionAnchored(const std::vector<FaultNetAddress>& side_a,
                                        const std::vector<FaultNetAddress>& side_b,
                                        int anchor_kind, Duration rel_start,
                                        Duration rel_end) {
  for (FaultNetAddress a : side_a) {
    for (FaultNetAddress b : side_b) {
      Rule rule;
      rule.kind = RuleKind::kDrop;
      rule.anchor_kind = anchor_kind;
      rule.rel_start = rel_start;
      rule.rel_end = rel_end;
      rule.probability = 1.0;
      rule.src = a;
      rule.dst = b;
      rules_.push_back(rule);
      rule.src = b;
      rule.dst = a;
      rules_.push_back(rule);
    }
  }
}

bool NetFaultPlan::RuleActive(const Rule& rule, TimePoint now) const {
  if (rule.anchor_kind == kNoAnchor) {
    return now >= rule.start && now < rule.end;
  }
  auto it = anchors_.find(rule.anchor_kind);
  if (it == anchors_.end()) {
    return false;  // Anchor not armed yet: the rule is dormant.
  }
  return now >= it->second + rule.rel_start && now < it->second + rule.rel_end;
}

NetFaultPlan::Decision NetFaultPlan::Apply(TimePoint now, FaultNetAddress src,
                                           FaultNetAddress dst, int msg_kind) {
  // Serial mode arms the anchor before rule evaluation so a rel_start-zero
  // window covers the anchoring message itself. Sharded mode defers arming
  // to the barrier (shards must not mutate the shared map mid-window).
  const bool sharded = !shard_rngs_.empty();
  const int shard = sharded ? std::max(0, ShardEngine::CurrentShard()) : 0;
  if (msg_kind != kNoAnchor) {
    if (!sharded) {
      anchors_.try_emplace(msg_kind, now);
    } else if (anchors_.find(msg_kind) == anchors_.end()) {
      pending_anchors_[static_cast<size_t>(shard)].emplace_back(msg_kind, now);
    }
  }
  Rng& dice = sharded ? shard_rngs_[static_cast<size_t>(shard)] : rng_;
  Decision decision;
  for (const Rule& rule : rules_) {
    if (!RuleActive(rule, now)) {
      continue;
    }
    if (!Matches(rule.src, src) || !Matches(rule.dst, dst)) {
      continue;
    }
    if (rule.probability < 1.0 && !dice.Bernoulli(rule.probability)) {
      continue;
    }
    switch (rule.kind) {
      case RuleKind::kDrop:
        decision.drop = true;
        break;
      case RuleKind::kDelay:
        decision.extra_delay += rule.delay;
        break;
      case RuleKind::kDuplicate:
        decision.duplicates += rule.copies;
        decision.duplicate_spacing = rule.delay;
        break;
    }
    if (decision.drop) {
      break;  // Nothing downstream matters for a dropped message.
    }
  }
  if (stats_ != nullptr) {
    if (decision.drop) {
      ShardEngine::JournalCall(stats_, &FaultStats::RecordMessageFault,
                               FaultStats::Kind::kMessageDropped, now, src, dst);
    } else {
      if (decision.extra_delay > Duration::Zero()) {
        ShardEngine::JournalCall(stats_, &FaultStats::RecordMessageFault,
                                 FaultStats::Kind::kMessageDelayed, now, src, dst);
      }
      for (int i = 0; i < decision.duplicates; ++i) {
        ShardEngine::JournalCall(stats_, &FaultStats::RecordMessageFault,
                                 FaultStats::Kind::kMessageDuplicated, now, src, dst);
      }
    }
  }
  return decision;
}

}  // namespace tiger
