#include "src/audit/auditor.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "src/common/check.h"
#include "src/trace/profiler.h"
#include "src/core/system.h"

namespace tiger {

namespace {

// Appends printf-formatted text to `out` (the exporters build strings this
// way to stay deterministic and locale-free).
template <typename... Args>
void Appendf(std::string* out, const char* fmt, Args... args) {
  char buf[512];
  const int n = std::snprintf(buf, sizeof(buf), fmt, args...);
  TIGER_DCHECK(n >= 0 && static_cast<size_t>(n) < sizeof(buf));
  out->append(buf, static_cast<size_t>(n));
}

bool WriteFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const int closed = std::fclose(f);
  return written == body.size() && closed == 0;
}

}  // namespace

const char* ScheduleAuditor::ClassName(DivergenceClass cls) {
  switch (cls) {
    case DivergenceClass::kStaleOwnership:
      return "stale_ownership";
    case DivergenceClass::kLeadBoundViolation:
      return "lead_bound_violation";
    case DivergenceClass::kDueMismatch:
      return "due_mismatch";
    case DivergenceClass::kMirrorScheduleMismatch:
      return "mirror_schedule_mismatch";
    case DivergenceClass::kTrulyLostRecord:
      return "truly_lost_record";
    case DivergenceClass::kOrphanKill:
      return "orphan_kill";
    case DivergenceClass::kDuplicateKill:
      return "duplicate_kill";
    case DivergenceClass::kResurrection:
      return "resurrection";
    case DivergenceClass::kTtlExceeded:
      return "ttl_exceeded";
    case DivergenceClass::kPhantomRecord:
      return "phantom_record";
    case DivergenceClass::kClassCount:
      break;
  }
  return "unknown";
}

const char* ScheduleAuditor::ClassPaperSection(DivergenceClass cls) {
  switch (cls) {
    case DivergenceClass::kStaleOwnership:
      return "4.1.3";
    case DivergenceClass::kLeadBoundViolation:
      return "4.1.1";
    case DivergenceClass::kDueMismatch:
      return "4.1.1";
    case DivergenceClass::kMirrorScheduleMismatch:
      return "2.3";
    case DivergenceClass::kTrulyLostRecord:
      return "4.1.1";
    case DivergenceClass::kOrphanKill:
      return "4.1.2";
    case DivergenceClass::kDuplicateKill:
      return "4.1.2";
    case DivergenceClass::kResurrection:
      return "4.1.2";
    case DivergenceClass::kTtlExceeded:
      return "4.1.1";
    case DivergenceClass::kPhantomRecord:
      return "4";
    case DivergenceClass::kClassCount:
      break;
  }
  return "?";
}

const char* ScheduleAuditor::HopKindName(HopKind kind) {
  switch (kind) {
    case HopKind::kCreated:
      return "create";
    case HopKind::kForwarded:
      return "forward";
    case HopKind::kReceived:
      return "receive";
    case HopKind::kTtlDropped:
      return "ttl_drop";
    case HopKind::kKillApplied:
      return "kill";
  }
  return "?";
}

ScheduleAuditor::ScheduleAuditor(Simulator* sim, const TigerConfig* config, Options options)
    : Actor(sim, "auditor"), config_(config), options_(options) {
  TIGER_CHECK(config != nullptr);
}

void ScheduleAuditor::Attach(TigerSystem* system) {
  TIGER_CHECK(system != nullptr);
  system_ = system;
  system->SetAuditObserver(this);
}

void ScheduleAuditor::Start() {
  TIGER_CHECK(system_ != nullptr) << "ScheduleAuditor::Start before Attach";
  if (started_) {
    return;
  }
  started_ = true;
  // Check at barriers, where every shard is quiesced and all journals have
  // applied — an actor timer on one shard would race the others' views.
  system_->engine()->AddPeriodicTask(options_.period, [this] { CheckNow(); });
}

void ScheduleAuditor::CheckNow() {
  const TimePoint now = Now();
  ResolvePendingForwards(now);
  ResolveOrphanKills(now);
  DiffViews(now);
  PruneState(now);
  checks_run_++;
}

// ---------------------------------------------------------------------------
// Shadow schedule arithmetic
// ---------------------------------------------------------------------------

int64_t ScheduleAuditor::FragOffsetUs(int32_t fragment) const {
  const int64_t play = config_->block_play_time.micros();
  return static_cast<int64_t>(fragment) * play / config_->shape.decluster_factor;
}

ScheduleAuditor::ChainState& ScheduleAuditor::GetChain(const ViewerStateRecord& record,
                                                       TimePoint when) {
  const uint64_t id = record.lineage.ChainId();
  auto [it, inserted] = chains_.try_emplace(id);
  ChainState& chain = it->second;
  if (inserted) {
    chains_created_++;
    chain.id = id;
    chain.viewer = record.viewer.value();
    chain.instance = record.instance.value();
    chain.slot = record.slot.value();
    chain_order_.push_back(id);
    viewer_chains_[record.viewer.value()].push_back(id);
    instance_chains_[record.instance.value()].push_back(id);
  }
  chain.last_evidence = when;
  chain.max_seq_seen = std::max(chain.max_seq_seen, record.sequence);
  return chain;
}

void ScheduleAuditor::CheckArithmetic(ChainState& chain, const ViewerStateRecord& record,
                                      TimePoint when, uint32_t cub) {
  const int64_t play = config_->block_play_time.micros();
  if (!record.is_mirror()) {
    if (!chain.has_anchor) {
      // First primary evidence anchors the lane; everything later must fit
      // the shared arithmetic exactly (§4.1.1: due times are computed, never
      // guessed).
      chain.has_anchor = true;
      chain.anchor_seq = record.sequence;
      chain.anchor_due_us = record.due.micros();
      chain.anchor_pos = record.position;
      return;
    }
    const int64_t steps = record.sequence - chain.anchor_seq;
    const int64_t expected_due = chain.anchor_due_us + steps * play;
    const int64_t expected_pos = chain.anchor_pos + steps;
    if (record.due.micros() != expected_due || record.position != expected_pos) {
      std::string detail;
      Appendf(&detail,
              "seq %" PRId64 ": due %" PRId64 "us pos %" PRId64 " vs shadow %" PRId64
              "us pos %" PRId64,
              record.sequence, record.due.micros(), record.position, expected_due,
              expected_pos);
      Flag(DivergenceClass::kDueMismatch, when, chain.id, chain.viewer,
           static_cast<int64_t>(chain.instance), chain.slot, cub, record.sequence,
           std::move(detail));
    }
    return;
  }
  // Mirror fragment: one declustered lane per recovered block, keyed by the
  // block position the fragments carry unchanged. Along a lane, sequence and
  // fragment advance in lockstep and dues are spaced play/decluster apart
  // with the cubs' exact non-drifting integer arithmetic.
  auto [lane_it, lane_new] = chain.mirror_lanes.try_emplace(record.position);
  MirrorLane& lane = lane_it->second;
  if (lane_new) {
    lane.anchor_seq = record.sequence;
    lane.anchor_frag = record.mirror_fragment;
    lane.anchor_due_us = record.due.micros();
    if (chain.has_anchor) {
      // The lane must hang off the primary lane: fragment j of the block at
      // sequence s is due at primary_due(s) + j*play/decluster.
      const int64_t block_due =
          chain.anchor_due_us + (record.sequence - chain.anchor_seq) * play;
      const int64_t expected = block_due + FragOffsetUs(record.mirror_fragment);
      if (record.due.micros() != expected) {
        std::string detail;
        Appendf(&detail,
                "fragment %d of block %" PRId64 ": due %" PRId64 "us vs shadow %" PRId64
                "us",
                record.mirror_fragment, record.position, record.due.micros(), expected);
        Flag(DivergenceClass::kMirrorScheduleMismatch, when, chain.id, chain.viewer,
             static_cast<int64_t>(chain.instance), chain.slot, cub, record.sequence,
             std::move(detail));
      }
    }
    return;
  }
  const int64_t seq_steps = record.sequence - lane.anchor_seq;
  const int64_t frag_steps = record.mirror_fragment - lane.anchor_frag;
  const int64_t expected_due =
      lane.anchor_due_us + FragOffsetUs(record.mirror_fragment) - FragOffsetUs(lane.anchor_frag);
  if (seq_steps != frag_steps || record.due.micros() != expected_due) {
    std::string detail;
    Appendf(&detail,
            "fragment %d seq %" PRId64 ": due %" PRId64 "us vs lane %" PRId64
            "us (anchor frag %d seq %" PRId64 ")",
            record.mirror_fragment, record.sequence, record.due.micros(), expected_due,
            lane.anchor_frag, lane.anchor_seq);
    Flag(DivergenceClass::kMirrorScheduleMismatch, when, chain.id, chain.viewer,
         static_cast<int64_t>(chain.instance), chain.slot, cub, record.sequence,
         std::move(detail));
  }
}

void ScheduleAuditor::AppendHop(ChainState& chain, Hop hop) {
  if (chain.hops.size() >= options_.max_hops_per_chain) {
    chain.hops_dropped++;
    return;
  }
  chain.hops.push_back(hop);
}

// ---------------------------------------------------------------------------
// Evidence intake (AuditObserver)
// ---------------------------------------------------------------------------

void ScheduleAuditor::OnRecordCreated(TimePoint when, uint32_t cub, CreateKind kind,
                                      const ViewerStateRecord& record,
                                      const RecordLineage& request) {
  TIGER_PROF_SCOPE(kQosAudit);
  if (!record.lineage.tagged()) {
    untagged_records_++;
    return;
  }
  ChainState& chain = GetChain(record, when);
  chain.cubs_seen |= CubBit(cub);
  if (request.tagged() && chain.request_chain == 0) {
    // Link the minted record chain back to the controller request that asked
    // for it, so a lineage query walks the full story: request -> insertion
    // -> trip around the ring.
    chain.request_chain = request.ChainId();
  }
  AppendHop(chain, Hop{when, HopKind::kCreated, cub, -1, record.sequence,
                       record.mirror_fragment, record.lineage.hop_count,
                       record.lineage.lamport});
  // Insertion races (§4.1.3): two different instances claiming one slot pass
  // cannot both come from legal ownership windows.
  if (kind == CreateKind::kInsert) {
    auto& claims = slot_claims_[record.slot.value()];
    for (const SlotClaim& claim : claims) {
      if (claim.due_us == record.due.micros() && claim.instance != record.instance.value()) {
        std::string detail;
        Appendf(&detail, "instances %" PRIu64 " and %" PRIu64 " both inserted at %" PRId64 "us",
                claim.instance, record.instance.value(), record.due.micros());
        Flag(DivergenceClass::kStaleOwnership, when, chain.id, chain.viewer,
             static_cast<int64_t>(record.instance.value()), record.slot.value(), cub,
             record.sequence, std::move(detail));
      }
    }
    claims.push_back(SlotClaim{record.due.micros(), record.instance.value()});
  }
  CheckArithmetic(chain, record, when, cub);
  // A late kill may have been waiting for this instance's first appearance.
  auto kill_it = kills_.find(record.instance.value());
  if (kill_it != kills_.end()) {
    kill_it->second.orphan_candidate = false;
  }
}

void ScheduleAuditor::OnRecordForwarded(TimePoint when, uint32_t from, uint32_t to,
                                        const ViewerStateRecord& record) {
  TIGER_PROF_SCOPE(kQosAudit);
  if (!record.lineage.tagged()) {
    untagged_records_++;
    return;
  }
  forwards_observed_++;
  ChainState& chain = GetChain(record, when);
  chain.cubs_seen |= CubBit(from);
  AppendHop(chain, Hop{when, HopKind::kForwarded, from, static_cast<int32_t>(to),
                       record.sequence, record.mirror_fragment, record.lineage.hop_count,
                       record.lineage.lamport});
  CheckArithmetic(chain, record, when, from);
  PendingForward& pending = chain.pending[PendingKey(record.sequence, record.mirror_fragment)];
  if (pending.targets_mask == 0) {
    pending.first_sent = when;
  }
  pending.targets_mask |= CubBit(to);
}

void ScheduleAuditor::OnRecordReceived(TimePoint when, uint32_t at,
                                       const ViewerStateRecord& record,
                                       ScheduleView::ApplyResult result) {
  TIGER_PROF_SCOPE(kQosAudit);
  if (!record.lineage.tagged()) {
    untagged_records_++;
    return;
  }
  ChainState& chain = GetChain(record, when);
  chain.cubs_seen |= CubBit(at);
  AppendHop(chain, Hop{when, HopKind::kReceived, at, -1, record.sequence,
                       record.mirror_fragment, record.lineage.hop_count,
                       record.lineage.lamport});
  CheckArithmetic(chain, record, when, at);
  // Resolve the matching pending forward (any copy reaching any target counts;
  // partial delivery is judged at the horizon).
  auto pending_it = chain.pending.find(PendingKey(record.sequence, record.mirror_fragment));
  if (pending_it != chain.pending.end()) {
    pending_it->second.received_mask |= CubBit(at);
    if ((pending_it->second.targets_mask & ~pending_it->second.received_mask) == 0) {
      forwards_delivered_++;
      chain.pending.erase(pending_it);
    }
  }
  // Lead bound (§4.1.1): the forwarding guard never sends a record whose due
  // time is more than maxVStateLead away, so an arrival further ahead than
  // that plus the takeover/bridging slack cannot come from a healthy sender.
  if (!record.is_mirror()) {
    const Duration lead = record.due - when;
    const Duration bound = config_->max_vstate_lead + config_->block_play_time * 2;
    if (lead > bound) {
      std::string detail;
      Appendf(&detail, "arrived %" PRId64 "us ahead of due (bound %" PRId64 "us)",
              lead.micros(), bound.micros());
      Flag(DivergenceClass::kLeadBoundViolation, when, chain.id, chain.viewer,
           static_cast<int64_t>(chain.instance), chain.slot, at, record.sequence,
           std::move(detail));
    }
  }
  if (result == ScheduleView::ApplyResult::kConflict) {
    // The receiving view itself proved the insertion race: another instance
    // already occupies the slot at this exact due time (§4.1.3).
    Flag(DivergenceClass::kStaleOwnership, when, chain.id, chain.viewer,
         static_cast<int64_t>(chain.instance), chain.slot, at, record.sequence,
         "view reported slot conflict");
  }
  if (result == ScheduleView::ApplyResult::kNew) {
    auto kill_it = kills_.find(record.instance.value());
    if (kill_it != kills_.end() && (kill_it->second.applied_cubs & CubBit(at)) != 0 &&
        when > kill_it->second.first_when) {
      // This cub applied the kill, yet accepted a fresh record for the killed
      // instance — the spontaneous reschedule §4.1.2's holds exist to prevent.
      Flag(DivergenceClass::kResurrection, when, chain.id, chain.viewer,
           static_cast<int64_t>(chain.instance), chain.slot, at, record.sequence,
           "killed instance re-entered a view that applied the kill");
    }
  }
}

void ScheduleAuditor::OnRecordTtlDropped(TimePoint when, uint32_t at,
                                         const ViewerStateRecord& record) {
  TIGER_PROF_SCOPE(kQosAudit);
  if (!record.lineage.tagged()) {
    untagged_records_++;
    return;
  }
  ChainState& chain = GetChain(record, when);
  chain.cubs_seen |= CubBit(at);
  AppendHop(chain, Hop{when, HopKind::kTtlDropped, at, -1, record.sequence,
                       record.mirror_fragment, record.lineage.hop_count,
                       record.lineage.lamport});
  // The record did arrive; don't let the guard's drop read as a lost forward.
  auto pending_it = chain.pending.find(PendingKey(record.sequence, record.mirror_fragment));
  if (pending_it != chain.pending.end()) {
    pending_it->second.received_mask |= CubBit(at);
    if ((pending_it->second.targets_mask & ~pending_it->second.received_mask) == 0) {
      forwards_delivered_++;
      chain.pending.erase(pending_it);
    }
  }
  std::string detail;
  Appendf(&detail, "hop %u vs sequence %" PRId64 " (slack %d)",
          record.lineage.hop_count, record.sequence, config_->max_hop_slack);
  Flag(DivergenceClass::kTtlExceeded, when, chain.id, chain.viewer,
       static_cast<int64_t>(chain.instance), chain.slot, at, record.sequence,
       std::move(detail));
}

void ScheduleAuditor::OnKill(TimePoint when, uint32_t at, const DescheduleRecord& kill,
                             const RecordLineage& lineage, int removed, bool new_hold) {
  TIGER_PROF_SCOPE(kQosAudit);
  kills_observed_++;
  auto [it, inserted] = kills_.try_emplace(kill.instance.value());
  KillState& state = it->second;
  if (inserted) {
    kill_order_.push_back(kill.instance.value());
    state.first_when = when;
    state.viewer = kill.viewer.value();
    state.slot = kill.slot.valid() ? kill.slot.value() : -1;
    // A slot-targeted kill names a confirmed play; if no schedule evidence
    // ever mentions the instance, the kill is orphaned (§4.1.2).
    if (kill.slot.valid() && !instance_chains_.contains(kill.instance.value())) {
      state.orphan_candidate = true;
      state.orphan_deadline = when + options_.orphan_horizon;
    }
  }
  state.hold_until =
      std::max(state.hold_until, when + config_->max_vstate_lead + config_->deschedule_hold);
  state.applied_cubs |= CubBit(at);
  if (lineage.tagged()) {
    // Walk the kill's own trip: the message lineage names the controller
    // chain and advances its hop count at every forward, exactly like a
    // viewer state's.
    if (state.kill_chain == 0) {
      state.kill_chain = lineage.ChainId();
    }
    if (state.hops.size() < options_.max_hops_per_chain) {
      state.hops.push_back(Hop{when, HopKind::kKillApplied, at, -1, -1, -1,
                               lineage.hop_count, lineage.lamport});
    } else {
      state.hops_dropped++;
    }
  }
  if (new_hold) {
    if ((state.fresh_hold_cubs & CubBit(at)) != 0) {
      // Duplicate kills refresh holds with new_hold=false; a second *fresh*
      // hold at one cub means the kill outlived its own hold window — a kill
      // loop §4.1.2's forwarding cutoff should make impossible.
      Flag(DivergenceClass::kDuplicateKill, when, 0, state.viewer,
           static_cast<int64_t>(kill.instance.value()), state.slot, at, -1,
           "second fresh hold for one instance at one cub");
    }
    state.fresh_hold_cubs |= CubBit(at);
  }
  (void)removed;
}

// ---------------------------------------------------------------------------
// Periodic resolution & view diff
// ---------------------------------------------------------------------------

void ScheduleAuditor::ResolvePendingForwards(TimePoint now) {
  for (auto& [id, chain] : chains_) {
    for (auto it = chain.pending.begin(); it != chain.pending.end();) {
      const PendingForward& pending = it->second;
      if (pending.first_sent + options_.lost_horizon > now) {
        ++it;
        continue;
      }
      // Key layout is seq * 256 + (fragment + 1) with fragment + 1 in
      // [0, 255], so plain division recovers the sequence exactly.
      const int64_t sequence = it->first / 256;
      if (pending.received_mask == 0) {
        if (chain.max_seq_seen > sequence) {
          // Both copies vanished but the chain advanced past the record:
          // takeover / failure re-forwarding regenerated it downstream.
          rescued_by_second_successor_++;
        } else {
          std::string detail;
          Appendf(&detail, "forwarded to %d cub(s), never received anywhere",
                  __builtin_popcountll(pending.targets_mask));
          Flag(DivergenceClass::kTrulyLostRecord, pending.first_sent, chain.id,
               chain.viewer, static_cast<int64_t>(chain.instance), chain.slot, -1,
               sequence, std::move(detail));
        }
      } else {
        // One of the double-forwarded copies was lost; the other carried the
        // schedule — §4.1.1's redundancy working as designed.
        rescued_by_second_successor_++;
        forwards_delivered_++;
      }
      it = chain.pending.erase(it);
    }
  }
}

void ScheduleAuditor::ResolveOrphanKills(TimePoint now) {
  for (auto& [instance, state] : kills_) {
    if (!state.orphan_candidate || state.orphan_deadline > now) {
      continue;
    }
    state.orphan_candidate = false;
    if (!instance_chains_.contains(instance)) {
      Flag(DivergenceClass::kOrphanKill, state.first_when, 0, state.viewer,
           static_cast<int64_t>(instance), state.slot, -1, -1,
           "slot-targeted kill for an instance no schedule evidence names");
    }
  }
}

void ScheduleAuditor::DiffViews(TimePoint now) {
  if (system_ == nullptr) {
    return;
  }
  for (int c = 0; c < system_->cub_count(); ++c) {
    const CubId cub_id(static_cast<uint32_t>(c));
    const ScheduleView& view = system_->cub(cub_id).view();
    if (system_->IsCubFailed(cub_id)) {
      view.ClearLandings();
      continue;
    }
    // Only entries that landed since the previous check: records are
    // read-only once landed, so an entry that checked out when it arrived
    // cannot diverge later, and the diff costs what changed, not view size.
    view.DrainLandings([&](const ScheduleEntry& entry) {
      entries_audited_++;
      const ViewerStateRecord& record = entry.record();
      if (!record.lineage.tagged()) {
        untagged_view_entries_++;
        return;
      }
      auto it = chains_.find(record.lineage.ChainId());
      if (it == chains_.end() || (it->second.cubs_seen & CubBit(cub_id.value())) == 0) {
        std::string detail;
        Appendf(&detail, "entry seq %" PRId64 " frag %d has no evidence at this cub",
                record.sequence, record.mirror_fragment);
        Flag(DivergenceClass::kPhantomRecord, now, record.lineage.ChainId(),
             record.viewer.value(), static_cast<int64_t>(record.instance.value()),
             record.slot.value(), cub_id.value(), record.sequence, std::move(detail));
        return;
      }
      CheckArithmetic(it->second, record, now, cub_id.value());
    });
  }
}

void ScheduleAuditor::PruneState(TimePoint now) {
  const int64_t play = config_->block_play_time.micros();
  for (auto& [slot, claims] : slot_claims_) {
    std::erase_if(claims, [&](const SlotClaim& claim) {
      return claim.due_us + play < now.micros();
    });
  }
  if (options_.chain_retention <= Duration::Zero()) {
    return;
  }
  for (auto it = chains_.begin(); it != chains_.end();) {
    ChainState& chain = it->second;
    if (chain.pending.empty() && chain.last_evidence + options_.chain_retention < now) {
      chains_pruned_++;
      it = chains_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---------------------------------------------------------------------------
// Divergence bookkeeping
// ---------------------------------------------------------------------------

void ScheduleAuditor::Flag(DivergenceClass cls, TimePoint when, uint64_t chain,
                           int64_t viewer, int64_t instance, int64_t slot, int64_t cub,
                           int64_t sequence, std::string detail) {
  counts_[static_cast<size_t>(cls)]++;
  total_divergences_++;
  const uint64_t scope = chain != 0 ? chain : static_cast<uint64_t>(instance);
  if (!dedup_.emplace(static_cast<int>(cls), scope, cub).second) {
    return;  // Same defect, same place: counted above, reported once.
  }
  if (divergences_.size() >= options_.max_divergences) {
    divergences_overflow_++;
    return;
  }
  divergences_.push_back(Divergence{when, cls, chain, viewer, instance, slot, cub,
                                    sequence, std::move(detail)});
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

std::string ScheduleAuditor::ReportJson() const {
  std::string out = "{\n  \"schema_version\": 1,\n";
  Appendf(&out, "  \"healthy\": %s,\n", healthy() ? "true" : "false");
  Appendf(&out, "  \"total_divergences\": %" PRId64 ",\n", total_divergences_);
  out += "  \"counts_by_class\": {";
  for (size_t i = 0; i < static_cast<size_t>(DivergenceClass::kClassCount); ++i) {
    Appendf(&out, "%s\n    \"%s\": %" PRId64, i == 0 ? "" : ",",
            ClassName(static_cast<DivergenceClass>(i)), counts_[i]);
  }
  out += "\n  },\n  \"info\": {\n";
  Appendf(&out, "    \"chains_seen\": %" PRId64 ",\n", chains_created_);
  Appendf(&out, "    \"chains_pruned\": %" PRId64 ",\n", chains_pruned_);
  Appendf(&out, "    \"forwards_observed\": %" PRId64 ",\n", forwards_observed_);
  Appendf(&out, "    \"forwards_delivered\": %" PRId64 ",\n", forwards_delivered_);
  Appendf(&out, "    \"rescued_by_second_successor\": %" PRId64 ",\n",
          rescued_by_second_successor_);
  Appendf(&out, "    \"kills_observed\": %" PRId64 ",\n", kills_observed_);
  Appendf(&out, "    \"untagged_records\": %" PRId64 ",\n", untagged_records_);
  Appendf(&out, "    \"untagged_view_entries\": %" PRId64 ",\n", untagged_view_entries_);
  Appendf(&out, "    \"entries_audited\": %" PRId64 ",\n", entries_audited_);
  Appendf(&out, "    \"checks_run\": %" PRId64 ",\n", checks_run_);
  Appendf(&out, "    \"divergences_overflow\": %" PRId64 "\n", divergences_overflow_);
  out += "  },\n  \"divergences\": [";
  for (size_t i = 0; i < divergences_.size(); ++i) {
    const Divergence& d = divergences_[i];
    Appendf(&out,
            "%s\n    {\"class\": \"%s\", \"paper\": \"%s\", \"when_us\": %" PRId64
            ", \"chain\": \"0x%" PRIx64 "\", \"viewer\": %" PRId64 ", \"instance\": %" PRId64
            ", \"slot\": %" PRId64 ", \"cub\": %" PRId64 ", \"sequence\": %" PRId64
            ", \"detail\": \"%s\"}",
            i == 0 ? "" : ",", ClassName(d.cls), ClassPaperSection(d.cls),
            d.when.micros(), d.chain, d.viewer, d.instance, d.slot, d.cub, d.sequence,
            d.detail.c_str());
  }
  out += divergences_.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string ScheduleAuditor::ReportCsv() const {
  std::string out = "class,paper_section,when_us,chain,viewer,instance,slot,cub,sequence,detail\n";
  for (const Divergence& d : divergences_) {
    Appendf(&out,
            "%s,%s,%" PRId64 ",0x%" PRIx64 ",%" PRId64 ",%" PRId64 ",%" PRId64 ",%" PRId64
            ",%" PRId64 ",\"%s\"\n",
            ClassName(d.cls), ClassPaperSection(d.cls), d.when.micros(), d.chain, d.viewer,
            d.instance, d.slot, d.cub, d.sequence, d.detail.c_str());
  }
  return out;
}

bool ScheduleAuditor::WriteReportJson(const std::string& path) const {
  return WriteFile(path, ReportJson());
}

// ---------------------------------------------------------------------------
// Lineage queries
// ---------------------------------------------------------------------------

std::vector<uint64_t> ScheduleAuditor::ChainsOfViewer(ViewerId viewer) const {
  auto it = viewer_chains_.find(viewer.value());
  if (it == viewer_chains_.end()) {
    return {};
  }
  return {it->second.begin(), it->second.end()};
}

const ScheduleAuditor::HopVec* ScheduleAuditor::ChainHops(uint64_t chain) const {
  auto it = chains_.find(chain);
  if (it == chains_.end()) {
    return nullptr;
  }
  return &it->second.hops;
}

const ScheduleAuditor::HopVec* ScheduleAuditor::KillHops(
    PlayInstanceId instance) const {
  auto it = kills_.find(instance.value());
  if (it == kills_.end() || it->second.hops.empty()) {
    return nullptr;
  }
  return &it->second.hops;
}

std::string ScheduleAuditor::ViewerLineage(ViewerId viewer) const {
  std::string out;
  Appendf(&out, "viewer %u\n", viewer.value());
  for (uint64_t id : ChainsOfViewer(viewer)) {
    auto it = chains_.find(id);
    if (it == chains_.end()) {
      Appendf(&out, "  chain 0x%" PRIx64 " (pruned)\n", id);
      continue;
    }
    const ChainState& chain = it->second;
    Appendf(&out, "  chain 0x%" PRIx64 " origin cub %u epoch %u slot %" PRId64,
            id, static_cast<uint32_t>(id >> 32), static_cast<uint32_t>(id), chain.slot);
    if (chain.request_chain != 0) {
      Appendf(&out, " request 0x%" PRIx64, chain.request_chain);
    }
    Appendf(&out, " (%zu hops", chain.hops.size());
    if (chain.hops_dropped > 0) {
      Appendf(&out, ", %" PRId64 " dropped", chain.hops_dropped);
    }
    out += ")\n";
    for (const Hop& hop : chain.hops) {
      Appendf(&out, "    t=%-10" PRId64 " %-8s cub %-3u", hop.when.micros(),
              HopKindName(hop.kind), hop.cub);
      if (hop.peer >= 0) {
        Appendf(&out, " -> cub %-3d", hop.peer);
      } else {
        out += "           ";
      }
      Appendf(&out, " seq %-5" PRId64 " frag %-2d hop %-3u lamport %" PRIu64 "\n",
              hop.sequence, hop.fragment, hop.hop_count, hop.lamport);
    }
  }
  return out;
}

std::string ScheduleAuditor::LineageCsv() const {
  std::string out = "chain,origin_cub,epoch,viewer,instance,slot,kind,when_us,cub,peer,sequence,fragment,hop_count,lamport\n";
  for (uint64_t id : chain_order_) {
    auto it = chains_.find(id);
    if (it == chains_.end()) {
      continue;  // Pruned.
    }
    const ChainState& chain = it->second;
    for (const Hop& hop : chain.hops) {
      Appendf(&out,
              "0x%" PRIx64 ",%u,%u,%" PRId64 ",%" PRIu64 ",%" PRId64 ",%s,%" PRId64
              ",%u,%d,%" PRId64 ",%d,%u,%" PRIu64 "\n",
              id, static_cast<uint32_t>(id >> 32), static_cast<uint32_t>(id), chain.viewer,
              chain.instance, chain.slot, HopKindName(hop.kind), hop.when.micros(), hop.cub,
              hop.peer, hop.sequence, hop.fragment, hop.hop_count, hop.lamport);
    }
  }
  // Kill messages' trips, keyed by their own controller-minted chains.
  for (uint64_t instance : kill_order_) {
    auto it = kills_.find(instance);
    if (it == kills_.end()) {
      continue;
    }
    const KillState& state = it->second;
    for (const Hop& hop : state.hops) {
      Appendf(&out,
              "0x%" PRIx64 ",%u,%u,%" PRId64 ",%" PRIu64 ",%" PRId64 ",%s,%" PRId64
              ",%u,%d,%" PRId64 ",%d,%u,%" PRIu64 "\n",
              state.kill_chain, static_cast<uint32_t>(state.kill_chain >> 32),
              static_cast<uint32_t>(state.kill_chain), state.viewer, instance, state.slot,
              HopKindName(hop.kind), hop.when.micros(), hop.cub, hop.peer, hop.sequence,
              hop.fragment, hop.hop_count, hop.lamport);
    }
  }
  return out;
}

bool ScheduleAuditor::WriteLineageCsv(const std::string& path) const {
  return WriteFile(path, LineageCsv());
}

// ---------------------------------------------------------------------------
// Perfetto flow arrows
// ---------------------------------------------------------------------------

std::string ScheduleAuditor::ChromeFlowEvents() const {
  // One ph:"s"/"t"/"f" flow per chain, stepping through every hop so Perfetto
  // draws the record's trip around the ring as connected arrows. Track ids
  // match Tracer::ChromeJson: tid = track + 1, and EnableTracing registers
  // net as track 0 followed by one track per cub — so cub c renders on
  // tid c + 2.
  std::string out;
  for (uint64_t id : chain_order_) {
    auto it = chains_.find(id);
    if (it == chains_.end() || it->second.hops.size() < 2) {
      continue;
    }
    const ChainState& chain = it->second;
    for (size_t i = 0; i < chain.hops.size(); ++i) {
      const Hop& hop = chain.hops[i];
      const char* ph = i == 0 ? "s" : (i + 1 == chain.hops.size() ? "f" : "t");
      Appendf(&out,
              ",\n{\"ph\":\"%s\",\"pid\":1,\"tid\":%u,\"ts\":%" PRId64
              ",\"name\":\"lineage\",\"cat\":\"lineage\",\"id\":\"0x%" PRIx64 "\"%s"
              ",\"args\":{\"kind\":\"%s\",\"seq\":%" PRId64 ",\"frag\":%d,\"hop\":%u}}",
              ph, hop.cub + 2, hop.when.micros(), id,
              i + 1 == chain.hops.size() ? ",\"bp\":\"e\"" : "", HopKindName(hop.kind),
              hop.sequence, hop.fragment, hop.hop_count);
    }
  }
  return out;
}

}  // namespace tiger
