// ScheduleAuditor's expiry-indexed checks and bounded lineage log.
//
// A check resolves pending forwards from a FIFO by first send, orphan kill
// candidates from a FIFO by deadline and slot claims from an expiry heap,
// instead of walking every chain, kill and slot; only the chain prune still
// walks every chain. The equivalence tests below drive seeded random
// evidence streams through the auditor and through WalkingModel, a copy of
// the pre-index auditor's bookkeeping that still walks everything on every
// check, and require every count_by_class and info counter to agree after
// each check. The lineage tests pin the ring: a chain longer than
// max_hops_per_chain keeps its newest hops, and its dropped() count is
// exactly the evicted ones.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/audit/auditor.h"
#include "src/common/mini_json.h"

namespace tiger {
namespace {

using DivergenceClass = ScheduleAuditor::DivergenceClass;
using CreateKind = AuditObserver::CreateKind;
constexpr size_t kClasses = static_cast<size_t>(DivergenceClass::kClassCount);

// The pre-index auditor's bookkeeping for primary-lane evidence: the same
// intake, and checks that walk every chain, kill and slot claim. Hop logs,
// mirror lanes and divergence rows are left out; what it keeps is exactly
// what feeds ReportJson's counts_by_class and info counters.
class WalkingModel {
 public:
  WalkingModel(const TigerConfig& config, const ScheduleAuditor::Options& options)
      : config_(config), options_(options) {}

  void Created(TimePoint when, uint32_t cub, CreateKind kind, const ViewerStateRecord& record) {
    if (!record.lineage.tagged()) {
      untagged_records_++;
      return;
    }
    Chain& chain = GetChain(record, when);
    chain.cubs_seen |= Bit(cub);
    if (kind == CreateKind::kInsert) {
      auto& claims = slot_claims_[record.slot.value()];
      for (const Claim& claim : claims) {
        if (claim.due_us == record.due.micros() && claim.instance != record.instance.value()) {
          Flag(DivergenceClass::kStaleOwnership, chain.id, 0, cub);
        }
      }
      claims.push_back(Claim{record.due.micros(), record.instance.value()});
    }
    CheckArithmetic(chain, record, cub);
    auto kill_it = kills_.find(record.instance.value());
    if (kill_it != kills_.end()) {
      kill_it->second.orphan_candidate = false;
    }
  }

  void Forwarded(TimePoint when, uint32_t from, uint32_t to, const ViewerStateRecord& record) {
    if (!record.lineage.tagged()) {
      untagged_records_++;
      return;
    }
    forwards_observed_++;
    Chain& chain = GetChain(record, when);
    chain.cubs_seen |= Bit(from);
    CheckArithmetic(chain, record, from);
    Pending& pending = chain.pending[Key(record)];
    if (pending.targets == 0) {
      pending.first_sent = when;
    }
    pending.targets |= Bit(to);
  }

  void Received(TimePoint when, uint32_t at, const ViewerStateRecord& record,
                ScheduleView::ApplyResult result) {
    if (!record.lineage.tagged()) {
      untagged_records_++;
      return;
    }
    Chain& chain = GetChain(record, when);
    chain.cubs_seen |= Bit(at);
    CheckArithmetic(chain, record, at);
    MarkDelivered(chain, record, at);
    const Duration bound = config_.max_vstate_lead + config_.block_play_time * 2;
    if (record.due - when > bound) {
      Flag(DivergenceClass::kLeadBoundViolation, chain.id, 0, at);
    }
    if (result == ScheduleView::ApplyResult::kConflict) {
      Flag(DivergenceClass::kStaleOwnership, chain.id, 0, at);
    }
    if (result == ScheduleView::ApplyResult::kNew) {
      auto kill_it = kills_.find(record.instance.value());
      if (kill_it != kills_.end() && (kill_it->second.applied & Bit(at)) != 0 &&
          when > kill_it->second.first_when) {
        Flag(DivergenceClass::kResurrection, chain.id, 0, at);
      }
    }
  }

  void TtlDropped(TimePoint when, uint32_t at, const ViewerStateRecord& record) {
    if (!record.lineage.tagged()) {
      untagged_records_++;
      return;
    }
    Chain& chain = GetChain(record, when);
    chain.cubs_seen |= Bit(at);
    MarkDelivered(chain, record, at);
    Flag(DivergenceClass::kTtlExceeded, chain.id, 0, at);
  }

  void Kill(TimePoint when, uint32_t at, const DescheduleRecord& kill, bool new_hold) {
    kills_observed_++;
    auto [it, inserted] = kills_.try_emplace(kill.instance.value());
    KillState& state = it->second;
    if (inserted) {
      state.first_when = when;
      if (kill.slot.valid() && !instances_named_.contains(kill.instance.value())) {
        state.orphan_candidate = true;
        state.orphan_deadline = when + options_.orphan_horizon;
      }
    }
    state.applied |= Bit(at);
    if (new_hold) {
      if ((state.fresh_hold & Bit(at)) != 0) {
        Flag(DivergenceClass::kDuplicateKill, 0, kill.instance.value(), at);
      }
      state.fresh_hold |= Bit(at);
    }
  }

  // The old walks, in the old order: forwards, orphans, (no views), prune.
  void Check(TimePoint now) {
    for (auto& [id, chain] : chains_) {
      for (auto it = chain.pending.begin(); it != chain.pending.end();) {
        if (it->second.first_sent + options_.lost_horizon > now) {
          ++it;
          continue;
        }
        const int64_t sequence = it->first / 256;
        if (it->second.received == 0) {
          if (chain.max_seq_seen > sequence) {
            rescued_++;
          } else {
            Flag(DivergenceClass::kTrulyLostRecord, chain.id, 0, -1);
          }
        } else {
          rescued_++;
          forwards_delivered_++;
        }
        it = chain.pending.erase(it);
      }
    }
    for (auto& [instance, state] : kills_) {
      if (!state.orphan_candidate || state.orphan_deadline > now) {
        continue;
      }
      state.orphan_candidate = false;
      if (!instances_named_.contains(instance)) {
        Flag(DivergenceClass::kOrphanKill, 0, instance, -1);
      }
    }
    const int64_t play = config_.block_play_time.micros();
    for (auto& [slot, claims] : slot_claims_) {
      std::erase_if(claims, [&](const Claim& claim) { return claim.due_us + play < now.micros(); });
    }
    if (options_.chain_retention > Duration::Zero()) {
      for (auto it = chains_.begin(); it != chains_.end();) {
        if (it->second.pending.empty() &&
            it->second.last_evidence + options_.chain_retention < now) {
          chains_pruned_++;
          it = chains_.erase(it);
        } else {
          ++it;
        }
      }
    }
    checks_run_++;
  }

  // The counters as ReportJson names them.
  std::map<std::string, int64_t> Info() const {
    return {
        {"chains_seen", chains_created_},
        {"chains_pruned", chains_pruned_},
        {"forwards_observed", forwards_observed_},
        {"forwards_delivered", forwards_delivered_},
        {"rescued_by_second_successor", rescued_},
        {"kills_observed", kills_observed_},
        {"untagged_records", untagged_records_},
        {"untagged_view_entries", 0},
        {"entries_audited", 0},
        {"checks_run", checks_run_},
        {"divergences_overflow", divergences_overflow_},
    };
  }
  int64_t count(size_t cls) const { return counts_[cls]; }
  int64_t total() const { return total_; }

 private:
  struct Pending {
    TimePoint first_sent;
    uint64_t targets = 0;
    uint64_t received = 0;
  };
  struct Chain {
    uint64_t id = 0;
    bool has_anchor = false;
    int64_t anchor_seq = 0;
    int64_t anchor_due_us = 0;
    int64_t anchor_pos = 0;
    uint64_t cubs_seen = 0;
    int64_t max_seq_seen = 0;
    TimePoint last_evidence;
    std::map<int64_t, Pending> pending;
  };
  struct KillState {
    TimePoint first_when;
    uint64_t applied = 0;
    uint64_t fresh_hold = 0;
    bool orphan_candidate = false;
    TimePoint orphan_deadline;
  };
  struct Claim {
    int64_t due_us = 0;
    uint64_t instance = 0;
  };

  static uint64_t Bit(uint32_t cub) { return uint64_t{1} << (cub & 63); }
  static int64_t Key(const ViewerStateRecord& record) {
    return record.sequence * 256 + record.mirror_fragment + 1;
  }

  Chain& GetChain(const ViewerStateRecord& record, TimePoint when) {
    const uint64_t id = record.lineage.ChainId();
    auto [it, inserted] = chains_.try_emplace(id);
    if (inserted) {
      chains_created_++;
      it->second.id = id;
      instances_named_.insert(record.instance.value());
    }
    it->second.last_evidence = when;
    it->second.max_seq_seen = std::max(it->second.max_seq_seen, record.sequence);
    return it->second;
  }

  void CheckArithmetic(Chain& chain, const ViewerStateRecord& record, uint32_t cub) {
    if (!chain.has_anchor) {
      chain.has_anchor = true;
      chain.anchor_seq = record.sequence;
      chain.anchor_due_us = record.due.micros();
      chain.anchor_pos = record.position;
      return;
    }
    const int64_t steps = record.sequence - chain.anchor_seq;
    if (record.due.micros() != chain.anchor_due_us + steps * config_.block_play_time.micros() ||
        record.position != chain.anchor_pos + steps) {
      Flag(DivergenceClass::kDueMismatch, chain.id, 0, cub);
    }
  }

  void MarkDelivered(Chain& chain, const ViewerStateRecord& record, uint32_t at) {
    auto it = chain.pending.find(Key(record));
    if (it != chain.pending.end()) {
      it->second.received |= Bit(at);
      if ((it->second.targets & ~it->second.received) == 0) {
        forwards_delivered_++;
        chain.pending.erase(it);
      }
    }
  }

  void Flag(DivergenceClass cls, uint64_t chain, uint64_t instance, int64_t cub) {
    counts_[static_cast<size_t>(cls)]++;
    total_++;
    const uint64_t scope = chain != 0 ? chain : instance;
    if (!dedup_.emplace(static_cast<int>(cls), scope, cub).second) {
      return;
    }
    if (retained_ >= options_.max_divergences) {
      divergences_overflow_++;
      return;
    }
    retained_++;
  }

  const TigerConfig& config_;
  ScheduleAuditor::Options options_;
  std::unordered_map<uint64_t, Chain> chains_;
  std::set<uint64_t> instances_named_;
  std::unordered_map<uint64_t, KillState> kills_;
  std::unordered_map<int64_t, std::vector<Claim>> slot_claims_;
  std::set<std::tuple<int, uint64_t, int64_t>> dedup_;
  int64_t counts_[kClasses] = {};
  int64_t total_ = 0;
  size_t retained_ = 0;
  int64_t divergences_overflow_ = 0;
  int64_t rescued_ = 0;
  int64_t forwards_observed_ = 0;
  int64_t forwards_delivered_ = 0;
  int64_t chains_created_ = 0;
  int64_t chains_pruned_ = 0;
  int64_t untagged_records_ = 0;
  int64_t checks_run_ = 0;
  int64_t kills_observed_ = 0;
};

// Drives one random evidence stream through both sides.
class EvidenceStream {
 public:
  EvidenceStream(uint64_t seed, const ScheduleAuditor::Options& options)
      : rng_(seed), options_(options), auditor_(&sim_, &config_, options),
        model_(config_, options) {}

  void Run(int steps) {
    for (int step = 0; step < steps; ++step) {
      switch (Pick(100)) {
        case 0:  // A quiet spell past the lost-forward horizon.
          sim_.RunFor(options_.lost_horizon + Duration::Millis(static_cast<int64_t>(Pick(3000))));
          CheckBoth();
          break;
        case 1:  // A longer one, past chain retention.
          sim_.RunFor(options_.chain_retention +
                      Duration::Millis(static_cast<int64_t>(Pick(5000))));
          CheckBoth();
          break;
        default:
          sim_.RunFor(Duration::Millis(static_cast<int64_t>(Pick(60))));
          Evidence();
          if (Pick(12) == 0) {
            CheckBoth();
          }
      }
      if (::testing::Test::HasFailure()) {
        return;
      }
    }
    CheckBoth();
  }

  int64_t checks() const { return checks_; }
  const ScheduleAuditor& auditor() const { return auditor_; }

 private:
  static constexpr int kIdentities = 16;
  static constexpr uint32_t kCubs = 8;

  size_t Pick(size_t n) { return static_cast<size_t>(rng_() % n); }

  // Mostly the current time; now and then back-dated, as evidence that
  // crosses the expiry indexes out of time order.
  TimePoint When() {
    if (Pick(20) != 0) {
      return sim_.Now();
    }
    const Duration back = std::min(sim_.Now() - TimePoint::Zero(),
                                   Duration::Millis(static_cast<int64_t>(Pick(2000))));
    return sim_.Now() - back;
  }

  // A record on chain identity `k`: dues follow the shared arithmetic from a
  // per-slot base (so instances sharing a slot can collide), the sequence
  // tracks the clock with jitter (so some records run far ahead of their
  // lead bound), and a few are corrupted or untagged.
  ViewerStateRecord Record(int k) {
    ViewerStateRecord record;
    const int64_t slot = k % 3;
    record.viewer = ViewerId(static_cast<uint32_t>(k));
    record.instance = PlayInstanceId(100 + static_cast<uint64_t>(k % 6));
    record.file = FileId(1);
    record.slot = SlotId(static_cast<uint32_t>(slot));
    const int64_t play = config_.block_play_time.micros();
    const int64_t now_blocks = (sim_.Now() - TimePoint::Zero()).micros() / play;
    record.sequence = std::max<int64_t>(0, now_blocks + static_cast<int64_t>(Pick(6)) - 2 +
                                               (Pick(30) == 0 ? 20 : 0));
    record.position = 1000 + record.sequence;
    record.due = TimePoint::Zero() + Duration::Millis(2000 + 100 * slot) +
                 config_.block_play_time * record.sequence;
    if (Pick(40) == 0) {
      record.due = record.due + Duration::Millis(1);
    }
    record.lineage.origin_cub = static_cast<uint32_t>(k % 4);
    record.lineage.epoch = 1 + static_cast<uint32_t>(k / 4);
    record.lineage.hop_count = static_cast<uint16_t>(Pick(4));
    record.lineage.lamport = static_cast<uint64_t>(sim_.Now().micros());
    if (Pick(50) != 0) {
      record.lineage.MarkTagged();
    }
    return record;
  }

  uint32_t Cub() { return static_cast<uint32_t>(Pick(kCubs)); }

  void Evidence() {
    const TimePoint when = When();
    const ViewerStateRecord record = Record(static_cast<int>(Pick(kIdentities)));
    switch (Pick(10)) {
      case 0: {
        const uint32_t cub = Cub();
        const CreateKind kind = Pick(2) == 0 ? CreateKind::kInsert : CreateKind::kBootstrap;
        auditor_.OnRecordCreated(when, cub, kind, record, RecordLineage{});
        model_.Created(when, cub, kind, record);
        break;
      }
      case 1:
      case 2:
      case 3:
      case 4: {
        // A forward, then usually a receipt at its target or another cub,
        // and sometimes nothing (the copy is lost).
        const uint32_t from = Cub();
        const uint32_t to = Cub();
        auditor_.OnRecordForwarded(when, from, to, record);
        model_.Forwarded(when, from, to, record);
        if (Pick(4) != 0) {
          const uint32_t at = Pick(3) == 0 ? Cub() : to;
          const auto result = static_cast<ScheduleView::ApplyResult>(Pick(3));
          auditor_.OnRecordReceived(when, at, record, result);
          model_.Received(when, at, record, result);
        }
        break;
      }
      case 5:
      case 6: {
        const uint32_t at = Cub();
        const auto result = static_cast<ScheduleView::ApplyResult>(Pick(4));
        auditor_.OnRecordReceived(when, at, record, result);
        model_.Received(when, at, record, result);
        break;
      }
      case 7: {
        const uint32_t at = Cub();
        auditor_.OnRecordTtlDropped(when, at, record);
        model_.TtlDropped(when, at, record);
        break;
      }
      default: {
        // Kills name known instances (100-105) and unknown ones (200-203);
        // a slot-targeted kill for an unknown instance is an orphan
        // candidate until its horizon.
        DescheduleRecord kill;
        const uint64_t instance = Pick(2) == 0 ? 100 + Pick(6) : 200 + Pick(4);
        kill.viewer = ViewerId(static_cast<uint32_t>(instance));
        kill.instance = PlayInstanceId(instance);
        if (Pick(3) != 0) {
          kill.slot = SlotId(static_cast<uint32_t>(instance % 3));
        }
        RecordLineage lineage;
        lineage.origin_cub = kControllerLineageOrigin;
        lineage.epoch = static_cast<uint32_t>(instance);
        if (Pick(2) == 0) {
          lineage.MarkTagged();
        }
        const uint32_t at = Cub();
        const bool new_hold = Pick(3) != 0;
        auditor_.OnKill(when, at, kill, lineage, 1, new_hold);
        model_.Kill(when, at, kill, new_hold);
        break;
      }
    }
  }

  void CheckBoth() {
    auditor_.CheckNow();
    model_.Check(sim_.Now());
    checks_++;
    JsonValue report;
    ASSERT_TRUE(JsonParser(auditor_.ReportJson()).Parse(&report));
    for (size_t c = 0; c < kClasses; ++c) {
      const std::string name = ScheduleAuditor::ClassName(static_cast<DivergenceClass>(c));
      const JsonValue* count = report.FindPath("counts_by_class." + name);
      ASSERT_NE(count, nullptr) << name;
      ASSERT_EQ(static_cast<int64_t>(count->number), model_.count(c))
          << name << " after check " << checks_ << " at " << sim_.Now().micros() << "us";
    }
    ASSERT_EQ(auditor_.total_divergences(), model_.total());
    for (const auto& [name, value] : model_.Info()) {
      const JsonValue* info = report.FindPath("info." + name);
      ASSERT_NE(info, nullptr) << name;
      ASSERT_EQ(static_cast<int64_t>(info->number), value)
          << name << " after check " << checks_ << " at " << sim_.Now().micros() << "us";
    }
  }

  std::mt19937_64 rng_;
  ScheduleAuditor::Options options_;
  Simulator sim_;
  TigerConfig config_;
  ScheduleAuditor auditor_;
  WalkingModel model_;
  int64_t checks_ = 0;
};

ScheduleAuditor::Options SmallOptions() {
  ScheduleAuditor::Options options;
  options.chain_retention = Duration::Seconds(30);
  options.max_hops_per_chain = 8;
  options.max_divergences = 24;  // Small enough to overflow.
  return options;
}

TEST(AuditIndexTest, IndexedChecksMatchTheWalks) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    EvidenceStream stream(seed, SmallOptions());
    stream.Run(4000);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
    EXPECT_GT(stream.checks(), 100);
  }
}

// Retention shorter than the lost-forward horizon: chains with forwards
// still pending are past retention and must be skipped, not pruned, while
// the prune walk goes on to the quiesced chains behind them.
TEST(AuditIndexTest, IndexedChecksMatchTheWalksWithShortRetention) {
  ScheduleAuditor::Options options = SmallOptions();
  options.chain_retention = Duration::Seconds(4);
  for (uint64_t seed = 101; seed <= 108; ++seed) {
    EvidenceStream stream(seed, options);
    stream.Run(4000);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
  }
}

// The streams really exercise every index: forwards expire lost and
// rescued, orphans fire, claims collide, chains prune and the divergence
// cap overflows.
TEST(AuditIndexTest, StreamsReachEveryIndex) {
  EvidenceStream stream(3, SmallOptions());
  stream.Run(4000);
  const ScheduleAuditor& auditor = stream.auditor();
  EXPECT_GT(auditor.CountFor(DivergenceClass::kTrulyLostRecord), 0);
  EXPECT_GT(auditor.rescued_by_second_successor(), 0);
  EXPECT_GT(auditor.CountFor(DivergenceClass::kOrphanKill), 0);
  EXPECT_GT(auditor.CountFor(DivergenceClass::kStaleOwnership), 0);
  EXPECT_GT(auditor.CountFor(DivergenceClass::kDueMismatch), 0);
  JsonValue report;
  ASSERT_TRUE(JsonParser(auditor.ReportJson()).Parse(&report));
  EXPECT_GT(report.FindPath("info.chains_pruned")->number, 0);
  EXPECT_GT(report.FindPath("info.divergences_overflow")->number, 0);
}

// --- Canonical order of one check's verdicts --------------------------------

class AuditUnitIndexTest : public ::testing::Test {
 protected:
  AuditUnitIndexTest() : auditor_(&sim_, &config_) {}

  ViewerStateRecord Record(uint32_t origin, uint32_t epoch, int64_t sequence) {
    ViewerStateRecord record;
    record.viewer = ViewerId(origin * 10 + epoch);
    record.instance = PlayInstanceId(origin * 10 + epoch);
    record.slot = SlotId(origin);
    record.sequence = sequence;
    record.position = sequence;
    record.due = TimePoint::Zero() + Duration::Seconds(5) + config_.block_play_time * sequence;
    record.lineage.origin_cub = origin;
    record.lineage.epoch = epoch;
    record.lineage.MarkTagged();
    return record;
  }

  Simulator sim_;
  TigerConfig config_;
  ScheduleAuditor auditor_;
};

// Forwards lost on several chains come due in one check. Their truly-lost
// rows are flagged in (first send, chain id, sequence) order, whatever the
// order the chains were first seen or hashed in.
TEST_F(AuditUnitIndexTest, LostForwardsOfOneCheckAreFlaggedInSendThenChainOrder) {
  struct Send {
    uint32_t origin;
    int64_t sequence;
    int64_t at_ms;
  };
  // Chain ids are origin << 32 | 1. Two sends share t=20ms, the higher
  // chain id first.
  const std::vector<Send> sends = {{3, 0, 10}, {7, 3, 20}, {5, 1, 20}, {2, 5, 30}};
  for (const Send& send : sends) {
    sim_.RunUntil(TimePoint::Zero() + Duration::Millis(send.at_ms));
    auditor_.OnRecordForwarded(sim_.Now(), 0, 1, Record(send.origin, 1, send.sequence));
  }
  sim_.RunFor(Duration::Seconds(10));
  auditor_.CheckNow();
  ASSERT_EQ(auditor_.CountFor(DivergenceClass::kTrulyLostRecord), 4);
  const auto& rows = auditor_.divergences();
  ASSERT_EQ(rows.size(), 4u);
  const std::vector<std::pair<uint32_t, int64_t>> expected = {{3, 10}, {5, 20}, {7, 20}, {2, 30}};
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].chain, (uint64_t{expected[i].first} << 32) | 1) << "row " << i;
    EXPECT_EQ(rows[i].when.micros(), expected[i].second * 1000) << "row " << i;
  }
}

// Within one chain, the first lost forward by send time is the row kept.
TEST_F(AuditUnitIndexTest, OneChainKeepsItsEarliestLostForward) {
  auditor_.OnRecordForwarded(sim_.Now(), 0, 1, Record(4, 1, 9));
  sim_.RunFor(Duration::Millis(5));
  auditor_.OnRecordForwarded(sim_.Now(), 0, 1, Record(4, 1, 2));
  sim_.RunFor(Duration::Seconds(10));
  auditor_.CheckNow();
  // Sequence 2 is behind the chain's newest (9): rescued, not lost.
  EXPECT_EQ(auditor_.CountFor(DivergenceClass::kTrulyLostRecord), 1);
  EXPECT_EQ(auditor_.rescued_by_second_successor(), 1);
  ASSERT_EQ(auditor_.divergences().size(), 1u);
  EXPECT_EQ(auditor_.divergences()[0].sequence, 9);
}

// --- The lineage ring --------------------------------------------------------

TEST_F(AuditUnitIndexTest, ALongChainKeepsItsNewestHops) {
  ScheduleAuditor::Options options;
  options.max_hops_per_chain = 8;
  ScheduleAuditor auditor(&sim_, &config_, options);
  constexpr int kHops = 21;
  for (int i = 0; i < kHops; ++i) {
    sim_.RunFor(Duration::Millis(1));
    ViewerStateRecord record = Record(1, 1, i);
    record.lineage.hop_count = static_cast<uint16_t>(i);
    auditor.OnRecordReceived(sim_.Now(), static_cast<uint32_t>(i % 5), record,
                             ScheduleView::ApplyResult::kNew);
  }
  const uint64_t chain = (uint64_t{1} << 32) | 1;
  const auto* hops = auditor.ChainHops(chain);
  ASSERT_NE(hops, nullptr);
  ASSERT_EQ(hops->size(), 8u);
  EXPECT_EQ(hops->dropped(), kHops - 8);
  // Oldest-first, and exactly the newest eight.
  for (size_t i = 0; i < hops->size(); ++i) {
    EXPECT_EQ((*hops)[i].sequence, static_cast<int64_t>(kHops - 8 + i)) << i;
  }
  int64_t expected = kHops - 8;
  for (const ScheduleAuditor::Hop& hop : *hops) {
    EXPECT_EQ(hop.sequence, expected++);
  }

  const std::string lineage = auditor.ViewerLineage(ViewerId(11));
  EXPECT_NE(lineage.find("(8 hops, 13 dropped)"), std::string::npos) << lineage;
  EXPECT_EQ(lineage.find("seq 12 "), std::string::npos) << lineage;
  EXPECT_NE(lineage.find("seq 13 "), std::string::npos) << lineage;
  EXPECT_NE(lineage.find("seq 20 "), std::string::npos) << lineage;

  const std::string csv = auditor.LineageCsv();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 1 + 8);

  // The flow arrows step through the retained window: one start, one finish.
  const std::string flows = auditor.ChromeFlowEvents();
  EXPECT_EQ(std::count(flows.begin(), flows.end(), '\n'), 8);
  EXPECT_NE(flows.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(flows.find("\"seq\":13,"), std::string::npos);
  EXPECT_EQ(flows.find("\"seq\":12,"), std::string::npos);
  EXPECT_NE(flows.find("\"ph\":\"f\""), std::string::npos);
}

TEST_F(AuditUnitIndexTest, AKillLogKeepsItsNewestApplications) {
  ScheduleAuditor::Options options;
  options.max_hops_per_chain = 3;
  ScheduleAuditor auditor(&sim_, &config_, options);
  RecordLineage lineage;
  lineage.origin_cub = kControllerLineageOrigin;
  lineage.epoch = 9;
  lineage.MarkTagged();
  const DescheduleRecord kill{ViewerId(1), PlayInstanceId(77), SlotId()};
  for (uint16_t hop = 0; hop < 7; ++hop) {
    lineage.hop_count = hop;
    auditor.OnKill(sim_.Now(), hop, kill, lineage, 0, false);
  }
  const auto* hops = auditor.KillHops(PlayInstanceId(77));
  ASSERT_NE(hops, nullptr);
  ASSERT_EQ(hops->size(), 3u);
  EXPECT_EQ(hops->dropped(), 4);
  EXPECT_EQ((*hops)[0].hop_count, 4u);
  EXPECT_EQ((*hops)[2].hop_count, 6u);
}

TEST_F(AuditUnitIndexTest, ZeroCapacityRetainsNothingAndCountsEverything) {
  ScheduleAuditor::Options options;
  options.max_hops_per_chain = 0;
  ScheduleAuditor auditor(&sim_, &config_, options);
  for (int i = 0; i < 4; ++i) {
    auditor.OnRecordReceived(sim_.Now(), 0, Record(1, 1, i), ScheduleView::ApplyResult::kNew);
  }
  const auto* hops = auditor.ChainHops((uint64_t{1} << 32) | 1);
  ASSERT_NE(hops, nullptr);
  EXPECT_TRUE(hops->empty());
  EXPECT_EQ(hops->dropped(), 4);
}

}  // namespace
}  // namespace tiger
