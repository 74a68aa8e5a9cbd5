// ScheduleAuditor tests: shadow-schedule diffing, lineage reassembly, and
// mutation runs proving each divergence class is caught — and only when its
// defect is actually present.
//
// Two layers:
//  * unit tests drive the AuditObserver evidence interface directly on a
//    standalone auditor (no TigerSystem), checking the shadow arithmetic and
//    each divergence class in isolation;
//  * system tests attach the auditor to a full testbed and prove the healthy
//    protocol is coherent (zero divergence) while the built-in self-check
//    corruption (Cub::InjectAuditCorruption) is caught as exactly a due
//    mismatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "src/audit/auditor.h"
#include "src/client/testbed.h"

namespace tiger {
namespace {

using DivergenceClass = ScheduleAuditor::DivergenceClass;

// A small fixture owning a bare simulator + default config, the environment
// the standalone auditor needs.
class AuditUnitTest : public ::testing::Test {
 protected:
  AuditUnitTest() : auditor_(&sim_, &config_) {}

  // Builds a lineage-tagged primary record on `chain_origin`'s chain.
  ViewerStateRecord MakeRecord(int64_t sequence, uint32_t chain_origin = 0,
                               uint32_t epoch = 1) {
    ViewerStateRecord record;
    record.viewer = ViewerId(17);
    record.instance = PlayInstanceId(500);
    record.file = FileId(3);
    record.slot = SlotId(9);
    record.sequence = sequence;
    record.position = 100 + sequence;
    record.due = base_due_ + config_.block_play_time * sequence;
    record.lineage.origin_cub = chain_origin;
    record.lineage.epoch = epoch;
    record.lineage.hop_count = static_cast<uint16_t>(sequence);
    record.lineage.lamport = static_cast<uint64_t>(sequence) + 1;
    record.lineage.MarkTagged();
    return record;
  }

  // Counts divergences outside `allowed`; -1 for "none allowed".
  int64_t OtherClasses(DivergenceClass allowed) const {
    int64_t other = 0;
    for (size_t c = 0; c < static_cast<size_t>(DivergenceClass::kClassCount); ++c) {
      if (static_cast<DivergenceClass>(c) != allowed) {
        other += auditor_.CountFor(static_cast<DivergenceClass>(c));
      }
    }
    return other;
  }

  Simulator sim_;
  TigerConfig config_;
  ScheduleAuditor auditor_;
  TimePoint base_due_ = TimePoint::Zero() + Duration::Seconds(5);
};

TEST_F(AuditUnitTest, HealthyChainProducesNoDivergence) {
  // Mint at cub 0, forward 0->1, receive at 1, forward 1->2, receive at 2 —
  // a clean trip along the shared arithmetic.
  ViewerStateRecord r0 = MakeRecord(0);
  auditor_.OnRecordCreated(sim_.Now(), 0, AuditObserver::CreateKind::kInsert, r0, RecordLineage{});
  auditor_.OnRecordForwarded(sim_.Now(), 0, 1, r0);
  ViewerStateRecord r1 = MakeRecord(1);
  auditor_.OnRecordReceived(sim_.Now(), 1, r0, ScheduleView::ApplyResult::kNew);
  auditor_.OnRecordForwarded(sim_.Now(), 1, 2, r1);
  auditor_.OnRecordReceived(sim_.Now(), 2, r1, ScheduleView::ApplyResult::kNew);

  auditor_.CheckNow();
  EXPECT_TRUE(auditor_.healthy());
  EXPECT_EQ(auditor_.total_divergences(), 0);
  EXPECT_EQ(auditor_.chains_seen(), 1);
  EXPECT_EQ(auditor_.forwards_observed(), 2);
  EXPECT_EQ(auditor_.forwards_delivered(), 2);
}

TEST_F(AuditUnitTest, CorruptedDueIsFlaggedAsDueMismatchOnly) {
  ViewerStateRecord r0 = MakeRecord(0);
  auditor_.OnRecordCreated(sim_.Now(), 0, AuditObserver::CreateKind::kInsert, r0, RecordLineage{});
  // The successor record arrives 1 ms off the chain's linear arithmetic.
  ViewerStateRecord r1 = MakeRecord(1);
  r1.due = r1.due + Duration::Millis(1);
  auditor_.OnRecordReceived(sim_.Now(), 1, r1, ScheduleView::ApplyResult::kNew);

  EXPECT_FALSE(auditor_.healthy());
  EXPECT_EQ(auditor_.CountFor(DivergenceClass::kDueMismatch), 1);
  EXPECT_EQ(OtherClasses(DivergenceClass::kDueMismatch), 0);
  ASSERT_EQ(auditor_.divergences().size(), 1u);
  EXPECT_EQ(auditor_.divergences()[0].cub, 1);
  EXPECT_EQ(auditor_.divergences()[0].sequence, 1);
}

TEST_F(AuditUnitTest, CorruptedPositionIsAlsoADueMismatch) {
  ViewerStateRecord r0 = MakeRecord(0);
  auditor_.OnRecordCreated(sim_.Now(), 0, AuditObserver::CreateKind::kInsert, r0, RecordLineage{});
  ViewerStateRecord r1 = MakeRecord(1);
  r1.position += 7;  // Due is right, position is not: still incoherent.
  auditor_.OnRecordReceived(sim_.Now(), 1, r1, ScheduleView::ApplyResult::kNew);
  EXPECT_EQ(auditor_.CountFor(DivergenceClass::kDueMismatch), 1);
}

TEST_F(AuditUnitTest, MirrorFragmentsOffTheirLaneAreFlagged) {
  const int dc = config_.shape.decluster_factor;
  const Duration play = config_.block_play_time;
  // A healthy declustered lane: fragment j due at base + j*play/dc (exact
  // telescoping integer arithmetic, same as Cub::MirrorFragmentSpacing).
  for (int j = 0; j < dc; ++j) {
    ViewerStateRecord frag = MakeRecord(j);
    frag.mirror_fragment = j;
    frag.position = 100;  // Fragments of one block share its position.
    frag.due = base_due_ + Duration::Micros(static_cast<int64_t>(j) * play.micros() / dc);
    auditor_.OnRecordReceived(sim_.Now(), 2, frag, ScheduleView::ApplyResult::kNew);
  }
  EXPECT_TRUE(auditor_.healthy()) << "exact lane spacing must not be flagged";

  // Now a fragment 1 ms off its lane.
  ViewerStateRecord bad = MakeRecord(dc);
  bad.mirror_fragment = 0;
  bad.position = 200;  // New block, new lane...
  bad.due = base_due_ + Duration::Seconds(2);
  auditor_.OnRecordReceived(sim_.Now(), 2, bad, ScheduleView::ApplyResult::kNew);
  ViewerStateRecord bad2 = MakeRecord(dc + 1);
  bad2.mirror_fragment = 1;
  bad2.position = 200;
  bad2.due = bad.due + Duration::Micros(play.micros() / dc) + Duration::Millis(1);
  auditor_.OnRecordReceived(sim_.Now(), 2, bad2, ScheduleView::ApplyResult::kNew);
  EXPECT_EQ(auditor_.CountFor(DivergenceClass::kMirrorScheduleMismatch), 1);
}

TEST_F(AuditUnitTest, ViewConflictIsStaleOwnership) {
  ViewerStateRecord r0 = MakeRecord(0);
  auditor_.OnRecordReceived(sim_.Now(), 3, r0, ScheduleView::ApplyResult::kConflict);
  EXPECT_EQ(auditor_.CountFor(DivergenceClass::kStaleOwnership), 1);
  EXPECT_EQ(OtherClasses(DivergenceClass::kStaleOwnership), 0);
}

TEST_F(AuditUnitTest, DoubleInsertionOfOneSlotPassIsStaleOwnership) {
  // Two different play instances inserted for the same slot at the same due
  // time — the §4.1.3 ownership race the protocol must prevent.
  ViewerStateRecord a = MakeRecord(0, /*chain_origin=*/0, /*epoch=*/1);
  auditor_.OnRecordCreated(sim_.Now(), 0, AuditObserver::CreateKind::kInsert, a, RecordLineage{});
  ViewerStateRecord b = MakeRecord(0, /*chain_origin=*/5, /*epoch=*/1);
  b.instance = PlayInstanceId(501);
  auditor_.OnRecordCreated(sim_.Now(), 5, AuditObserver::CreateKind::kInsert, b, RecordLineage{});
  EXPECT_EQ(auditor_.CountFor(DivergenceClass::kStaleOwnership), 1);
}

TEST_F(AuditUnitTest, ExcessiveLeadIsFlagged) {
  ViewerStateRecord r0 = MakeRecord(0);
  r0.due = TimePoint::Zero() + config_.max_vstate_lead + config_.block_play_time * 2 +
           Duration::Millis(1);
  auditor_.OnRecordReceived(sim_.Now(), 1, r0, ScheduleView::ApplyResult::kNew);
  EXPECT_EQ(auditor_.CountFor(DivergenceClass::kLeadBoundViolation), 1);
}

TEST_F(AuditUnitTest, LostForwardIsFlaggedOnlyWhenTheChainNeverAdvances) {
  // Use a sequence >= 1: forwarding the successor record raises the chain's
  // max seen sequence to exactly that sequence, and the lost-vs-rescued
  // verdict must not read the chain as having advanced *past* it.
  ViewerStateRecord r0 = MakeRecord(0);
  auditor_.OnRecordCreated(sim_.Now(), 0, AuditObserver::CreateKind::kInsert, r0, RecordLineage{});
  ViewerStateRecord r1 = MakeRecord(1);
  auditor_.OnRecordForwarded(sim_.Now(), 0, 1, r1);
  auditor_.OnRecordForwarded(sim_.Now(), 0, 2, r1);

  // Within the horizon nothing is judged yet.
  sim_.RunFor(Duration::Seconds(5));
  auditor_.CheckNow();
  EXPECT_TRUE(auditor_.healthy());

  // Past the horizon with no receipt anywhere and no later sequence: lost.
  sim_.RunFor(Duration::Seconds(5));
  auditor_.CheckNow();
  EXPECT_EQ(auditor_.CountFor(DivergenceClass::kTrulyLostRecord), 1);
  EXPECT_EQ(auditor_.rescued_by_second_successor(), 0);
  ASSERT_EQ(auditor_.divergences().size(), 1u);
  EXPECT_EQ(auditor_.divergences()[0].sequence, 1);
}

TEST_F(AuditUnitTest, PartialDeliveryCountsAsRescuedNotLost) {
  ViewerStateRecord r0 = MakeRecord(0);
  auditor_.OnRecordCreated(sim_.Now(), 0, AuditObserver::CreateKind::kInsert, r0, RecordLineage{});
  auditor_.OnRecordForwarded(sim_.Now(), 0, 1, r0);
  auditor_.OnRecordForwarded(sim_.Now(), 0, 2, r0);
  // Only the second successor's copy arrives — §4.1.1's redundancy working.
  auditor_.OnRecordReceived(sim_.Now(), 2, r0, ScheduleView::ApplyResult::kNew);

  sim_.RunFor(Duration::Seconds(10));
  auditor_.CheckNow();
  EXPECT_TRUE(auditor_.healthy());
  EXPECT_EQ(auditor_.rescued_by_second_successor(), 1);
}

TEST_F(AuditUnitTest, RegeneratedDownstreamCountsAsRescued) {
  ViewerStateRecord r0 = MakeRecord(0);
  auditor_.OnRecordCreated(sim_.Now(), 0, AuditObserver::CreateKind::kInsert, r0, RecordLineage{});
  auditor_.OnRecordForwarded(sim_.Now(), 0, 1, r0);
  // Both copies vanish, but takeover regenerated the chain past sequence 0.
  ViewerStateRecord r2 = MakeRecord(2);
  auditor_.OnRecordReceived(sim_.Now(), 3, r2, ScheduleView::ApplyResult::kNew);

  sim_.RunFor(Duration::Seconds(10));
  auditor_.CheckNow();
  EXPECT_TRUE(auditor_.healthy());
  EXPECT_EQ(auditor_.rescued_by_second_successor(), 1);
}

TEST_F(AuditUnitTest, DuplicateFreshHoldIsFlagged) {
  // Anchor the instance in schedule evidence so the kill is not an orphan.
  ViewerStateRecord r0 = MakeRecord(0);
  auditor_.OnRecordCreated(sim_.Now(), 0, AuditObserver::CreateKind::kInsert, r0, RecordLineage{});

  DescheduleRecord kill{ViewerId(17), PlayInstanceId(500), SlotId(9)};
  auditor_.OnKill(sim_.Now(), 1, kill, RecordLineage{}, /*removed=*/1, /*new_hold=*/true);
  auditor_.OnKill(sim_.Now(), 2, kill, RecordLineage{}, /*removed=*/0, /*new_hold=*/true);
  // Refreshes (new_hold=false) and fresh holds at other cubs are benign.
  auditor_.OnKill(sim_.Now(), 1, kill, RecordLineage{}, /*removed=*/0, /*new_hold=*/false);
  EXPECT_TRUE(auditor_.healthy());

  // A second *fresh* hold at cub 1 means the kill outlived its own hold.
  auditor_.OnKill(sim_.Now(), 1, kill, RecordLineage{}, /*removed=*/0, /*new_hold=*/true);
  EXPECT_EQ(auditor_.CountFor(DivergenceClass::kDuplicateKill), 1);
  EXPECT_EQ(OtherClasses(DivergenceClass::kDuplicateKill), 0);
}

TEST_F(AuditUnitTest, OrphanKillIsFlaggedAfterTheHorizon) {
  // A slot-targeted kill naming an instance no schedule evidence ever names.
  DescheduleRecord kill{ViewerId(40), PlayInstanceId(999), SlotId(4)};
  auditor_.OnKill(sim_.Now(), 0, kill, RecordLineage{}, /*removed=*/0, /*new_hold=*/true);
  auditor_.CheckNow();
  EXPECT_TRUE(auditor_.healthy()) << "not an orphan until the horizon passes";

  sim_.RunFor(Duration::Seconds(11));
  auditor_.CheckNow();
  EXPECT_EQ(auditor_.CountFor(DivergenceClass::kOrphanKill), 1);
}

TEST_F(AuditUnitTest, QueuePurgeKillWithoutSlotIsNeverAnOrphan) {
  // The controller's broadcast purge for unconfirmed plays carries no slot;
  // it legitimately names instances no schedule evidence knows.
  DescheduleRecord kill{ViewerId(41), PlayInstanceId(1000), SlotId::Invalid()};
  auditor_.OnKill(sim_.Now(), 0, kill, RecordLineage{}, /*removed=*/0, /*new_hold=*/true);
  sim_.RunFor(Duration::Seconds(11));
  auditor_.CheckNow();
  EXPECT_TRUE(auditor_.healthy());
}

TEST_F(AuditUnitTest, KilledInstanceReenteringAViewIsAResurrection) {
  ViewerStateRecord r0 = MakeRecord(0);
  auditor_.OnRecordCreated(sim_.Now(), 0, AuditObserver::CreateKind::kInsert, r0, RecordLineage{});
  DescheduleRecord kill{ViewerId(17), PlayInstanceId(500), SlotId(9)};
  auditor_.OnKill(sim_.Now(), 1, kill, RecordLineage{}, /*removed=*/1, /*new_hold=*/true);

  sim_.RunFor(Duration::Seconds(1));
  // Cub 2 never applied the kill: a late record applying there is benign
  // (the in-flight window §4.1.2's holds exist for).
  ViewerStateRecord r1 = MakeRecord(1);
  auditor_.OnRecordReceived(sim_.Now(), 2, r1, ScheduleView::ApplyResult::kNew);
  EXPECT_TRUE(auditor_.healthy());
  // Cub 1 applied the kill, yet accepted a fresh record of the instance.
  ViewerStateRecord r2 = MakeRecord(2);
  auditor_.OnRecordReceived(sim_.Now(), 1, r2, ScheduleView::ApplyResult::kNew);
  EXPECT_EQ(auditor_.CountFor(DivergenceClass::kResurrection), 1);
}

TEST_F(AuditUnitTest, TtlDropIsFlaggedAndResolvesThePendingForward) {
  ViewerStateRecord r0 = MakeRecord(0);
  r0.lineage.hop_count = 1000;  // Far beyond sequence + slack.
  auditor_.OnRecordForwarded(sim_.Now(), 0, 1, r0);
  auditor_.OnRecordTtlDropped(sim_.Now(), 1, r0);
  EXPECT_EQ(auditor_.CountFor(DivergenceClass::kTtlExceeded), 1);

  // The drop proved delivery: no truly-lost verdict later.
  sim_.RunFor(Duration::Seconds(10));
  auditor_.CheckNow();
  EXPECT_EQ(auditor_.CountFor(DivergenceClass::kTrulyLostRecord), 0);
}

TEST_F(AuditUnitTest, LineageReassemblyAndQueries) {
  ViewerStateRecord r0 = MakeRecord(0);
  auditor_.OnRecordCreated(sim_.Now(), 0, AuditObserver::CreateKind::kInsert, r0, RecordLineage{});
  auditor_.OnRecordForwarded(sim_.Now(), 0, 1, r0);
  sim_.RunFor(Duration::Millis(3));
  auditor_.OnRecordReceived(sim_.Now(), 1, r0, ScheduleView::ApplyResult::kNew);

  const uint64_t chain = r0.lineage.ChainId();
  auto chains = auditor_.ChainsOfViewer(ViewerId(17));
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0], chain);
  EXPECT_TRUE(auditor_.ChainsOfViewer(ViewerId(99)).empty());

  const auto* hops = auditor_.ChainHops(chain);
  ASSERT_NE(hops, nullptr);
  ASSERT_EQ(hops->size(), 3u);
  EXPECT_EQ((*hops)[0].kind, ScheduleAuditor::HopKind::kCreated);
  EXPECT_EQ((*hops)[1].kind, ScheduleAuditor::HopKind::kForwarded);
  EXPECT_EQ((*hops)[1].peer, 1);
  EXPECT_EQ((*hops)[2].kind, ScheduleAuditor::HopKind::kReceived);
  EXPECT_EQ((*hops)[2].cub, 1u);
  EXPECT_EQ(auditor_.ChainHops(0xdeadbeef), nullptr);

  const std::string trip = auditor_.ViewerLineage(ViewerId(17));
  EXPECT_NE(trip.find("viewer 17"), std::string::npos);
  EXPECT_NE(trip.find("create"), std::string::npos);
  EXPECT_NE(trip.find("forward"), std::string::npos);
  EXPECT_NE(trip.find("receive"), std::string::npos);

  const std::string csv = auditor_.LineageCsv();
  EXPECT_EQ(csv.compare(0, 6, "chain,"), 0);
  // Header + three hop rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

TEST_F(AuditUnitTest, KillMessageLineageIsReassembledAcrossCubs) {
  ViewerStateRecord r0 = MakeRecord(0);
  auditor_.OnRecordCreated(sim_.Now(), 0, AuditObserver::CreateKind::kInsert, r0, RecordLineage{});

  // A controller-minted kill applied at cub 1, then forwarded (hop count
  // advanced, Lamport restamped) and applied at cub 2.
  RecordLineage kl;
  kl.origin_cub = kControllerLineageOrigin;
  kl.epoch = 3;
  kl.lamport = 10;
  kl.MarkTagged();
  DescheduleRecord kill{ViewerId(17), PlayInstanceId(500), SlotId(9)};
  auditor_.OnKill(sim_.Now(), 1, kill, kl, /*removed=*/1, /*new_hold=*/true);
  kl.hop_count = 1;
  kl.lamport = 11;
  auditor_.OnKill(sim_.Now(), 2, kill, kl, /*removed=*/0, /*new_hold=*/true);

  const auto* hops = auditor_.KillHops(PlayInstanceId(500));
  ASSERT_NE(hops, nullptr);
  ASSERT_EQ(hops->size(), 2u);
  EXPECT_EQ((*hops)[0].kind, ScheduleAuditor::HopKind::kKillApplied);
  EXPECT_EQ((*hops)[0].cub, 1u);
  EXPECT_EQ((*hops)[0].hop_count, 0u);
  EXPECT_EQ((*hops)[1].cub, 2u);
  EXPECT_EQ((*hops)[1].hop_count, 1u);
  EXPECT_EQ((*hops)[1].lamport, 11u);
  EXPECT_EQ(auditor_.KillHops(PlayInstanceId(9999)), nullptr);

  // The kill's trip exports under its own controller chain.
  const std::string csv = auditor_.LineageCsv();
  EXPECT_NE(csv.find(",kill,"), std::string::npos);
  EXPECT_NE(csv.find("0xffffffff00000003"), std::string::npos);
  EXPECT_TRUE(auditor_.healthy());
}

TEST_F(AuditUnitTest, InsertRequestChainIsLinkedToTheRecordChain) {
  RecordLineage request;
  request.origin_cub = kControllerLineageOrigin;
  request.epoch = 42;
  request.MarkTagged();
  ViewerStateRecord r0 = MakeRecord(0);
  auditor_.OnRecordCreated(sim_.Now(), 0, AuditObserver::CreateKind::kInsert, r0, request);

  const std::string trip = auditor_.ViewerLineage(ViewerId(17));
  EXPECT_NE(trip.find("request 0xffffffff0000002a"), std::string::npos)
      << "the minting StartPlayMsg's chain must be linked:\n" << trip;
}

TEST_F(AuditUnitTest, ReportsAreDeterministicAndNameTheClass) {
  ViewerStateRecord r0 = MakeRecord(0);
  auditor_.OnRecordCreated(sim_.Now(), 0, AuditObserver::CreateKind::kInsert, r0, RecordLineage{});
  ViewerStateRecord r1 = MakeRecord(1);
  r1.due = r1.due + Duration::Millis(1);
  auditor_.OnRecordReceived(sim_.Now(), 1, r1, ScheduleView::ApplyResult::kNew);

  const std::string json = auditor_.ReportJson();
  EXPECT_NE(json.find("\"healthy\": false"), std::string::npos);
  EXPECT_NE(json.find("\"due_mismatch\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"paper\": \"4.1.1\""), std::string::npos);
  EXPECT_EQ(json, auditor_.ReportJson()) << "export must be deterministic";

  const std::string csv = auditor_.ReportCsv();
  EXPECT_EQ(csv.compare(0, 6, "class,"), 0);
  EXPECT_NE(csv.find("due_mismatch,4.1.1"), std::string::npos);
}

TEST_F(AuditUnitTest, UntaggedRecordsAreCountedAndIgnored) {
  ViewerStateRecord legacy = MakeRecord(0);
  legacy.lineage = RecordLineage{};  // An older peer's all-zero tail.
  auditor_.OnRecordReceived(sim_.Now(), 0, legacy, ScheduleView::ApplyResult::kNew);
  EXPECT_TRUE(auditor_.healthy());
  EXPECT_EQ(auditor_.chains_seen(), 0);
  EXPECT_EQ(auditor_.untagged_records(), 1);
}

// ---------------------------------------------------------------------------
// Full-system tests
// ---------------------------------------------------------------------------

TigerConfig SmallConfig() {
  TigerConfig config;
  config.shape = SystemShape{5, 1, 2};
  return config;
}

TEST(AuditSystemTest, HealthyRunReportsZeroDivergence) {
  Testbed testbed(SmallConfig(), /*seed=*/7);
  TigerSystem& system = testbed.system();
  system.EnableTracing();
  ScheduleAuditor auditor(&system.sim(), &system.config());
  auditor.Attach(&system);
  testbed.AddContent(4, Duration::Seconds(30));
  testbed.Start();
  auditor.Start();
  for (int i = 0; i < 3; ++i) {
    testbed.AddViewer(FileId(static_cast<uint32_t>(i)));
  }
  testbed.RunFor(Duration::Seconds(45));

  EXPECT_TRUE(auditor.healthy()) << auditor.ReportJson();
  EXPECT_EQ(auditor.total_divergences(), 0);
  EXPECT_GT(auditor.chains_seen(), 0);
  EXPECT_GT(auditor.forwards_observed(), 0);
  EXPECT_GT(auditor.checks_run(), 100);
  EXPECT_GT(auditor.trace_events_seen(), 0) << "the tracer sink must be live";
  EXPECT_NE(auditor.ReportJson().find("\"healthy\": true"), std::string::npos);

  // Lineage query over a real run: every played viewer has a chain whose hop
  // log includes the full create/forward/receive trip, and inserted chains
  // link back to the controller's StartPlayMsg request chain.
  bool found_full_trip = false;
  bool found_request_link = false;
  for (const auto& viewer : testbed.viewers()) {
    const std::string trip = auditor.ViewerLineage(viewer->id());
    if (trip.find("create") != std::string::npos &&
        trip.find("forward") != std::string::npos &&
        trip.find("receive") != std::string::npos) {
      found_full_trip = true;
    }
    if (trip.find("request 0xffffffff") != std::string::npos) {
      found_request_link = true;
    }
  }
  EXPECT_TRUE(found_full_trip);
  EXPECT_TRUE(found_request_link);

  // Flow arrows splice into the Chrome export (ph "s"/"f" with the lineage
  // category) without breaking the JSON envelope.
  const std::string flows = auditor.ChromeFlowEvents();
  EXPECT_NE(flows.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(flows.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(flows.find("\"cat\":\"lineage\""), std::string::npos);
}

TEST(AuditSystemTest, SelfCheckCorruptionIsCaughtAsExactlyADueMismatch) {
  // Run the identical scenario twice — once clean, once with one corrupted
  // forward — and prove the auditor stays quiet on the former and flags
  // exactly the due-mismatch class on the latter.
  for (const bool corrupt : {false, true}) {
    Testbed testbed(SmallConfig(), /*seed=*/11);
    TigerSystem& system = testbed.system();
    ScheduleAuditor auditor(&system.sim(), &system.config());
    auditor.Attach(&system);
    testbed.AddContent(4, Duration::Seconds(30));
    testbed.Start();
    auditor.Start();
    for (int i = 0; i < 3; ++i) {
      testbed.AddViewer(FileId(static_cast<uint32_t>(i)));
    }
    testbed.RunFor(Duration::Seconds(10));
    if (corrupt) {
      system.cub(CubId(1)).InjectAuditCorruption();
    }
    testbed.RunFor(Duration::Seconds(20));

    if (!corrupt) {
      EXPECT_TRUE(auditor.healthy()) << auditor.ReportJson();
      continue;
    }
    EXPECT_FALSE(auditor.healthy()) << "the corrupted forward must be caught";
    EXPECT_GT(auditor.CountFor(DivergenceClass::kDueMismatch), 0);
    for (size_t c = 0; c < static_cast<size_t>(DivergenceClass::kClassCount); ++c) {
      const auto cls = static_cast<DivergenceClass>(c);
      if (cls != DivergenceClass::kDueMismatch) {
        EXPECT_EQ(auditor.CountFor(cls), 0)
            << "unexpected class " << ScheduleAuditor::ClassName(cls);
      }
    }
    // The report names the defect and the paper section it violates.
    const std::string json = auditor.ReportJson();
    EXPECT_NE(json.find("\"class\": \"due_mismatch\""), std::string::npos);
    EXPECT_NE(json.find("\"paper\": \"4.1.1\""), std::string::npos);
  }
}

TEST(AuditSystemTest, EntriesLandingWithoutEvidenceArePhantomsCountedOnce) {
  // Blind one cub's audit hooks for a few seconds while new viewers start:
  // their records land in its view with no evidence there, which the view
  // diff must report as phantom records at that cub — once per entry, not
  // once per check for as long as the entry stays in the view.
  Testbed testbed(SmallConfig(), /*seed=*/17);
  TigerSystem& system = testbed.system();
  ScheduleAuditor auditor(&system.sim(), &system.config());
  auditor.Attach(&system);
  testbed.AddContent(4, Duration::Seconds(30));
  testbed.Start();
  auditor.Start();
  testbed.AddViewer(FileId(0));
  testbed.RunFor(Duration::Seconds(5));

  const CubId blind(2);
  Cub& cub = system.cub(blind);
  auto landed = [&cub] { return cub.counters().records_new + cub.counters().inserts; };
  const int64_t landed_before = landed();
  cub.SetAuditObserver(nullptr);
  for (int i = 1; i < 4; ++i) {
    testbed.AddViewer(FileId(static_cast<uint32_t>(i)));
  }
  testbed.RunFor(Duration::Seconds(4));
  const int64_t landed_blind = landed() - landed_before;
  cub.SetAuditObserver(&auditor);
  testbed.RunFor(Duration::Seconds(10));

  const int64_t phantoms = auditor.CountFor(DivergenceClass::kPhantomRecord);
  EXPECT_GT(phantoms, 0) << auditor.ReportJson();
  for (const ScheduleAuditor::Divergence& d : auditor.divergences()) {
    if (d.cls == DivergenceClass::kPhantomRecord) {
      EXPECT_EQ(d.cub, static_cast<int64_t>(blind.value())) << d.detail;
    }
  }
  EXPECT_LE(phantoms, landed_blind)
      << "a phantom entry must be counted once, not on every check";
}

TEST(AuditSystemTest, ViewDiffWorkIsBoundedByLandings) {
  // The view diff checks each landed entry once: its work is bounded by what
  // the views accepted, never by view size times the number of checks.
  Testbed testbed(SmallConfig(), /*seed=*/19);
  TigerSystem& system = testbed.system();
  ScheduleAuditor auditor(&system.sim(), &system.config());
  auditor.Attach(&system);
  testbed.AddContent(4, Duration::Seconds(20));
  testbed.Start();
  auditor.Start();
  testbed.AddLoopingViewers(6, Duration::Seconds(2));
  testbed.RunFor(Duration::Seconds(40));

  int64_t accepted = 0;
  for (int c = 0; c < system.cub_count(); ++c) {
    const Cub::Counters& counters = system.cub(CubId(static_cast<uint32_t>(c))).counters();
    accepted += counters.records_new + counters.inserts;
  }
  EXPECT_TRUE(auditor.healthy()) << auditor.ReportJson();
  EXPECT_GT(auditor.checks_run(), 100);
  EXPECT_GT(auditor.entries_audited(), 0);
  EXPECT_LE(auditor.entries_audited(), accepted);
  EXPECT_NE(auditor.ReportJson().find("\"entries_audited\": "), std::string::npos);
}

TEST(AuditSystemTest, ReportFilesRoundTrip) {
  Testbed testbed(SmallConfig(), /*seed=*/13);
  TigerSystem& system = testbed.system();
  ScheduleAuditor auditor(&system.sim(), &system.config());
  auditor.Attach(&system);
  testbed.AddContent(2, Duration::Seconds(20));
  testbed.Start();
  auditor.Start();
  testbed.AddViewer(FileId(0));
  testbed.RunFor(Duration::Seconds(25));

  const std::string json_path = ::testing::TempDir() + "/divergence_report.json";
  const std::string csv_path = ::testing::TempDir() + "/lineage.csv";
  ASSERT_TRUE(auditor.WriteReportJson(json_path));
  ASSERT_TRUE(auditor.WriteLineageCsv(csv_path));

  std::FILE* f = std::fopen(json_path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  ASSERT_GT(std::fread(buf, 1, sizeof(buf) - 1, f), 0u);
  std::fclose(f);
  EXPECT_EQ(std::string(buf).compare(0, 1, "{"), 0);
}

}  // namespace
}  // namespace tiger
