// Cub-level protocol behaviours exercised by direct message injection.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/client/testbed.h"
#include "src/common/rng.h"

namespace tiger {
namespace {

TigerConfig SmallConfig() {
  TigerConfig config;
  config.shape = SystemShape{4, 1, 2};
  return config;
}

// Builds a testbed with one running stream and returns the testbed.
std::unique_ptr<Testbed> RunningStream(uint64_t seed) {
  auto testbed = std::make_unique<Testbed>(SmallConfig(), seed);
  testbed->system().EnableInvariantChecker();
  testbed->AddContent(2, Duration::Seconds(60));
  testbed->Start();
  testbed->AddViewer(FileId(0));
  testbed->RunFor(Duration::Seconds(8));
  return testbed;
}

TEST(CubProtocolTest, ReplayedBatchIsAbsorbedIdempotently) {
  auto testbed = RunningStream(51);
  TigerSystem& system = testbed->system();
  Cub& target = system.cub(CubId(2));
  const int64_t dups_before = target.counters().records_duplicate;

  // Capture a live record from the cub's own view and replay it at the cub
  // several times, as a flaky sender might.
  ViewerStateRecord captured;
  bool found = false;
  TimePoint now = system.sim().Now();
  const_cast<ScheduleView&>(target.view()).ForEachEntry([&](ScheduleEntry& entry) {
    if (!found && !entry.record().is_mirror() && entry.record().due > now) {
      captured = entry.record();
      found = true;
    }
  });
  ASSERT_TRUE(found);
  for (int i = 0; i < 3; ++i) {
    auto batch = std::make_shared<ViewerStateBatchMsg>();
    batch->Add(captured);
    const int64_t bytes = batch->WireBytes();
    system.net().Send(system.cub(CubId(1)).address(), target.address(), bytes, batch);
  }
  testbed->RunFor(Duration::Seconds(1));
  EXPECT_EQ(target.counters().records_duplicate, dups_before + 3);
  EXPECT_EQ(target.counters().records_conflict, 0);

  testbed->RunFor(Duration::Seconds(60));
  EXPECT_EQ(testbed->TotalClientStats().lost_blocks, 0);
  EXPECT_EQ(system.invariant_checker()->conflict_count(), 0);
}

TEST(CubProtocolTest, HopTtlDropReachesTheFleetTotal) {
  auto testbed = RunningStream(52);
  TigerSystem& system = testbed->system();
  Cub& target = system.cub(CubId(2));
  ASSERT_EQ(system.TotalCubCounters().records_ttl_dropped, 0);

  // A record whose lineage has hopped far more often than its sequence
  // advanced has been re-forwarded in a loop: the guard drops it.
  ViewerStateRecord looped;
  looped.viewer = ViewerId(900);
  looped.instance = PlayInstanceId(900);
  looped.file = FileId(0);
  looped.slot = SlotId(0);
  looped.sequence = 3;
  looped.due = system.sim().Now() + Duration::Seconds(2);
  looped.lineage.origin_cub = 1;
  looped.lineage.epoch = 1;
  looped.lineage.MarkTagged();
  looped.lineage.hop_count =
      static_cast<uint16_t>(looped.sequence + system.config().max_hop_slack + 1);
  auto batch = std::make_shared<ViewerStateBatchMsg>();
  batch->Add(looped);
  const int64_t bytes = batch->WireBytes();
  system.net().Send(system.cub(CubId(1)).address(), target.address(), bytes, batch);
  testbed->RunFor(Duration::Seconds(1));

  EXPECT_EQ(target.counters().records_ttl_dropped, 1);
  EXPECT_EQ(system.TotalCubCounters().records_ttl_dropped, 1);
}

TEST(CubProtocolTest, DuplicateDescheduleForwardedOnlyOnce) {
  auto testbed = RunningStream(53);
  TigerSystem& system = testbed->system();

  // Find the stream's identity from a cub view.
  ViewerStateRecord captured;
  bool found = false;
  for (int c = 0; c < 4 && !found; ++c) {
    const_cast<ScheduleView&>(system.cub(CubId(static_cast<uint32_t>(c))).view())
        .ForEachEntry([&](ScheduleEntry& entry) {
          if (!found && !entry.record().is_mirror()) {
            captured = entry.record();
            found = true;
          }
        });
  }
  ASSERT_TRUE(found);

  auto deschedule = std::make_shared<DescheduleMsg>();
  deschedule->record =
      DescheduleRecord{captured.viewer, captured.instance, captured.slot};
  Cub& target = system.cub(CubId(0));
  const int64_t received_before = target.counters().deschedules_received;
  for (int i = 0; i < 4; ++i) {
    system.net().Send(system.controller().address(), target.address(),
                      DescheduleMsg::WireBytes(), deschedule);
  }
  testbed->RunFor(Duration::Seconds(2));
  // At least our 4 copies (ring forwarding may add more); all were absorbed.
  EXPECT_GE(target.counters().deschedules_received, received_before + 4);
  testbed->RunFor(Duration::Seconds(10));
  Cub::Counters totals = system.TotalCubCounters();
  EXPECT_GT(totals.deschedules_applied, 0);
  // The stream is dead everywhere: no further blocks flow.
  int64_t blocks = testbed->TotalClientStats().blocks_complete;
  testbed->RunFor(Duration::Seconds(5));
  EXPECT_EQ(testbed->TotalClientStats().blocks_complete, blocks);
  EXPECT_EQ(totals.records_conflict, 0);
  EXPECT_EQ(system.invariant_checker()->conflict_count(), 0);
}

TEST(CubProtocolTest, ViewsStayBounded) {
  // §4: "participants' views be limited to a size that does not grow as a
  // function of the scale of the system". Run long and check entry counts
  // stay near (streams/cub) x (lead window + retention).
  TigerConfig config = SmallConfig();
  Testbed testbed(config, 55);
  testbed.AddContent(4, Duration::Seconds(300));
  testbed.Start();
  for (int i = 0; i < 8; ++i) {
    testbed.AddViewer(FileId(static_cast<uint32_t>(i % 4)));
  }
  testbed.RunFor(Duration::Seconds(60));
  size_t max_entries = 0;
  for (int c = 0; c < 4; ++c) {
    max_entries =
        std::max(max_entries, testbed.system().cub(CubId(static_cast<uint32_t>(c)))
                                  .view()
                                  .entry_count());
  }
  // 8 streams over 4 cubs = 2/cub; window ~ (9 s lead + 8 s retention + own
  // service) ~ records per stream per cub (served + backup): tens, never
  // hundreds.
  EXPECT_LE(max_entries, 100u);
  EXPECT_GT(max_entries, 0u);
}

TEST(CubProtocolTest, BufferPoolNeverOverflowsOrLeaks) {
  TigerConfig config = SmallConfig();
  Testbed testbed(config, 57);
  testbed.AddContent(2, Duration::Seconds(30));
  testbed.Start();
  testbed.AddViewer(FileId(0));
  testbed.AddViewer(FileId(1));
  testbed.RunFor(Duration::Seconds(45));
  for (int c = 0; c < 4; ++c) {
    Cub& cub = testbed.system().cub(CubId(static_cast<uint32_t>(c)));
    EXPECT_EQ(cub.free_buffer_bytes(), config.buffer_pool_bytes)
        << "all buffers must return to the pool after the plays end (cub " << c << ")";
  }
}

TEST(CubProtocolTest, StartRequestDedupAcrossPrimaryAndRedundant) {
  // Directly deliver the same start to two cubs (primary + redundant) and
  // confirm only one insertion happens.
  TigerConfig config = SmallConfig();
  Testbed testbed(config, 59);
  testbed.system().EnableInvariantChecker();
  testbed.AddContent(1, Duration::Seconds(30));
  testbed.Start();
  TigerSystem& system = testbed.system();
  const FileInfo& file = system.catalog().Get(FileId(0));
  CubId primary = config.shape.CubOfDisk(file.start_disk);
  CubId backup = config.shape.NextCub(primary);

  auto start = std::make_shared<StartPlayMsg>();
  start->viewer = ViewerId(77);
  start->client_address = system.cub(CubId(0)).address();  // Sink anywhere.
  start->instance = PlayInstanceId(4242);
  start->file = FileId(0);
  start->bitrate_bps = Megabits(2);
  auto redundant = std::make_shared<StartPlayMsg>(*start);
  redundant->redundant = true;

  NetAddress from = system.controller().address();
  system.net().Send(from, system.cub(primary).address(), StartPlayMsg::WireBytes(), start);
  system.net().Send(from, system.cub(backup).address(), StartPlayMsg::WireBytes(), redundant);
  testbed.RunFor(Duration::Seconds(10));

  Cub::Counters totals = system.TotalCubCounters();
  EXPECT_EQ(totals.inserts, 1);
  EXPECT_EQ(system.invariant_checker()->conflict_count(), 0);
}

// The instance `viewer` plays in some cub's view, or nullopt.
std::optional<PlayInstanceId> InstanceOf(TigerSystem& system, ViewerId viewer) {
  std::optional<PlayInstanceId> instance;
  for (int c = 0; c < system.config().shape.num_cubs && !instance; ++c) {
    system.cub(CubId(static_cast<uint32_t>(c))).view().ForEachEntry([&](const ScheduleEntry& e) {
      if (e.record().viewer == viewer) {
        instance = e.record().instance;
      }
    });
  }
  return instance;
}

TEST(CubProtocolTest, SeenInstancesAgeOutOnlyWhenNoLongerRefreshed) {
  // A cub remembers each play instance it has seen (duplicate-start dedup)
  // until its last sighting falls behind the seen horizon at an eviction
  // tick. A playing instance keeps being re-sighted and must survive far
  // past one retention; a stopped one must leave at the first tick whose
  // horizon passes its last sighting, not a tick earlier or later.
  TigerConfig config = SmallConfig();
  Testbed testbed(config, 61);
  testbed.AddContent(2, Duration::Seconds(200));
  testbed.Start();
  TigerSystem& system = testbed.system();
  const TimePoint started = system.sim().Now();  // Eviction ticks: every second from here.
  // The seen horizon, as Cub::EvictionTick computes it.
  const Duration retention = std::max(
      config.view_retention, config.deadman_timeout + config.heartbeat_interval * 2);
  const Duration seen_retention =
      retention + config.deadman_timeout * 2 + config.block_play_time * 2;

  ViewerClient& live = testbed.AddViewer(FileId(0));
  ViewerClient& stopped = testbed.AddViewer(FileId(1));
  testbed.RunFor(Duration::Seconds(12));
  const std::optional<PlayInstanceId> live_instance = InstanceOf(system, live.id());
  const std::optional<PlayInstanceId> stopped_instance = InstanceOf(system, stopped.id());
  ASSERT_TRUE(live_instance.has_value());
  ASSERT_TRUE(stopped_instance.has_value());
  stopped.RequestStop();

  // Sample every cub just after each tick. The stopped instance's last
  // sighting is read while the cub still holds it.
  const int cubs = config.shape.num_cubs;
  std::vector<std::optional<TimePoint>> last_stopped(cubs);
  std::vector<TimePoint> first_live(cubs, TimePoint::Max());
  std::vector<int> dropped_at(cubs, -1);
  for (int k = 13; k <= 90; ++k) {
    const TimePoint tick = started + Duration::Seconds(k);
    testbed.RunUntil(tick + Duration::Millis(1));
    const TimePoint horizon = tick - seen_retention;
    for (int c = 0; c < cubs; ++c) {
      const Cub& cub = system.cub(CubId(static_cast<uint32_t>(c)));
      const std::optional<TimePoint> live_seen = cub.InstanceLastSeen(live_instance->value());
      ASSERT_TRUE(live_seen.has_value()) << "cub " << c << " forgot a playing instance at tick "
                                         << k;
      EXPECT_GE(*live_seen, horizon);
      first_live[c] = std::min(first_live[c], *live_seen);
      const std::optional<TimePoint> seen = cub.InstanceLastSeen(stopped_instance->value());
      if (seen.has_value()) {
        EXPECT_GE(*seen, horizon) << "cub " << c << " kept an expired instance at tick " << k;
        last_stopped[c] = seen;
      } else if (last_stopped[c].has_value() && dropped_at[c] < 0) {
        dropped_at[c] = k;
        EXPECT_LT(*last_stopped[c], horizon) << "cub " << c << " dropped early at tick " << k;
      }
    }
  }
  int dropping_cubs = 0;
  for (int c = 0; c < cubs; ++c) {
    // The playing instance's first sampled sighting would have aged out well
    // before the last tick; it is still held because it was re-sighted.
    EXPECT_LT(first_live[c] + seen_retention, started + Duration::Seconds(90)) << "cub " << c;
    if (last_stopped[c].has_value()) {
      EXPECT_GE(dropped_at[c], 0) << "cub " << c << " never aged out the stopped instance";
      ++dropping_cubs;
    }
  }
  EXPECT_GT(dropping_cubs, 0);
}

// Hands every message to `cub`, first checking that each viewer-state batch
// lists its records in strictly ascending (due, key) order.
class BatchOrderSpy : public NetworkEndpoint {
 public:
  explicit BatchOrderSpy(Cub* cub) : cub_(cub) {}

  void HandleMessage(const MessageEnvelope& envelope) override {
    const auto& msg = static_cast<const TigerMessage&>(*envelope.payload);
    if (msg.kind == MsgKind::kViewerStateBatch) {
      static_cast<const ViewerStateBatchMsg&>(msg).DecodeInto(&records_);
      if (records_.size() > 1) {
        ++multi_record_batches;
      }
      for (size_t i = 1; i < records_.size(); ++i) {
        if (std::pair(records_[i].due, records_[i].DedupKey()) <=
            std::pair(records_[i - 1].due, records_[i - 1].DedupKey())) {
          ++out_of_order;
        }
      }
    }
    cub_->HandleMessage(envelope);
  }

  int multi_record_batches = 0;
  int out_of_order = 0;

 private:
  Cub* cub_;
  std::vector<ViewerStateRecord> records_;
};

// An entry `cub` still has to forward, and its successor's due time.
struct PendingForward {
  ScheduleView::EntryRef ref;
  TimePoint next_due;
};

std::vector<PendingForward> PendingForwards(const Cub& cub) {
  std::vector<PendingForward> pending;
  cub.view().ForEachEntry([&](const ScheduleEntry& entry) {
    if (entry.forwarded || entry.backup_only) {
      return;
    }
    if (std::optional<ViewerStateRecord> next = cub.SuccessorRecord(entry.record())) {
      pending.push_back(PendingForward{cub.view().RefOf(entry), next->due});
    }
  });
  return pending;
}

TEST(CubProtocolTest, ForwardQueueFlushesWhenTheWalkWould) {
  // The oracle is the walk the forward queue replaced: at a tick, a cub
  // flushes iff some pending entry's trigger (successor due − minVStateLead −
  // ForwardSafety) has come, and a flush forwards every pending entry whose
  // successor is due within maxVStateLead, and nothing else. The walk is run
  // over each cub's view just before every 100 ms forward tick and checked
  // just after it. A power cut re-arms forwarding on the survivors; the
  // revival is a rejoin.
  int64_t flushes = 0;
  int64_t boundary_forwards = 0;  // Successor due − maxVStateLead == the tick.
  int64_t multi_record_batches = 0;
  int64_t failures_detected = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    TigerConfig config = SmallConfig();
    // A NIC of five streams per disk makes the slots 200 ms wide, so every
    // due time sits on the 100 ms forward grid. With an 8.8 s maxVStateLead,
    // some successors then come due exactly at a flush's horizon, the edge
    // case of its `<=`.
    config.cub_nic_bps = config.max_stream_bps * 5;
    config.max_vstate_lead = Duration::Millis(8'800);
    // Off the forward grid: a deadman re-arm on a tick's instant would run
    // before that tick, after the oracle's snapshot.
    config.heartbeat_interval = Duration::Micros(512'300);
    Testbed testbed(config, 700 + seed);
    TigerSystem& system = testbed.system();
    testbed.AddContent(4, Duration::Seconds(120));
    const int cubs = config.shape.num_cubs;
    std::vector<std::unique_ptr<BatchOrderSpy>> spies;
    for (int c = 0; c < cubs; ++c) {
      Cub& cub = system.cub(CubId(static_cast<uint32_t>(c)));
      spies.push_back(std::make_unique<BatchOrderSpy>(&cub));
      system.net().Reassign(cub.address(), spies.back().get());
    }
    const TimePoint start = system.sim().Now();  // Forward ticks: every 100 ms from here.
    testbed.Start();
    // Twelve viewers join in the first 5 s. One cub is cut at the first tick
    // from `cut` on at which its queue holds items, and revived 12 s later.
    Rng rng(seed);
    std::vector<std::pair<int, FileId>> joins(12);
    for (auto& [join_tick, file] : joins) {
      join_tick = static_cast<int>(rng.UniformInt(1, 50));
      file = FileId(static_cast<uint32_t>(rng.PickIndex(4)));
    }
    const CubId victim(static_cast<uint32_t>(rng.PickIndex(cubs)));
    const int cut = static_cast<int>(rng.UniformInt(150, 250));
    int revive = -1;  // Set when the cut lands.
    const Duration min_lead = config.min_vstate_lead;
    const Duration max_lead = config.max_vstate_lead;

    int violations = 0;
    std::string first_violation;
    auto violation = [&](const std::string& what, int cub, TimePoint tick) {
      if (violations++ == 0) {
        first_violation = "seed " + std::to_string(seed) + " cub " + std::to_string(cub) +
                          " tick " + std::to_string(tick.micros()) + ": " + what;
      }
    };
    std::vector<std::vector<PendingForward>> before(cubs);
    std::vector<bool> flush(cubs);
    for (int k = 1; k <= 600; ++k) {
      const TimePoint tick = start + config.forward_interval * k;
      testbed.RunUntil(tick - Duration::Micros(1));
      for (int c = 0; c < cubs; ++c) {
        const Cub& cub = system.cub(CubId(static_cast<uint32_t>(c)));
        before[c] = PendingForwards(cub);
        flush[c] = false;
        for (const PendingForward& p : before[c]) {
          flush[c] = flush[c] || p.next_due - min_lead - cub.ForwardSafety() <= tick;
        }
        flushes += flush[c] ? 1 : 0;
      }
      if (k == revive) {
        // On the forward grid, so the rejoined cub ticks with the others.
        testbed.RunUntil(tick);
        system.ReviveCubNow(victim);
        EXPECT_EQ(system.cub(victim).forward_queue_size(), 0u)
            << "a rejoined cub must forget its pending forwards";
      }
      testbed.RunUntil(tick + Duration::Micros(1));
      for (int c = 0; c < cubs; ++c) {
        const Cub& cub = system.cub(CubId(static_cast<uint32_t>(c)));
        if (system.IsCubFailed(cub.id()) || (k == revive && cub.id() == victim)) {
          continue;
        }
        for (const PendingForward& p : before[c]) {
          const ScheduleEntry* entry = cub.view().Get(p.ref);
          if (entry == nullptr || entry->backup_only) {
            continue;  // Descheduled, evicted or taken over.
          }
          const bool due = flush[c] && p.next_due - max_lead <= tick;
          if (due && !entry->forwarded) {
            violation("a flush left a record within maxVStateLead behind", c, tick);
          } else if (!due && entry->forwarded) {
            violation("forwarded a record the walk would have held", c, tick);
          }
          boundary_forwards += due && p.next_due - max_lead == tick ? 1 : 0;
        }
        for (const PendingForward& p : PendingForwards(cub)) {
          if (p.next_due - min_lead - cub.ForwardSafety() <= tick) {
            violation("a due trigger did not flush", c, tick);
          }
        }
      }
      for (const auto& [join_tick, file] : joins) {
        if (join_tick == k) {
          testbed.AddViewer(file);
        }
      }
      if (revive < 0 && k >= cut && system.cub(victim).forward_queue_size() > 0) {
        system.FailCubNow(victim);
        revive = k + 120;
      }
    }
    EXPECT_EQ(violations, 0) << first_violation;
    for (const auto& spy : spies) {
      EXPECT_EQ(spy->out_of_order, 0) << "seed " << seed;
      multi_record_batches += spy->multi_record_batches;
    }
    const Cub::Counters totals = system.TotalCubCounters();
    EXPECT_EQ(totals.rejoins, 1) << "seed " << seed;
    failures_detected += totals.failures_detected;
  }
  // The scenario reaches what the checks are about.
  EXPECT_GT(flushes, 0);
  EXPECT_GT(boundary_forwards, 0);
  EXPECT_GT(multi_record_batches, 0);
  EXPECT_GT(failures_detected, 0);
}

}  // namespace
}  // namespace tiger
