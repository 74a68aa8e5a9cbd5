// Simulated network: FIFO ordering, latency, failures, pacing, accounting.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/net/network.h"
#include "src/sim/simulator.h"

namespace tiger {
namespace {

struct TestPayload : Payload {
  explicit TestPayload(int v) : value(v) {}
  int value;
};

class Recorder : public NetworkEndpoint {
 public:
  void HandleMessage(const MessageEnvelope& envelope) override {
    values.push_back(static_cast<const TestPayload&>(*envelope.payload).value);
    arrival_micros.push_back(when ? when() : 0);
  }
  std::vector<int> values;
  std::vector<int64_t> arrival_micros;
  std::function<int64_t()> when;
};

class NetTest : public ::testing::Test {
 protected:
  NetTest() : net_(&sim_, NetworkConfig{}, Rng(1)) {
    a_ = net_.Attach(&recv_a_, "a", 155000000);
    b_ = net_.Attach(&recv_b_, "b", 155000000);
    recv_a_.when = [this] { return sim_.Now().micros(); };
    recv_b_.when = [this] { return sim_.Now().micros(); };
  }

  Simulator sim_;
  Network net_;
  Recorder recv_a_;
  Recorder recv_b_;
  NetAddress a_ = kInvalidAddress;
  NetAddress b_ = kInvalidAddress;
};

TEST_F(NetTest, MessagesBetweenOnePairArriveInOrder) {
  // TCP-like FIFO: even with jitter, order within a pair is preserved —
  // the insert-after-deschedule argument of §4.1.3 depends on this.
  for (int i = 0; i < 200; ++i) {
    net_.Send(a_, b_, 100, std::make_shared<TestPayload>(i));
  }
  sim_.Run();
  ASSERT_EQ(recv_b_.values.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(recv_b_.values[static_cast<size_t>(i)], i);
  }
}

TEST_F(NetTest, LatencyWithinConfiguredBounds) {
  NetworkConfig config;
  net_.Send(a_, b_, 100, std::make_shared<TestPayload>(0));
  sim_.Run();
  ASSERT_EQ(recv_b_.arrival_micros.size(), 1u);
  int64_t latency = recv_b_.arrival_micros[0];
  EXPECT_GE(latency, config.base_latency.micros());
  EXPECT_LE(latency, (config.base_latency + config.jitter).micros() +
                         TransferTime(100, config.control_channel_bps).micros());
}

TEST_F(NetTest, MessagesToDownNodeVanish) {
  net_.SetNodeUp(b_, false);
  net_.Send(a_, b_, 100, std::make_shared<TestPayload>(1));
  sim_.Run();
  EXPECT_TRUE(recv_b_.values.empty());
  // Messages already in flight when the node dies also vanish.
  net_.SetNodeUp(b_, true);
  net_.Send(a_, b_, 100, std::make_shared<TestPayload>(2));
  net_.SetNodeUp(b_, false);
  sim_.Run();
  EXPECT_TRUE(recv_b_.values.empty());
}

TEST_F(NetTest, DownNodeSendsNothing) {
  net_.SetNodeUp(a_, false);
  net_.Send(a_, b_, 100, std::make_shared<TestPayload>(1));
  sim_.Run();
  EXPECT_TRUE(recv_b_.values.empty());
  EXPECT_EQ(net_.ControlMessagesSent(a_), 0);
}

TEST_F(NetTest, PacedSendDeliversAfterTransferTime) {
  // 250000 bytes paced at 2 Mbit/s: last byte lands 1 s + latency later.
  net_.SendPaced(a_, b_, 250000, 2000000, std::make_shared<TestPayload>(9));
  sim_.Run();
  ASSERT_EQ(recv_b_.values.size(), 1u);
  EXPECT_GE(recv_b_.arrival_micros[0], 1000000 + 300);
  EXPECT_LE(recv_b_.arrival_micros[0], 1000000 + 300 + 200);
}

TEST_F(NetTest, PacedBandwidthAccounting) {
  net_.SendPaced(a_, b_, 250000, 2000000, std::make_shared<TestPayload>(1));
  net_.SendPaced(a_, b_, 250000, 2000000, std::make_shared<TestPayload>(2));
  EXPECT_EQ(net_.CurrentDataRate(a_), 4000000);
  EXPECT_EQ(net_.PeakDataRate(a_), 4000000);
  sim_.Run();
  EXPECT_EQ(net_.CurrentDataRate(a_), 0);
  EXPECT_EQ(net_.OversubscriptionEvents(a_), 0);
  EXPECT_DOUBLE_EQ(net_.DataBytesSent(a_).Total(), 500000.0);
}

TEST_F(NetTest, BackToBackPacedTransfersShareTheBoundaryInstant) {
  // A NIC with room for exactly one 2 Mbit/s stream. Back-to-back schedule
  // windows share a boundary: the second block starts at the instant the
  // first one's transfer nominally ends. The first's share returns a
  // microsecond earlier, as of the next reading of the NIC, with no event.
  Recorder recv_c;
  const NetAddress c = net_.Attach(&recv_c, "c", 2000000);
  net_.SendPaced(c, b_, 250000, 2000000, std::make_shared<TestPayload>(1));
  EXPECT_EQ(net_.CurrentDataRate(c), 2000000);

  sim_.RunUntil(TimePoint::Zero() + Duration::Micros(999998));
  EXPECT_EQ(net_.CurrentDataRate(c), 2000000);
  sim_.RunUntil(TimePoint::Zero() + Duration::Micros(999999));
  EXPECT_EQ(net_.CurrentDataRate(c), 0);
  sim_.RunUntil(TimePoint::Zero() + Duration::Seconds(1));
  EXPECT_EQ(net_.CurrentDataRate(c), 0);
  EXPECT_EQ(sim_.processed_events(), 0u) << "the release must not need a timer";

  net_.SendPaced(c, b_, 250000, 2000000, std::make_shared<TestPayload>(2));
  EXPECT_EQ(net_.CurrentDataRate(c), 2000000);
  EXPECT_EQ(net_.PeakDataRate(c), 2000000);
  EXPECT_EQ(net_.OversubscriptionEvents(c), 0);
  sim_.Run();
  EXPECT_EQ(recv_b_.values, (std::vector<int>{1, 2}));
  EXPECT_EQ(net_.CurrentDataRate(c), 0);
  EXPECT_EQ(net_.PeakDataRate(c), 2000000);
  EXPECT_EQ(net_.OversubscriptionEvents(c), 0);
}

TEST_F(NetTest, OversubscriptionDetected) {
  // 90 x 2 Mbit/s = 180 Mbit/s on a 155 Mbit/s NIC.
  for (int i = 0; i < 90; ++i) {
    net_.SendPaced(a_, b_, 250000, 2000000, std::make_shared<TestPayload>(i));
  }
  EXPECT_GT(net_.OversubscriptionEvents(a_), 0);
  EXPECT_GT(net_.PeakDataRate(a_), net_.nic_bps(a_));
  sim_.Run();
}

TEST_F(NetTest, ControlTrafficAccounting) {
  net_.Send(a_, b_, 140, std::make_shared<TestPayload>(1));
  net_.Send(a_, b_, 60, std::make_shared<TestPayload>(2));
  sim_.Run();
  EXPECT_DOUBLE_EQ(net_.ControlBytesSent(a_).Total(), 200.0);
  EXPECT_EQ(net_.ControlMessagesSent(a_), 2);
  EXPECT_DOUBLE_EQ(net_.ControlBytesSent(b_).Total(), 0.0);
}

// A payload carrying an explicit fault tag, standing in for TigerMessage's
// MsgKind-derived fault_kind().
struct TaggedPayload : TestPayload {
  TaggedPayload(int v, int t) : TestPayload(v), tag(t) {}
  int fault_kind() const override { return tag; }
  int tag;
};

TEST(FaultPlanTest, AnchoredRuleStaysDormantUntilItsKindAppears) {
  NetFaultPlan plan(Rng(7));
  NetFaultPlan::Rule rule;
  rule.kind = NetFaultPlan::RuleKind::kDrop;
  rule.anchor_kind = 5;
  rule.rel_start = Duration::Zero();
  rule.rel_end = Duration::Millis(10);
  plan.AddRule(rule);

  const TimePoint t0 = TimePoint::Zero();
  // Untyped and differently-tagged traffic never arms tag 5.
  EXPECT_FALSE(plan.Apply(t0 + Duration::Millis(100), 1, 2, kNoAnchor).drop);
  EXPECT_FALSE(plan.Apply(t0 + Duration::Millis(200), 1, 2, 3).drop);
  EXPECT_EQ(plan.AnchorTime(5), TimePoint::Max());

  // The first tag-5 message arms the anchor and, with rel_start = 0, the
  // freshly armed window covers the anchoring message itself.
  EXPECT_TRUE(plan.Apply(t0 + Duration::Millis(300), 1, 2, 5).drop);
  EXPECT_EQ(plan.AnchorTime(5), t0 + Duration::Millis(300));

  // The window is relative to the first sighting and open at the right end;
  // once armed, the rule matches traffic of any kind.
  EXPECT_TRUE(plan.Apply(t0 + Duration::Millis(305), 1, 2, kNoAnchor).drop);
  EXPECT_FALSE(plan.Apply(t0 + Duration::Millis(310), 1, 2, 5).drop);
  // Later sightings do not re-arm: the anchor is the *first* appearance.
  EXPECT_EQ(plan.AnchorTime(5), t0 + Duration::Millis(300));
}

TEST(FaultPlanTest, AbsoluteRulesIgnoreAnchors) {
  NetFaultPlan plan(Rng(7));
  NetFaultPlan::Rule rule;
  rule.kind = NetFaultPlan::RuleKind::kDrop;
  rule.start = TimePoint::Zero() + Duration::Millis(50);
  rule.end = TimePoint::Zero() + Duration::Millis(60);
  plan.AddRule(rule);
  EXPECT_FALSE(plan.Apply(TimePoint::Zero() + Duration::Millis(40), 1, 2, 5).drop);
  EXPECT_TRUE(plan.Apply(TimePoint::Zero() + Duration::Millis(55), 1, 2, kNoAnchor).drop);
  EXPECT_FALSE(plan.Apply(TimePoint::Zero() + Duration::Millis(60), 1, 2, 5).drop);
}

TEST_F(NetTest, AnchoredPartitionArmsOnTheWire) {
  // Wire-level version of the frontier's "partition anchored to the first
  // deschedule": traffic flows until the tagged message appears, then the
  // anchored drop window severs the pair.
  NetFaultPlan plan{Rng(11)};
  NetFaultPlan::Rule rule;
  rule.kind = NetFaultPlan::RuleKind::kDrop;
  rule.anchor_kind = 9;
  rule.rel_start = Duration::Zero();
  rule.rel_end = Duration::Seconds(3600);
  plan.AddRule(rule);
  net_.SetFaultPlan(&plan);

  net_.Send(a_, b_, 100, std::make_shared<TestPayload>(1));
  sim_.Run();
  ASSERT_EQ(recv_b_.values.size(), 1u) << "dormant rule must not drop";

  // The anchoring message is itself inside the rel_start = 0 window.
  net_.Send(a_, b_, 100, std::make_shared<TaggedPayload>(2, 9));
  net_.Send(a_, b_, 100, std::make_shared<TestPayload>(3));
  sim_.Run();
  EXPECT_EQ(recv_b_.values.size(), 1u) << "armed window must drop everything";
}

TEST_F(NetTest, DeterministicAcrossRuns) {
  // Same seed, same arrival schedule.
  auto run = [](uint64_t seed) {
    Simulator sim;
    Network net(&sim, NetworkConfig{}, Rng(seed));
    Recorder recv;
    recv.when = [&sim] { return sim.Now().micros(); };
    NetAddress x = net.Attach(&recv, "x", 1000000);
    Recorder sink;
    NetAddress y = net.Attach(&sink, "y", 1000000);
    (void)y;
    for (int i = 0; i < 20; ++i) {
      net.Send(y, x, 100, std::make_shared<TestPayload>(i));
    }
    sim.Run();
    return recv.arrival_micros;
  };
  EXPECT_EQ(run(3), run(3));
  EXPECT_NE(run(3), run(4));
}

}  // namespace
}  // namespace tiger
