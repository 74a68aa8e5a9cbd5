// Wire codec and real TCP transport.

#include <gtest/gtest.h>

#include <thread>

#include "src/core/wire.h"
#include "src/net/tcp_transport.h"

namespace tiger {
namespace {

ViewerStateRecord SampleRecord(uint64_t instance) {
  ViewerStateRecord record;
  record.viewer = ViewerId(static_cast<uint32_t>(instance));
  record.client_address = 42;
  record.instance = PlayInstanceId(instance);
  record.file = FileId(3);
  record.position = 77;
  record.slot = SlotId(100);
  record.sequence = 5;
  record.bitrate_bps = Megabits(2);
  record.due = TimePoint::FromMicros(123456789);
  return record;
}

TEST(WireTest, ViewerStateBatchRoundTrip) {
  ViewerStateBatchMsg msg;
  msg.Add(SampleRecord(1));
  msg.Add(SampleRecord(2));
  auto frame = EncodeMessage(msg);
  auto decoded = DecodeMessage(frame);
  ASSERT_NE(decoded, nullptr);
  ASSERT_EQ(decoded->kind, MsgKind::kViewerStateBatch);
  auto& batch = static_cast<ViewerStateBatchMsg&>(*decoded);
  auto records = batch.Decode();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].instance, PlayInstanceId(1));
  EXPECT_EQ(records[1].instance, PlayInstanceId(2));
  EXPECT_EQ(records[1].position, 77);
}

TEST(WireTest, EveryControlMessageRoundTrips) {
  {
    DescheduleMsg msg;
    msg.record = DescheduleRecord{ViewerId(1), PlayInstanceId(2), SlotId(3)};
    msg.lineage.origin_cub = kControllerLineageOrigin;
    msg.lineage.epoch = 5;
    msg.lineage.hop_count = 2;
    msg.lineage.lamport = 99;
    msg.lineage.MarkTagged();
    auto decoded = DecodeMessage(EncodeMessage(msg));
    ASSERT_NE(decoded, nullptr);
    auto& out = static_cast<DescheduleMsg&>(*decoded);
    EXPECT_EQ(out.record, msg.record);
    EXPECT_TRUE(out.lineage.tagged());
    EXPECT_EQ(out.lineage.ChainId(), msg.lineage.ChainId());
    EXPECT_EQ(out.lineage.hop_count, 2);
    EXPECT_EQ(out.lineage.lamport, 99u);
  }
  {
    StartPlayMsg msg;
    msg.viewer = ViewerId(9);
    msg.client_address = 77;
    msg.instance = PlayInstanceId(123);
    msg.file = FileId(4);
    msg.bitrate_bps = Megabits(4);
    msg.start_position = 55;
    msg.redundant = true;
    msg.lineage.origin_cub = kControllerLineageOrigin;
    msg.lineage.epoch = 8;
    msg.lineage.lamport = 3;
    msg.lineage.MarkTagged();
    auto decoded = DecodeMessage(EncodeMessage(msg));
    ASSERT_NE(decoded, nullptr);
    auto& out = static_cast<StartPlayMsg&>(*decoded);
    EXPECT_EQ(out.viewer, msg.viewer);
    EXPECT_EQ(out.instance, msg.instance);
    EXPECT_EQ(out.start_position, 55);
    EXPECT_TRUE(out.redundant);
    EXPECT_TRUE(out.lineage.tagged());
    EXPECT_EQ(out.lineage.ChainId(), msg.lineage.ChainId());
    EXPECT_EQ(out.lineage.lamport, 3u);
  }
  {
    StartConfirmMsg msg;
    msg.viewer = ViewerId(1);
    msg.instance = PlayInstanceId(2);
    msg.slot = SlotId(3);
    msg.file = FileId(4);
    msg.first_block_due = TimePoint::FromMicros(5000000);
    auto decoded = DecodeMessage(EncodeMessage(msg));
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(static_cast<StartConfirmMsg&>(*decoded).first_block_due,
              TimePoint::FromMicros(5000000));
  }
  {
    HeartbeatMsg msg;
    msg.from = CubId(11);
    auto decoded = DecodeMessage(EncodeMessage(msg));
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(static_cast<HeartbeatMsg&>(*decoded).from, CubId(11));
  }
  {
    FailureNoticeMsg msg;
    msg.failed_cub = CubId(5);
    msg.reporter = CubId(6);
    auto decoded = DecodeMessage(EncodeMessage(msg));
    ASSERT_NE(decoded, nullptr);
    auto& out = static_cast<FailureNoticeMsg&>(*decoded);
    EXPECT_EQ(out.failed_cub, CubId(5));
    EXPECT_FALSE(out.failed_disk.valid());
  }
  {
    ClientRequestMsg msg;
    msg.op = ClientRequestMsg::Op::kStop;
    msg.viewer = ViewerId(31);
    msg.start_position = 17;
    auto decoded = DecodeMessage(EncodeMessage(msg));
    ASSERT_NE(decoded, nullptr);
    auto& out = static_cast<ClientRequestMsg&>(*decoded);
    EXPECT_EQ(out.op, ClientRequestMsg::Op::kStop);
    EXPECT_EQ(out.start_position, 17);
  }
  {
    ReserveRequestMsg msg;
    msg.from = CubId(2);
    msg.viewer = ViewerId(3);
    msg.instance = PlayInstanceId(4);
    msg.start_offset = Duration::Millis(750);
    msg.bitrate_bps = Megabits(6);
    auto decoded = DecodeMessage(EncodeMessage(msg));
    ASSERT_NE(decoded, nullptr);
    auto& out = static_cast<ReserveRequestMsg&>(*decoded);
    EXPECT_EQ(out.start_offset, Duration::Millis(750));
    EXPECT_EQ(out.bitrate_bps, Megabits(6));
  }
  {
    ReserveReplyMsg msg;
    msg.from = CubId(1);
    msg.instance = PlayInstanceId(2);
    msg.ok = true;
    auto decoded = DecodeMessage(EncodeMessage(msg));
    ASSERT_NE(decoded, nullptr);
    EXPECT_TRUE(static_cast<ReserveReplyMsg&>(*decoded).ok);
  }
  {
    BlockDataMsg msg;
    msg.viewer = ViewerId(1);
    msg.instance = PlayInstanceId(2);
    msg.file = FileId(3);
    msg.position = 4;
    msg.mirror_fragment = 2;
    msg.content_bytes = 62500;
    msg.due = TimePoint::FromMicros(777);
    auto decoded = DecodeMessage(EncodeMessage(msg));
    ASSERT_NE(decoded, nullptr);
    auto& out = static_cast<BlockDataMsg&>(*decoded);
    EXPECT_EQ(out.mirror_fragment, 2);
    EXPECT_EQ(out.content_bytes, 62500);
  }
}

TEST(WireTest, TruncatedAndCorruptFramesRejected) {
  StartPlayMsg msg;
  msg.viewer = ViewerId(9);
  auto frame = EncodeMessage(msg);
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    std::vector<uint8_t> truncated(frame.begin(),
                                   frame.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_EQ(DecodeMessage(truncated), nullptr) << "cut at " << cut;
  }
  std::vector<uint8_t> bad_kind = frame;
  bad_kind[0] = 0xEE;
  EXPECT_EQ(DecodeMessage(bad_kind), nullptr);
  bad_kind[0] = static_cast<uint8_t>(MsgKind::kRejoinReply) + 1;
  EXPECT_EQ(DecodeMessage(bad_kind), nullptr);
}

TEST(TcpTransportTest, FramesArriveIntactAndInOrder) {
  TcpListener listener(0);
  ASSERT_TRUE(listener.valid());
  const uint16_t port = listener.port();

  std::thread sender([port] {
    TcpSocket socket = TcpConnect(port);
    ASSERT_TRUE(socket.valid());
    for (int i = 0; i < 100; ++i) {
      HeartbeatMsg beat;
      beat.from = CubId(static_cast<uint32_t>(i));
      ASSERT_TRUE(socket.SendFrame(EncodeMessage(beat)));
    }
  });
  TcpSocket receiver = listener.Accept();
  ASSERT_TRUE(receiver.valid());
  for (int i = 0; i < 100; ++i) {
    auto frame = receiver.RecvFrame();
    ASSERT_TRUE(frame.has_value()) << "frame " << i;
    auto decoded = DecodeMessage(*frame);
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(static_cast<HeartbeatMsg&>(*decoded).from.value(), static_cast<uint32_t>(i));
  }
  sender.join();
}

TEST(TcpTransportTest, LargeBatchFrame) {
  TcpListener listener(0);
  ASSERT_TRUE(listener.valid());
  std::thread sender([port = listener.port()] {
    TcpSocket socket = TcpConnect(port);
    ViewerStateBatchMsg batch;
    for (uint64_t i = 0; i < 5000; ++i) {
      batch.Add(SampleRecord(i));
    }
    ASSERT_TRUE(socket.SendFrame(EncodeMessage(batch)));
  });
  TcpSocket receiver = listener.Accept();
  auto frame = receiver.RecvFrame();
  sender.join();
  ASSERT_TRUE(frame.has_value());
  auto decoded = DecodeMessage(*frame);
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(static_cast<ViewerStateBatchMsg&>(*decoded).wire_records.size(), 5000u);
}

TEST(TcpTransportTest, PeerCloseDetected) {
  TcpListener listener(0);
  std::thread peer([port = listener.port()] {
    TcpSocket socket = TcpConnect(port);
    // Close immediately.
  });
  TcpSocket receiver = listener.Accept();
  peer.join();
  auto frame = receiver.RecvFrame();
  EXPECT_FALSE(frame.has_value());
  EXPECT_TRUE(receiver.closed());
}

TEST(TcpTransportTest, RecvTimeout) {
  TcpListener listener(0);
  std::thread peer([port = listener.port()] {
    TcpSocket socket = TcpConnect(port);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  });
  TcpSocket receiver = listener.Accept();
  auto frame = receiver.RecvFrameWithTimeout(20);
  EXPECT_FALSE(frame.has_value());
  EXPECT_FALSE(receiver.closed());
  peer.join();
}

}  // namespace
}  // namespace tiger
