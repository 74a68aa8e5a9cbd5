#include "src/core/wire.h"

#include "src/net/payload_pool.h"

namespace tiger {

namespace {

void PutId(ByteWriter& w, ViewerId id) { w.Put<uint32_t>(id.value()); }
void PutId(ByteWriter& w, CubId id) { w.Put<uint32_t>(id.value()); }
void PutId(ByteWriter& w, DiskId id) { w.Put<uint32_t>(id.value()); }
void PutId(ByteWriter& w, FileId id) { w.Put<uint32_t>(id.value()); }
void PutId(ByteWriter& w, SlotId id) { w.Put<uint32_t>(id.value()); }
void PutId(ByteWriter& w, PlayInstanceId id) { w.Put<uint64_t>(id.value()); }

template <typename Id>
bool GetId32(ByteReader& r, Id* id) {
  uint32_t value = 0;
  if (!r.Get(&value)) {
    return false;
  }
  *id = Id(value);
  return true;
}

bool GetId64(ByteReader& r, PlayInstanceId* id) {
  uint64_t value = 0;
  if (!r.Get(&value)) {
    return false;
  }
  *id = PlayInstanceId(value);
  return true;
}

void PutDeschedule(ByteWriter& w, const DescheduleRecord& record) {
  PutId(w, record.viewer);
  PutId(w, record.instance);
  PutId(w, record.slot);
}

bool GetDeschedule(ByteReader& r, DescheduleRecord* record) {
  return GetId32(r, &record->viewer) && GetId64(r, &record->instance) &&
         GetId32(r, &record->slot);
}

void PutLineage(ByteWriter& w, const RecordLineage& lineage) {
  w.Put<uint32_t>(lineage.origin_cub);
  w.Put<uint32_t>(lineage.epoch);
  w.Put<uint16_t>(lineage.hop_count);
  w.Put<uint16_t>(lineage.flags);
  w.Put<uint64_t>(lineage.lamport);
}

bool GetLineage(ByteReader& r, RecordLineage* lineage) {
  return r.Get(&lineage->origin_cub) && r.Get(&lineage->epoch) &&
         r.Get(&lineage->hop_count) && r.Get(&lineage->flags) &&
         r.Get(&lineage->lamport);
}

}  // namespace

std::vector<uint8_t> EncodeMessage(const TigerMessage& message) {
  ByteWriter w;
  w.Put<uint8_t>(static_cast<uint8_t>(message.kind));
  switch (message.kind) {
    case MsgKind::kViewerStateBatch: {
      const auto& msg = static_cast<const ViewerStateBatchMsg&>(message);
      w.Put<uint32_t>(static_cast<uint32_t>(msg.wire_records.size()));
      for (const auto& record : msg.wire_records) {
        w.PutBytes(record.data(), record.size());
      }
      break;
    }
    case MsgKind::kDeschedule: {
      const auto& msg = static_cast<const DescheduleMsg&>(message);
      PutDeschedule(w, msg.record);
      PutLineage(w, msg.lineage);
      break;
    }
    case MsgKind::kStartPlay: {
      const auto& msg = static_cast<const StartPlayMsg&>(message);
      PutId(w, msg.viewer);
      w.Put<uint32_t>(msg.client_address);
      PutId(w, msg.instance);
      PutId(w, msg.file);
      w.Put<int64_t>(msg.bitrate_bps);
      w.Put<int64_t>(msg.start_position);
      w.Put<uint8_t>(msg.redundant ? 1 : 0);
      PutLineage(w, msg.lineage);
      break;
    }
    case MsgKind::kStartConfirm: {
      const auto& msg = static_cast<const StartConfirmMsg&>(message);
      PutId(w, msg.viewer);
      PutId(w, msg.instance);
      PutId(w, msg.slot);
      PutId(w, msg.file);
      w.Put<int64_t>(msg.first_block_due.micros());
      break;
    }
    case MsgKind::kHeartbeat: {
      const auto& msg = static_cast<const HeartbeatMsg&>(message);
      PutId(w, msg.from);
      break;
    }
    case MsgKind::kFailureNotice: {
      const auto& msg = static_cast<const FailureNoticeMsg&>(message);
      PutId(w, msg.failed_cub);
      PutId(w, msg.failed_disk);
      PutId(w, msg.reporter);
      break;
    }
    case MsgKind::kBlockData: {
      const auto& msg = static_cast<const BlockDataMsg&>(message);
      PutId(w, msg.viewer);
      PutId(w, msg.instance);
      PutId(w, msg.file);
      w.Put<int64_t>(msg.position);
      w.Put<int32_t>(msg.mirror_fragment);
      w.Put<int64_t>(msg.content_bytes);
      w.Put<int64_t>(msg.due.micros());
      break;
    }
    case MsgKind::kClientRequest: {
      const auto& msg = static_cast<const ClientRequestMsg&>(message);
      w.Put<uint8_t>(msg.op == ClientRequestMsg::Op::kStart ? 0 : 1);
      PutId(w, msg.viewer);
      w.Put<uint32_t>(msg.client_address);
      PutId(w, msg.file);
      w.Put<int64_t>(msg.start_position);
      PutId(w, msg.instance);
      break;
    }
    case MsgKind::kReserveRequest: {
      const auto& msg = static_cast<const ReserveRequestMsg&>(message);
      PutId(w, msg.from);
      PutId(w, msg.viewer);
      PutId(w, msg.instance);
      w.Put<int64_t>(msg.start_offset.micros());
      w.Put<int64_t>(msg.bitrate_bps);
      break;
    }
    case MsgKind::kReserveReply: {
      const auto& msg = static_cast<const ReserveReplyMsg&>(message);
      PutId(w, msg.from);
      PutId(w, msg.instance);
      w.Put<uint8_t>(msg.ok ? 1 : 0);
      break;
    }
    case MsgKind::kRejoinRequest: {
      const auto& msg = static_cast<const RejoinRequestMsg&>(message);
      PutId(w, msg.from);
      break;
    }
    case MsgKind::kRejoinReply: {
      const auto& msg = static_cast<const RejoinReplyMsg&>(message);
      PutId(w, msg.from);
      w.Put<uint32_t>(static_cast<uint32_t>(msg.failed_cubs.size()));
      for (CubId cub : msg.failed_cubs) {
        PutId(w, cub);
      }
      w.Put<uint32_t>(static_cast<uint32_t>(msg.failed_disks.size()));
      for (DiskId disk : msg.failed_disks) {
        PutId(w, disk);
      }
      w.Put<uint32_t>(static_cast<uint32_t>(msg.wire_records.size()));
      for (const auto& record : msg.wire_records) {
        w.PutBytes(record.data(), record.size());
      }
      break;
    }
  }
  return w.Take();
}

std::shared_ptr<TigerMessage> DecodeMessage(const std::vector<uint8_t>& frame) {
  ByteReader r(frame);
  uint8_t kind_byte = 0;
  if (!r.Get(&kind_byte) || kind_byte > static_cast<uint8_t>(MsgKind::kRejoinReply)) {
    return nullptr;
  }
  const MsgKind kind = static_cast<MsgKind>(kind_byte);
  switch (kind) {
    case MsgKind::kViewerStateBatch: {
      auto msg = MakePooledMessage<ViewerStateBatchMsg>();
      uint32_t count = 0;
      if (!r.Get(&count)) {
        return nullptr;
      }
      msg->wire_records.resize(count);
      for (auto& record : msg->wire_records) {
        if (!r.GetBytes(record.data(), record.size())) {
          return nullptr;
        }
        if (!ViewerStateRecord::Decode(record).has_value()) {
          return nullptr;  // Structurally valid frame, corrupt record.
        }
      }
      return msg;
    }
    case MsgKind::kDeschedule: {
      auto msg = MakePooledMessage<DescheduleMsg>();
      if (!GetDeschedule(r, &msg->record) || !GetLineage(r, &msg->lineage)) {
        return nullptr;
      }
      return msg;
    }
    case MsgKind::kStartPlay: {
      auto msg = MakePooledMessage<StartPlayMsg>();
      uint8_t redundant = 0;
      if (!GetId32(r, &msg->viewer) || !r.Get(&msg->client_address) ||
          !GetId64(r, &msg->instance) || !GetId32(r, &msg->file) ||
          !r.Get(&msg->bitrate_bps) || !r.Get(&msg->start_position) || !r.Get(&redundant) ||
          !GetLineage(r, &msg->lineage)) {
        return nullptr;
      }
      msg->redundant = redundant != 0;
      return msg;
    }
    case MsgKind::kStartConfirm: {
      auto msg = MakePooledMessage<StartConfirmMsg>();
      int64_t due = 0;
      if (!GetId32(r, &msg->viewer) || !GetId64(r, &msg->instance) ||
          !GetId32(r, &msg->slot) || !GetId32(r, &msg->file) || !r.Get(&due)) {
        return nullptr;
      }
      msg->first_block_due = TimePoint::FromMicros(due);
      return msg;
    }
    case MsgKind::kHeartbeat: {
      auto msg = MakePooledMessage<HeartbeatMsg>();
      if (!GetId32(r, &msg->from)) {
        return nullptr;
      }
      return msg;
    }
    case MsgKind::kFailureNotice: {
      auto msg = MakePooledMessage<FailureNoticeMsg>();
      if (!GetId32(r, &msg->failed_cub) || !GetId32(r, &msg->failed_disk) ||
          !GetId32(r, &msg->reporter)) {
        return nullptr;
      }
      return msg;
    }
    case MsgKind::kBlockData: {
      auto msg = MakePooledMessage<BlockDataMsg>();
      int64_t due = 0;
      if (!GetId32(r, &msg->viewer) || !GetId64(r, &msg->instance) ||
          !GetId32(r, &msg->file) || !r.Get(&msg->position) || !r.Get(&msg->mirror_fragment) ||
          !r.Get(&msg->content_bytes) || !r.Get(&due)) {
        return nullptr;
      }
      msg->due = TimePoint::FromMicros(due);
      return msg;
    }
    case MsgKind::kClientRequest: {
      auto msg = MakePooledMessage<ClientRequestMsg>();
      uint8_t op = 0;
      if (!r.Get(&op) || !GetId32(r, &msg->viewer) || !r.Get(&msg->client_address) ||
          !GetId32(r, &msg->file) || !r.Get(&msg->start_position) ||
          !GetId64(r, &msg->instance)) {
        return nullptr;
      }
      msg->op = op == 0 ? ClientRequestMsg::Op::kStart : ClientRequestMsg::Op::kStop;
      return msg;
    }
    case MsgKind::kReserveRequest: {
      auto msg = MakePooledMessage<ReserveRequestMsg>();
      int64_t offset = 0;
      if (!GetId32(r, &msg->from) || !GetId32(r, &msg->viewer) ||
          !GetId64(r, &msg->instance) || !r.Get(&offset) || !r.Get(&msg->bitrate_bps)) {
        return nullptr;
      }
      msg->start_offset = Duration::Micros(offset);
      return msg;
    }
    case MsgKind::kReserveReply: {
      auto msg = MakePooledMessage<ReserveReplyMsg>();
      uint8_t ok = 0;
      if (!GetId32(r, &msg->from) || !GetId64(r, &msg->instance) || !r.Get(&ok)) {
        return nullptr;
      }
      msg->ok = ok != 0;
      return msg;
    }
    case MsgKind::kRejoinRequest: {
      auto msg = MakePooledMessage<RejoinRequestMsg>();
      if (!GetId32(r, &msg->from)) {
        return nullptr;
      }
      return msg;
    }
    case MsgKind::kRejoinReply: {
      auto msg = MakePooledMessage<RejoinReplyMsg>();
      uint32_t count = 0;
      if (!GetId32(r, &msg->from) || !r.Get(&count)) {
        return nullptr;
      }
      msg->failed_cubs.resize(count);
      for (CubId& cub : msg->failed_cubs) {
        if (!GetId32(r, &cub)) {
          return nullptr;
        }
      }
      if (!r.Get(&count)) {
        return nullptr;
      }
      msg->failed_disks.resize(count);
      for (DiskId& disk : msg->failed_disks) {
        if (!GetId32(r, &disk)) {
          return nullptr;
        }
      }
      if (!r.Get(&count)) {
        return nullptr;
      }
      msg->wire_records.resize(count);
      for (auto& record : msg->wire_records) {
        if (!r.GetBytes(record.data(), record.size())) {
          return nullptr;
        }
        if (!ViewerStateRecord::Decode(record).has_value()) {
          return nullptr;
        }
      }
      return msg;
    }
  }
  return nullptr;
}

}  // namespace tiger
