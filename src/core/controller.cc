#include "src/core/controller.h"

#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/net/payload_pool.h"

namespace tiger {

Controller::Controller(Simulator* sim, const TigerConfig* config, const Catalog* catalog,
                       const StripeLayout* layout, MessageBus* net)
    : Actor(sim, "controller"),
      config_(config),
      catalog_(catalog),
      layout_(layout),
      net_(net),
      failure_view_(config->shape) {
  address_ = net_->Attach(this, name(), config->controller_nic_bps);
  // Periodic purge of routing stubs for plays that ran to end of file.
  After(Duration::Seconds(60), [this] { PurgeTick(); });
  // Clock-master / contact-point background work, independent of load.
  After(Duration::Millis(100), [this] { BackgroundTick(); });
}

void Controller::HandleMessage(const MessageEnvelope& envelope) {
  if (halted()) {
    return;
  }
  const auto& msg = static_cast<const TigerMessage&>(*envelope.payload);
  if (msg.kind == MsgKind::kHeartbeat) {
    if (active_) {
      // Echo standby pings so the standby knows we are alive.
      auto echo = MakePooledMessage<HeartbeatMsg>();
      echo->from = CubId::Invalid();
      net_->Send(address_, envelope.src, HeartbeatMsg::WireBytes(), std::move(echo));
    } else {
      last_primary_echo_ = Now();
    }
    return;
  }
  if (!active_) {
    return;  // A standby serves nothing until it takes over.
  }
  switch (msg.kind) {
    case MsgKind::kClientRequest:
      OnClientRequest(static_cast<const ClientRequestMsg&>(msg));
      break;
    case MsgKind::kStartConfirm:
      OnStartConfirm(static_cast<const StartConfirmMsg&>(msg));
      break;
    case MsgKind::kFailureNotice:
      OnFailureNotice(static_cast<const FailureNoticeMsg&>(msg));
      break;
    case MsgKind::kRejoinRequest: {
      // A crashed cub restarted: route new starts to it again.
      const auto& rejoin = static_cast<const RejoinRequestMsg&>(msg);
      failure_view_.MarkCubAlive(rejoin.from);
      for (int d = 0; d < config_->shape.disks_per_cub; ++d) {
        failure_view_.MarkDiskAlive(config_->shape.GlobalDiskIndex(rejoin.from, d));
      }
      break;
    }
    default:
      break;
  }
}

void Controller::BecomeStandbyFor(NetAddress primary) {
  active_ = false;
  primary_address_ = primary;
  // Disjoint instance namespace so post-failover assignments never collide
  // with the primary's.
  next_instance_ = uint64_t{1} << 32;
  last_primary_echo_ = Now();
  After(config_->heartbeat_interval, [this] { MonitorTick(); });
}

void Controller::MonitorTick() {
  if (active_) {
    return;
  }
  auto ping = MakePooledMessage<HeartbeatMsg>();
  ping->from = CubId::Invalid();
  net_->Send(address_, primary_address_, HeartbeatMsg::WireBytes(), std::move(ping));
  if (Now() - last_primary_echo_ > config_->deadman_timeout) {
    TakeOver();
    return;
  }
  After(config_->heartbeat_interval, [this] { MonitorTick(); });
}

void Controller::TakeOver() {
  TIGER_LOG(kWarning, name()) << "standby taking over the controller address";
  active_ = true;
  took_over_ = true;
  // IP takeover: the well-known controller address now reaches us. Clients
  // and cubs notice nothing.
  net_->Reassign(primary_address_, this);
  address_ = primary_address_;
}

void Controller::OnClientRequest(const ClientRequestMsg& msg) {
  cpu_.Add(Now(), static_cast<double>(config_->cpu.controller_per_request.micros()));
  if (msg.op == ClientRequestMsg::Op::kStart) {
    RouteStart(msg);
  } else {
    RouteStop(msg);
  }
}

RecordLineage Controller::MintMessageLineage() {
  RecordLineage lineage;
  lineage.origin_cub = kControllerLineageOrigin;
  lineage.epoch = next_msg_epoch_++;
  lineage.MarkTagged();
  lineage.lamport = ++lamport_;
  return lineage;
}

CubId Controller::TargetCubForDisk(DiskId disk) const {
  CubId owner = config_->shape.CubOfDisk(disk);
  if (failure_view_.IsCubFailed(owner)) {
    owner = failure_view_.FirstLivingSuccessor(owner);
  }
  return owner;
}

void Controller::RouteStart(const ClientRequestMsg& msg) {
  counters_.starts_routed++;
  TIGER_CHECK(catalog_->Contains(msg.file)) << "start request for unknown file " << msg.file;
  const FileInfo& file = catalog_->Get(msg.file);

  TIGER_CHECK(msg.start_position >= 0 && msg.start_position < file.block_count)
      << "seek out of range";
  PlayStub stub;
  stub.viewer = msg.viewer;
  stub.client_address = msg.client_address;
  stub.file = msg.file;
  stub.start_position = msg.start_position;
  PlayInstanceId instance(next_instance_++);
  plays_.emplace(instance.value(), stub);
  newest_play_.insert_or_assign(msg.viewer, instance.value());

  auto start = MakePooledMessage<StartPlayMsg>();
  start->viewer = msg.viewer;
  start->client_address = msg.client_address;
  start->instance = instance;
  start->file = msg.file;
  start->bitrate_bps = file.bitrate_bps;
  start->start_position = msg.start_position;
  start->lineage = MintMessageLineage();

  DiskId first_disk = layout_->PrimaryDisk(file, msg.start_position);
  CubId primary = TargetCubForDisk(first_disk);
  net_->Send(address_, addresses_->CubAddress(primary), StartPlayMsg::WireBytes(), start);

  // Redundant copy to the successor, used if the primary cub fails (§4.1.3).
  auto redundant = MakePooledMessage<StartPlayMsg>(*start);
  redundant->redundant = true;
  CubId backup = failure_view_.FirstLivingSuccessor(primary);
  net_->Send(address_, addresses_->CubAddress(backup), StartPlayMsg::WireBytes(),
             std::move(redundant));
}

void Controller::RouteStop(const ClientRequestMsg& msg) {
  counters_.stops_routed++;
  // Find the viewer's active play: the instance the client names, else the
  // viewer's newest one.
  auto play = plays_.end();
  if (msg.instance.valid()) {
    play = plays_.find(msg.instance.value());
  } else if (auto newest = newest_play_.find(msg.viewer); newest != newest_play_.end()) {
    play = plays_.find(newest->second);
  }
  if (play != plays_.end() && play->second.viewer != msg.viewer) {
    play = plays_.end();  // Not this viewer's play to stop.
  }
  if (play == plays_.end()) {
    // No routing stub — either the play already ended, or this controller is
    // a freshly promoted standby that never saw the start. If the client told
    // us the play instance, broadcast the kill: every cub purges queues and
    // recovers the slot from its own view (§4.1.2's semantics make stray
    // copies harmless). Stops are rare, so n messages once is cheap.
    if (msg.instance.valid()) {
      auto deschedule = MakePooledMessage<DescheduleMsg>();
      deschedule->record =
          DescheduleRecord{msg.viewer, msg.instance, SlotId::Invalid()};
      deschedule->lineage = MintMessageLineage();
      for (int cub = 0; cub < config_->shape.num_cubs; ++cub) {
        CubId target(static_cast<uint32_t>(cub));
        if (!failure_view_.IsCubFailed(target)) {
          net_->Send(address_, addresses_->CubAddress(target), DescheduleMsg::WireBytes(),
                     deschedule);
        }
      }
    }
    return;
  }
  const PlayStub& stub = play->second;
  const FileInfo& file = catalog_->Get(stub.file);

  DescheduleRecord record;
  record.viewer = stub.viewer;
  record.instance = PlayInstanceId(play->first);
  CubId target;
  if (stub.confirmed) {
    record.slot = stub.slot;
    // "The controller determines from which cub the viewer is receiving
    // data" (§4.1.2): blocks advance one disk per block play time from the
    // start disk.
    int64_t blocks_played = (Now() - stub.first_block_due) / config_->block_play_time;
    if (blocks_played < 0) {
      blocks_played = 0;
    }
    int64_t next_block =
        std::min(stub.start_position + blocks_played + 1, file.block_count - 1);
    DiskId serving = layout_->PrimaryDisk(file, next_block);
    target = TargetCubForDisk(serving);
  } else {
    // Not yet inserted anywhere we know of: tell the cubs that hold (or held)
    // the queued request. The slot stays invalid; cubs purge their queues and
    // recover the slot from their own view if the insertion raced us.
    record.slot = SlotId::Invalid();
    target = TargetCubForDisk(layout_->PrimaryDisk(file, stub.start_position));
  }
  ErasePlay(play);

  auto deschedule = MakePooledMessage<DescheduleMsg>();
  deschedule->record = record;
  deschedule->lineage = MintMessageLineage();
  net_->Send(address_, addresses_->CubAddress(target), DescheduleMsg::WireBytes(), deschedule);
  CubId backup = failure_view_.FirstLivingSuccessor(target);
  net_->Send(address_, addresses_->CubAddress(backup), DescheduleMsg::WireBytes(),
             std::move(deschedule));
}

Controller::PlayMap::iterator Controller::ErasePlay(PlayMap::iterator play) {
  auto newest = newest_play_.find(play->second.viewer);
  if (newest != newest_play_.end() && newest->second == play->first) {
    newest_play_.erase(newest);
  }
  return plays_.erase(play);
}

void Controller::OnStartConfirm(const StartConfirmMsg& msg) {
  cpu_.Add(Now(), static_cast<double>(config_->cpu.controller_per_request.micros()) / 2);
  counters_.confirms_received++;
  auto it = plays_.find(msg.instance.value());
  if (it != plays_.end()) {
    it->second.confirmed = true;
    it->second.slot = msg.slot;
    it->second.first_block_due = msg.first_block_due;
  }
}

void Controller::OnFailureNotice(const FailureNoticeMsg& msg) {
  if (msg.failed_cub.valid()) {
    failure_view_.MarkCubFailed(msg.failed_cub);
  }
  if (msg.failed_disk.valid()) {
    failure_view_.MarkDiskFailed(msg.failed_disk);
  }
}

void Controller::BackgroundTick() {
  cpu_.Add(Now(), static_cast<double>(config_->cpu.controller_background_per_100ms.micros()));
  After(Duration::Millis(100), [this] { BackgroundTick(); });
}

void Controller::PurgeTick() {
  for (auto it = plays_.begin(); it != plays_.end();) {
    const PlayStub& stub = it->second;
    if (stub.confirmed) {
      const FileInfo& file = catalog_->Get(stub.file);
      TimePoint end = stub.first_block_due +
                      config_->block_play_time * (file.block_count - stub.start_position);
      if (end + Duration::Seconds(10) < Now()) {
        it = ErasePlay(it);
        continue;
      }
    }
    ++it;
  }
  After(Duration::Seconds(60), [this] { PurgeTick(); });
}

}  // namespace tiger
