#include "src/client/viewer.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/logging.h"
#include "src/net/payload_pool.h"
#include "src/sim/shard_engine.h"

namespace tiger {

namespace {

// A block completing this much after its steady-state position is "late".
constexpr Duration kLateTolerance = Duration::Millis(500);
// A block not complete this long past its position is declared lost.
constexpr Duration kLossTolerance = Duration::Seconds(2);
constexpr Duration kCheckInterval = Duration::Seconds(1);
// Initial progress-window span; a power of two, grown by doubling.
constexpr size_t kInitialWindow = 8;

}  // namespace

ViewerClient::ViewerClient(Simulator* sim, ViewerId id, const TigerConfig* config,
                           const Catalog* catalog, MessageBus* net)
    : Actor(sim, "viewer" + std::to_string(id.value())),
      id_(id),
      config_(config),
      catalog_(catalog),
      net_(net),
      window_(kInitialWindow) {
  address_ = net_->Attach(this, name(), config->client_nic_bps);
}

void ViewerClient::RequestPlay(FileId file, int64_t start_position) {
  TIGER_CHECK(!play_.has_value()) << "viewer already playing";
  TIGER_CHECK(addresses_ != nullptr);
  const FileInfo& info = catalog_->Get(file);
  TIGER_CHECK(start_position >= 0 && start_position < info.block_count)
      << "seek out of range";
  ActivePlay play;
  play.file = file;
  play.requested_at = Now();
  play.start_position = start_position;
  play.blocks_expected = info.block_count - start_position;
  play_ = std::move(play);
  stats_.plays_requested++;

  auto request = MakePooledMessage<ClientRequestMsg>();
  request->op = ClientRequestMsg::Op::kStart;
  request->viewer = id_;
  request->client_address = address_;
  request->file = file;
  request->start_position = start_position;
  net_->Send(address_, addresses_->controller, ClientRequestMsg::WireBytes(),
             std::move(request));

  if (!check_timer_running_) {
    // A new chain: no loss can be declared before kLossTolerance from now,
    // however early the first block lands.
    grid_anchor_ = Now();
    ArmCheck(GridTickAtOrAfter(Now() + kLossTolerance));
  }
}

void ViewerClient::StartLooping(std::function<FileId()> picker, Duration think_time,
                                int64_t initial_position) {
  picker_ = std::move(picker);
  think_time_ = think_time;
  RequestPlay(picker_(), initial_position);
}

void ViewerClient::RequestStop() {
  if (!play_.has_value()) {
    return;
  }
  auto request = MakePooledMessage<ClientRequestMsg>();
  request->op = ClientRequestMsg::Op::kStop;
  request->viewer = id_;
  request->client_address = address_;
  request->file = play_->file;
  if (play_->instance.has_value()) {
    request->instance = *play_->instance;  // Lets a stubless controller route the kill.
  }
  net_->Send(address_, addresses_->controller, ClientRequestMsg::WireBytes(),
             std::move(request));
  FinishPlay(/*completed=*/false);
}

void ViewerClient::Pause() {
  if (!play_.has_value()) {
    return;
  }
  const FileInfo& info = catalog_->Get(play_->file);
  int64_t next_block = play_->start_position + play_->check_cursor;
  if (next_block >= info.block_count) {
    RequestStop();  // Nothing left to resume into.
    return;
  }
  paused_position_ = std::make_pair(play_->file, next_block);
  RequestStop();
}

void ViewerClient::Resume() {
  if (!paused_position_.has_value() || play_.has_value()) {
    return;
  }
  auto [file, position] = *paused_position_;
  paused_position_.reset();
  RequestPlay(file, position);
}

void ViewerClient::HandleMessage(const MessageEnvelope& envelope) {
  if (halted()) {
    return;
  }
  const auto& msg = static_cast<const TigerMessage&>(*envelope.payload);
  if (msg.kind == MsgKind::kBlockData) {
    OnBlockData(static_cast<const BlockDataMsg&>(msg));
  }
}

void ViewerClient::OnBlockData(const BlockDataMsg& msg) {
  if (!play_.has_value() || msg.viewer != id_ || msg.file != play_->file) {
    return;  // Tail of a stopped play, or stale delivery.
  }
  ActivePlay& play = *play_;
  if (play.instance.has_value() && *play.instance != msg.instance) {
    return;
  }
  if (!play.instance.has_value()) {
    play.instance = msg.instance;
  }
  // Progress is tracked relative to the play's start position.
  const int64_t position = msg.position - play.start_position;
  if (position < 0) {
    return;  // Stale block from before a seek boundary; not ours.
  }
  if (position < play.check_cursor) {
    return;  // Already accounted (probably as lost).
  }
  if (position >= play.blocks_expected) {
    return;  // Past the end of this play; not a block of this file.
  }
  if (position - play.check_cursor >= static_cast<int64_t>(window_.size())) {
    GrowWindow(position - play.check_cursor + 1);
  }
  BlockProgress& progress = ProgressOf(position);
  if (progress.complete) {
    return;
  }
  if (msg.mirror_fragment >= 0) {
    stats_.fragments_received++;
    progress.fragments++;
    if (progress.fragments < config_->shape.decluster_factor) {
      return;
    }
  }
  progress.complete = true;
  stats_.blocks_complete++;
  if (qos_ != nullptr) {
    ShardEngine::JournalCall(qos_, &QosLedger::RecordClientBlock, id_);
  }

  if (!play.first_block_complete.has_value()) {
    play.first_block_complete = Now();
    stats_.plays_started++;
    const double latency = (Now() - play.requested_at).seconds();
    startup_latency_.Add(latency);
    start_samples_.push_back(StartSample{play.requested_at, latency});
  } else if (position > 0) {
    const TimePoint expected =
        *play.first_block_complete + config_->block_play_time * position;
    if (Now() > expected + kLateTolerance) {
      stats_.late_blocks++;
      if (qos_ != nullptr) {
        // Ledger positions are absolute block indexes — the key the serving
        // cub annotated.
        ShardEngine::JournalCall(qos_, &QosLedger::RecordClientLate, Now(), id_, msg.position);
      }
    }
  }
  RetireBlocks();
}

void ViewerClient::RetireBlocks() {
  if (!play_.has_value()) {
    return;
  }
  ActivePlay& play = *play_;
  if (!play.first_block_complete.has_value()) {
    return;
  }
  // Retire completed positions and positions whose loss deadline has passed.
  while (play.check_cursor < play.blocks_expected) {
    const TimePoint deadline = LossDeadline(play);
    BlockProgress& progress = ProgressOf(play.check_cursor);
    if (progress.complete) {
      progress = BlockProgress{};
      play.check_cursor++;
      continue;
    }
    if (Now() < deadline) {
      break;
    }
    stats_.lost_blocks++;
    loss_times_.push_back(*play.first_block_complete +
                          config_->block_play_time * play.check_cursor);
    if (qos_ != nullptr) {
      ShardEngine::JournalCall(qos_, &QosLedger::RecordClientLost, Now(), id_,
                               play.start_position + play.check_cursor);
    }
    progress = BlockProgress{};
    play.check_cursor++;
  }
  if (play.check_cursor >= play.blocks_expected) {
    FinishPlay(/*completed=*/true);
  }
}

void ViewerClient::GrowWindow(int64_t span) {
  const int64_t cursor = play_->check_cursor;
  size_t size = window_.size() * 2;
  while (static_cast<int64_t>(size) < span) {
    size *= 2;
  }
  std::vector<BlockProgress> grown(size);
  for (int64_t p = cursor; p < cursor + static_cast<int64_t>(window_.size()); ++p) {
    grown[static_cast<size_t>(p) & (size - 1)] = ProgressOf(p);
  }
  window_ = std::move(grown);
}

void ViewerClient::CheckDeadlines() {
  check_timer_running_ = false;
  RetireBlocks();
  if (!play_.has_value()) {
    return;  // The chain stops; the next play starts a new grid.
  }
  // Every tick before the cursor's loss deadline would find nothing to
  // retire: the cursor's block is incomplete and not yet overdue, and later
  // blocks only complete through OnBlockData, which retires them itself.
  const TimePoint earliest_loss =
      play_->first_block_complete.has_value() ? LossDeadline(*play_) : Now() + kLossTolerance;
  ArmCheck(GridTickAtOrAfter(earliest_loss));
}

TimePoint ViewerClient::LossDeadline(const ActivePlay& play) const {
  return *play.first_block_complete + config_->block_play_time * play.check_cursor +
         kLossTolerance;
}

TimePoint ViewerClient::GridTickAtOrAfter(TimePoint t) const {
  const int64_t interval = kCheckInterval.micros();
  const int64_t ticks = ((t - grid_anchor_).micros() + interval - 1) / interval;
  return grid_anchor_ + kCheckInterval * std::max<int64_t>(ticks, 1);
}

void ViewerClient::ArmCheck(TimePoint at) {
  check_timer_running_ = true;
  check_at_ = at;
  check_timer_ = At(at, [this] { CheckDeadlines(); });
}

void ViewerClient::FinishPlay(bool completed) {
  if (completed) {
    stats_.plays_completed++;
  }
  play_.reset();
  std::fill(window_.begin(), window_.end(), BlockProgress{});
  // The next tick decides whether the chain goes on (a new play by then) or
  // stops, so a check skipped past it must be pulled back.
  if (check_timer_running_) {
    const TimePoint next_tick = GridTickAtOrAfter(Now() + Duration::Micros(1));
    if (check_at_ > next_tick) {
      CancelTimer(check_timer_);
      ArmCheck(next_tick);
    }
  }
  if (picker_) {
    After(think_time_ + Duration::Millis(1), [this] {
      if (!play_.has_value()) {
        RequestPlay(picker_());
      }
    });
  }
}

}  // namespace tiger
