#include "src/core/cub.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/common/units.h"
#include "src/core/invariant_checker.h"
#include "src/net/payload_pool.h"
#include "src/sim/shard_engine.h"
#include "src/trace/profiler.h"

namespace tiger {

namespace {

// Takeovers are skipped when the block is due sooner than a fragment read can
// plausibly complete; those blocks are part of the failure loss window.
constexpr Duration kTakeoverMargin = Duration::Millis(100);

// Retry cadence when all block buffers are in use.
constexpr Duration kBufferRetry = Duration::Millis(20);

// Recycled-bucket stash pre-mint for the schedule view. Creations draw from
// the stash and evictions refill it, so its level is the reserve minus the
// live bucket population — it must cover the view's peak: roughly one bucket
// per (stream served here) x (distinct ring slot with entries inside the
// max-lead + retention window, one per block time), plus slack for
// fluctuation.
size_t ViewBucketReserve(const TigerConfig& config) {
  const int64_t per_cub = config.MaxStreams() / config.shape.num_cubs;
  const int64_t window_blocks =
      (config.max_vstate_lead + config.view_retention).micros() /
          config.block_play_time.micros() +
      3;
  return static_cast<size_t>(per_cub * window_blocks + 16);
}

// Entry slab capacity. A cub holds the records of the streams it serves and,
// as the double-forwarding backup, its predecessor's: up to two entries per
// stream-block (a stream served here times a block time of the max-lead +
// retention window, the bucket reserve's unit). The largest steady live-entry
// count measured on the perfbench workloads is 1.90 per stream-block (1,307
// entries against 688 on failover_observed; ring_control 1.78, vod_churn
// 1.09), so twice the bucket reserve holds the working set without growth.
// Views that a failure or a rejoin inflates grow the slab once, as a high
// water.
size_t ViewEntryReserve(const TigerConfig& config) { return 2 * ViewBucketReserve(config); }

// Forward queue capacity. Between two flushes a cub's queue holds about one
// item per stream it serves waiting out maxVStateLead plus one per stream
// that arrived since the last flush; a third per stream and slack keep its
// growth out of the steady state.
size_t ForwardQueueReserve(const TigerConfig& config) {
  return static_cast<size_t>(3 * config.MaxStreams() / config.shape.num_cubs + 16);
}

}  // namespace

Cub::Cub(Simulator* sim, CubId id, const TigerConfig* config, const Catalog* catalog,
         const StripeLayout* layout, const ScheduleGeometry* geometry, MessageBus* net,
         Rng rng)
    : Actor(sim, "cub" + std::to_string(id.value())),
      id_(id),
      config_(config),
      catalog_(catalog),
      layout_(layout),
      geometry_(geometry),
      windows_(geometry, config->MakeOwnershipParams()),
      net_(net),
      rng_(std::move(rng)),
      cache_(config->block_cache_bytes),
      view_(config->deschedule_hold, ViewBucketReserve(*config), ViewEntryReserve(*config)),
      failure_view_(config->shape),
      free_buffer_bytes_(config->buffer_pool_bytes) {
  address_ = net_->Attach(this, name(), config->cub_nic_bps);
  forward_queue_.reserve(ForwardQueueReserve(*config));
  // Stock the payload pool's kill-message size class. Deschedules are rare,
  // so nothing else keeps this class warm the way batch traffic keeps the
  // viewer-state classes warm — without priming, any kill wave with more
  // copies in flight than every previous one mints its shared blocks from
  // the heap mid-run.
  {
    std::shared_ptr<DescheduleMsg> primed[4];
    for (auto& msg : primed) {
      msg = MakePooledMessage<DescheduleMsg>();
    }
  }
}

// ---------------------------------------------------------------------------
// Lineage (audit)
// ---------------------------------------------------------------------------

void Cub::MintLineage(ViewerStateRecord* record) {
  record->lineage = RecordLineage{};
  record->lineage.origin_cub = id_.value();
  record->lineage.epoch = next_record_epoch_++;
  record->lineage.MarkTagged();
  record->lineage.lamport = ++lamport_;
}

void Cub::StampLineageForSend(ViewerStateRecord* record) {
  if (!record->lineage.tagged()) {
    return;  // Minted by a lineage-unaware peer; nothing to stamp.
  }
  record->lineage.lamport = ++lamport_;
}

void Cub::MergeLineageClock(const ViewerStateRecord& record) {
  if (record.lineage.tagged() && record.lineage.lamport > lamport_) {
    lamport_ = record.lineage.lamport;
  }
}

void Cub::SetTrace(Tracer* tracer, TraceTrackId track, MetricsRegistry* metrics) {
  tracer_ = tracer;
  trace_track_ = track;
  vstate_lead_ms_ = metrics != nullptr ? &metrics->Hist("vstate.lead_ms") : nullptr;
  view_.SetTrace(tracer_, trace_track_);
}

void Cub::AttachDisks(std::vector<SimulatedDisk*> disks) {
  TIGER_CHECK(static_cast<int>(disks.size()) == config_->shape.disks_per_cub);
  disks_ = std::move(disks);
}

DiskId Cub::GlobalDiskId(int local_index) const {
  return config_->shape.GlobalDiskIndex(id_, local_index);
}

size_t Cub::queued_start_requests() const {
  size_t n = redundant_starts_.size();
  for (const auto& [disk, queue] : start_queues_) {
    n += queue.size();
  }
  return n;
}

void Cub::Start() {
  TIGER_CHECK(addresses_ != nullptr) << "address book not set";
  TIGER_CHECK(!disks_.empty() || !config_->simulate_data_plane) << "disks not attached";
  started_ = true;
  FailureView::NeighborList preds;
  failure_view_.PrevLivingPredecessors(id_, 2, &preds);
  for (CubId pred : preds) {
    last_heard_[pred] = Now();
  }
  HeartbeatTick();
  After(config_->forward_interval, [this] { ForwardTick(); });
  After(Duration::Seconds(1), [this] { EvictionTick(); });
}

void Cub::Fail() {
  // A dead machine returns nothing more to its pool: buffers whose transfer
  // had ended come back now, the rest stay out until Rejoin resets the pool.
  FreeBuffer(buffer_returns_.TakeDue(Now()));
  buffer_returns_.Clear();
  Halt();
  net_->SetNodeUp(address_, false);
}

void Cub::Rejoin() {
  TIGER_CHECK(!halted()) << "TigerSystem must Restart() the actor before Rejoin()";
  // A rebooted machine remembers nothing: every piece of protocol state is
  // rebuilt from zero and repopulated by the living peers' rejoin replies.
  // Generations continue from the old view's, so a ref from before the
  // reboot never names an entry of the rebuilt view.
  view_ = ScheduleView(config_->deschedule_hold, ViewBucketReserve(*config_),
                       ViewEntryReserve(*config_), view_.next_generation());
  view_.SetTrace(tracer_, trace_track_);
  if (auditor_ != nullptr) {
    view_.EnableLandingLog();
  }
  TIGER_TRACE_INSTANT(tracer_, trace_track_, TraceEventType::kRejoin);
  failure_view_ = FailureView(config_->shape);
  cache_ = BlockCache(config_->block_cache_bytes);
  free_buffer_bytes_ = config_->buffer_pool_bytes;
  buffer_returns_.Clear();
  start_queues_.clear();
  ticking_disks_.clear();
  redundant_starts_.clear();
  seen_instances_.clear();
  seen_oldest_ = nullptr;
  seen_newest_ = nullptr;
  forward_queue_.clear();
  last_heard_.clear();
  counters_.rejoins++;
  // Hold off inserting new viewers until the replies have repopulated the
  // view; inserting into a seemingly-free slot before the occupancy proof
  // arrives could double-book it.
  insert_allowed_after_ = Now() + Duration::Seconds(1);
  started_ = false;
  Start();
  auto req = MakePooledMessage<RejoinRequestMsg>();
  req->from = id_;
  for (int c = 0; c < config_->shape.num_cubs; ++c) {
    CubId target(static_cast<uint32_t>(c));
    if (target != id_) {
      ChargeMessageCpu();
      net_->Send(address_, addresses_->CubAddress(target), RejoinRequestMsg::WireBytes(), req);
    }
  }
  net_->Send(address_, addresses_->controller, RejoinRequestMsg::WireBytes(), req);
}

void Cub::FailLocalDisk(int local_index) {
  TIGER_CHECK(local_index >= 0 && local_index < static_cast<int>(disks_.size()));
  disks_[local_index]->Halt();
  DiskId global = GlobalDiskId(local_index);
  failure_view_.MarkDiskFailed(global);
  // The cub notices its own drive erroring out and tells the world.
  auto notice = MakePooledMessage<FailureNoticeMsg>();
  notice->failed_disk = global;
  notice->reporter = id_;
  for (int c = 0; c < config_->shape.num_cubs; ++c) {
    CubId cub(static_cast<uint32_t>(c));
    if (cub != id_ && !failure_view_.IsCubFailed(cub)) {
      net_->Send(address_, addresses_->CubAddress(cub), FailureNoticeMsg::WireBytes(), notice);
    }
  }
  net_->Send(address_, addresses_->controller, FailureNoticeMsg::WireBytes(), notice);
}

// ---------------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------------

void Cub::HandleMessage(const MessageEnvelope& envelope) {
  if (halted()) {
    return;
  }
  const auto& msg = static_cast<const TigerMessage&>(*envelope.payload);
  switch (msg.kind) {
    case MsgKind::kViewerStateBatch:
      OnViewerStateBatch(static_cast<const ViewerStateBatchMsg&>(msg));
      break;
    case MsgKind::kDeschedule:
      OnDeschedule(static_cast<const DescheduleMsg&>(msg));
      break;
    case MsgKind::kStartPlay:
      OnStartPlay(static_cast<const StartPlayMsg&>(msg));
      break;
    case MsgKind::kHeartbeat:
      OnHeartbeat(static_cast<const HeartbeatMsg&>(msg));
      break;
    case MsgKind::kFailureNotice:
      OnFailureNotice(static_cast<const FailureNoticeMsg&>(msg));
      break;
    case MsgKind::kRejoinRequest:
      OnRejoinRequest(static_cast<const RejoinRequestMsg&>(msg));
      break;
    case MsgKind::kRejoinReply:
      OnRejoinReply(static_cast<const RejoinReplyMsg&>(msg));
      break;
    default:
      // Other kinds (block data, client requests, reservation traffic) are
      // not addressed to single-bitrate cubs.
      break;
  }
}

void Cub::OnViewerStateBatch(const ViewerStateBatchMsg& msg) {
  // Self time = wire decode + per-record receive glue; the schedule-view
  // apply and QoS/audit hooks underneath carve out their own categories.
  // Counted per decoded record, the unit kVStateEncode counts in.
  TIGER_PROF_ITEMS_SCOPE(kVStateDecode, decode_scratch_);
  ChargeMessageCpu();
  TIGER_TRACE_END_FLOW(tracer_, trace_track_, TraceEventType::kVStateHop, msg.trace_flow,
                       TraceArgs{.a = static_cast<int64_t>(msg.wire_records.size())});
  msg.DecodeInto(&decode_scratch_);
  for (const ViewerStateRecord& record : decode_scratch_) {
    OnViewerState(record);
  }
}

void Cub::OnViewerState(const ViewerStateRecord& record) {
  ChargeCpu(config_->cpu.per_viewer_state);
  counters_.records_received++;
  MergeLineageClock(record);
  if (config_->max_hop_slack > 0 && record.lineage.tagged() &&
      static_cast<int64_t>(record.lineage.hop_count) >
          record.sequence + config_->max_hop_slack) {
    // In a healthy ring hop_count tracks sequence (both advance together per
    // successor hop); a record far ahead of that has been re-forwarded in a
    // loop (partition + rejoin pathology). Drop it before the view sees it.
    counters_.records_ttl_dropped++;
    TIGER_TRACE_INSTANT(tracer_, trace_track_, TraceEventType::kVStateTtlDrop,
                        TraceArgs{.viewer = record.viewer.value(),
                                  .slot = record.slot.value(),
                                  .a = static_cast<int64_t>(record.lineage.ChainId()),
                                  .b = record.lineage.hop_count});
    if (qos_ != nullptr) {
      ShardEngine::JournalCall(qos_, &QosLedger::AnnotateServerCause, Now(), record.viewer,
                               record.position, GlitchCause::kHopTtlExceeded, id_.value());
    }
    if (auditor_ != nullptr) {
      ShardEngine::JournalCall(auditor_, &AuditObserver::OnRecordTtlDropped, Now(), id_.value(),
                               record);
    }
    return;
  }
  TIGER_TRACE_INSTANT(tracer_, trace_track_, TraceEventType::kVStateReceive,
                      TraceArgs{.viewer = record.viewer.value(),
                                .slot = record.slot.value(),
                                .a = record.position,
                                .b = record.mirror_fragment});
  if (record.lineage.tagged()) {
    TIGER_TRACE_INSTANT(tracer_, trace_track_, TraceEventType::kLineageHop,
                        TraceArgs{.viewer = record.viewer.value(),
                                  .slot = record.slot.value(),
                                  .a = static_cast<int64_t>(record.lineage.ChainId()),
                                  .b = record.lineage.hop_count});
  }
  EntryRef landed;
  const ScheduleView::ApplyResult apply_result = view_.ApplyViewerState(record, Now(), &landed);
  if (auditor_ != nullptr) {
    ShardEngine::JournalCall(auditor_, &AuditObserver::OnRecordReceived, Now(), id_.value(), record,
                             apply_result);
  }
  switch (apply_result) {
    case ScheduleView::ApplyResult::kNew: {
      counters_.records_new++;
      NoteLanding(record);
      if (vstate_lead_ms_ != nullptr && tracer_ != nullptr) {
        // How far ahead of its due time the record arrived (§4.1.1 lead).
        vstate_lead_ms_->Add(static_cast<double>((record.due - Now()).micros()) / 1000.0);
      }
      NoteInstanceSeen(record.instance.value());
      redundant_starts_.erase(record.instance.value());
      ProcessAcceptedRecord(landed);
      break;
    }
    case ScheduleView::ApplyResult::kDuplicate:
      counters_.records_duplicate++;
      break;
    case ScheduleView::ApplyResult::kKilledByDeschedule:
      counters_.records_killed_by_deschedule++;
      if (qos_ != nullptr) {
        // A held deschedule killed this record; if the viewer still expected
        // the block (stop raced the play), the glitch traces back here.
        ShardEngine::JournalCall(qos_, &QosLedger::AnnotateServerCause, Now(), record.viewer,
                                 record.position, GlitchCause::kDescheduleRace, id_.value());
      }
      break;
    case ScheduleView::ApplyResult::kTooLate:
      counters_.records_too_late++;
      if (qos_ != nullptr) {
        // The record reached us after its service window: the control message
        // that should have carried it arrived late or was dropped upstream.
        ShardEngine::JournalCall(qos_, &QosLedger::AnnotateServerCause, Now(), record.viewer,
                                 record.position, GlitchCause::kDroppedControl, id_.value());
      }
      break;
    case ScheduleView::ApplyResult::kConflict:
      counters_.records_conflict++;
      TIGER_LOG(kError, name()) << "slot conflict: " << record.ToString();
      break;
  }
}

// ---------------------------------------------------------------------------
// Record processing
// ---------------------------------------------------------------------------

DiskId Cub::ServingDisk(const ViewerStateRecord& record) const {
  const FileInfo& file = catalog_->Get(record.file);
  if (record.is_mirror()) {
    return layout_->SecondaryLocation(file, record.position, record.mirror_fragment).disk;
  }
  return layout_->PrimaryDisk(file, record.position);
}

bool Cub::IsMyDisk(DiskId disk) const { return config_->shape.CubOfDisk(disk) == id_; }

SimulatedDisk* Cub::LocalDisk(DiskId disk) const {
  if (!IsMyDisk(disk)) {
    return nullptr;
  }
  int local = config_->shape.LocalDiskIndex(disk);
  TIGER_CHECK(local < static_cast<int>(disks_.size()));
  return disks_[local];
}

void Cub::ProcessAcceptedRecord(EntryRef ref) {
  ScheduleEntry* entry = view_.Get(ref);
  if (entry == nullptr) {
    return;
  }
  // A reference: nothing below moves the entry before its last use. Only a
  // landing can grow the slab, and TakeoverRecord, which lands records, is
  // the last step on its path.
  const ViewerStateRecord& record = entry->record();
  DiskId serving = ServingDisk(record);
  if (IsMyDisk(serving) && !failure_view_.IsDiskFailed(serving)) {
    // This cub owns the record's forwarding duty.
    NoteUnforwardedEntry(record, ref);
    ScheduleEntryWork(ref, record.due);
    return;
  }
  if (failure_view_.IsDiskFailed(serving) && !record.is_mirror() &&
      failure_view_.FirstLivingSuccessor(config_->shape.CubOfDisk(serving)) == id_ &&
      config_->shape.CubOfDisk(serving) != id_) {
    TakeoverRecord(ref);
    return;
  }
  entry->backup_only = true;
}

void Cub::ScheduleEntryWork(EntryRef ref, TimePoint due) {
  Duration lead = config_->read_ahead;
  if (config_->read_ahead_jitter > Duration::Zero()) {
    lead = lead - rng_.UniformDuration(Duration::Zero(), config_->read_ahead_jitter);
  }
  TimePoint read_at = due - lead;
  if (read_at < Now()) {
    read_at = Now();
  }
  At(read_at, [this, ref] { IssueRead(ref); });
  At(std::max(due, Now()), [this, ref] { SendBlock(ref); });
}

void Cub::IssueRead(EntryRef ref) {
  TIGER_PROF_SCOPE(kSlotService);
  ScheduleEntry* entry = view_.Get(ref);
  if (entry == nullptr || entry->read_issued) {
    return;  // Descheduled or already in flight.
  }
  if (entry->service_start == TimePoint::Max()) {
    entry->service_start = Now();
  }
  if (!config_->simulate_data_plane) {
    entry->block_ready = true;
    return;
  }
  const ViewerStateRecord& record = entry->record();
  if (record.due <= Now()) {
    return;  // Too late; the send path counts the miss.
  }
  const int64_t bytes = ReadBytesFor(record);
  const BlockCache::Key cache_key{record.file.value(), record.position,
                                  record.mirror_fragment};
  if (cache_.Lookup(cache_key)) {
    // Still resident from a recent read for another viewer: serve from
    // memory, no disk I/O and no buffer charge.
    entry->read_issued = true;
    entry->block_ready = true;
    return;
  }
  FreeBuffer(buffer_returns_.TakeDue(Now()));
  if (free_buffer_bytes_ < bytes) {
    counters_.buffer_stalls++;
    if (Now() + kBufferRetry < record.due) {
      After(kBufferRetry, [this, ref] { IssueRead(ref); });
    }
    return;
  }
  SimulatedDisk* disk = LocalDisk(ServingDisk(record));
  TIGER_CHECK(disk != nullptr) << "read scheduled on a disk this cub does not own";
  free_buffer_bytes_ -= bytes;
  entry->read_issued = true;
  entry->buffer_held = true;
  const DiskZone zone = record.is_mirror() ? DiskZone::kInner : DiskZone::kOuter;
  disk->SubmitRead(zone, bytes, [this, ref, bytes, cache_key](bool ok) {
    ChargeCpu(config_->cpu.per_disk_completion);
    ScheduleEntry* e = view_.Get(ref);
    if (!ok) {
      // Transient media error: the buffer held nothing useful. Fall back to
      // the declustered mirror copy on other cubs' disks (§2.3) — the drive
      // itself stays up, so no failure is declared.
      counters_.disk_read_errors++;
      FreeBuffer(bytes);
      if (e != nullptr) {
        e->buffer_held = false;
      }
      RecoverBlockViaMirrors(ref);
      return;
    }
    cache_.Insert(cache_key, bytes);
    if (e == nullptr || e->sent) {
      FreeBuffer(bytes);  // Descheduled, or the deadline passed before the read.
    } else {
      e->block_ready = true;
    }
  }, record.due);
}

void Cub::SendBlock(EntryRef ref) {
  TIGER_PROF_SCOPE(kSlotService);
  ScheduleEntry* entry = view_.Get(ref);
  if (entry == nullptr || entry->sent) {
    return;  // Descheduled: silently skip, this is not a missed block.
  }
  entry->sent = true;
  const ViewerStateRecord record = entry->record();
  const FileInfo& file = catalog_->Get(record.file);
  const bool mirror = record.is_mirror();
  const bool had_block = entry->block_ready;
  // The slot's service interval on this cub: first read attempt (or the due
  // instant when no read ever started) through the block send decision.
  const TimePoint service_start =
      entry->service_start == TimePoint::Max() ? Now() : entry->service_start;
  TIGER_TRACE_COMPLETE(tracer_, trace_track_, TraceEventType::kSlotService, service_start,
                       Now() - service_start,
                       TraceArgs{.viewer = record.viewer.value(),
                                 .slot = record.slot.value(),
                                 .a = record.position,
                                 .b = had_block ? 1 : 0});
  // End of file: whether or not this last block makes it out, the viewer
  // leaves the schedule and the slot becomes free.
  const bool eof = !mirror && record.position + 1 >= file.block_count;
  if (eof && checker_ != nullptr) {
    ShardEngine::JournalCall(checker_, &InvariantChecker::OnRemove, record.slot, record.instance);
  }
  if (config_->simulate_data_plane && !had_block) {
    if (!entry->mirror_recovery) {
      // "The server failed to place the block on the network ... because the
      // disk read hadn't completed in time" (§5). When a transient read error
      // triggered mirror recovery instead, the fragments cover this block and
      // the primary's silence is expected, not a miss.
      counters_.server_missed_blocks++;
      if (qos_ != nullptr) {
        ShardEngine::JournalCall(qos_, &QosLedger::AnnotateServerCause, Now(), record.viewer,
                                 record.position, GlitchCause::kPrimaryDiskOverload, id_.value());
      }
      TIGER_TRACE_INSTANT(tracer_, trace_track_, TraceEventType::kBlockMissed,
                          TraceArgs{.viewer = record.viewer.value(),
                                    .slot = record.slot.value(),
                                    .a = record.position});
    }
    return;
  }
  int64_t content = file.content_bytes_per_block;
  if (mirror) {
    content = (content + config_->shape.decluster_factor - 1) / config_->shape.decluster_factor;
  }
  if (config_->simulate_data_plane) {
    ChargeCpu(config_->cpu.DataSendCost(content));
  }
  if (mirror) {
    counters_.fragments_sent++;
  } else {
    counters_.blocks_sent++;
    if (checker_ != nullptr) {
      ShardEngine::JournalCall(checker_, &InvariantChecker::OnPrimarySend, record.slot,
                               ServingDisk(record), record.due, Now());
    }
  }
  TIGER_TRACE_INSTANT(tracer_, trace_track_, TraceEventType::kBlockSent,
                      TraceArgs{.viewer = record.viewer.value(),
                                .slot = record.slot.value(),
                                .a = record.position,
                                .b = record.mirror_fragment});
  if (config_->simulate_data_plane) {
    auto data = MakePooledMessage<BlockDataMsg>();
    data->viewer = record.viewer;
    data->instance = record.instance;
    data->file = record.file;
    data->position = record.position;
    data->mirror_fragment = record.mirror_fragment;
    data->content_bytes = content;
    data->due = record.due;
    net_->SendPaced(address_, record.client_address, content, record.bitrate_bps,
                    std::move(data));
    if (entry->buffer_held) {
      buffer_returns_.Add(Now() + TransferTime(content, record.bitrate_bps), ReadBytesFor(record));
    }
  }
}

void Cub::FreeBuffer(int64_t bytes) {
  free_buffer_bytes_ += bytes;
  TIGER_DCHECK(free_buffer_bytes_ <= config_->buffer_pool_bytes);
}

int64_t Cub::free_buffer_bytes() const {
  const int64_t free = free_buffer_bytes_ + buffer_returns_.DueBy(Now());
  TIGER_DCHECK(free <= config_->buffer_pool_bytes);
  return free;
}

int64_t Cub::ReadBytesFor(const ViewerStateRecord& record) const {
  const FileInfo& file = catalog_->Get(record.file);
  return record.is_mirror() ? layout_->FragmentBytes(file) : file.allocated_bytes_per_block;
}

Duration Cub::MirrorFragmentSpacing(int from_fragment) const {
  // "each piece of the mirror is separated in time from the previous piece by
  // (block play time / decluster)" — computed so the remainders never drift.
  const int dc = config_->shape.decluster_factor;
  const int64_t play = config_->block_play_time.micros();
  const int64_t next = static_cast<int64_t>(from_fragment + 1) * play / dc;
  const int64_t cur = static_cast<int64_t>(from_fragment) * play / dc;
  return Duration::Micros(next - cur);
}

std::optional<ViewerStateRecord> Cub::SuccessorRecord(const ViewerStateRecord& record) const {
  const FileInfo& file = catalog_->Get(record.file);
  ViewerStateRecord next = record;
  next.sequence++;
  if (next.lineage.tagged() && next.lineage.hop_count < UINT16_MAX) {
    // Hop advances in lockstep with sequence; the TTL guard and the
    // auditor's chain walk both rely on that pairing.
    next.lineage.hop_count++;
  }
  if (record.is_mirror()) {
    if (record.mirror_fragment + 1 >= config_->shape.decluster_factor) {
      return std::nullopt;  // Last fragment of this block's mirror chain.
    }
    next.mirror_fragment = record.mirror_fragment + 1;
    next.due = record.due + MirrorFragmentSpacing(record.mirror_fragment);
    return next;
  }
  if (record.position + 1 >= file.block_count) {
    return std::nullopt;  // End of file.
  }
  next.position = record.position + 1;
  next.due = record.due + config_->block_play_time;
  return next;
}

void Cub::TakeoverRecord(EntryRef ref) {
  ScheduleEntry* entry = view_.Get(ref);
  if (entry == nullptr || entry->takeover_processed) {
    return;
  }
  entry->takeover_processed = true;
  entry->backup_only = true;
  entry->forwarded = true;  // Mirror/successor generation replaces forwarding.
  counters_.takeovers++;
  const ViewerStateRecord record = entry->record();  // Copy: landings may move the entry.
  TIGER_DCHECK(!record.is_mirror());
  TIGER_TRACE_INSTANT(tracer_, trace_track_, TraceEventType::kTakeover,
                      TraceArgs{.viewer = record.viewer.value(),
                                .slot = record.slot.value(),
                                .a = record.position});

  if (record.due >= Now() + kTakeoverMargin) {
    StartMirrorChain(record, AuditObserver::CreateKind::kTakeover);
  }

  // Assume the failed cub's forwarding duty: synthesize the successor record.
  // Blocks whose service time fell inside the detection outage are lost;
  // fast-forward to the first block that can still be served on time, so the
  // resurrected chain is never dropped as too late.
  std::optional<ViewerStateRecord> next = SuccessorRecord(record);
  while (next.has_value() && next->due < Now() + kTakeoverMargin) {
    next = SuccessorRecord(*next);
  }
  if (!next.has_value()) {
    if (checker_ != nullptr) {
      ShardEngine::JournalCall(checker_, &InvariantChecker::OnRemove, record.slot,
                               record.instance);
    }
    return;
  }
  DiskId next_disk = ServingDisk(*next);
  if (auditor_ != nullptr) {
    // The successor record is synthesized here on the dead cub's behalf,
    // whether it is applied locally or handed to the owning cub below.
    ShardEngine::JournalCall(auditor_, &AuditObserver::OnRecordCreated, Now(), id_.value(),
                             AuditObserver::CreateKind::kTakeover, *next, RecordLineage{});
  }
  if (IsMyDisk(next_disk) && !failure_view_.IsDiskFailed(next_disk)) {
    // No explicit extra copy is needed for fault tolerance: our successor
    // already holds `record` (the predecessor state) as a backup, and its own
    // takeover scan would regenerate this chain if we died too.
    LandSynthesized(*next);
  } else if (failure_view_.IsDiskFailed(next_disk) &&
             failure_view_.FirstLivingSuccessor(config_->shape.CubOfDisk(next_disk)) == id_) {
    // Consecutive failures: the next block's disk is dead too; recurse (the
    // chain terminates at the first living disk).
    LandSynthesized(*next);
  } else {
    // The next serving disk belongs to some other living cub (multi-failure
    // bridging): hand the record to it and its successor directly.
    CubId owner = config_->shape.CubOfDisk(next_disk);
    if (failure_view_.IsCubFailed(owner)) {
      owner = failure_view_.FirstLivingSuccessor(owner);
    }
    SendRecordTo(owner, *next);
    SendRecordTo(failure_view_.FirstLivingSuccessor(owner), *next);
  }
}

void Cub::LandSynthesized(const ViewerStateRecord& record) {
  EntryRef landed;
  ScheduleView::ApplyResult result = view_.ApplyViewerState(record, Now(), &landed);
  if (result == ScheduleView::ApplyResult::kNew) {
    counters_.records_new++;
    NoteLanding(record);
    NoteInstanceSeen(record.instance.value());
    ProcessAcceptedRecord(landed);
  } else if (result == ScheduleView::ApplyResult::kDuplicate) {
    // Takeover synthesis re-created a record the dead cub had already
    // forwarded; idempotent receive absorbs it (§4.1.1).
    counters_.records_duplicate++;
  }
}

void Cub::RecoverBlockViaMirrors(EntryRef ref) {
  ScheduleEntry* entry = view_.Get(ref);
  if (entry == nullptr || entry->mirror_recovery) {
    return;
  }
  const ViewerStateRecord record = entry->record();
  if (record.is_mirror()) {
    return;  // A failed fragment read has no second-level fallback.
  }
  if (record.due < Now() + kTakeoverMargin) {
    return;  // Too close to the deadline; the send path counts the miss.
  }
  entry->mirror_recovery = true;
  counters_.mirror_recoveries++;
  if (qos_ != nullptr) {
    // The block will arrive as declustered fragments. Often still on time —
    // this annotation only surfaces if the client actually glitches.
    ShardEngine::JournalCall(qos_, &QosLedger::AnnotateServerCause, Now(), record.viewer,
                             record.position, GlitchCause::kMirrorFallback, id_.value());
  }
  // Rendered as a span covering the window the declustered fragments must
  // fill: from the failed read's completion to the block's due time.
  TIGER_TRACE_COMPLETE(tracer_, trace_track_, TraceEventType::kMirrorFallback, Now(),
                       record.due - Now(),
                       TraceArgs{.viewer = record.viewer.value(),
                                 .slot = record.slot.value(),
                                 .a = record.position});
  if (fault_stats_ != nullptr) {
    ShardEngine::JournalCall(fault_stats_, &FaultStats::RecordMirrorRecovery, Now(), id_,
                             record.position);
  }
  // The chain self-propagates from here exactly as in a takeover (§2.3,
  // §4.1.1).
  StartMirrorChain(record, AuditObserver::CreateKind::kMirrorRecovery);
}

void Cub::StartMirrorChain(const ViewerStateRecord& record, AuditObserver::CreateKind kind) {
  const FileInfo& file = catalog_->Get(record.file);
  Duration offset = Duration::Zero();
  for (int j = 0; j < config_->shape.decluster_factor; ++j) {
    BlockLocation loc = layout_->SecondaryLocation(file, record.position, j);
    if (failure_view_.IsDiskFailed(loc.disk)) {
      offset += MirrorFragmentSpacing(j);
      continue;
    }
    ViewerStateRecord fragment = record;
    fragment.mirror_fragment = j;
    fragment.due = record.due + offset;
    if (fragment.lineage.tagged() && fragment.lineage.hop_count < UINT16_MAX) {
      fragment.lineage.hop_count++;  // The chain branches: one synthesis hop.
    }
    if (auditor_ != nullptr) {
      ShardEngine::JournalCall(auditor_, &AuditObserver::OnRecordCreated, Now(), id_.value(), kind,
                               fragment, RecordLineage{});
    }
    if (kind == AuditObserver::CreateKind::kTakeover && IsMyDisk(loc.disk)) {
      LandSynthesized(fragment);
    } else {
      SendRecordTo(config_->shape.CubOfDisk(loc.disk), fragment);
    }
    return;
  }
}

void Cub::NoteLanding(const ViewerStateRecord& record) {
  if (checker_ != nullptr) {
    // One closure instead of JournalCall: the member-call form's capture
    // would outgrow the journal's inline buffer and allocate.
    ShardEngine::JournalAppend([checker = checker_, cub = id_, key = record.DedupKey(),
                                due = record.due, now = Now()] {
      checker->OnLanding(cub, key, due, now);
    });
  }
}

// ---------------------------------------------------------------------------
// Forwarding
// ---------------------------------------------------------------------------

Duration Cub::ForwardSafety() const {
  return config_->net.base_latency + config_->net.jitter + config_->forward_interval +
         Duration::Millis(100);
}

void Cub::NoteInstanceSeen(uint64_t instance) {
  SeenNode* seen = nullptr;
  auto it = seen_instances_.find(instance);
  if (it != seen_instances_.end()) {
    seen = &*it;
    if (seen->second.stamp == Now()) {
      return;  // Every node after it carries this stamp too: the order holds.
    }
    UnlinkSeen(seen);
  } else if (!seen_nodes_.empty()) {
    SeenMap::node_type node = std::move(seen_nodes_.back());
    seen_nodes_.pop_back();
    node.key() = instance;
    seen = &*seen_instances_.insert(std::move(node)).position;
  } else {
    seen = &*seen_instances_.emplace(instance, SeenStamp{}).first;
    // Keep room in the stash for every node there is, so aging a burst of
    // instances out in EvictionTick never grows the stash vector.
    if (seen_nodes_.capacity() < seen_instances_.size()) {
      seen_nodes_.reserve(2 * seen_instances_.size());
    }
  }
  seen->second = SeenStamp{Now(), seen_newest_, nullptr};
  (seen_newest_ != nullptr ? seen_newest_->second.newer : seen_oldest_) = seen;
  seen_newest_ = seen;
}

void Cub::UnlinkSeen(SeenNode* node) {
  SeenStamp& links = node->second;
  (links.older != nullptr ? links.older->second.newer : seen_oldest_) = links.newer;
  (links.newer != nullptr ? links.newer->second.older : seen_newest_) = links.older;
}

std::optional<TimePoint> Cub::InstanceLastSeen(uint64_t instance) const {
  auto it = seen_instances_.find(instance);
  if (it == seen_instances_.end()) {
    return std::nullopt;
  }
  return it->second.stamp;
}

void Cub::NoteUnforwardedEntry(const ViewerStateRecord& record, EntryRef ref) {
  std::optional<ViewerStateRecord> next = SuccessorRecord(record);
  if (!next.has_value()) {
    return;  // Terminal records never trigger a flush.
  }
  forward_queue_.push_back(ForwardItem{next->due, record.DedupKey(), ref});
  std::push_heap(forward_queue_.begin(), forward_queue_.end(), std::greater<>());
}

void Cub::ForwardTick() {
  // Batching policy (§4.1.1): hold records while every pending one still has
  // comfortably more than minVStateLead of slack, and flush the moment the
  // most urgent record approaches its deadline. The min/max gap is exactly
  // what lets many records share one message.
  //
  // An entry's flush trigger (successor due − minVStateLead − safety) is
  // fixed when it is filed, so the forward queue's front is the earliest
  // trigger. Stale fronts are dropped until a live one is found; if that one
  // is due, the flush pops every item within maxVStateLead, in (successor
  // due, key) order, which is also the order records take on the wire.
  const Duration trigger_lead = config_->min_vstate_lead + ForwardSafety();
  auto pop = [this] {
    std::pop_heap(forward_queue_.begin(), forward_queue_.end(), std::greater<>());
    const EntryRef ref = forward_queue_.back().entry;
    forward_queue_.pop_back();
    return ref;
  };
  while (!forward_queue_.empty() && forward_queue_.front().due - trigger_lead <= Now()) {
    const ScheduleEntry* front = view_.Get(forward_queue_.front().entry);
    if (front == nullptr || front->forwarded || front->backup_only) {
      pop();
      continue;
    }
    const TimePoint horizon = Now() + config_->max_vstate_lead;
    BatchMap batches;
    while (!forward_queue_.empty() && forward_queue_.front().due <= horizon) {
      if (ScheduleEntry* entry = view_.Get(pop())) {
        MaybeForwardEntry(*entry, batches);
      }
    }
    FlushBatches(batches);
    break;
  }
  After(config_->forward_interval, [this] { ForwardTick(); });
}

void Cub::MaybeForwardEntry(ScheduleEntry& entry, BatchMap& batches) {
  if (entry.forwarded || entry.backup_only) {
    return;
  }
  std::optional<ViewerStateRecord> next = SuccessorRecord(entry.record());
  if (!next.has_value()) {
    entry.forwarded = true;  // Terminal record (EOF / last fragment).
    return;
  }
  // Never let the successor's view run more than maxVStateLead ahead.
  if (Now() < next->due - config_->max_vstate_lead) {
    return;
  }
  // Scoped after the early-outs: the count is records actually encoded for
  // forwarding, not entries merely considered (the queue glue stays in
  // timer_dispatch).
  TIGER_PROF_SCOPE(kVStateEncode);
  entry.forwarded = true;
  StampLineageForSend(&*next);
  // Self-check corruption (InjectAuditCorruption): the forward evidence below
  // describes the honest record, but the copy bound for the last successor
  // (with two copies, the backup) carries its due shifted by 1ms. Same
  // DedupKey, so the protocol at worst re-times one block; the auditor's
  // shadow arithmetic and the invariant checker's due coherence must both
  // catch the disagreement.
  FailureView::NeighborList successors;
  failure_view_.NextLivingSuccessors(id_, config_->forward_copies, &successors);
  int targets = 0;
  for (CubId target : successors) {
    if (auditor_ != nullptr) {
      ShardEngine::JournalCall(auditor_, &AuditObserver::OnRecordForwarded, Now(), id_.value(),
                               target.value(), *next);
    }
    const NetAddress addr = addresses_->CubAddress(target);
    ViewerStateBatchMsg& batch = batches[addr];
    if (++targets == successors.count && corrupt_next_forward_) {
      corrupt_next_forward_ = false;
      ViewerStateRecord out = *next;
      out.due = out.due + Duration::Millis(1);
      batch.Add(out);
    } else {
      batch.Add(*next);
    }
    if (batch.wire_records.size() >= ViewerStateBatchMsg::kMaxBatchRecords) {
      SendBatchTo(addr, std::move(batch));
      batch = ViewerStateBatchMsg();
    }
  }
  TIGER_TRACE_INSTANT(tracer_, trace_track_, TraceEventType::kVStateForward,
                      TraceArgs{.viewer = next->viewer.value(),
                                .slot = next->slot.value(),
                                .a = next->position,
                                .b = targets});
}

void Cub::FlushBatches(BatchMap& batches) {
  for (auto& [target, batch] : batches) {
    if (batch.wire_records.empty()) {
      continue;
    }
    SendBatchTo(target, std::move(batch));
  }
}

void Cub::SendBatchTo(NetAddress target, ViewerStateBatchMsg&& batch) {
  TIGER_PROF_SCOPE(kVStateEncode);
  ChargeMessageCpu();
  auto msg = MakePooledMessage<ViewerStateBatchMsg>(std::move(batch));
  TIGER_TRACE_BEGIN_FLOW(msg->trace_flow, tracer_, trace_track_, TraceEventType::kVStateHop,
                         TraceArgs{.a = static_cast<int64_t>(msg->wire_records.size()),
                                   .b = static_cast<int64_t>(target)});
  const int64_t bytes = msg->WireBytes();
  net_->Send(address_, target, bytes, std::move(msg));
}

void Cub::ForwardEntryNow(EntryRef ref) {
  ScheduleEntry* entry = view_.Get(ref);
  if (entry == nullptr) {
    return;
  }
  BatchMap batches;
  MaybeForwardEntry(*entry, batches);
  FlushBatches(batches);
}

void Cub::SendRecordTo(CubId target, const ViewerStateRecord& record) {
  if (target == id_) {
    OnViewerState(record);
    return;
  }
  ChargeMessageCpu();
  auto msg = MakePooledMessage<ViewerStateBatchMsg>();
  ViewerStateRecord stamped = record;
  StampLineageForSend(&stamped);
  if (auditor_ != nullptr) {
    ShardEngine::JournalCall(auditor_, &AuditObserver::OnRecordForwarded, Now(), id_.value(),
                             target.value(), stamped);
  }
  msg->Add(stamped);
  TIGER_TRACE_BEGIN_FLOW(msg->trace_flow, tracer_, trace_track_, TraceEventType::kVStateHop,
                         TraceArgs{.a = static_cast<int64_t>(msg->wire_records.size()),
                                   .b = static_cast<int64_t>(target.value())});
  const int64_t bytes = msg->WireBytes();
  net_->Send(address_, addresses_->CubAddress(target), bytes, std::move(msg));
}

// ---------------------------------------------------------------------------
// Deschedule pipeline
// ---------------------------------------------------------------------------

void Cub::OnDeschedule(const DescheduleMsg& msg) {
  ChargeMessageCpu();
  counters_.deschedules_received++;
  if (msg.lineage.tagged() && msg.lineage.lamport > lamport_) {
    lamport_ = msg.lineage.lamport;
  }
  DescheduleRecord record = msg.record;

  // Purge any queued (not yet inserted) start for this instance.
  for (auto& [disk, queue] : start_queues_) {
    auto it = std::remove_if(queue.begin(), queue.end(), [&](const PendingStart& p) {
      return p.msg.instance == record.instance;
    });
    queue.erase(it, queue.end());
  }
  redundant_starts_.erase(record.instance.value());

  if (!record.slot.valid()) {
    // A stop that raced the insertion: the controller did not know the slot.
    // If the play got inserted meanwhile, we can recover it from our view.
    bool found = false;
    view_.ForEachEntry([&](ScheduleEntry& entry) {
      if (!found && entry.record().instance == record.instance && !entry.record().is_mirror()) {
        record.slot = entry.record().slot;
        found = true;
      }
    });
    if (!found) {
      return;  // Nothing scheduled here; queue purge was all that was needed.
    }
  }

  const TimePoint hold_until = Now() + config_->max_vstate_lead + config_->deschedule_hold;
  ScheduleView::DescheduleOutcome outcome = view_.ApplyDeschedule(record, Now(), hold_until);
  if (auditor_ != nullptr) {
    ShardEngine::JournalCall(auditor_, &AuditObserver::OnKill, Now(), id_.value(), record,
                             msg.lineage, static_cast<int>(outcome.removed.size()),
                             outcome.new_hold);
  }
  if (!outcome.removed.empty()) {
    counters_.deschedules_applied++;
    for (const ScheduleEntry& removed : outcome.removed) {
      // Buffers for blocks read but never to be sent must come back.
      if (removed.buffer_held && removed.block_ready && !removed.sent) {
        FreeBuffer(ReadBytesFor(removed.record()));
      }
    }
    if (checker_ != nullptr) {
      ShardEngine::JournalCall(checker_, &InvariantChecker::OnRemove, record.slot,
                               record.instance);
    }
  }
  if (!outcome.new_hold) {
    return;  // Duplicate; already forwarded once.
  }

  // Forward until the deschedule is more than maxVStateLead in front of the
  // slot: beyond that no viewer state for the killed play can exist (§4.1.2).
  Duration my_lead = Duration::Max();
  for (int local = 0; local < static_cast<int>(disks_.size()); ++local) {
    DiskId disk = GlobalDiskId(local);
    TimePoint next_service = geometry_->NextSlotStart(disk, record.slot, Now());
    my_lead = std::min(my_lead, next_service - Now());
  }
  if (disks_.empty()) {
    my_lead = Duration::Zero();  // Control-plane-only cubs always forward.
  }
  if (my_lead > config_->max_vstate_lead + config_->block_play_time) {
    return;
  }
  auto forward = MakePooledMessage<DescheduleMsg>();
  forward->record = record;
  forward->lineage = msg.lineage;
  if (forward->lineage.tagged()) {
    if (forward->lineage.hop_count < UINT16_MAX) {
      forward->lineage.hop_count++;
    }
    forward->lineage.lamport = ++lamport_;
  }
  FailureView::NeighborList successors;
  failure_view_.NextLivingSuccessors(id_, config_->forward_copies, &successors);
  for (CubId target : successors) {
    ChargeMessageCpu();
    net_->Send(address_, addresses_->CubAddress(target), DescheduleMsg::WireBytes(), forward);
  }
}

// ---------------------------------------------------------------------------
// Insertion (§4.1.3)
// ---------------------------------------------------------------------------

void Cub::OnStartPlay(const StartPlayMsg& msg) {
  ChargeMessageCpu();
  if (seen_instances_.contains(msg.instance.value()) ||
      redundant_starts_.contains(msg.instance.value())) {
    return;
  }
  const FileInfo& file = catalog_->Get(msg.file);
  DiskId first_disk = layout_->PrimaryDisk(file, msg.start_position);
  // The controller routes the primary copy to the first *living* cub for the
  // disk; only if that cub is (or becomes) dead does the redundant copy act.
  CubId responsible = config_->shape.CubOfDisk(first_disk);
  if (failure_view_.IsCubFailed(responsible)) {
    responsible = failure_view_.FirstLivingSuccessor(responsible);
  }
  if (msg.redundant && responsible != id_) {
    redundant_starts_.emplace(msg.instance.value(), PendingStart{msg, Now()});
    return;
  }
  EnqueueStart(msg);
}

void Cub::EnqueueStart(const StartPlayMsg& msg) {
  const FileInfo& file = catalog_->Get(msg.file);
  DiskId first_disk = layout_->PrimaryDisk(file, msg.start_position);
  // Duplicate-queue check (a redundant activation can race the original).
  auto& queue = start_queues_[first_disk];
  for (const PendingStart& pending : queue) {
    if (pending.msg.instance == msg.instance) {
      return;
    }
  }
  queue.push_back(PendingStart{msg, Now()});
  EnsureOwnershipTicking(first_disk);
}

void Cub::EnsureOwnershipTicking(DiskId disk) {
  if (ticking_disks_.contains(disk)) {
    return;
  }
  ticking_disks_.insert(disk);
  OwnershipWindows::OwnershipEvent event = windows_.NextOwnership(disk, Now());
  At(std::max(event.window_start, Now()), [this, disk] { OwnershipTick(disk); });
}

void Cub::OwnershipTick(DiskId disk) {
  auto queue_it = start_queues_.find(disk);
  if (queue_it == start_queues_.end() || queue_it->second.empty()) {
    ticking_disks_.erase(disk);  // Nothing to insert; stop scanning windows.
    return;
  }
  OwnershipWindows::OwnershipEvent event = windows_.NextOwnership(disk, Now());
  if (Now() >= event.window_start && Now() < event.window_end) {
    // We own `event.slot` right now. Insert if our view shows it free. A held
    // deschedule does not block insertion: its semantics only ever remove the
    // specific killed instance (§4.1.2), never a new occupant.
    //
    // "Free" looks well behind the due instant, not just at it: during a
    // failure-detection outage the occupant's records for recent passes may
    // be missing, but any record this cub holds from its own earlier service
    // (or as a double-forward backup) within the outage horizon still proves
    // occupancy. Deschedules remove those records, so killed slots reuse
    // immediately; only slots freed by end-of-file wait out the horizon.
    const Duration occupancy_lookback = config_->deadman_timeout +
                                        config_->heartbeat_interval * 2 +
                                        config_->block_play_time;
    if (Now() >= insert_allowed_after_ &&
        !view_.SlotBusyNear(event.slot, event.slot_start, occupancy_lookback)) {
      PendingStart pending = queue_it->second.front();
      queue_it->second.pop_front();
      InsertViewer(event.slot, event.slot_start, pending.msg);
    }
  }
  // Next window (contiguous with this one when duration == service time).
  OwnershipWindows::OwnershipEvent next = windows_.NextOwnership(disk, event.window_end);
  At(std::max(next.window_start, Now()), [this, disk] { OwnershipTick(disk); });
}

void Cub::InsertViewer(SlotId slot, TimePoint due, const StartPlayMsg& msg) {
  const FileInfo& file = catalog_->Get(msg.file);
  ViewerStateRecord record;
  record.viewer = msg.viewer;
  record.client_address = msg.client_address;
  record.instance = msg.instance;
  record.file = msg.file;
  record.position = msg.start_position;
  record.slot = slot;
  record.sequence = 0;
  record.bitrate_bps = msg.bitrate_bps > 0 ? msg.bitrate_bps : file.bitrate_bps;
  record.due = due;
  MintLineage(&record);
  if (auditor_ != nullptr) {
    ShardEngine::JournalCall(auditor_, &AuditObserver::OnRecordCreated, Now(), id_.value(),
                             AuditObserver::CreateKind::kInsert, record, msg.lineage);
  }

  EntryRef landed;
  ScheduleView::ApplyResult result = view_.ApplyViewerState(record, Now(), &landed);
  TIGER_CHECK(result == ScheduleView::ApplyResult::kNew)
      << "insertion into slot " << slot << " rejected: result " << static_cast<int>(result);
  counters_.inserts++;
  NoteLanding(record);
  NoteInstanceSeen(record.instance.value());
  TIGER_TRACE_INSTANT(tracer_, trace_track_, TraceEventType::kSlotInsert,
                      TraceArgs{.viewer = record.viewer.value(),
                                .slot = slot.value(),
                                .a = record.position});
  if (checker_ != nullptr) {
    ShardEngine::JournalCall(checker_, &InvariantChecker::OnInsert, slot, record.instance, Now());
  }

  auto confirm = MakePooledMessage<StartConfirmMsg>();
  confirm->viewer = record.viewer;
  confirm->instance = record.instance;
  confirm->slot = slot;
  confirm->file = record.file;
  confirm->first_block_due = due;
  ChargeMessageCpu();
  net_->Send(address_, addresses_->controller, StartConfirmMsg::WireBytes(), std::move(confirm));

  ProcessAcceptedRecord(landed);
  // Commit the insertion: the successor record must reach other machines now,
  // not at the next batching tick — the next owner of this slot needs it.
  ForwardEntryNow(landed);
}

void Cub::BootstrapRecord(const ViewerStateRecord& record) {
  EntryRef landed;
  ScheduleView::ApplyResult result = view_.ApplyViewerState(record, Now(), &landed);
  TIGER_CHECK(result == ScheduleView::ApplyResult::kNew ||
              result == ScheduleView::ApplyResult::kDuplicate);
  if (auditor_ != nullptr) {
    // Bootstrap seeds the same record on the slot owner and its backup; the
    // auditor treats the second creation as expected redundancy.
    ShardEngine::JournalCall(auditor_, &AuditObserver::OnRecordCreated, Now(), id_.value(),
                             AuditObserver::CreateKind::kBootstrap, record, RecordLineage{});
  }
  if (result == ScheduleView::ApplyResult::kNew) {
    NoteLanding(record);
    NoteInstanceSeen(record.instance.value());
    ProcessAcceptedRecord(landed);
  }
}

// ---------------------------------------------------------------------------
// Deadman protocol & failure handling
// ---------------------------------------------------------------------------

void Cub::OnHeartbeat(const HeartbeatMsg& msg) {
  ChargeMessageCpu();
  last_heard_[msg.from] = Now();
}

void Cub::HeartbeatTick() {
  auto beat = MakePooledMessage<HeartbeatMsg>();
  beat->from = id_;
  FailureView::NeighborList successors;
  failure_view_.NextLivingSuccessors(id_, 2, &successors);
  for (CubId target : successors) {
    ChargeMessageCpu();
    net_->Send(address_, addresses_->CubAddress(target), HeartbeatMsg::WireBytes(), beat);
  }
  DeadmanCheck();
  After(config_->heartbeat_interval, [this] { HeartbeatTick(); });
}

void Cub::DeadmanCheck() {
  // Snapshot: DeclareCubFailed below mutates failure_view_, and the check
  // must judge the predecessors as they stood when the tick fired.
  FailureView::NeighborList preds;
  failure_view_.PrevLivingPredecessors(id_, 2, &preds);
  for (CubId pred : preds) {
    auto it = last_heard_.find(pred);
    TimePoint last = it == last_heard_.end() ? Now() : it->second;
    if (it == last_heard_.end()) {
      last_heard_[pred] = Now();  // Start the clock on a new predecessor.
    }
    if (Now() - last > config_->deadman_timeout) {
      DeclareCubFailed(pred);
    }
  }
}

void Cub::DeclareCubFailed(CubId cub) {
  if (failure_view_.IsCubFailed(cub)) {
    return;
  }
  counters_.failures_detected++;
  TIGER_TRACE_INSTANT(tracer_, trace_track_, TraceEventType::kDeadmanFire,
                      TraceArgs{.a = cub.value()});
  TIGER_LOG(kWarning, name()) << "deadman: declaring cub " << cub << " failed";
  HandleFailure(cub, DiskId::Invalid());
  auto notice = MakePooledMessage<FailureNoticeMsg>();
  notice->failed_cub = cub;
  notice->reporter = id_;
  for (int c = 0; c < config_->shape.num_cubs; ++c) {
    CubId target(static_cast<uint32_t>(c));
    if (target != id_ && !failure_view_.IsCubFailed(target)) {
      ChargeMessageCpu();
      net_->Send(address_, addresses_->CubAddress(target), FailureNoticeMsg::WireBytes(),
                 notice);
    }
  }
  net_->Send(address_, addresses_->controller, FailureNoticeMsg::WireBytes(), notice);
}

void Cub::OnFailureNotice(const FailureNoticeMsg& msg) {
  ChargeMessageCpu();
  if (msg.failed_cub.valid() && msg.failed_cub == id_) {
    // A stale notice about our own death, still in flight from before we
    // rejoined. Believing it would make us mark ourselves failed.
    return;
  }
  if (msg.failed_cub.valid()) {
    if (failure_view_.IsCubFailed(msg.failed_cub)) {
      return;
    }
    HandleFailure(msg.failed_cub, DiskId::Invalid());
  } else if (msg.failed_disk.valid()) {
    if (failure_view_.IsDiskFailed(msg.failed_disk)) {
      return;
    }
    HandleFailure(CubId::Invalid(), msg.failed_disk);
  }
}

void Cub::OnRejoinRequest(const RejoinRequestMsg& msg) {
  ChargeMessageCpu();
  if (msg.from == id_) {
    return;
  }
  failure_view_.MarkCubAlive(msg.from);
  for (int d = 0; d < config_->shape.disks_per_cub; ++d) {
    failure_view_.MarkDiskAlive(config_->shape.GlobalDiskIndex(msg.from, d));
  }
  // The rejoined cub may now be one of our predecessors: give it a fresh
  // deadman grace period instead of judging it by its pre-crash silence.
  FailureView::NeighborList preds;
  failure_view_.PrevLivingPredecessors(id_, 2, &preds);
  for (CubId pred : preds) {
    last_heard_.try_emplace(pred, Now());
  }
  // Answer with our failure beliefs and every not-yet-due primary record in
  // our window. Failure vectors are sorted so identical beliefs produce
  // byte-identical replies regardless of hash-set iteration order.
  auto reply = MakePooledMessage<RejoinReplyMsg>();
  reply->from = id_;
  reply->failed_cubs.assign(failure_view_.failed_cubs().begin(),
                            failure_view_.failed_cubs().end());
  std::sort(reply->failed_cubs.begin(), reply->failed_cubs.end());
  reply->failed_disks.assign(failure_view_.failed_disks().begin(),
                             failure_view_.failed_disks().end());
  std::sort(reply->failed_disks.begin(), reply->failed_disks.end());
  view_.ForEachEntry([&](ScheduleEntry& entry) {
    // Past-due records prove nothing the rejoiner needs (ongoing chains have
    // future-due records too) and would only count as missed sends there.
    if (!entry.record().is_mirror() && entry.record().due >= Now()) {
      reply->Add(entry.record());
    }
  });
  ChargeMessageCpu();
  const int64_t bytes = reply->WireBytes();
  net_->Send(address_, addresses_->CubAddress(msg.from), bytes, std::move(reply));
}

void Cub::OnRejoinReply(const RejoinReplyMsg& msg) {
  ChargeMessageCpu();
  // Merge failure beliefs first so the records below route takeovers and
  // forwards against an up-to-date view.
  for (CubId cub : msg.failed_cubs) {
    if (cub != id_ && !failure_view_.IsCubFailed(cub)) {
      HandleFailure(cub, DiskId::Invalid());
    }
  }
  for (DiskId disk : msg.failed_disks) {
    // Skip our own disks: TigerSystem restarted them along with us, and a
    // peer's stale belief about them must not outlive the reboot.
    if (config_->shape.CubOfDisk(disk) != id_ && !failure_view_.IsDiskFailed(disk)) {
      HandleFailure(CubId::Invalid(), disk);
    }
  }
  for (const ViewerStateRecord& record : msg.Decode()) {
    if (record.due >= Now()) {
      OnViewerState(record);
    }
  }
}

void Cub::HandleFailure(CubId failed_cub, DiskId failed_disk) {
  if (failed_cub.valid()) {
    failure_view_.MarkCubFailed(failed_cub);
    last_heard_.erase(failed_cub);
    // Fresh grace period for whoever just became our predecessor.
    FailureView::NeighborList preds;
    failure_view_.PrevLivingPredecessors(id_, 2, &preds);
    for (CubId pred : preds) {
      last_heard_.try_emplace(pred, Now());
    }
    // Bridge the gap (§2.3): forwards already sent may have gone to the dead
    // cub (or, with consecutive failures, to two dead cubs) and vanished.
    // Re-arm forwarding for every still-relevant entry; the next tick sends
    // to the *living* successors and idempotent receive absorbs any copies
    // that did get through.
    if (config_->reforward_on_failure) {
      view_.ForEachEntry([&](ScheduleEntry& entry) {
        if (entry.backup_only || !entry.forwarded || entry.takeover_processed) {
          return;
        }
        std::optional<ViewerStateRecord> next = SuccessorRecord(entry.record());
        if (next.has_value() && next->due + config_->block_play_time >= Now()) {
          entry.forwarded = false;
          NoteUnforwardedEntry(entry.record(), view_.RefOf(entry));
        }
      });
    }
    if (failure_view_.FirstLivingSuccessor(failed_cub) == id_) {
      ActivateRedundantStarts();
    }
    // Takeover duty may fall to us for any disk of the dead cub (and, after
    // consecutive failures, for earlier dead cubs we now succeed).
    ScanForTakeovers();
  } else if (failed_disk.valid()) {
    failure_view_.MarkDiskFailed(failed_disk);
    CubId owner = config_->shape.CubOfDisk(failed_disk);
    if (owner != id_ && failure_view_.FirstLivingSuccessor(owner) == id_) {
      ScanForTakeovers();
    }
  }
}

void Cub::ScanForTakeovers() {
  // Records whose due time already passed still need their takeover: the
  // mirror chain for those blocks is lost (the detection window), but the
  // successor-record generation and end-of-play accounting must proceed.
  // TakeoverRecord itself skips the mirror chain for past-due blocks.
  std::vector<EntryRef> refs;
  view_.ForEachEntry([&](ScheduleEntry& entry) {
    if (entry.record().is_mirror() || entry.takeover_processed) {
      return;
    }
    DiskId serving = ServingDisk(entry.record());
    if (failure_view_.IsDiskFailed(serving) &&
        config_->shape.CubOfDisk(serving) != id_ &&
        failure_view_.FirstLivingSuccessor(config_->shape.CubOfDisk(serving)) == id_) {
      refs.push_back(view_.RefOf(entry));
    }
  });
  for (EntryRef ref : refs) {
    TakeoverRecord(ref);
  }
}

void Cub::ActivateRedundantStarts() {
  // Re-derive responsibility under the updated failure view: any redundant
  // start for which this cub is now the first living responsible cub moves
  // into the live queue.
  std::vector<PendingStart> to_activate;
  for (auto it = redundant_starts_.begin(); it != redundant_starts_.end();) {
    const StartPlayMsg& msg = it->second.msg;
    const FileInfo& file = catalog_->Get(msg.file);
    CubId responsible =
        config_->shape.CubOfDisk(layout_->PrimaryDisk(file, msg.start_position));
    if (failure_view_.IsCubFailed(responsible)) {
      responsible = failure_view_.FirstLivingSuccessor(responsible);
    }
    if (responsible == id_) {
      to_activate.push_back(it->second);
      it = redundant_starts_.erase(it);
    } else {
      ++it;
    }
  }
  for (const PendingStart& pending : to_activate) {
    EnqueueStart(pending.msg);
  }
}

// ---------------------------------------------------------------------------
// Housekeeping
// ---------------------------------------------------------------------------

void Cub::EvictionTick() {
  // Backup copies must outlive the deadman detection window: the takeover
  // scan reads them when a peer dies, up to deadman_timeout after their due
  // time. Evicting earlier would silently drop in-flight streams (and their
  // end-of-play accounting) across a failure.
  Duration retention = std::max(
      config_->view_retention, config_->deadman_timeout + config_->heartbeat_interval * 2);
  view_.EvictBefore(Now() - retention, Now());
  // Age out seen-instance stamps. Entries are refreshed on every accepted
  // record, so a live stream's stamp stays fresh whenever its blocks pass
  // through this cub; an entry this stale can only belong to a finished or
  // departed play, far outside the window in which a duplicate StartPlay or a
  // redundant activation could still arrive. Several deadman windows of slack
  // on top of the view retention keeps the check conservative.
  const Duration seen_retention =
      retention + config_->deadman_timeout * 2 + config_->block_play_time * 2;
  const TimePoint seen_horizon = Now() - seen_retention;
  while (seen_oldest_ != nullptr && seen_oldest_->second.stamp < seen_horizon) {
    const uint64_t expired = seen_oldest_->first;
    UnlinkSeen(seen_oldest_);
    seen_nodes_.push_back(seen_instances_.extract(expired));
  }
  After(Duration::Seconds(1), [this] { EvictionTick(); });
}

}  // namespace tiger
