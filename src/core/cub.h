// A cub: one content machine of the Tiger system.
//
// The cub is a pure message-and-timer state machine. It owns a bounded view
// of the (hallucinated) global schedule near its own disks and implements:
//
//  * steady-state viewer-state propagation, batched and double-forwarded to
//    its next two living successors (§4.1.1);
//  * the idempotent deschedule pipeline with hold records (§4.1.2);
//  * slot-ownership insertion of queued start requests (§4.1.3);
//  * mirror takeover: when the disk a record names is failed and this cub is
//    the first living successor of its owner, the cub synthesizes the
//    declustered mirror chain and carries the failed cub's forwarding duties
//    (§2.3, §4.1.1);
//  * the cub side of the deadman protocol.

#ifndef SRC_CORE_CUB_H_
#define SRC_CORE_CUB_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/due_amounts.h"
#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/core/address_book.h"
#include "src/core/audit_hooks.h"
#include "src/core/block_cache.h"
#include "src/core/config.h"
#include "src/core/failure_view.h"
#include "src/core/messages.h"
#include "src/disk/disk.h"
#include "src/layout/striping.h"
#include "src/net/network.h"
#include "src/net/payload_pool.h"
#include "src/schedule/geometry.h"
#include "src/schedule/schedule_view.h"
#include "src/sim/actor.h"
#include "src/stats/meter.h"
#include "src/stats/qos.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"

namespace tiger {

class InvariantChecker;

class Cub : public Actor, public NetworkEndpoint {
 public:
  struct Counters {
    int64_t records_received = 0;
    int64_t records_new = 0;
    int64_t records_duplicate = 0;
    int64_t records_killed_by_deschedule = 0;
    int64_t records_too_late = 0;
    int64_t records_conflict = 0;
    int64_t blocks_sent = 0;
    int64_t fragments_sent = 0;
    int64_t server_missed_blocks = 0;
    int64_t deschedules_received = 0;
    int64_t deschedules_applied = 0;
    int64_t inserts = 0;
    int64_t takeovers = 0;
    int64_t buffer_stalls = 0;
    int64_t failures_detected = 0;
    int64_t disk_read_errors = 0;
    int64_t mirror_recoveries = 0;
    int64_t rejoins = 0;
    // Records dropped by the lineage hop-count TTL guard (re-forward loops).
    int64_t records_ttl_dropped = 0;
  };

  Cub(Simulator* sim, CubId id, const TigerConfig* config, const Catalog* catalog,
      const StripeLayout* layout, const ScheduleGeometry* geometry, MessageBus* net, Rng rng);

  // Wiring (called by TigerSystem before Start()).
  void AttachDisks(std::vector<SimulatedDisk*> disks);
  void SetAddressBook(const AddressBook* addresses) { addresses_ = addresses; }
  // Schedule invariant checker (test hook); null = no checker. Survives
  // Rejoin().
  void SetInvariantChecker(InvariantChecker* checker) { checker_ = checker; }
  void SetFaultStats(FaultStats* stats) { fault_stats_ = stats; }
  // QoS cause attribution: the cub annotates blocks it knows it degraded
  // (missed deadline, mirror chain, too-late record, deschedule kill) so the
  // ledger can name the root cause when the client reports the glitch.
  // Survives Rejoin().
  void SetQosLedger(QosLedger* qos) { qos_ = qos; }
  // Wires the observability layer: protocol steps land on `track`, the
  // viewer-state lead distribution feeds `metrics`. Survives Rejoin().
  void SetTrace(Tracer* tracer, TraceTrackId track, MetricsRegistry* metrics);
  // Passive audit evidence sink (see audit_hooks.h); null = no auditor.
  // Attaching one also turns on the view's landing log, which the auditor's
  // view diff drains. Detaching leaves the log on: an entry that lands while
  // the hooks are silent must still reach the diff, as a phantom record.
  // Survives Rejoin().
  void SetAuditObserver(AuditObserver* auditor) {
    auditor_ = auditor;
    if (auditor != nullptr) {
      view_.EnableLandingLog();
    }
  }

  // Self-check: shift the due time of the next forwarded record's last copy
  // (the backup's, with two copies) by 1ms, after the forward evidence is
  // emitted, so the auditor's shadow disagrees with what arrived and the
  // two copies disagree with each other. One-shot; proves end-to-end
  // divergence detection.
  void InjectAuditCorruption() { corrupt_next_forward_ = true; }

  // Begins heartbeats and periodic ticks.
  void Start();

  // Power loss: stop all activity and take the node off the network. The
  // caller (TigerSystem) also halts the cub's disks.
  void Fail();

  // Restart after a Fail(). The caller (TigerSystem) has already restarted
  // the actor epoch, the cub's disks, and the network endpoint. The cub
  // forgets all protocol state (a rebooted machine remembers nothing),
  // restarts heartbeats, and broadcasts a RejoinRequest so living peers mark
  // it alive and send it the schedule window it is responsible for.
  void Rejoin();

  // Fails one local drive; the cub stays up.
  void FailLocalDisk(int local_index);

  // Injects a steady-state viewer directly into this cub's view, bypassing
  // the start protocol (benchmark bootstrap). The record must name a disk
  // this cub serves.
  void BootstrapRecord(const ViewerStateRecord& record);

  NetAddress address() const { return address_; }
  CubId id() const { return id_; }
  const Counters& counters() const { return counters_; }
  const ScheduleView& view() const { return view_; }
  const CumulativeMeter& cpu_meter() const { return cpu_; }
  const FailureView& failure_view() const { return failure_view_; }
  const BlockCache& block_cache() const { return cache_; }
  // Buffer pool bytes not holding a block. A block whose paced transfer has
  // ended counts as returned, whether or not anything has reclaimed it yet.
  int64_t free_buffer_bytes() const;
  size_t queued_start_requests() const;
  // When this cub last saw a viewer state of `instance`; nullopt once the
  // sighting has aged out (or never happened).
  std::optional<TimePoint> InstanceLastSeen(uint64_t instance) const;
  // Items in the forward queue, stale ones included.
  size_t forward_queue_size() const { return forward_queue_.size(); }
  DiskId GlobalDiskId(int local_index) const;

  // The record this cub forwards on behalf of `record` (the next block for a
  // primary, the next fragment for a mirror); nullopt at end of file / chain.
  std::optional<ViewerStateRecord> SuccessorRecord(const ViewerStateRecord& record) const;
  // Margin subtracted from a successor's due time when deciding whether the
  // batch must flush now (network latency + jitter + one tick + slack).
  Duration ForwardSafety() const;

  // NetworkEndpoint:
  void HandleMessage(const MessageEnvelope& envelope) override;

 private:
  struct PendingStart {
    StartPlayMsg msg;
    TimePoint queued_at;
  };

  // A seen instance's last sighting. The nodes of seen_instances_ also form
  // a recency list, oldest stamp first: a sighting moves its node to the
  // newest end, so aging pops expired nodes off the oldest end and never
  // looks at a live one. Stamps are Now() and a cub's clock only advances,
  // so the list stays sorted. The links fit in the node's pool block beside
  // the stamp, so the index costs no memory.
  struct SeenStamp;
  using SeenNode = std::pair<const uint64_t, SeenStamp>;
  struct SeenStamp {
    TimePoint stamp;
    SeenNode* older = nullptr;
    SeenNode* newer = nullptr;
  };
  using SeenMap = std::unordered_map<uint64_t, SeenStamp, std::hash<uint64_t>,
                                     std::equal_to<uint64_t>, PoolAllocator<SeenNode>>;

  // --- message handlers ---
  void OnViewerStateBatch(const ViewerStateBatchMsg& msg);
  void OnViewerState(const ViewerStateRecord& record);
  void OnDeschedule(const DescheduleMsg& msg);
  void OnStartPlay(const StartPlayMsg& msg);
  void OnHeartbeat(const HeartbeatMsg& msg);
  void OnFailureNotice(const FailureNoticeMsg& msg);
  void OnRejoinRequest(const RejoinRequestMsg& msg);
  void OnRejoinReply(const RejoinReplyMsg& msg);

  // --- record processing ---
  // Every per-entry step names its entry by ref: a step whose entry has left
  // the view (descheduled or evicted) finds nothing and does nothing.
  using EntryRef = ScheduleView::EntryRef;
  // Routes a freshly accepted record: serve it, take over mirroring, or hold
  // it as a fault-tolerance backup.
  void ProcessAcceptedRecord(EntryRef ref);
  void ScheduleEntryWork(EntryRef ref, TimePoint due);
  void IssueRead(EntryRef ref);
  void SendBlock(EntryRef ref);
  void TakeoverRecord(EntryRef ref);
  // Applies a record this cub synthesized on a takeover to its own view, as
  // if received.
  void LandSynthesized(const ViewerStateRecord& record);
  // After a transient read error on the primary disk, dispatch the block's
  // declustered mirror chain so the viewer is served from the secondaries.
  void RecoverBlockViaMirrors(EntryRef ref);
  // Starts primary `record`'s declustered mirror chain at its first living
  // fragment disk (§2.3), announced to the auditor as `kind`. A takeover
  // lands a fragment for this cub's own disk locally; every other fragment
  // is sent to the disk's cub.
  void StartMirrorChain(const ViewerStateRecord& record, AuditObserver::CreateKind kind);
  // Reports a record that just landed in the view to the invariant checker.
  void NoteLanding(const ViewerStateRecord& record);
  // Bytes of buffer a record's disk read occupies (allocated block size for
  // primaries, one fragment for mirrors).
  int64_t ReadBytesFor(const ViewerStateRecord& record) const;

  // The disk that must service this record (primary disk or mirror-fragment
  // disk).
  DiskId ServingDisk(const ViewerStateRecord& record) const;
  bool IsMyDisk(DiskId disk) const;
  SimulatedDisk* LocalDisk(DiskId disk) const;

  // --- forwarding ---
  // Per-successor batch accumulator for one forwarding pass. Pool-backed so
  // the per-tick build/flush cycle recycles map nodes instead of allocating.
  using BatchMap =
      std::unordered_map<NetAddress, ViewerStateBatchMsg, std::hash<NetAddress>,
                         std::equal_to<NetAddress>,
                         PoolAllocator<std::pair<const NetAddress, ViewerStateBatchMsg>>>;
  void ForwardTick();
  // Files the entry `ref` names in forward_queue_ under its successor's due
  // time. Must be called whenever an entry this cub is responsible for
  // forwarding enters the view (or is re-armed) unforwarded, or ForwardTick
  // never sends it.
  void NoteUnforwardedEntry(const ViewerStateRecord& record, EntryRef ref);
  // seen_instances_[instance] = Now(), reusing a stashed node if available,
  // and moves the instance to the newest end of the recency list.
  void NoteInstanceSeen(uint64_t instance);
  void UnlinkSeen(SeenNode* node);
  // Forwards `entry`'s successor record immediately if eligible; marks it.
  void MaybeForwardEntry(ScheduleEntry& entry, BatchMap& batches);
  void FlushBatches(BatchMap& batches);
  void SendBatchTo(NetAddress target, ViewerStateBatchMsg&& batch);
  void ForwardEntryNow(EntryRef ref);
  // Sends a single synthesized record (takeover / mirror-recovery paths) as a
  // one-record batch, or applies it locally when target == this cub.
  void SendRecordTo(CubId target, const ViewerStateRecord& record);

  // --- insertion ---
  void EnqueueStart(const StartPlayMsg& msg);
  void EnsureOwnershipTicking(DiskId disk);
  void OwnershipTick(DiskId disk);
  void InsertViewer(SlotId slot, TimePoint due, const StartPlayMsg& msg);

  // --- failure handling ---
  void HeartbeatTick();
  void DeadmanCheck();
  void DeclareCubFailed(CubId cub);
  void HandleFailure(CubId failed_cub, DiskId failed_disk);
  void ScanForTakeovers();
  void ActivateRedundantStarts();

  // --- lineage (audit) ---
  // Mints a fresh lineage chain on a locally created record: this cub as
  // origin, a new epoch, hop 0, and a fresh Lamport stamp.
  void MintLineage(ViewerStateRecord* record);
  // Stamps a record about to leave this cub (Lamport tick). Untagged records
  // (pre-lineage peers) are left untouched.
  void StampLineageForSend(ViewerStateRecord* record);
  // Merges a received record's Lamport stamp into the local clock.
  void MergeLineageClock(const ViewerStateRecord& record);

  // --- housekeeping ---
  void EvictionTick();
  void ChargeCpu(Duration cost) { cpu_.Add(Now(), static_cast<double>(cost.micros())); }
  void ChargeMessageCpu() { ChargeCpu(config_->cpu.per_control_message); }
  Duration MirrorFragmentSpacing(int from_fragment) const;
  void FreeBuffer(int64_t bytes);

  CubId id_;
  const TigerConfig* config_;
  const Catalog* catalog_;
  const StripeLayout* layout_;
  const ScheduleGeometry* geometry_;
  OwnershipWindows windows_;
  MessageBus* net_;
  NetAddress address_ = kInvalidAddress;
  const AddressBook* addresses_ = nullptr;
  InvariantChecker* checker_ = nullptr;
  FaultStats* fault_stats_ = nullptr;
  QosLedger* qos_ = nullptr;
  AuditObserver* auditor_ = nullptr;
  Tracer* tracer_ = nullptr;
  TraceTrackId trace_track_ = 0;
  BoundedHistogram* vstate_lead_ms_ = nullptr;
  Rng rng_;

  std::vector<SimulatedDisk*> disks_;  // Index = local disk index.
  BlockCache cache_;
  ScheduleView view_;
  FailureView failure_view_;
  Counters counters_;
  CumulativeMeter cpu_;

  int64_t free_buffer_bytes_ = 0;
  // Buffers of blocks on the wire, by transfer end; not counted in
  // free_buffer_bytes_. Taken back before a read decides on the free count,
  // instead of by one timer per block.
  DueAmounts buffer_returns_;
  // All steady-churn containers below draw from the thread-local payload pool
  // so insert/erase cycles recycle nodes instead of hitting the heap.
  using StartQueue = std::deque<PendingStart, PoolAllocator<PendingStart>>;
  std::unordered_map<DiskId, StartQueue, std::hash<DiskId>, std::equal_to<DiskId>,
                     PoolAllocator<std::pair<const DiskId, StartQueue>>>
      start_queues_;
  std::unordered_set<DiskId, std::hash<DiskId>, std::equal_to<DiskId>, PoolAllocator<DiskId>>
      ticking_disks_;
  std::unordered_map<uint64_t, PendingStart, std::hash<uint64_t>, std::equal_to<uint64_t>,
                     PoolAllocator<std::pair<const uint64_t, PendingStart>>>
      redundant_starts_;  // By instance id.
  // Instances whose viewer states this cub has seen (dedupes duplicate starts
  // and clears redundant copies), stamped with the last sighting so
  // EvictionTick can age entries out — a plain ever-growing set would be an
  // allocation per instance rotation, forever. The retention window in
  // EvictionTick comfortably covers both uses: duplicate StartPlay copies
  // arrive within the network-duplication delay of the original, and a
  // redundant start only activates within the deadman detection window.
  // seen_oldest_/seen_newest_ are the ends of its recency list (SeenStamp).
  SeenMap seen_instances_;
  SeenNode* seen_oldest_ = nullptr;
  SeenNode* seen_newest_ = nullptr;
  // Nodes aged out of seen_instances_, kept for reuse. EvictionTick fires at
  // the same sim instant on every cub, so at large shapes the synchronized
  // burst of freed nodes would overflow the payload pool's per-class cap and
  // the next second's inserts would hit the heap; a per-cub stash is
  // burst-proof. Bounded by the map's peak size.
  std::vector<SeenMap::node_type> seen_nodes_;
  std::unordered_map<CubId, TimePoint, std::hash<CubId>, std::equal_to<CubId>,
                     PoolAllocator<std::pair<const CubId, TimePoint>>>
      last_heard_;
  // Reused by batch decodes (ViewerStateBatchMsg::DecodeInto) so the per-hop
  // receive path stops allocating a fresh record vector per message.
  std::vector<ViewerStateRecord> decode_scratch_;
  bool started_ = false;
  // A freshly rejoined cub holds off inserting new viewers until its view has
  // been repopulated by rejoin replies (occupancy proof for its slots).
  TimePoint insert_allowed_after_ = TimePoint::Zero();
  // Forward queue: a min-heap of (successor due, key) items, one filed per
  // entry that became pending (accepted here or re-armed after a failure).
  // The front holds the earliest flush trigger, so a forward tick touches
  // only the items it forwards or finds stale. An item is stale once its
  // ref is stale or its entry is forwarded or backup-only; stale items are
  // dropped as they surface. Heap order is the batch order on the wire.
  struct ForwardItem {
    TimePoint due;  // The successor record's due time.
    ViewerStateRecord::Key key;
    EntryRef entry;  // Resolves the item; not part of the order.
    // With std::greater, the heap's front is the earliest (due, key).
    friend bool operator>(const ForwardItem& a, const ForwardItem& b) {
      return std::tie(a.due, a.key) > std::tie(b.due, b.key);
    }
  };
  std::vector<ForwardItem> forward_queue_;
  // Lamport clock over lineage-tagged control messages; survives Rejoin() via
  // the merge on the first received record (a reboot forgetting the clock is
  // safe: merged stamps only ever move it forward).
  uint64_t lamport_ = 0;
  // Next chain epoch for records minted here. Monotone per cub lifetime.
  uint32_t next_record_epoch_ = 1;
  // One-shot self-check flag (see InjectAuditCorruption).
  bool corrupt_next_forward_ = false;
};

}  // namespace tiger

#endif  // SRC_CORE_CUB_H_
