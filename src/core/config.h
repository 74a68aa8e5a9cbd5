// Configuration of a Tiger system.
//
// Defaults reproduce the §5 testbed: 14 cubs × 4 disks, 2 Mbit/s streams,
// 0.25 MB blocks (1 s block play time), decluster factor 4, OC-3 NICs —
// yielding 602 schedule slots.

#ifndef SRC_CORE_CONFIG_H_
#define SRC_CORE_CONFIG_H_

#include <algorithm>
#include <cstdint>

#include "src/common/time.h"
#include "src/common/units.h"
#include "src/disk/disk.h"
#include "src/disk/disk_model.h"
#include "src/layout/shape.h"
#include "src/net/network.h"
#include "src/schedule/geometry.h"

namespace tiger {

// CPU cost model (Pentium-133-class cubs). The dominant term is packetizing
// video data onto the ATM network ("we believe that most of the CPU time was
// spent packetizing the video data", §5); control-plane costs are small.
struct CpuCostModel {
  double ns_per_data_byte = 58.0;
  Duration per_block_operation = Duration::Micros(500);
  Duration per_control_message = Duration::Micros(100);
  Duration per_viewer_state = Duration::Micros(20);
  Duration per_disk_completion = Duration::Micros(150);
  Duration controller_per_request = Duration::Millis(2);
  // The controller is the system clock master and contact point; it carries a
  // small load-independent background cost (the flat line in Figures 8/9).
  Duration controller_background_per_100ms = Duration::Millis(1500) / 1000;

  Duration DataSendCost(int64_t bytes) const {
    return per_block_operation +
           Duration::Micros(static_cast<int64_t>(ns_per_data_byte * static_cast<double>(bytes) /
                                                 1000.0));
  }
};

// Reconnect policy for the live-cluster TCP bus. A cub that cannot reach a
// peer backs off exponentially (with jitter, so a rebooted peer is not hit by
// a synchronized thundering herd of reconnects) instead of hammering a flat
// retry period.
struct TcpRetryConfig {
  Duration connect_backoff_initial = Duration::Millis(50);
  Duration connect_backoff_cap = Duration::Seconds(2);
  // Each delay is scaled by a uniform factor in [1 - jitter, 1 + jitter].
  double backoff_jitter = 0.25;
};

struct TigerConfig {
  SystemShape shape{14, 4, 4};
  Duration block_play_time = Duration::Seconds(1);
  int64_t block_bytes = 262144;  // 0.25 MB
  // Configured maximum stream rate (single-bitrate systems run every file at
  // block_bytes per block_play_time regardless).
  int64_t max_stream_bps = Megabits(2);
  bool fault_tolerant = true;
  // When false the block service time assumes every read is a primary read;
  // the system then has more slots but cannot cover failures.
  DiskModel disk_model = UltrastarModel();

  int64_t cub_nic_bps = 155000000;       // OC-3.
  int64_t controller_nic_bps = 155000000;
  int64_t client_nic_bps = 100000000;

  // --- viewer-state propagation (§4.1.1) ---
  Duration min_vstate_lead = Duration::Seconds(4);
  Duration max_vstate_lead = Duration::Seconds(9);
  // Cubs batch eligible viewer states and forward on this cadence.
  Duration forward_interval = Duration::Millis(100);
  // How many successors receive each record (2 = paper's double-forwarding).
  int forward_copies = 2;
  // On failure detection, re-send still-relevant records to the (new) living
  // successors. This is the paper's rejected alternative to double
  // forwarding ("go back, figure out what schedule information had been lost
  // and recreate it") — implemented here because it is also what bridges
  // consecutive failures. The forwarding ablation turns it off to expose the
  // §4.1.1 tradeoff.
  bool reforward_on_failure = true;
  // TTL guard on forwarded viewer states. A record whose lineage hop count
  // exceeds its own sequence number by more than this slack has been around
  // the ring more times than the schedule can explain (a re-forward loop
  // under partition + rejoin); the receiving cub drops it instead of
  // applying. In a healthy ring hop_count tracks sequence (+1 each per
  // successor hop), so the slack only needs to absorb re-sends: failure
  // re-forwarding, rejoin replays, and mirror fragment synthesis. 0 disables
  // the guard. Only enforced on lineage-tagged records.
  int max_hop_slack = 64;

  // --- insertion (§4.1.3) ---
  // Gap between winning a slot and the block being due at the network; covers
  // the first disk read. Must be >= one block service time.
  Duration scheduling_lead = Duration::Millis(700);
  // Ownership window length; zero means "use the effective block service
  // time" (windows then tile the schedule with no unowned gaps).
  Duration ownership_duration = Duration::Zero();

  // --- deschedule (§4.1.2) ---
  Duration deschedule_hold = Duration::Seconds(3);

  // --- cub data path ---
  // Issue disk reads up to this far before the block is due ("the disks run
  // at least one block service time ahead ... usually a little earlier").
  Duration read_ahead = Duration::Millis(800);
  // Random reduction of the read-ahead per block, uniform in [0, jitter]
  // ("the disks run at least one block service time ahead of the schedule.
  // Usually, they run a little earlier, trading off buffer usage to cover
  // for slight variations", §3.1). Nonzero jitter makes queue submission
  // order diverge from deadline order, which is what the EDF disk
  // discipline exploits.
  Duration read_ahead_jitter = Duration::Zero();
  // Buffer pool per cub. A buffer is held from read issue until the block's
  // network transmission completes (zero-copy disk-to-network path, §2.2).
  int64_t buffer_pool_bytes = 24LL * 1024 * 1024;
  // Block buffer cache (paper: ~20 MB/cub, measured hit rate < 0.05% — i.e.
  // behaviourally negligible, §5). Disabled by default so the calibrated disk
  // loads are unaffected; the loss_rates bench enables it for the hit-rate
  // measurement.
  int64_t block_cache_bytes = 0;
  // View eviction / retention beyond a record's due time.
  Duration view_retention = Duration::Seconds(4);
  // Disk queue discipline. FIFO matches the single-bitrate Tiger; EDF
  // implements §3.2's observation that disk reads may be reordered as long
  // as they complete before their network due times.
  DiskQueueDiscipline disk_discipline = DiskQueueDiscipline::kFifo;

  // --- multiple-bitrate system (§3.2, §4.2) ---
  // Gap between picking a network-schedule offset and its first pass at the
  // inserting cub; covers the reserve round trip and the first disk read,
  // which are overlapped.
  Duration multirate_insertion_lead = Duration::Millis(1500);
  // The originating cub aborts a tentative insertion if the successor's
  // confirmation has not arrived by then.
  Duration reserve_timeout = Duration::Millis(500);
  // Admission cap on aggregate committed disk utilization.
  double disk_budget_cap = 0.90;

  // --- deadman protocol ---
  Duration heartbeat_interval = Duration::Millis(500);
  // Detection latency; sized so the measured service gap after a power cut
  // is ~8 s, as in §5's reconfiguration measurement.
  Duration deadman_timeout = Duration::Seconds(7);

  // --- sharded engine (DESIGN.md §6h) ---
  // Ring-segment shards the simulation partitions into; 1 = the serial run,
  // a one-shard engine that dispatches the classic serial event order (the
  // trace golden pins it). The logical schedule
  // depends on sim_shards, never on sim_threads. 0 = auto-tune: TigerSystem
  // resolves it to AutoShardCount(shape.num_cubs, hardware threads) at
  // construction and logs the choice (it changes the logical schedule, so
  // anyone diffing runs needs to see it).
  int sim_shards = 1;
  // Worker threads driving the shards (capped at sim_shards). Any thread
  // count yields byte-identical output for a fixed sim_shards. 0 = auto:
  // min(resolved sim_shards, hardware threads).
  int sim_threads = 1;

  // Shard-count auto-tune policy (sim_shards == 0). One shard per hardware
  // thread is the speedup ceiling, but tiny ring segments are
  // counterproductive — below ~12 cubs per shard most neighbor forwarding
  // crosses a shard boundary and the barrier merge dominates (EXPERIMENTS.md
  // E17 scale sweep). Clamped to [1, 256].
  static int AutoShardCount(int num_cubs, int hardware_threads) {
    const int by_segment = num_cubs / 12;
    int shards = std::min(hardware_threads, by_segment);
    if (shards < 1) {
      shards = 1;
    }
    return std::min(shards, 256);
  }

  CpuCostModel cpu;
  NetworkConfig net;
  TcpRetryConfig tcp_retry;

  // When false, disk reads and block transmission are skipped (control-plane
  // experiments such as the §3.3 scalability sweep).
  bool simulate_data_plane = true;

  // --- derived quantities ---

  int64_t stream_block_bytes() const { return block_bytes; }

  Duration RawBlockServiceTime() const {
    Duration disk_limited =
        disk_model.ServiceBudget(block_bytes, shape.decluster_factor, fault_tolerant);
    // NIC-limited service time: a cub's NIC sustains nic/stream streams
    // across its disks_per_cub disks.
    const double streams_per_cub =
        static_cast<double>(cub_nic_bps) / static_cast<double>(max_stream_bps);
    const double streams_per_disk = streams_per_cub / shape.disks_per_cub;
    Duration net_limited = Duration::Micros(static_cast<int64_t>(
        static_cast<double>(block_play_time.micros()) / streams_per_disk));
    return std::max(disk_limited, net_limited);
  }

  ScheduleGeometry MakeGeometry() const {
    return ScheduleGeometry(shape.TotalDisks(), block_play_time, RawBlockServiceTime());
  }

  OwnershipParams MakeOwnershipParams() const {
    ScheduleGeometry geometry = MakeGeometry();
    Duration duration = ownership_duration > Duration::Zero()
                            ? ownership_duration
                            : geometry.effective_block_service_time();
    return OwnershipParams{scheduling_lead, duration};
  }

  int64_t MaxStreams() const { return MakeGeometry().slot_count(); }
};

}  // namespace tiger

#endif  // SRC_CORE_CONFIG_H_
