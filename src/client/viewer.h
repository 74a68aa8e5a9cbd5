// A viewer client: requests streams and verifies their timely delivery.
//
// Mirrors the measurement client of §5: "a special client application that
// does not render any video, but rather simply makes sure that the expected
// data arrives on time". It tracks startup latency (request to last byte of
// the first block), late blocks, and lost blocks — the client-side loss
// reports of the reliability table.

#ifndef SRC_CLIENT_VIEWER_H_
#define SRC_CLIENT_VIEWER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/common/ids.h"
#include "src/core/address_book.h"
#include "src/core/config.h"
#include "src/core/messages.h"
#include "src/layout/catalog.h"
#include "src/net/network.h"
#include "src/sim/actor.h"
#include "src/stats/histogram.h"
#include "src/stats/qos.h"

namespace tiger {

class ViewerClient : public Actor, public NetworkEndpoint {
 public:
  struct Stats {
    int64_t plays_requested = 0;
    int64_t plays_started = 0;   // First block arrived.
    int64_t plays_completed = 0;
    int64_t blocks_complete = 0;
    int64_t fragments_received = 0;
    int64_t late_blocks = 0;
    int64_t lost_blocks = 0;
  };

  ViewerClient(Simulator* sim, ViewerId id, const TigerConfig* config, const Catalog* catalog,
               MessageBus* net);

  void SetAddressBook(const AddressBook* addresses) { addresses_ = addresses; }
  // Reports observed glitches (and the complete-block denominator) to the
  // system's QoS ledger, where they join the cubs' cause annotations.
  void SetQosLedger(QosLedger* qos) { qos_ = qos; }

  // Requests one play of `file` now, from `start_position` (0 = beginning).
  // The client tracks it to completion.
  void RequestPlay(FileId file, int64_t start_position = 0);

  // Requests plays forever: on completion of each play, picks the next file
  // via `picker` and requests it after `think_time`. The first play begins at
  // `initial_position` (later loops start from the beginning), which lets a
  // workload enter steady state immediately.
  void StartLooping(std::function<FileId()> picker, Duration think_time = Duration::Zero(),
                    int64_t initial_position = 0);

  // Sends a stop request for the current play.
  void RequestStop();

  // VCR controls, composed from stop + seek: Pause remembers the next
  // unwatched block and stops; Resume starts a fresh play instance from it.
  void Pause();
  void Resume();
  bool paused() const { return paused_position_.has_value(); }

  ViewerId id() const { return id_; }
  NetAddress address() const { return address_; }
  const Stats& stats() const { return stats_; }
  // Startup latencies in seconds, one sample per started play.
  const Histogram& startup_latency() const { return startup_latency_; }
  // Each startup sample paired with the time the request was issued (for the
  // load-vs-latency scatter of Figure 10).
  struct StartSample {
    TimePoint requested_at;
    double latency_seconds = 0;
  };
  const std::vector<StartSample>& start_samples() const { return start_samples_; }
  // Expected-arrival instants of blocks that were declared lost (the client
  // "logs" inspected by the §5 reconfiguration measurement).
  const std::vector<TimePoint>& loss_times() const { return loss_times_; }
  bool playing() const { return play_.has_value(); }

  // NetworkEndpoint:
  void HandleMessage(const MessageEnvelope& envelope) override;

 private:
  struct BlockProgress {
    int fragments = 0;
    bool complete = false;
  };
  struct ActivePlay {
    FileId file;
    TimePoint requested_at;
    std::optional<PlayInstanceId> instance;
    std::optional<TimePoint> first_block_complete;
    int64_t start_position = 0;
    // Blocks this play covers: block_count - start_position.
    int64_t blocks_expected = 0;
    // Next position whose deadline has not yet been checked.
    int64_t check_cursor = 0;
  };

  void OnBlockData(const BlockDataMsg& msg);
  // Progress of play-relative `position`, which must lie in
  // [check_cursor, check_cursor + window_.size()).
  BlockProgress& ProgressOf(int64_t position) {
    return window_[static_cast<size_t>(position) & (window_.size() - 1)];
  }
  // Grows the window to cover `span` positions from the cursor.
  void GrowWindow(int64_t span);
  void RetireBlocks();
  // When the cursor's block is declared lost if still incomplete. Requires
  // the first block to have landed.
  TimePoint LossDeadline(const ActivePlay& play) const;
  void CheckDeadlines();
  // The first tick of the check grid at or after `t`.
  TimePoint GridTickAtOrAfter(TimePoint t) const;
  void ArmCheck(TimePoint at);
  void FinishPlay(bool completed);

  ViewerId id_;
  const TigerConfig* config_;
  const Catalog* catalog_;
  MessageBus* net_;
  NetAddress address_ = kInvalidAddress;
  const AddressBook* addresses_ = nullptr;
  QosLedger* qos_ = nullptr;

  std::optional<ActivePlay> play_;
  std::function<FileId()> picker_;
  Duration think_time_;
  Stats stats_;
  Histogram startup_latency_;
  std::vector<StartSample> start_samples_;
  std::vector<TimePoint> loss_times_;
  // Set while paused: (file, next block to watch).
  std::optional<std::pair<FileId, int64_t>> paused_position_;
  // The active play's block progress, a ring indexed by play-relative
  // position: it covers [check_cursor, check_cursor + size()), its size is a
  // power of two, and a retired slot is reset for reuse. It keeps its
  // capacity across plays, so a warm viewer receives blocks without
  // allocating.
  std::vector<BlockProgress> window_;
  // Deadline checks run on a grid of kCheckInterval ticks anchored where the
  // chain of checks started, but only on the ticks that can declare a loss:
  // the first tick at or after the retire cursor's loss deadline. A chain
  // stops at the first tick that finds no play.
  bool check_timer_running_ = false;
  TimerId check_timer_ = kInvalidTimer;
  TimePoint check_at_;
  TimePoint grid_anchor_;
};

}  // namespace tiger

#endif  // SRC_CLIENT_VIEWER_H_
