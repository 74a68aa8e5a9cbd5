// Testbed: a TigerSystem plus a fleet of viewer clients and the measurement
// machinery the §5 experiments need. This is the top-level facade examples,
// tests and benches drive.

#ifndef SRC_CLIENT_TESTBED_H_
#define SRC_CLIENT_TESTBED_H_

#include <memory>
#include <string>
#include <vector>

#include "src/client/viewer.h"
#include "src/core/system.h"
#include "src/stats/histogram.h"

namespace tiger {

class Testbed {
 public:
  explicit Testbed(TigerConfig config, uint64_t seed = 1);

  TigerSystem& system() { return system_; }
  Simulator& sim() { return system_.sim(); }

  // Adds `count` hour-long 2 Mbit/s-style content files (bitrate taken from
  // the config's max stream rate), as in §5's 64-file content set.
  void AddContent(int count, Duration file_duration);

  // Creates one viewer playing a specific file once.
  ViewerClient& AddViewer(FileId file);

  // Requests `count` new looping viewers, with request times staggered
  // uniformly over `stagger` (so a step of 30 adds does not arrive as a
  // thundering herd). With `steady_state`, each viewer's first play begins
  // at a uniformly random file position, as if it had been running for a
  // long time already.
  void AddLoopingViewers(int count, Duration stagger, bool steady_state = false);

  void Start() { system_.Start(); }
  // Route through the system: it advances every shard and fires the
  // barrier tasks.
  void RunFor(Duration d) { system_.RunFor(d); }
  void RunUntil(TimePoint t) { system_.RunUntil(t); }

  // --- aggregate client statistics ---
  ViewerClient::Stats TotalClientStats() const;
  // All startup samples across viewers (Figure 10's scatter).
  std::vector<ViewerClient::StartSample> AllStartSamples() const;
  int64_t ActiveViewerCount() const;

  const std::vector<std::unique_ptr<ViewerClient>>& viewers() const { return viewers_; }

 private:
  FileId PickRandomFile();

  TigerSystem system_;
  Rng client_rng_;
  std::vector<std::unique_ptr<ViewerClient>> viewers_;
  std::vector<FileId> files_;
  uint32_t next_viewer_id_ = 1;
};

}  // namespace tiger

#endif  // SRC_CLIENT_TESTBED_H_
