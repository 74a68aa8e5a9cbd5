#include "src/client/testbed.h"

#include <utility>

namespace tiger {

Testbed::Testbed(TigerConfig config, uint64_t seed)
    : system_(config, seed), client_rng_(seed ^ 0x9e3779b97f4a7c15ULL) {}

void Testbed::AddContent(int count, Duration file_duration) {
  for (int i = 0; i < count; ++i) {
    Result<FileId> file = system_.AddFile("content" + std::to_string(files_.size()),
                                          system_.config().max_stream_bps, file_duration);
    TIGER_CHECK(file.ok()) << file.status().message();
    files_.push_back(file.value());
  }
}

FileId Testbed::PickRandomFile() {
  TIGER_CHECK(!files_.empty()) << "no content; call AddContent first";
  return files_[client_rng_.PickIndex(files_.size())];
}

ViewerClient& Testbed::AddViewer(FileId file) {
  auto viewer = std::make_unique<ViewerClient>(&sim(), ViewerId(next_viewer_id_++),
                                               &system_.config(), &system_.catalog(),
                                               &system_.net());
  viewer->SetAddressBook(&system_.addresses());
  viewer->SetQosLedger(system_.qos_sink());
  ViewerClient& ref = *viewer;
  viewers_.push_back(std::move(viewer));
  ref.RequestPlay(file);
  return ref;
}

void Testbed::AddLoopingViewers(int count, Duration stagger, bool steady_state) {
  for (int i = 0; i < count; ++i) {
    auto viewer = std::make_unique<ViewerClient>(&sim(), ViewerId(next_viewer_id_++),
                                                 &system_.config(), &system_.catalog(),
                                                 &system_.net());
    viewer->SetAddressBook(&system_.addresses());
    viewer->SetQosLedger(system_.qos_sink());
    ViewerClient* raw = viewer.get();
    viewers_.push_back(std::move(viewer));
    Duration delay = stagger > Duration::Zero()
                         ? client_rng_.UniformDuration(Duration::Zero(), stagger)
                         : Duration::Zero();
    sim().ScheduleAfter(delay, [this, raw, steady_state] {
      FileId first = PickRandomFile();
      int64_t position = 0;
      if (steady_state) {
        int64_t blocks = system_.catalog().Get(first).block_count;
        position = client_rng_.UniformInt(0, blocks - 1);
      }
      raw->StartLooping([this] { return PickRandomFile(); }, Duration::Zero(), position);
    });
  }
}

ViewerClient::Stats Testbed::TotalClientStats() const {
  ViewerClient::Stats total;
  for (const auto& viewer : viewers_) {
    const ViewerClient::Stats& s = viewer->stats();
    total.plays_requested += s.plays_requested;
    total.plays_started += s.plays_started;
    total.plays_completed += s.plays_completed;
    total.blocks_complete += s.blocks_complete;
    total.fragments_received += s.fragments_received;
    total.late_blocks += s.late_blocks;
    total.lost_blocks += s.lost_blocks;
  }
  return total;
}

std::vector<ViewerClient::StartSample> Testbed::AllStartSamples() const {
  std::vector<ViewerClient::StartSample> samples;
  for (const auto& viewer : viewers_) {
    const auto& s = viewer->start_samples();
    samples.insert(samples.end(), s.begin(), s.end());
  }
  return samples;
}

int64_t Testbed::ActiveViewerCount() const {
  int64_t n = 0;
  for (const auto& viewer : viewers_) {
    if (viewer->playing()) {
      ++n;
    }
  }
  return n;
}

}  // namespace tiger
