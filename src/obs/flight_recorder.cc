#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "src/common/check.h"

namespace tiger {

FlightRecorder::FlightRecorder(Options options, int num_cubs)
    : options_(options), num_cubs_(num_cubs) {
  TIGER_CHECK(options_.capacity > 0);
  TIGER_CHECK(options_.checkpoint_capacity > 0);
  TIGER_CHECK(num_cubs_ > 0);
  // The checkpoint ring is fully materialized here so capturing never grows
  // anything: steady state is slot reuse only.
  checkpoints_.resize(options_.checkpoint_capacity);
  for (Checkpoint& ckpt : checkpoints_) {
    ckpt.cubs.resize(static_cast<size_t>(num_cubs_));
  }
}

FlightRecorder::Checkpoint* FlightRecorder::BeginCheckpoint(TimePoint when) {
  size_t slot;
  if (ckpt_size_ < checkpoints_.size()) {
    slot = (ckpt_head_ + ckpt_size_) % checkpoints_.size();
    ++ckpt_size_;
  } else {
    slot = ckpt_head_;
    ckpt_head_ = (ckpt_head_ + 1) % checkpoints_.size();
  }
  Checkpoint& ckpt = checkpoints_[slot];
  ckpt.used = true;
  ckpt.when = when;
  ckpt.viewers = 0;
  ckpt.blocks = 0;
  ckpt.late = 0;
  ckpt.lost = 0;
  ckpt.failed_cubs = 0;
  for (CubDigest& digest : ckpt.cubs) {
    digest = CubDigest{};
  }
  return &ckpt;
}

std::vector<TraceEvent> FlightRecorder::WindowEvents(
    const std::vector<const Tracer*>& shards) const {
  // Each shard contributes what lies within `retention` of its own newest
  // event. The window's last event is at least that new for every shard, so
  // this never misses an event, and the filter below makes the cut exact.
  std::vector<TraceEvent> window;
  for (const Tracer* tracer : shards) {
    if (const TraceEvent* newest = tracer->Newest()) {
      tracer->AppendEventsSince(newest->when - options_.retention, &window);
    }
  }
  if (window.empty()) {
    return window;
  }
  if (shards.size() > 1) {
    // Shard lists are concatenated in shard order, so sorting on time alone
    // realizes (when, shard, recording order).
    std::stable_sort(window.begin(), window.end(),
                     [](const TraceEvent& a, const TraceEvent& b) { return a.when < b.when; });
  }
  const TimePoint horizon = window.back().when - options_.retention;
  std::erase_if(window, [horizon](const TraceEvent& e) { return e.when < horizon; });
  if (window.size() > options_.capacity) {
    window.erase(window.begin(),
                 window.end() - static_cast<std::ptrdiff_t>(options_.capacity));
  }
  for (size_t i = 0; i < window.size(); ++i) {
    window[i].seq = i + 1;  // Renumbered for the dump renderers.
  }
  return window;
}

std::string FlightRecorder::CheckpointsText() const {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line), "checkpoints %zu retained (cadence %lld us)\n",
                ckpt_size_, static_cast<long long>(options_.checkpoint_cadence.micros()));
  out += line;
  for (size_t i = 0; i < ckpt_size_; ++i) {
    const Checkpoint& ckpt = checkpoints_[(ckpt_head_ + i) % checkpoints_.size()];
    std::snprintf(line, sizeof(line),
                  "@%lld viewers=%lld blocks=%lld late=%lld lost=%lld failed_cubs=%d\n",
                  static_cast<long long>(ckpt.when.micros()),
                  static_cast<long long>(ckpt.viewers), static_cast<long long>(ckpt.blocks),
                  static_cast<long long>(ckpt.late), static_cast<long long>(ckpt.lost),
                  ckpt.failed_cubs);
    out += line;
    for (size_t c = 0; c < ckpt.cubs.size(); ++c) {
      const CubDigest& d = ckpt.cubs[c];
      std::snprintf(line, sizeof(line),
                    "  cub%zu entries=%u holds=%u failed=%u failed_seen=%u received=%lld "
                    "blocks_sent=%lld\n",
                    c, d.entries, d.holds, d.failed, d.failed_seen,
                    static_cast<long long>(d.records_received),
                    static_cast<long long>(d.blocks_sent));
      out += line;
    }
  }
  return out;
}

}  // namespace tiger
