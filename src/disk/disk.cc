#include "src/disk/disk.h"

#include <utility>

#include "src/sim/shard_engine.h"

namespace tiger {

void SimulatedDisk::SubmitRead(DiskZone zone, int64_t bytes, Completion done,
                               TimePoint deadline) {
  if (halted()) {
    return;
  }
  TIGER_CHECK(bytes > 0);
  TIGER_CHECK(done != nullptr);
  queue_.push_back(Request{zone, bytes, std::move(done), deadline});
  if (!busy_) {
    StartNext();
  }
}

SimulatedDisk::Request SimulatedDisk::PopNext() {
  TIGER_DCHECK(!queue_.empty());
  size_t pick = 0;
  if (discipline_ == DiskQueueDiscipline::kEarliestDeadlineFirst) {
    for (size_t i = 1; i < queue_.size(); ++i) {
      if (queue_[i].deadline < queue_[pick].deadline) {
        pick = i;
      }
    }
  }
  Request request = std::move(queue_[pick]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
  return request;
}

void SimulatedDisk::StartNext() {
  TIGER_DCHECK(!busy_);
  if (queue_.empty() || halted()) {
    return;
  }
  in_service_ = PopNext();
  busy_ = true;
  const TimePoint start = Now();
  Duration service = model_.DrawReadTime(in_service_.zone, in_service_.bytes, rng_);
  if (limp_window_.Contains(start)) {
    service = Duration::Micros(service.micros() * limp_num_ / limp_den_);
    if (fault_stats_ != nullptr) {
      ShardEngine::JournalCall(fault_stats_, &FaultStats::RecordDiskFault,
                               FaultStats::Kind::kLimpedRead, start, id_);
    }
  }
  // A media error is only reported after the drive has tried (and retried),
  // so a failed read costs its full service time.
  bool ok = true;
  if (error_window_.Contains(start) && rng_.Bernoulli(error_probability_)) {
    ok = false;
    if (fault_stats_ != nullptr) {
      ShardEngine::JournalCall(fault_stats_, &FaultStats::RecordDiskFault,
                               FaultStats::Kind::kTransientDiskError, start, id_);
    }
  }
  After(service, [this, start, ok] {
    busy_ = false;
    busy_meter_.AddBusyInterval(start, Now());
    const int64_t bytes = in_service_.bytes;
    TIGER_TRACE_COMPLETE(tracer_, trace_track_, TraceEventType::kDiskService, start,
                         Now() - start, TraceArgs{.a = bytes, .b = ok ? 1 : 0});
    if (ok) {
      reads_completed_++;
      bytes_read_ += bytes;
    } else {
      read_errors_++;
    }
    Completion done = std::move(in_service_.done);
    StartNext();
    done(ok);
  });
}

void SimulatedDisk::Halt() {
  Actor::Halt();
  queue_.clear();
  in_service_.done.Reset();
  busy_ = false;
}

void SimulatedDisk::InjectTransientErrors(TimePoint start, TimePoint end, double probability) {
  TIGER_CHECK(probability >= 0.0 && probability <= 1.0);
  error_window_ = Window{start, end};
  error_probability_ = probability;
}

void SimulatedDisk::InjectLimp(TimePoint start, TimePoint end, int64_t num, int64_t den) {
  TIGER_CHECK(num > 0 && den > 0);
  limp_window_ = Window{start, end};
  limp_num_ = num;
  limp_den_ = den;
}

}  // namespace tiger
