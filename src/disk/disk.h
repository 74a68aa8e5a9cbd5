// Simulated disk drive with a FIFO request queue.
//
// A cub submits block reads ahead of their network due time; the drive
// services them one at a time with service times drawn from the DiskModel.
// Utilization is metered so the benches can reproduce the disk-load curves of
// Figures 8/9 and the >95% failed-mode duty cycle.

#ifndef SRC_DISK_DISK_H_
#define SRC_DISK_DISK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/disk/disk_model.h"
#include "src/sim/actor.h"
#include "src/sim/inline_function.h"
#include "src/stats/fault_stats.h"
#include "src/stats/meter.h"
#include "src/trace/trace.h"

namespace tiger {

// How queued requests are ordered.
//
// kFifo matches the single-bitrate Tiger, where the disk schedule itself
// fixes the order. kEarliestDeadlineFirst implements the multiple-bitrate
// observation that "entries in the disk schedule are free to move around, as
// long as they're completed before they're due at the network" (§3.2):
// the drive serves whichever queued read has the nearest network due time.
enum class DiskQueueDiscipline { kFifo, kEarliestDeadlineFirst };

class SimulatedDisk : public Actor {
 public:
  // Invoked at completion time. `ok` is false when the read failed (injected
  // transient error): the caller got no data and should fall back to the
  // declustered mirror copies. Stored inline (up to 64 bytes of capture), so
  // a read allocates nothing for its callback.
  using Completion = BasicInlineFunction<void(bool ok)>;

  SimulatedDisk(Simulator* sim, std::string name, DiskId id, DiskModel model, Rng rng)
      : Actor(sim, std::move(name)), id_(id), model_(model), rng_(std::move(rng)) {}

  DiskId id() const { return id_; }
  const DiskModel& model() const { return model_; }
  void set_discipline(DiskQueueDiscipline discipline) { discipline_ = discipline; }
  void set_fault_stats(FaultStats* stats) { fault_stats_ = stats; }
  // Emits a DISK_SERVICE span per completed read on this drive's track.
  void SetTrace(Tracer* tracer, TraceTrackId track) {
    tracer_ = tracer;
    trace_track_ = track;
  }

  // Queues a read of `bytes` from `zone`; invokes `done` at completion time.
  // Reads queued on a halted (failed) disk are silently dropped. `deadline`
  // is only consulted by the earliest-deadline-first discipline.
  void SubmitRead(DiskZone zone, int64_t bytes, Completion done,
                  TimePoint deadline = TimePoint::Max());

  // Cancelling queued reads is not supported: Tiger aborts tentative
  // insertions by dropping the buffer, not by recalling the disk request.

  void Halt() override;

  // --- fault injection ------------------------------------------------------

  // During [start, end), each read fails with `probability` after its full
  // service time (a media error is reported only once the drive has tried).
  // The disk itself stays alive — this is the fault that exercises mirror
  // fallback without a permanent disk death.
  void InjectTransientErrors(TimePoint start, TimePoint end, double probability);

  // During [start, end), every read's service time is multiplied by
  // num/den (integer math; e.g. 3/1 = a disk limping at a third of its
  // usual throughput after entering thermal recalibration).
  void InjectLimp(TimePoint start, TimePoint end, int64_t num, int64_t den = 1);

  size_t queue_depth() const { return queue_.size() + (busy_ ? 1 : 0); }
  int64_t reads_completed() const { return reads_completed_; }
  int64_t read_errors() const { return read_errors_; }
  int64_t bytes_read() const { return bytes_read_; }
  const BusyMeter& busy_meter() const { return busy_meter_; }

 private:
  struct Request {
    DiskZone zone = DiskZone::kOuter;
    int64_t bytes = 0;
    Completion done;
    TimePoint deadline;
  };
  struct Window {
    TimePoint start;
    TimePoint end;
    bool Contains(TimePoint t) const { return t >= start && t < end; }
  };

  void StartNext();
  Request PopNext();

  DiskId id_;
  DiskModel model_;
  Rng rng_;
  DiskQueueDiscipline discipline_ = DiskQueueDiscipline::kFifo;
  // Queued requests in arrival order. A pop erases in place, so steady-state
  // reads reuse the vector's capacity, where a std::deque frees and
  // reallocates a chunk every few requests.
  std::vector<Request> queue_;
  // The request being serviced while busy_: the service timer captures only
  // {this, start, ok}, small enough to schedule without boxing.
  Request in_service_;
  bool busy_ = false;
  int64_t reads_completed_ = 0;
  int64_t read_errors_ = 0;
  int64_t bytes_read_ = 0;
  BusyMeter busy_meter_;
  FaultStats* fault_stats_ = nullptr;
  Tracer* tracer_ = nullptr;
  TraceTrackId trace_track_ = 0;
  Window error_window_{TimePoint::Zero(), TimePoint::Zero()};
  double error_probability_ = 0.0;
  Window limp_window_{TimePoint::Zero(), TimePoint::Zero()};
  int64_t limp_num_ = 1;
  int64_t limp_den_ = 1;
};

}  // namespace tiger

#endif  // SRC_DISK_DISK_H_
