// Continuous time-series sampling of the metrics registry.
//
// The summary registry answers "what happened over the whole run"; this
// sampler answers "when". Each SampleNow() — TigerSystem calls it from an
// engine barrier task at a fixed cadence — snapshots every registered metric
// into bounded ring-buffer series:
//
//  * counters  → per-interval delta (rate shape, not a monotone ramp)
//  * gauges    → value at the tick
//  * histograms → configured quantiles, one series per quantile named
//    "<metric>.p<q>", sampled only once the histogram has data
//
// New metrics are picked up at the tick where they first appear; earlier
// ticks render as empty CSV cells / absent JSON points. All iteration is over
// std::map and every number is printed with fixed formatting, so same-seed
// runs export byte-identical files — the golden test depends on this.
//
// Exports: wide CSV (one row per tick, one column per series), a hand-rolled
// JSON document, and Chrome trace_event counter events ("ph":"C") that merge
// into the Tracer's trace so Perfetto draws counter tracks under the
// instant-event timeline.

#ifndef SRC_TRACE_TIMESERIES_H_
#define SRC_TRACE_TIMESERIES_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/sim/inline_function.h"
#include "src/sim/simulator.h"
#include "src/trace/metrics.h"

namespace tiger {

class TimeSeriesSampler {
 public:
  struct Options {
    // Sampling cadence in simulated time.
    Duration interval = Duration::Seconds(1);
    // Ring capacity per series (and for the shared tick-time ring). At one
    // sample per simulated second this is over an hour of history.
    size_t ring_capacity = 4096;
    // Histogram quantiles to track, in [0, 100].
    std::vector<double> quantiles = {50.0, 95.0};
  };

  // Two constructors, not a defaulted Options argument: GCC rejects
  // nested-class NSDMIs used in a default argument of the enclosing class.
  TimeSeriesSampler(Simulator* sim, MetricsRegistry* metrics)
      : TimeSeriesSampler(sim, metrics, Options()) {}
  TimeSeriesSampler(Simulator* sim, MetricsRegistry* metrics, Options options);

  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  // Called immediately before each sample so the owner can refresh gauges
  // that are computed on demand (e.g. TigerSystem::SnapshotMetrics).
  void SetRefreshCallback(InlineFunction cb) { refresh_ = std::move(cb); }

  // Takes one sample at the simulator's current time. The cadence belongs to
  // the caller (TigerSystem runs it as an engine periodic task every
  // options.interval).
  void SampleNow();

  size_t tick_count() const { return tick_times_.size(); }
  size_t series_count() const { return series_.size(); }
  uint64_t total_ticks() const { return total_ticks_; }

  // One row per retained tick, one column per series (sorted by name). Cells
  // where a series has no sample (born later) are empty. "time_s" first.
  std::string Csv() const;
  bool WriteCsv(const std::string& path) const;
  // {"interval_s":…, "ticks":[…], "series":{"name":{"start_tick":…,
  //  "points":[…]}, …}} — hand-rolled, deterministic.
  std::string Json() const;
  // Chrome trace_event counter events (",\n{...}" fragments, row-major by
  // tick), ready to splice into Tracer::ChromeJson's event array.
  std::string ChromeCounterEvents() const;

 private:
  struct Series {
    // Tick index (into the *total* tick count) of the first sample, so
    // late-born series align with the time axis.
    uint64_t start_tick = 0;
    std::deque<double> points;
  };

  void Sample(TimePoint now);
  void Append(const std::string& name, double value);

  Simulator* sim_;
  MetricsRegistry* metrics_;
  Options options_;
  InlineFunction refresh_;

  std::deque<TimePoint> tick_times_;
  uint64_t total_ticks_ = 0;  // Includes ticks evicted from the ring.
  std::map<std::string, Series> series_;
  // Last raw counter values, for per-interval deltas.
  std::map<std::string, int64_t> last_counters_;
};

}  // namespace tiger

#endif  // SRC_TRACE_TIMESERIES_H_
