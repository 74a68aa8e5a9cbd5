// Exact-percentile histogram for experiment populations.
//
// Experiment populations here are small (hundreds of stream starts, not
// billions), so we keep every raw sample and compute exact order statistics.
// Long-lived metrics fed at per-message rates belong in the fixed-memory
// BoundedHistogram (the only type MetricsRegistry keeps), not here.

#ifndef SRC_STATS_HISTOGRAM_H_
#define SRC_STATS_HISTOGRAM_H_

#include <cstddef>
#include <string>
#include <vector>

namespace tiger {

class Histogram {
 public:
  void Add(double value);

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double min() const;
  double max() const;
  double Mean() const;
  double Stddev() const;
  // p in [0, 100], linearly interpolated between order statistics.
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }

  // Every sample, in insertion order.
  const std::vector<double>& samples() const { return samples_; }

  // "n=… mean=… p50=… p95=… p99=… max=…"
  std::string Summary() const;

 private:
  void EnsureSorted() const;

  std::vector<double> samples_;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

}  // namespace tiger

#endif  // SRC_STATS_HISTOGRAM_H_
