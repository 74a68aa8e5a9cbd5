// Fixed-bucket log-scale histogram: the one histogram type MetricsRegistry
// keeps.
//
// The exact-percentile Histogram keeps every raw sample, which is right for
// experiment populations (hundreds of stream starts) but wrong for metrics
// that accumulate for the whole life of a run at per-message rates: viewer-
// state lead and hop latency grow by millions of samples in a long chaos or
// scalability run. BoundedHistogram trades exact order statistics for O(1)
// memory: a fixed array of logarithmically spaced buckets plus exact running
// count/sum/min/max. Percentiles are estimated by rank walk over the buckets
// with log interpolation inside the landing bucket — a relative error bounded
// by the bucket width (one part in buckets_per_decade of a decade). Merging
// adds bucket counts, so per-shard registries fold without loss.

#ifndef SRC_STATS_BOUNDED_HISTOGRAM_H_
#define SRC_STATS_BOUNDED_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tiger {

class BoundedHistogram {
 public:
  struct Options {
    // Values in [min_value, max_value) land in log buckets; values below
    // (including zero and negatives) land in the underflow bucket, values at
    // or above max_value in the overflow bucket.
    double min_value = 1e-3;
    double max_value = 1e7;
    int buckets_per_decade = 8;
  };

  // Two constructors instead of a defaulted Options argument: GCC rejects
  // nested-class NSDMIs used in a default argument of the enclosing class.
  BoundedHistogram() : BoundedHistogram(Options()) {}
  explicit BoundedHistogram(Options options);

  void Add(double value);

  // Zeroes every bucket and running stat; the bucket layout is kept.
  void Reset();

  // Adds `other`'s bucket counts and running stats into this histogram.
  // Exact (bucket layouts must match); used for per-shard metric folding.
  void MergeFrom(const BoundedHistogram& other);

  int64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  // Exact (tracked outside the buckets).
  double min() const;
  double max() const;
  double Mean() const;
  // p in [0, 100]. Estimated from the bucket counts; exact for min/max ranks.
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }

  size_t bucket_count() const { return buckets_.size(); }
  const std::vector<int64_t>& buckets() const { return buckets_; }
  // Lower bound of bucket i (the underflow bucket reports -inf as min_value).
  double BucketLowerBound(size_t i) const;

  // Same shape as Histogram::Summary(): "n=… mean=… p50=… p95=… p99=… max=…".
  std::string Summary() const;

 private:
  size_t BucketIndex(double value) const;

  Options options_;
  double log_min_;        // log10(min_value)
  double inv_decade_;     // buckets_per_decade as double
  std::vector<int64_t> buckets_;  // [underflow, log buckets..., overflow]
  int64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace tiger

#endif  // SRC_STATS_BOUNDED_HISTOGRAM_H_
