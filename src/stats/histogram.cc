#include "src/stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/check.h"

namespace tiger {

void Histogram::Add(double value) {
  if (samples_.empty()) {
    min_ = value;
    max_ = value;
  } else {
    min_ = value < min_ ? value : min_;
    max_ = value > max_ ? value : max_;
  }
  sum_ += value;
  samples_.push_back(value);
  sorted_valid_ = false;
}

void Histogram::EnsureSorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Histogram::min() const {
  TIGER_CHECK(!samples_.empty());
  return min_;
}

double Histogram::max() const {
  TIGER_CHECK(!samples_.empty());
  return max_;
}

double Histogram::Mean() const {
  TIGER_CHECK(!samples_.empty());
  return sum_ / static_cast<double>(samples_.size());
}

double Histogram::Stddev() const {
  TIGER_CHECK(!samples_.empty());
  const double mean = Mean();
  double sq = 0;
  for (double v : samples_) {
    sq += (v - mean) * (v - mean);
  }
  return std::sqrt(sq / static_cast<double>(samples_.size()));
}

double Histogram::Percentile(double p) const {
  TIGER_CHECK(!samples_.empty());
  TIGER_CHECK(p >= 0 && p <= 100);
  EnsureSorted();
  if (sorted_.size() == 1) {
    return sorted_[0];
  }
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1 - frac) + sorted_[hi] * frac;
}

std::string Histogram::Summary() const {
  if (samples_.empty()) {
    return "n=0";
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf), "n=%zu mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f",
                count(), Mean(), Percentile(50), Percentile(95), Percentile(99), max());
  return buf;
}

}  // namespace tiger
