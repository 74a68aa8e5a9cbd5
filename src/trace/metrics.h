// Named counters, gauges and histograms for the observability layer.
//
// The registry aggregates what the per-subsystem meters in src/stats measure
// into one named, deterministically ordered snapshot: schedule occupancy,
// viewer-state lead distribution, control-message hop latency, per-disk busy
// fractions. Benches and the chaos test print it; CI uploads it next to the
// trace JSON when a run goes red.
//
// Hot paths keep a reference from Counter()/Gauge()/Hist() at wiring time —
// std::map nodes are stable, so recording is an increment, not a lookup.
// Every histogram is a fixed-bucket BoundedHistogram: registry metrics live
// for the whole run, some at per-message rates, so their memory stays fixed,
// and per-shard registries fold into one exactly (BoundedHistogram::MergeFrom).

#ifndef SRC_TRACE_METRICS_H_
#define SRC_TRACE_METRICS_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "src/stats/bounded_histogram.h"

namespace tiger {

class MetricsRegistry {
 public:
  // Each accessor creates the metric on first use. Returned references stay
  // valid for the registry's lifetime.
  int64_t& Counter(const std::string& name) { return counters_[name]; }
  double& Gauge(const std::string& name) { return gauges_[name]; }
  BoundedHistogram& Hist(const std::string& name) { return hists_[name]; }

  size_t size() const { return counters_.size() + gauges_.size() + hists_.size(); }

  // Read-only views for samplers/exporters (std::map: deterministic order).
  const std::map<std::string, int64_t>& counters() const { return counters_; }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, BoundedHistogram>& hists() const { return hists_; }

  // One "name kind value" line per metric, sorted by name within each kind
  // (std::map order), so two identical runs print byte-identical summaries.
  std::string SummaryText() const;
  void PrintSummary(std::FILE* out = stdout) const;
  bool WriteSummary(const std::string& path) const;

 private:
  std::map<std::string, int64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, BoundedHistogram> hists_;
};

}  // namespace tiger

#endif  // SRC_TRACE_METRICS_H_
