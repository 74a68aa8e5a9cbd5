#include "src/trace/timeseries.h"

#include <cstdio>

#include "src/common/check.h"
#include "src/common/text_file.h"

namespace tiger {

namespace {

// Fixed six-decimal formatting: enough precision for rates and quantiles,
// and byte-stable across runs (the CSV golden test depends on it).
std::string FormatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string FormatTime(TimePoint t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", t.seconds());
  return buf;
}

}  // namespace

TimeSeriesSampler::TimeSeriesSampler(Simulator* sim, MetricsRegistry* metrics,
                                     Options options)
    : sim_(sim), metrics_(metrics), options_(options) {
  TIGER_CHECK(sim_ != nullptr);
  TIGER_CHECK(metrics_ != nullptr);
  TIGER_CHECK(options_.interval > Duration::Zero());
  TIGER_CHECK(options_.ring_capacity > 0);
  for (double q : options_.quantiles) {
    TIGER_CHECK(q >= 0 && q <= 100);
  }
}

void TimeSeriesSampler::SampleNow() {
  if (refresh_) {
    refresh_();
  }
  Sample(sim_->Now());
}

void TimeSeriesSampler::Append(const std::string& name, double value) {
  auto [it, inserted] = series_.try_emplace(name);
  Series& s = it->second;
  if (inserted) {
    s.start_tick = total_ticks_;  // Born at the current tick.
  }
  s.points.push_back(value);
  if (s.points.size() > options_.ring_capacity) {
    s.points.pop_front();
    s.start_tick++;
  }
}

void TimeSeriesSampler::Sample(TimePoint now) {
  // One shared timestamp for every series at this tick.
  tick_times_.push_back(now);
  if (tick_times_.size() > options_.ring_capacity) {
    tick_times_.pop_front();
  }

  for (const auto& [name, value] : metrics_->counters()) {
    auto last = last_counters_.find(name);
    const int64_t prev = last == last_counters_.end() ? 0 : last->second;
    Append(name, static_cast<double>(value - prev));
    last_counters_[name] = value;
  }
  for (const auto& [name, value] : metrics_->gauges()) {
    Append(name, value);
  }
  for (const auto& [name, hist] : metrics_->hists()) {
    if (hist.empty()) {
      continue;  // Quantiles of nothing: skip until the first sample lands.
    }
    for (double q : options_.quantiles) {
      char suffix[32];
      std::snprintf(suffix, sizeof(suffix), ".p%g", q);
      Append(name + suffix, hist.Percentile(q));
    }
  }

  total_ticks_++;
}

std::string TimeSeriesSampler::Csv() const {
  std::string out = "time_s";
  for (const auto& [name, s] : series_) {
    (void)s;
    out += "," + name;
  }
  out += "\n";
  // The ring retains the last tick_times_.size() ticks; tick index 0 in the
  // ring corresponds to global tick first_tick.
  const uint64_t first_tick = total_ticks_ - tick_times_.size();
  for (size_t row = 0; row < tick_times_.size(); ++row) {
    const uint64_t tick = first_tick + row;
    out += FormatTime(tick_times_[row]);
    for (const auto& [name, s] : series_) {
      (void)name;
      out += ",";
      if (tick >= s.start_tick && tick - s.start_tick < s.points.size()) {
        out += FormatValue(s.points[tick - s.start_tick]);
      }
    }
    out += "\n";
  }
  return out;
}

bool TimeSeriesSampler::WriteCsv(const std::string& path) const {
  return WriteTextFile(path, Csv());
}

std::string TimeSeriesSampler::Json() const {
  std::string out = "{\"interval_s\":" + FormatValue(options_.interval.seconds());
  out += ",\"total_ticks\":" + std::to_string(total_ticks_);
  out += ",\"ticks\":[";
  for (size_t i = 0; i < tick_times_.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += FormatTime(tick_times_[i]);
  }
  out += "],\"series\":{";
  bool first = true;
  for (const auto& [name, s] : series_) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "\"" + name + "\":{\"start_tick\":" + std::to_string(s.start_tick);
    out += ",\"points\":[";
    for (size_t i = 0; i < s.points.size(); ++i) {
      if (i > 0) {
        out += ",";
      }
      out += FormatValue(s.points[i]);
    }
    out += "]}";
  }
  out += "}}\n";
  return out;
}

std::string TimeSeriesSampler::ChromeCounterEvents() const {
  // Row-major (by tick, then by series) so the fragment streams in time
  // order, which keeps Perfetto's ingest happy on large traces.
  std::string out;
  char buf[256];
  const uint64_t first_tick = total_ticks_ - tick_times_.size();
  for (size_t row = 0; row < tick_times_.size(); ++row) {
    const uint64_t tick = first_tick + row;
    const long long ts = tick_times_[row].micros();
    for (const auto& [name, s] : series_) {
      if (tick < s.start_tick || tick - s.start_tick >= s.points.size()) {
        continue;
      }
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":%lld,\"name\":\"%s\","
                    "\"args\":{\"value\":%.6f}}",
                    ts, name.c_str(), s.points[tick - s.start_tick]);
      out += buf;
    }
  }
  return out;
}

}  // namespace tiger
