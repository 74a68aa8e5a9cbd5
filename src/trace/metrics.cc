#include "src/trace/metrics.h"

#include "src/stats/table.h"

namespace tiger {

std::string MetricsRegistry::SummaryText() const {
  std::string out;
  for (const auto& [name, value] : counters_) {
    out += name + " counter " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges_) {
    out += name + " gauge " + FormatDouble(value, 4) + "\n";
  }
  for (const auto& [name, hist] : hists_) {
    out += name + " hist " + hist.Summary() + "\n";
  }
  return out;
}

void MetricsRegistry::PrintSummary(std::FILE* out) const {
  TextTable table({"metric", "kind", "value"});
  for (const auto& [name, value] : counters_) {
    table.Row().Str(name).Str("counter").Int(value);
  }
  for (const auto& [name, value] : gauges_) {
    table.Row().Str(name).Str("gauge").Double(value, 4);
  }
  for (const auto& [name, hist] : hists_) {
    table.Row().Str(name).Str("hist").Str(hist.Summary());
  }
  table.Print(out);
}

bool MetricsRegistry::WriteSummary(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  PrintSummary(f);
  return std::fclose(f) == 0;
}

}  // namespace tiger
