#include "src/trace/profiler.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace tiger {

namespace {

// Order pins the enum; profile.json and tigerstat both key on these names.
constexpr const char* kProfCategoryNames[] = {
    "timer_dispatch",        // kTimerDispatch
    "msg_hop",               // kMsgHop
    "vstate_encode",         // kVStateEncode
    "vstate_decode",         // kVStateDecode
    "slot_service",          // kSlotService
    "schedule_apply",        // kScheduleApply
    "deschedule",            // kDeschedule
    "qos_audit",             // kQosAudit
    "engine_busy",           // kEngineBusy
    "engine_barrier_wait",   // kEngineBarrierWait
    "engine_merge_posts",    // kEngineMergePosts
    "engine_journal_replay", // kEngineJournalReplay
    "engine_periodic_tasks", // kEnginePeriodicTasks
};
static_assert(sizeof(kProfCategoryNames) / sizeof(kProfCategoryNames[0]) ==
                  static_cast<size_t>(kProfCategoryCount),
              "category name table out of sync with ProfCategory");

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  *out += buf;
}

void AppendU64Array(std::string* out, const std::vector<uint64_t>& values) {
  *out += "[";
  for (size_t i = 0; i < values.size(); ++i) {
    AppendF(out, "%s%" PRIu64, i == 0 ? "" : ", ", values[i]);
  }
  *out += "]";
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

uint64_t TicksToNs(uint64_t ticks, double ns_per_tick) {
  return static_cast<uint64_t>(static_cast<double>(ticks) * ns_per_tick + 0.5);
}

// Estimated total self ticks for a bucket: timing is stride-sampled, so the
// sampled occurrences' ticks scale by count/samples (engine-level buckets
// are sample-complete, samples == count, scale 1).
double ScaledSelfTicks(const Profiler::Bucket& b) {
  if (b.samples == 0) {
    return 0.0;
  }
  return static_cast<double>(b.self_ticks) * static_cast<double>(b.count) /
         static_cast<double>(b.samples);
}

// The deterministic half of the document. Every value here is a function of
// the logical schedule: byte-identical across same-seed runs and across
// thread counts (tests/profiler_test.cc compares this string directly).
void AppendCounts(std::string* out, const ProfileData& d) {
  const auto& e = d.engine_stats;
  *out += "  \"counts\": {\n";
  AppendF(out, "    \"processed_events\": %" PRIu64 ",\n", d.processed_events);
  AppendF(out, "    \"clamped_posts\": %" PRIu64 ",\n", d.clamped_posts);
  *out += "    \"categories\": {\n";
  for (int c = 0; c < kProfCategoryCount; ++c) {
    AppendF(out, "      \"%s\": %" PRIu64 "%s\n", kProfCategoryNames[c],
            d.categories[c].count, c + 1 < kProfCategoryCount ? "," : "");
  }
  *out += "    },\n";
  *out += "    \"engine\": {\n";
  AppendF(out, "      \"windows\": %" PRIu64 ",\n", e.windows);
  AppendF(out, "      \"busy_windows\": %" PRIu64 ",\n", e.busy_windows);
  AppendF(out, "      \"posts_merged\": %" PRIu64 ",\n", e.posts_merged);
  AppendF(out, "      \"journal_entries\": %" PRIu64 ",\n", e.journal_entries);
  AppendF(out, "      \"periodic_fires\": %" PRIu64 ",\n", e.periodic_fires);
  AppendF(out, "      \"hook_runs\": %" PRIu64 "\n", e.hook_runs);
  *out += "    },\n";
  *out += "    \"per_shard_events\": ";
  AppendU64Array(out, d.per_shard_events);
  *out += ",\n";
  AppendF(out, "    \"event_imbalance_mean\": %.6f,\n",
          Ratio(e.event_imbalance_sum, static_cast<double>(e.busy_windows)));
  AppendF(out, "    \"event_imbalance_max\": %.6f,\n", e.event_imbalance_max);
  AppendF(out, "    \"window_utilization\": %.6f\n",
          Ratio(static_cast<double>(e.busy_windows), static_cast<double>(e.windows)));
  *out += "  }";
}

void AppendTimes(std::string* out, const ProfileData& d) {
  const auto& e = d.engine_stats;
  const double k = d.ns_per_tick;
  *out += "  \"times_ns\": {\n";
  AppendF(out, "    \"total_run_ns\": %" PRIu64 ",\n", d.total_run_ns);
  *out += "    \"categories_self_ns\": {\n";
  for (int c = 0; c < kProfCategoryCount; ++c) {
    AppendF(out, "      \"%s\": %" PRIu64 "%s\n", kProfCategoryNames[c],
            static_cast<uint64_t>(ScaledSelfTicks(d.categories[c]) * k + 0.5),
            c + 1 < kProfCategoryCount ? "," : "");
  }
  *out += "    },\n";
  *out += "    \"engine\": {\n";
  AppendF(out, "      \"driver_busy_ns\": %" PRIu64 ",\n", TicksToNs(e.driver_busy_ticks, k));
  AppendF(out, "      \"barrier_wait_ns\": %" PRIu64 ",\n", TicksToNs(e.barrier_wait_ticks, k));
  AppendF(out, "      \"merge_posts_ns\": %" PRIu64 ",\n", TicksToNs(e.merge_posts_ticks, k));
  AppendF(out, "      \"journal_replay_ns\": %" PRIu64 ",\n",
          TicksToNs(e.journal_replay_ticks, k));
  AppendF(out, "      \"periodic_tasks_ns\": %" PRIu64 ",\n",
          TicksToNs(e.periodic_tasks_ticks, k));
  AppendF(out, "      \"span_ns\": %" PRIu64 "\n", TicksToNs(e.span_ticks, k));
  *out += "    },\n";
  *out += "    \"per_shard_busy_ns\": [";
  for (size_t i = 0; i < d.per_shard_busy_ticks.size(); ++i) {
    AppendF(out, "%s%" PRIu64, i == 0 ? "" : ", ",
            TicksToNs(d.per_shard_busy_ticks[i], k));
  }
  *out += "]\n  }";
}

uint64_t EngineAttributedTicks(const ShardEngineProfiler::EngineStats& e) {
  return e.driver_busy_ticks + e.barrier_wait_ticks + e.merge_posts_ticks +
         e.journal_replay_ticks + e.periodic_tasks_ticks;
}

void AppendDerived(std::string* out, const ProfileData& d) {
  const auto& e = d.engine_stats;
  const double k = d.ns_per_tick;
  const double total_ns = static_cast<double>(d.total_run_ns);
  // Every run is an engine run: the five driver-loop intervals tile it.
  const double attributed_ticks = static_cast<double>(EngineAttributedTicks(e));
  *out += "  \"derived\": {\n";
  AppendF(out, "    \"attributed_fraction\": %.6f,\n",
          Ratio(attributed_ticks * k, total_ns));
  AppendF(out, "    \"barrier_stall_fraction\": %.6f,\n",
          Ratio(static_cast<double>(e.barrier_wait_ticks) * k, total_ns));
  AppendF(out, "    \"driver_busy_fraction\": %.6f,\n",
          Ratio(static_cast<double>(e.driver_busy_ticks) * k, total_ns));
  AppendF(out, "    \"busy_imbalance_mean\": %.6f,\n",
          Ratio(e.busy_imbalance_sum, static_cast<double>(e.busy_windows)));
  AppendF(out, "    \"busy_imbalance_max\": %.6f\n", e.busy_imbalance_max);
  *out += "  }";
}

}  // namespace

const char* ProfCategoryName(ProfCategory c) {
  return kProfCategoryNames[static_cast<size_t>(c)];
}

std::string RenderProfileJson(const ProfileData& d) {
  std::string out;
  out.reserve(4096);
  out += "{\n";
  out += "  \"schema\": \"tiger-profile-v1\",\n";
  AppendF(&out, "  \"engine\": \"%s\",\n", d.engine.c_str());
  AppendF(&out, "  \"shards\": %d,\n", d.shards);
  AppendF(&out, "  \"threads\": %d,\n", d.threads);
  AppendF(&out, "  \"window_us\": %lld,\n", static_cast<long long>(d.window_us));
  AppendF(&out, "  \"cubs\": %d,\n", d.cubs);
  AppendF(&out, "  \"seed\": %" PRIu64 ",\n", d.seed);
  AppendCounts(&out, d);
  out += ",\n";
  // Everything below is wall-clock derived: machine- and load-dependent,
  // never compared byte-for-byte.
  AppendTimes(&out, d);
  out += ",\n";
  AppendDerived(&out, d);
  out += "\n}\n";
  return out;
}

std::string RenderProfileCountsJson(const ProfileData& d) {
  std::string out;
  out.reserve(2048);
  out += "{\n";
  AppendCounts(&out, d);
  out += "\n}\n";
  return out;
}

}  // namespace tiger
