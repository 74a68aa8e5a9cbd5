// §3.3: why schedule management must be distributed.
//
// Sweeps system size at 90% schedule load and compares, for a centralized
// schedule (controller sends a ~100-byte per-block command to the serving
// cub) versus the distributed schedule (cubs forward viewer states around
// the ring):
//
//   * controller egress bytes/second — central grows linearly with total
//     streams (the paper computes 3-4 MB/s at ~40,000 streams / 1000 cubs,
//     "probably beyond the capability" of the era's PCs); distributed is ~0;
//   * controller CPU — central exceeds a whole CPU well before 1000 cubs;
//   * per-cub control traffic — distributed stays constant (~10 KB/s)
//     regardless of system size, the scalability property of §4.
//
// Runs control-plane only (no disk/data simulation): this experiment is
// about schedule management costs.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/central.h"
#include "src/core/system.h"
#include "src/stats/table.h"

namespace tiger {
namespace {

struct Row {
  int cubs = 0;
  int streams = 0;
  double central_ctrl_bps = 0;
  double central_ctrl_cpu = 0;
  double dist_ctrl_bps = 0;
  double dist_percub_bps = 0;
  double dist_percub_cpu = 0;
};

TigerConfig ConfigForSize(int cubs) {
  TigerConfig config;
  config.shape.num_cubs = cubs;
  config.simulate_data_plane = false;
  return config;
}

Duration FileDurationFor(const TigerConfig& config) {
  // Long enough that every disk holds a block of the file and no stream hits
  // EOF during the measurement.
  return config.block_play_time * (config.shape.TotalDisks() + 600);
}

Row MeasureSize(int cubs, uint64_t seed, Duration run, Duration window) {
  Row row;
  row.cubs = cubs;
  TigerConfig config = ConfigForSize(cubs);
  const int streams =
      static_cast<int>(static_cast<double>(config.MaxStreams()) * 0.9);
  row.streams = streams;

  {
    CentralSystem central(config, seed);
    SinkEndpoint sink;
    NetAddress sink_addr = central.net().Attach(&sink, "sink", config.client_nic_bps);
    FileId file =
        central.AddFile("content", config.max_stream_bps, FileDurationFor(config)).value();
    int made = central.BootstrapStreams(streams, sink_addr, file, config.max_stream_bps);
    TIGER_CHECK(made == streams);
    central.Start();
    central.sim().RunUntil(TimePoint::Zero() + run);
    TimePoint b = central.sim().Now();
    TimePoint a = b - window;
    row.central_ctrl_bps = central.ControllerControlTrafficBps(a, b);
    row.central_ctrl_cpu = central.ControllerCpu(a, b);
  }
  {
    TigerSystem dist(config, seed);
    SinkEndpoint sink;
    NetAddress sink_addr = dist.net().Attach(&sink, "sink", config.client_nic_bps);
    Result<FileId> file = dist.AddFile("content", config.max_stream_bps,
                                       FileDurationFor(config));
    int made = dist.BootstrapStreams(streams, sink_addr, file.value(), config.max_stream_bps);
    TIGER_CHECK(made == streams);
    dist.Start();
    dist.RunUntil(TimePoint::Zero() + run);
    TimePoint b = dist.sim().Now();
    TimePoint a = b - window;
    row.dist_ctrl_bps = dist.ControllerControlTrafficBps(a, b);
    // Probe one cub; all are symmetric.
    row.dist_percub_bps = dist.CubControlTrafficBps(CubId(0), a, b);
    row.dist_percub_cpu =
        dist.cub(CubId(0)).cpu_meter().SumBetween(a, b) / static_cast<double>((b - a).micros());
  }
  return row;
}

// --- tracing overhead -------------------------------------------------------
//
// The observability layer must be free when it is off: the control-plane hot
// path pays one null-pointer check per trace point when tracing was never
// enabled. This section measures both modes on the same seeded workload and
// prints the wall-clock delta of recording.

enum class TraceMode { kAbsent, kRecording };

double RunDistributedOnce(uint64_t seed, int cubs, Duration run, TraceMode mode,
                          uint64_t* events_recorded, bool print_metrics) {
  TigerConfig config = ConfigForSize(cubs);
  TigerSystem dist(config, seed);
  const int streams = static_cast<int>(static_cast<double>(config.MaxStreams()) * 0.9);
  if (mode == TraceMode::kRecording) {
    dist.EnableTracing();
  }
  SinkEndpoint sink;
  NetAddress sink_addr = dist.net().Attach(&sink, "sink", config.client_nic_bps);
  FileId file =
      dist.AddFile("content", config.max_stream_bps, FileDurationFor(config)).value();
  int made = dist.BootstrapStreams(streams, sink_addr, file, config.max_stream_bps);
  TIGER_CHECK(made == streams);
  dist.Start();

  const auto wall_start = std::chrono::steady_clock::now();
  dist.RunUntil(TimePoint::Zero() + run);
  const auto wall_end = std::chrono::steady_clock::now();

  if (events_recorded != nullptr) {
    *events_recorded = mode == TraceMode::kAbsent ? 0 : dist.tracer()->recorded();
  }
  if (print_metrics && mode == TraceMode::kRecording) {
    dist.SnapshotMetrics(TimePoint::Zero(), dist.sim().Now());
    dist.metrics()->PrintSummary();
  }
  return std::chrono::duration<double>(wall_end - wall_start).count();
}

void MeasureTracingOverhead(uint64_t seed, bool quick) {
  const int cubs = 14;
  const Duration run = Duration::Seconds(quick ? 8 : 16);
  // Warm-up run so allocator/page-cache state does not bias the baseline.
  RunDistributedOnce(seed, cubs, run, TraceMode::kAbsent, nullptr, false);

  // Best-of-N per mode: the wall times are milliseconds, so a single sample
  // is dominated by scheduler jitter; the minimum is the stable estimate.
  const int reps = quick ? 3 : 5;
  uint64_t recorded = 0;
  double absent = 1e30;
  double recording = 1e30;
  for (int i = 0; i < reps; ++i) {
    absent = std::min(absent,
                      RunDistributedOnce(seed, cubs, run, TraceMode::kAbsent, nullptr, false));
    recording = std::min(
        recording, RunDistributedOnce(seed, cubs, run, TraceMode::kRecording, &recorded,
                                      /*print_metrics=*/i == reps - 1));
  }

  std::printf("\ntracing overhead (%d cubs, %.0f simulated seconds, same seed):\n", cubs,
              static_cast<double>(run.micros()) / 1e6);
  TextTable table({"mode", "wall_s", "vs_absent%", "events"});
  table.Row().Str("absent").Double(absent, 3).Str("-").Int(0);
  table.Row()
      .Str("recording")
      .Double(recording, 3)
      .Percent(recording / absent - 1.0, 2)
      .Int(static_cast<int64_t>(recorded));
  table.Print();
}

int Main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  PrintHeader("scalability: centralized vs distributed schedule management",
              "§3.3 analysis of Bolosky et al., SOSP 1997");

  std::vector<int> sizes = args.quick ? std::vector<int>{14, 56}
                                      : std::vector<int>{14, 56, 140, 350, 700, 1000};
  const Duration run = Duration::Seconds(16);
  const Duration window = Duration::Seconds(8);

  TextTable table({"cubs", "streams", "central_ctrl_KB/s", "central_ctrl_cpu%",
                   "dist_ctrl_B/s", "dist_percub_KB/s", "dist_percub_ctrl_cpu%"});
  for (int cubs : sizes) {
    Row row = MeasureSize(cubs, args.seed, run, window);
    table.Row()
        .Int(row.cubs)
        .Int(row.streams)
        .Double(row.central_ctrl_bps / 1024.0, 1)
        .Percent(row.central_ctrl_cpu)
        .Double(row.dist_ctrl_bps, 1)
        .Double(row.dist_percub_bps / 1024.0, 2)
        .Percent(row.dist_percub_cpu, 2);
    std::fflush(stdout);
  }
  table.Print();
  if (args.csv) {
    std::printf("\n%s", table.ToCsv().c_str());
  }
  MeasureTracingOverhead(args.seed, args.quick);
  std::printf(
      "\npaper: a central controller at ~1000 cubs / ~40k streams must push 3-4 MB/s of\n"
      "reliable control traffic (100 B/block plus headers) — infeasible for a mid-90s PC —\n"
      "while the distributed schedule's per-cub control traffic is independent of system\n"
      "size and its controller sends (almost) nothing.\n");
  return 0;
}

}  // namespace
}  // namespace tiger

int main(int argc, char** argv) { return tiger::Main(argc, argv); }
