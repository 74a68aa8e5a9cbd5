// observer_cost: what each observer adds to the observed-failover run.
//
// Runs the repository benchmark's failover_observed scenario — 28 cubs at
// 85% load on hour-long files, one cub power-cut 15-25 s into a 90 s window
// and revived 40 s later — with a chosen subset of the observability stack
// attached, and prints the measured window's wall time and the process's
// peak RSS as one JSON line. One process per run, so peak RSS is the run's
// own. EXPERIMENTS.md E19 tabulates interleaved runs of each subset:
//
//   observer_cost --observers=none|trace,audit,recorder,slo --seed=N
//
// `recorder` implies tracing (the flight recorder reads the tracer's rings).
// The observers never change the logical run: every subset prints the same
// event count and the same blocks sent, which the runs are checked against.

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/audit/auditor.h"
#include "src/client/testbed.h"
#include "src/client/viewer.h"
#include "src/common/check.h"
#include "src/common/rng.h"

namespace tiger {
namespace {

using Clock = std::chrono::steady_clock;

// The same seed derivation and draw order as the repository benchmark, so a
// seed names the same victim, cut time and viewer placement there and here:
// the `none` run's events_window equals `tiger_perfbench --mode noobs`.
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int Main(int argc, char** argv) {
  uint64_t seed = 1;
  std::string list = "none";
  std::string incident_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.starts_with("--seed=")) {
      seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.starts_with("--observers=")) {
      list = arg.substr(12);
    } else if (arg.starts_with("--incident-dir=")) {
      incident_dir = arg.substr(15);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seed=N] [--observers=none|trace,audit,recorder,slo] "
                   "[--incident-dir=DIR]\n",
                   argv[0]);
      return 1;
    }
  }
  std::set<std::string> observers;
  if (list != "none") {
    std::stringstream in(list);
    std::string name;
    while (std::getline(in, name, ',')) {
      TIGER_CHECK(name == "trace" || name == "audit" || name == "recorder" || name == "slo")
          << "unknown observer '" << name << "' (trace, audit, recorder, slo)";
      observers.insert(name);
    }
  }

  const Duration kWarmup = Duration::Seconds(40);
  const Duration kWindow = Duration::Seconds(90);
  const Duration kDownFor = Duration::Seconds(40);
  TigerConfig config;
  config.shape.num_cubs = 28;
  Testbed testbed(config, Mix(seed, 5));
  TigerSystem& system = testbed.system();
  if (observers.contains("trace")) {
    system.EnableTracing();
  }
  if (observers.contains("recorder")) {
    system.EnableFlightRecorder();
  }
  if (observers.contains("slo")) {
    system.EnableSloMonitor();
  }
  // Bundles go to --incident-dir, or to a temporary directory removed at exit.
  std::string temp_dir;
  if (observers.contains("recorder") || observers.contains("slo")) {
    if (incident_dir.empty()) {
      temp_dir = (std::filesystem::temp_directory_path() /
                  ("observer_cost_" + std::to_string(::getpid())))
                     .string();
    }
    system.SetIncidentDir(incident_dir.empty() ? temp_dir : incident_dir);
  }
  std::unique_ptr<ScheduleAuditor> auditor;
  if (observers.contains("audit")) {
    auditor = std::make_unique<ScheduleAuditor>(&system.sim(), &system.config());
    auditor->Attach(&system);
  }

  std::vector<FileId> files;
  for (int i = 0; i < 64; ++i) {
    files.push_back(
        system.AddFile("hour" + std::to_string(i), config.max_stream_bps, Duration::Seconds(3600))
            .value());
  }
  const int streams = static_cast<int>(static_cast<double>(config.MaxStreams()) * 0.85);
  testbed.Start();
  if (auditor) {
    auditor->Start();
  }
  // The benchmark's viewer fleet, without churn: every start delay is drawn
  // first, each play's file and position when it fires, and a 100 ms tick
  // loops a finished play onto a fresh file, all from one Rng. No play starts
  // close enough to its file's end to finish before the run ends.
  const Duration kTick = Duration::Millis(100);
  Rng fleet_rng(Mix(seed, 6));
  const int64_t clear_blocks = (kWarmup + kWindow) / config.block_play_time;
  auto pick_file = [&] { return files[fleet_rng.PickIndex(files.size())]; };
  std::vector<std::unique_ptr<ViewerClient>> viewers;
  std::vector<uint8_t> started(static_cast<size_t>(streams), 0);
  for (int i = 0; i < streams; ++i) {
    auto viewer = std::make_unique<ViewerClient>(&system.sim(),
                                                 ViewerId(static_cast<uint32_t>(i + 1)),
                                                 &system.config(), &system.catalog(), &system.net());
    viewer->SetAddressBook(&system.addresses());
    viewer->SetQosLedger(system.qos_sink());
    viewers.push_back(std::move(viewer));
    const Duration delay = fleet_rng.UniformDuration(Duration::Zero(), Duration::Seconds(20));
    system.sim().ScheduleAfter(delay, [&, v = static_cast<size_t>(i)] {
      const FileId file = pick_file();
      const int64_t blocks = system.catalog().Get(file).block_count;
      viewers[v]->RequestPlay(file, fleet_rng.UniformInt(0, blocks - 1 - clear_blocks));
      started[v] = 1;
    });
  }
  std::function<void()> tick = [&] {
    for (size_t i = 0; i < viewers.size(); ++i) {
      if (started[i] && !viewers[i]->playing() && !viewers[i]->paused()) {
        viewers[i]->RequestPlay(pick_file(), 0);
      }
    }
    system.sim().ScheduleAfter(kTick, [&tick] { tick(); });
  };
  system.sim().ScheduleAfter(kTick, [&tick] { tick(); });

  auto t = Clock::now();
  testbed.RunUntil(TimePoint::Zero() + kWarmup);
  const double warmup_s = std::chrono::duration<double>(Clock::now() - t).count();

  Rng plan_rng(Mix(seed, 7));
  const CubId victim(static_cast<uint32_t>(plan_rng.UniformInt(0, config.shape.num_cubs - 1)));
  const TimePoint from = system.sim().Now();
  const TimePoint cut =
      from + plan_rng.UniformDuration(Duration::Seconds(15), Duration::Seconds(25));
  system.FailCubAt(cut, victim);
  system.ReviveCubAt(cut + kDownFor, victim);
  const uint64_t events_before = system.processed_events();
  t = Clock::now();
  testbed.RunUntil(from + kWindow);
  const double window_s = std::chrono::duration<double>(Clock::now() - t).count();

  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  std::printf(
      "{\"observers\":\"%s\",\"seed\":%llu,\"warmup_wall_s\":%.4f,\"window_wall_s\":%.4f,"
      "\"peak_rss_kb\":%ld,\"events_window\":%llu,\"blocks_sent\":%lld,\"incidents\":%zu}\n",
      list.c_str(), static_cast<unsigned long long>(seed), warmup_s, window_s, usage.ru_maxrss,
      static_cast<unsigned long long>(system.processed_events() - events_before),
      static_cast<long long>(system.TotalCubCounters().blocks_sent),
      system.incident_dirs().size());
  if (!temp_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(temp_dir, ec);
  }
  return 0;
}

}  // namespace
}  // namespace tiger

int main(int argc, char** argv) { return tiger::Main(argc, argv); }
