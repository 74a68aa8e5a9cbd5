// ShardEngine unit tests: window derivation, cross-shard merge determinism,
// boundary arrivals, the epoch-clamp fallback, barrier-task cadence, and the
// spin-then-park window hand-off (stress, shutdown, idle parking).
//
// The load-bearing property is thread-count invariance: with the shard count
// fixed, every observable (journal order, event counts, clock) must be
// byte-identical whether the windows execute on 1 worker or many. Each test
// that exercises cross-shard traffic therefore runs the same scenario at
// several thread counts and compares the merged journals exactly.

#include "src/sim/shard_engine.h"

#include <gtest/gtest.h>

#include <time.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "src/common/time.h"

namespace tiger {
namespace {

TEST(ShardEngineTest, WindowIsLargestMillisecondDivisorWithinLookahead) {
  EXPECT_EQ(ShardEngine({1, 1, Duration::Micros(300)}).window(), Duration::Micros(250));
  EXPECT_EQ(ShardEngine({1, 1, Duration::Micros(1500)}).window(), Duration::Micros(1000));
  EXPECT_EQ(ShardEngine({1, 1, Duration::Micros(250)}).window(), Duration::Micros(250));
  EXPECT_EQ(ShardEngine({1, 1, Duration::Micros(40)}).window(), Duration::Micros(40));
  // Below the floor: epoch fallback keeps the minimum window and clamps.
  EXPECT_EQ(ShardEngine({1, 1, Duration::Micros(7)}).window(), ShardEngine::kMinWindow);
}

// A ring of cross-shard hops: each hop logs through the journal and posts to
// the next shard one lookahead later.
struct Ring {
  ShardEngine* engine = nullptr;
  std::string* log = nullptr;
  Duration hop_delay = Duration::Micros(300);

  void Fire(int shard, int hops) {
    const TimePoint now = engine->shard(shard).Now();
    std::string* out = log;
    ShardEngine::JournalAppend([out, now, shard, hops] {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "t=%lld s=%d h=%d\n",
                    static_cast<long long>(now.micros()), shard, hops);
      *out += buf;
    });
    if (hops <= 0) {
      return;
    }
    const int dst = (shard + 1) % engine->shards();
    engine->Post(dst, now + hop_delay, [this, dst, hops] { Fire(dst, hops - 1); });
  }
};

std::string RunRing(int threads, Duration lookahead, Duration hop_delay,
                    uint64_t* clamped = nullptr, uint64_t* events = nullptr) {
  ShardEngine engine({4, threads, lookahead});
  std::string log;
  Ring ring{&engine, &log, hop_delay};
  for (int s = 0; s < engine.shards(); ++s) {
    // Staggered driver-context seeds so hops from different shards collide
    // at shared instants downstream.
    engine.Post(s, TimePoint::Zero() + Duration::Micros(50 + 100 * s),
                [&ring, s] { ring.Fire(s, 24); });
  }
  engine.RunUntil(TimePoint::Zero() + Duration::Millis(40));
  if (clamped != nullptr) {
    *clamped = engine.clamped_posts();
  }
  if (events != nullptr) {
    *events = engine.processed_events();
  }
  return log;
}

TEST(ShardEngineTest, CrossShardMergeIsThreadCountInvariant) {
  uint64_t clamped1 = 0, events1 = 0;
  const std::string serial =
      RunRing(1, Duration::Micros(300), Duration::Micros(300), &clamped1, &events1);
  EXPECT_NE(serial.find("h=0"), std::string::npos) << "ring never completed";
  EXPECT_EQ(clamped1, 0u) << "lookahead contract violated in normal operation";
  for (int threads : {2, 3, 4}) {
    uint64_t clamped = 0, events = 0;
    const std::string parallel =
        RunRing(threads, Duration::Micros(300), Duration::Micros(300), &clamped, &events);
    EXPECT_EQ(serial, parallel) << "divergence at threads=" << threads;
    EXPECT_EQ(events1, events);
    EXPECT_EQ(clamped, 0u);
  }
}

TEST(ShardEngineTest, ArrivalExactlyAtWindowHorizonKeepsSerialOrder) {
  // Shard 0 fires at t=250µs and posts to shard 1 arriving at exactly
  // t=500µs — a window barrier — where shard 1 already has a local event.
  // The local event was scheduled first, so it must fire first, at every
  // thread count.
  auto run = [](int threads) {
    ShardEngine engine({2, threads, Duration::Micros(300)});
    std::string log;
    engine.shard(1).ScheduleAt(TimePoint::FromMicros(500), [&log] {
      std::string* out = &log;
      ShardEngine::JournalAppend([out] { *out += "local@500\n"; });
    });
    engine.shard(0).ScheduleAt(TimePoint::FromMicros(250), [&engine, &log] {
      std::string* out = &log;
      ShardEngine::JournalAppend([out] { *out += "sent@250\n"; });
      engine.Post(1, TimePoint::FromMicros(500), [out] {
        ShardEngine::JournalAppend([out] { *out += "arrived@500\n"; });
      });
    });
    engine.RunUntil(TimePoint::FromMicros(2000));
    EXPECT_EQ(engine.clamped_posts(), 0u);
    return log;
  };
  const std::string serial = run(1);
  EXPECT_EQ(serial, "sent@250\nlocal@500\narrived@500\n");
  EXPECT_EQ(serial, run(2));
}

TEST(ShardEngineTest, EpochFallbackClampsSubWindowArrivals) {
  // Zero effective lookahead: the engine floors the window at kMinWindow and
  // clamps posts that would land inside the already-executed window.
  auto run = [](int threads, uint64_t* clamped) {
    ShardEngine engine({2, threads, Duration::Zero()});
    std::string log;
    engine.shard(0).ScheduleAt(TimePoint::FromMicros(10), [&engine, &log] {
      std::string* out = &log;
      engine.Post(1, TimePoint::FromMicros(20), [&engine, out] {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "arrived t=%lld\n",
                      static_cast<long long>(engine.shard(1).Now().micros()));
        ShardEngine::JournalAppend([out, buf] { *out += buf; });
      });
    });
    engine.RunUntil(TimePoint::FromMicros(200));
    *clamped = engine.clamped_posts();
    return log;
  };
  uint64_t clamped1 = 0, clamped2 = 0;
  const std::string serial = run(1, &clamped1);
  EXPECT_EQ(clamped1, 1u);
  // Delivery slips to the window barrier (25µs), not t=20.
  EXPECT_EQ(serial, "arrived t=25\n");
  EXPECT_EQ(serial, run(2, &clamped2));
  EXPECT_EQ(clamped2, 1u);
}

TEST(ShardEngineTest, PeriodicTasksFireOnGridInRegistrationOrder) {
  ShardEngine engine({2, 2, Duration::Micros(300)});
  std::string log;
  auto stamp = [&engine, &log](const char* name) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s@%lldus\n", name,
                  static_cast<long long>(engine.Now().micros()));
    log += buf;
  };
  engine.AddPeriodicTask(Duration::Millis(1), [&stamp] { stamp("a"); });
  engine.AddPeriodicTask(Duration::Millis(1), [&stamp] { stamp("b"); });
  engine.AddPeriodicTask(Duration::Millis(2), [&stamp] { stamp("c"); });
  // No events anywhere: idle windows must still land on every task due.
  engine.RunUntil(TimePoint::Zero() + Duration::Millis(4));
  EXPECT_EQ(log,
            "a@1000us\nb@1000us\n"
            "a@2000us\nb@2000us\nc@2000us\n"
            "a@3000us\nb@3000us\n"
            "a@4000us\nb@4000us\nc@4000us\n");
  EXPECT_EQ(engine.Now(), TimePoint::Zero() + Duration::Millis(4));
}

TEST(ShardEngineTest, DriverContextJournalAppliesImmediately) {
  ShardEngine engine({2, 1, Duration::Micros(300)});
  std::string log;
  ShardEngine::JournalAppend([&log] { log += "now"; });
  EXPECT_EQ(log, "now");
}

// One shard is the serial engine: nothing crosses a barrier, so the journal
// applies in place (interleaved with the events that emit it) and a task
// period need not be a window multiple — barriers exist only at task dues.
TEST(ShardEngineTest, OneShardAppliesJournalInPlaceAndStopsOnlyForTasks) {
  ShardEngine engine({1, 4, Duration::Micros(300)});
  EXPECT_FALSE(engine.sharded());
  EXPECT_EQ(engine.threads(), 1) << "one shard needs no worker pool";
  std::string log;
  auto stamp = [&log](const char* what, TimePoint at) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s@%lldus\n", what, static_cast<long long>(at.micros()));
    log += buf;
  };
  for (int64_t us : {100, 333, 400}) {
    engine.shard(0).ScheduleAt(TimePoint::FromMicros(us), [&engine, &stamp] {
      ShardEngine::JournalAppend([&engine, &stamp] { stamp("journal", engine.shard(0).Now()); });
      stamp("event", engine.shard(0).Now());
    });
  }
  engine.AddPeriodicTask(Duration::Micros(333), [&engine, &stamp] { stamp("task", engine.Now()); });
  engine.RunUntil(TimePoint::FromMicros(700));
  EXPECT_EQ(log,
            "journal@100us\nevent@100us\n"
            "journal@333us\nevent@333us\ntask@333us\n"
            "journal@400us\nevent@400us\n"
            "task@666us\n");
  EXPECT_EQ(engine.Now(), TimePoint::FromMicros(700));
}

// Hand-off stress load: every shard ticks once per window, and each tick
// journals itself and posts to another shard with a varying delay, so every
// window carries local events, cross-shard deliveries and journal entries.
struct Churn {
  ShardEngine* engine = nullptr;
  std::string* log = nullptr;

  static void Append(std::string* out, const char* what, TimePoint at, int shard,
                     uint64_t n) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s t=%lld s=%d n=%llu\n", what,
                  static_cast<long long>(at.micros()), shard,
                  static_cast<unsigned long long>(n));
    *out += buf;
  }

  void Tick(int shard, uint64_t n) {
    const TimePoint now = engine->shard(shard).Now();
    std::string* out = log;
    ShardEngine::JournalAppend([out, now, shard, n] { Append(out, "tick", now, shard, n); });
    const int dst = static_cast<int>((static_cast<uint64_t>(shard) + 1 + n % 7) %
                                     static_cast<uint64_t>(engine->shards()));
    const Duration delay = Duration::Micros(300 + static_cast<int64_t>(n * 37 % 500));
    engine->Post(dst, now + delay, [this, dst, n] {
      const TimePoint at = engine->shard(dst).Now();
      std::string* sink = log;
      ShardEngine::JournalAppend([sink, at, dst, n] { Append(sink, "recv", at, dst, n); });
    });
    engine->shard(shard).ScheduleAfter(Duration::Micros(250),
                                       [this, shard, n] { Tick(shard, n + 1); });
  }
};

constexpr int kStressWindows = 12000;

std::string RunChurn(int threads, uint64_t* clamped) {
  ShardEngine engine({8, threads, Duration::Micros(300)});
  std::string log;
  Churn churn{&engine, &log};
  for (int s = 0; s < engine.shards(); ++s) {
    engine.shard(s).ScheduleAt(TimePoint::FromMicros(10 + 29 * s),
                               [&churn, s] { churn.Tick(s, 0); });
  }
  // A task every window: the barrier phase runs between every hand-off.
  engine.AddPeriodicTask(engine.window(), [&engine, &log] {
    Churn::Append(&log, "task", engine.Now(), -1, engine.processed_events());
  });
  // Several RunUntil calls, so workers also cross the return to the caller.
  for (int chunk = 1; chunk <= 4; ++chunk) {
    engine.RunUntil(TimePoint::Zero() + engine.window() * (kStressWindows / 4 * chunk));
  }
  *clamped = engine.clamped_posts();
  return log;
}

TEST(ShardEngineHandoffTest, StressManyShortWindowsMatchesOneThread) {
  uint64_t clamped1 = 0;
  uint64_t clamped4 = 0;
  const std::string serial = RunChurn(1, &clamped1);
  const std::string parallel = RunChurn(4, &clamped4);
  EXPECT_EQ(clamped1, 0u);
  EXPECT_EQ(clamped4, 0u);
  // One task line per window, plus the shards' ticks and deliveries.
  EXPECT_GT(serial.size(), static_cast<size_t>(kStressWindows) * 17 * 16);
  // Not EXPECT_EQ: a mismatch would print two multi-megabyte logs.
  EXPECT_TRUE(serial == parallel) << "4-thread delivery/apply sequence diverged";
}

TEST(ShardEngineHandoffTest, DestroyRightAfterRunUntilReturns) {
  // Workers are still spinning on the epoch when the destructor bumps it.
  for (int rep = 0; rep < 200; ++rep) {
    ShardEngine engine({8, 4, Duration::Micros(300)});
    int fired = 0;
    for (int s = 0; s < engine.shards(); ++s) {
      engine.Post(s, TimePoint::FromMicros(100 + s), [&engine, &fired, s] {
        engine.Post((s + 1) % engine.shards(), engine.shard(s).Now() + Duration::Micros(300),
                    [] {});
        ShardEngine::JournalAppend([&fired] { ++fired; });
      });
    }
    engine.RunUntil(TimePoint::FromMicros(1000));
    ASSERT_EQ(fired, 8);
  }
}

TEST(ShardEngineHandoffTest, DestroyWithoutRunningAWindow) {
  for (int rep = 0; rep < 200; ++rep) {
    ShardEngine engine({8, 4, Duration::Micros(300)});
    EXPECT_EQ(engine.threads(), 4);
  }
}

// A bounded spin must not become a busy-wait: once RunUntil has returned,
// the workers park and the process stops burning CPU.
TEST(ShardEngineHandoffTest, IdleWorkersPark) {
  ShardEngine engine({8, 4, Duration::Micros(300)});
  for (int s = 0; s < engine.shards(); ++s) {
    engine.Post(s, TimePoint::FromMicros(100), [] {});
  }
  engine.RunUntil(TimePoint::FromMicros(10000));
  auto cpu_ms = [] {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
  };
  const double before = cpu_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const double used = cpu_ms() - before;
  EXPECT_LT(used, 20.0) << "idle engine burned " << used << " ms of CPU in 100 ms";
}

}  // namespace
}  // namespace tiger
