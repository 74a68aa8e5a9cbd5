// Sharded parallel discrete-event engine with deterministic merge.
//
// A ShardEngine runs S independent Simulators ("shards") in lockstep windows
// on up to T worker threads. The design target is not best-effort parallelism
// but *bit-for-bit determinism across thread counts*: a run with shards=S is
// byte-identical whether it executes on 1 thread or N, because the logical
// schedule — which events fire, in what order, and how cross-shard messages
// interleave — depends only on S, never on T.
//
// Conservative lookahead (DESIGN.md §6h). Every cross-shard interaction in
// Tiger goes through the Network, whose minimum delivery delay is
// base_latency (L). The engine advances all shards through a window (C, H]
// with H − C ≤ W ≤ L: a message sent at time s > C arrives at s + delay ≥
// s + L > C + L ≥ H, i.e. strictly after the window, so shards cannot
// observe each other mid-window and may run concurrently. W is the largest
// divisor of 1 ms that is ≤ L (L = 300 µs today → W = 250 µs), so every
// millisecond-multiple cadence in the system (time-series sampling, audit
// ticks) lands exactly on a window barrier. Windows that contain no work are
// skipped: the next barrier jumps to the earliest pending event or task due,
// aligned up to the W grid — the alignment keeps the safety bound, since
// AlignUp(T) < T + W ≤ T + L.
//
// Epoch fallback. If configured lookahead shrinks below the smallest usable
// window, the engine still makes progress: W floors at kMinWindow and any
// cross-shard post whose arrival would land inside the already-executed
// window is clamped to the barrier instant and counted in clamped_posts().
// In normal operation (delay ≥ L ≥ W) that counter stays zero — tests assert
// it.
//
// Barrier protocol, in order, with every shard quiesced at exactly H:
//   1. Cross-shard posts drain into destination heaps, sorted by
//      (arrival time, source shard, per-source sequence). Heap FIFO
//      tie-breaking then makes same-instant arrivals fire in that order —
//      deterministic and thread-count-invariant.
//   2. Observer journals (audit hooks, stats mutations deferred from shard
//      context) apply in (emission time, shard, per-shard sequence) order.
//   3. Barrier hooks run in registration order (e.g. fault-plan anchor
//      arming).
//   4. Periodic tasks whose due time equals H run in registration order —
//      this is how samplers and auditors observe a globally consistent
//      instant without an actor loop of their own.
//
// Thread→shard assignment is static (worker w owns shards {k : k mod T == w};
// the caller's thread doubles as worker 0), so a shard's state is only ever
// touched by one thread per window.
//
// Window hand-off: spin, then park. A busy window at 250 cubs holds ≈30 µs of
// work, so waking a sleeping thread per window would cost as much as the
// window itself. Instead:
//   - Publish. The driver writes horizon_ and workers_running_, then bumps
//     epoch_ (seq_cst, so release). A worker that reads the new epoch with
//     acquire sees the horizon, and the barrier work the driver did before
//     (merged posts, journal applies, tasks) — the start edge.
//   - Finish. Each worker decrements workers_running_ (seq_cst) after its
//     last shard; the decrements form one release sequence, so the driver's
//     acquire read of zero sees every shard's window writes — the done edge.
//   - Park. Either side spins a fixed budget of CPU pause hints on its
//     predicate, then blocks on mu_ and a condition variable. The sleeper
//     registers in a parked count under mu_ and re-checks its predicate; the
//     other side makes its store and then reads the parked count, both
//     seq_cst. In that total order at least one of the two sees the other,
//     so either the sleeper never sleeps or the waker takes mu_ (which the
//     sleeper holds until it is waiting) and notifies. No wakeup is lost,
//     and while nobody is parked the waker never touches mu_.
//   - Shutdown. The destructor sets shutdown_ and bumps the epoch once more,
//     so spinning and parked workers alike wake and exit.
// The edges are plain atomics and mutexes, so TSan checks them as written.
//
// One shard is the serial engine. With nothing on the other side of a
// barrier, every cross-shard rule above degenerates, and the engine derives
// that from shards() == 1 rather than from an option: there is no worker
// pool, journal entries apply at once (no other shard can interleave), and
// barriers are needed only for periodic tasks — so the next one is the
// earliest task due (or the run target), on a 1 µs grid instead of every
// window. A one-shard run therefore dispatches exactly the event sequence of
// a bare Simulator, with observers stepping in between instants.

#ifndef SRC_SIM_SHARD_ENGINE_H_
#define SRC_SIM_SHARD_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/check.h"
#include "src/common/time.h"
#include "src/sim/inline_function.h"
#include "src/sim/simulator.h"

namespace tiger {

class ShardEngineProfiler;

class ShardEngine {
 public:
  struct Options {
    int shards = 1;
    int threads = 1;
    // Minimum cross-shard delivery delay the caller guarantees (the
    // network's base latency). Drives the window size.
    Duration lookahead = Duration::Micros(300);
  };

  // Smallest window the epoch fallback will run with.
  static constexpr Duration kMinWindow = Duration::Micros(25);

  explicit ShardEngine(Options options);
  ~ShardEngine();

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  int shards() const { return static_cast<int>(sims_.size()); }
  int threads() const { return threads_; }
  Duration window() const { return window_; }

  Simulator& shard(int i) { return *sims_[static_cast<size_t>(i)]; }
  const Simulator& shard(int i) const { return *sims_[static_cast<size_t>(i)]; }

  // All shards agree on the clock at barriers; between RunUntil calls this is
  // the last barrier instant.
  TimePoint Now() const { return now_; }

  // Sum of events dispatched across all shards (read at barriers).
  uint64_t processed_events() const;

  bool sharded() const { return shards() > 1; }

  // Shard index of the window executing on the calling thread, or -1 in
  // driver/barrier context.
  static int CurrentShard();

  // Schedules `cb` on `dst_shard`'s loop at absolute time `when`. From shard
  // context the post is buffered and merged at the next barrier; from driver
  // context (everything quiesced) it schedules directly. Arrivals at or
  // before the current barrier horizon are clamped to it (epoch fallback).
  void Post(int dst_shard, TimePoint when, InlineFunction cb);

  // The one write path into process-global observers (QoS ledger, fault
  // stats, invariant checker, audit observer): actors hand over a closure over the real
  // object, capturing its arguments by value. On a shard of a multi-shard
  // engine the closure is deferred to the next barrier, where entries apply
  // in (emitting shard's clock, shard, per-shard sequence) order — a total
  // order fixed by the shard count alone. Everywhere else (driver context, a
  // one-shard engine, a loop with no engine at all) nothing can interleave
  // with the caller, so `apply` runs at once without being boxed.
  template <typename F>
  static void JournalAppend(F&& apply) {
    if (ShardEngine* engine = tls_journal_engine_) {
      engine->Defer(InlineFunction(std::forward<F>(apply)));
    } else {
      apply();
    }
  }

  // JournalAppend of the common closure, one member call on an observer:
  // (object->*method)(args...). The arguments are copied into the closure
  // only when it is actually deferred.
  template <typename T, typename Method, typename... Args>
  static void JournalCall(T* object, Method method, Args&&... args) {
    if (tls_journal_engine_ != nullptr) {
      JournalAppend([object, method, ... copies = std::forward<Args>(args)] {
        (object->*method)(copies...);
      });
    } else {
      (object->*method)(std::forward<Args>(args)...);
    }
  }

  // Runs `task` with all shards quiesced at every barrier whose time is
  // start + k*period. Sharded, the period must be a multiple of the window
  // so dues land on barriers. Registration order is execution order.
  void AddPeriodicTask(Duration period, InlineFunction task);

  // Runs at every barrier, after journals and before periodic tasks.
  void AddBarrierHook(InlineFunction hook);

  // Advances every shard to exactly `t`, window by window.
  void RunUntil(TimePoint t);
  void RunFor(Duration d) { RunUntil(now_ + d); }

  // Cross-shard posts whose arrival had to be clamped to a barrier because
  // the lookahead contract was violated. Zero in normal operation.
  uint64_t clamped_posts() const { return clamped_posts_; }

  // Installs per-shard cost attribution (src/trace/profiler.h). The profiler
  // must outlive the engine (or be detached with nullptr) and must be sized
  // for exactly shards() shards. Install before running: per-window deltas
  // start from the profiler's zeroed scratch. Profiling never changes the
  // logical schedule — it only reads the cycle counter and bumps counters.
  void SetProfiler(ShardEngineProfiler* profiler);

 private:
  struct PendingPost {
    TimePoint when;
    uint64_t seq = 0;  // Per-source-shard emission counter.
    uint32_t src = 0;
    int dst = 0;
    InlineFunction cb;
  };

  struct JournalEntry {
    TimePoint when;
    uint64_t seq = 0;  // Per-shard emission counter.
    uint32_t shard = 0;
    InlineFunction apply;
  };

  // Everything one shard writes during a window, padded so two shards never
  // share a cache line.
  struct alignas(64) ShardLane {
    std::vector<PendingPost> posts;
    std::vector<JournalEntry> journal;
    uint64_t post_seq = 0;
    uint64_t journal_seq = 0;
  };

  struct PeriodicTask {
    Duration period;
    TimePoint next_due;
    InlineFunction task;
  };

  static Duration WindowFor(Duration lookahead);

  // Appends a journal entry to the calling shard's lane.
  void Defer(InlineFunction apply);

  // Runs all shards owned by `worker` through the current window.
  void RunOwnedShards(int worker, TimePoint horizon);
  void WorkerLoop(int worker);

  // Barrier phases (driver thread, shards quiesced). Both return how many
  // entries they moved, for the profiler's volume counters.
  size_t DrainPosts(TimePoint horizon);
  size_t ApplyJournals();

  // Per-window driver-side accounting once the barrier is fully processed.
  void RecordWindowProfile(uint64_t t_start, uint64_t t_busy, uint64_t t_wait,
                           uint64_t t_merge, uint64_t t_journal, uint64_t t_end,
                           size_t posts_merged, size_t journal_entries,
                           uint64_t periodic_fires, uint64_t hook_runs);

  // Set while a thread runs a shard of a multi-shard engine: the engine
  // whose lanes JournalAppend writes to.
  static inline thread_local ShardEngine* tls_journal_engine_ = nullptr;

  Options options_;
  Duration window_;
  // Barrier grid in µs: the window when sharded, 1 µs for one shard.
  int64_t grid_us_ = 1;
  int threads_ = 1;
  TimePoint now_;
  uint64_t clamped_posts_ = 0;
  ShardEngineProfiler* profiler_ = nullptr;

  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<ShardLane> lanes_;
  std::vector<PeriodicTask> tasks_;
  std::vector<InlineFunction> hooks_;

  // Scratch for barrier merges (retained across windows: no steady-state
  // allocation).
  std::vector<PendingPost> merge_posts_;
  std::vector<JournalEntry*> merge_journal_;

  // Window hand-off (see the header comment). horizon_ and shutdown_ are
  // plain fields published by the epoch_ bump; mu_ only serves parking.
  std::atomic<uint64_t> epoch_{0};
  std::atomic<int> workers_running_{0};
  std::atomic<int> parked_workers_{0};
  std::atomic<int> parked_driver_{0};
  TimePoint horizon_;
  bool shutdown_ = false;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
};

}  // namespace tiger

#endif  // SRC_SIM_SHARD_ENGINE_H_
