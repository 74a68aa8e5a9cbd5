#include "src/sim/shard_engine.h"

#include <algorithm>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "src/trace/profiler.h"

namespace tiger {

namespace {

thread_local int tls_current_shard = -1;

// Divisors of 1000 µs, descending: candidate window sizes that tile every
// millisecond-multiple cadence exactly.
constexpr int64_t kGridDivisorsUs[] = {1000, 500, 250, 200, 125, 100, 50, 40, 25};

int64_t AlignUpTo(int64_t value, int64_t grid) {
  return value + (grid - value % grid) % grid;
}

// Pause hints a waiting side of the window hand-off spins before it parks.
// One _mm_pause is ≈20 ns on the 4-core x86 reference host, so this is
// ≈20 µs: longer than the barrier turnaround of a busy window, short enough
// that an idle engine's workers are asleep almost at once. A budget of 20000
// read within run-to-run noise of this on the 250-cub ring (+2% median over
// 4 pairs, against a 7% spread), while keeping idle cores busy 20x longer.
constexpr int kSpinBudget = 1000;

inline void CpuRelax() {
#if defined(__x86_64__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

// Waits until ready(order) holds: spins kSpinBudget pause hints reading with
// acquire, then parks on `cv`. The park registers in `parked` and re-checks
// under `mu`, both seq_cst, which pairs with WakeParked.
template <typename Ready>
void SpinThenPark(std::mutex& mu, std::condition_variable& cv, std::atomic<int>& parked,
                  Ready ready) {
  for (int i = 0; i < kSpinBudget; ++i) {
    if (ready(std::memory_order_acquire)) {
      return;
    }
    CpuRelax();
  }
  std::unique_lock<std::mutex> lk(mu);
  parked.fetch_add(1, std::memory_order_seq_cst);
  cv.wait(lk, [&] { return ready(std::memory_order_seq_cst); });
  parked.fetch_sub(1, std::memory_order_relaxed);
}

// Called after the seq_cst store that makes the parkers' predicate true:
// takes `mu` and notifies only if someone registered as parked.
void WakeParked(std::mutex& mu, std::condition_variable& cv, const std::atomic<int>& parked) {
  if (parked.load(std::memory_order_seq_cst) == 0) {
    return;
  }
  { std::lock_guard<std::mutex> lk(mu); }
  cv.notify_all();
}

}  // namespace

int ShardEngine::CurrentShard() { return tls_current_shard; }

Duration ShardEngine::WindowFor(Duration lookahead) {
  for (int64_t d : kGridDivisorsUs) {
    if (d <= lookahead.micros()) {
      return Duration::Micros(d);
    }
  }
  // Lookahead below the floor: run epoch windows of kMinWindow and let the
  // post clamp absorb violations.
  return kMinWindow;
}

ShardEngine::ShardEngine(Options options) : options_(options) {
  TIGER_CHECK(options.shards >= 1 && options.shards <= 256)
      << "shard count " << options.shards << " outside the 8-bit TimerId tag";
  TIGER_CHECK(options.threads >= 1);
  window_ = WindowFor(options.lookahead);
  grid_us_ = options.shards > 1 ? window_.micros() : 1;
  threads_ = std::min(options.threads, options.shards);
  sims_.reserve(static_cast<size_t>(options.shards));
  for (int i = 0; i < options.shards; ++i) {
    sims_.push_back(std::make_unique<Simulator>());
    sims_.back()->set_shard_tag(static_cast<uint8_t>(i));
  }
  lanes_ = std::vector<ShardLane>(static_cast<size_t>(options.shards));
  workers_.reserve(static_cast<size_t>(threads_ - 1));
  for (int w = 1; w < threads_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ShardEngine::~ShardEngine() {
  // Every worker has seen the last published epoch (RunUntil waited for
  // them), so one more bump reaches all of them, spinning or parked.
  shutdown_ = true;
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  WakeParked(mu_, start_cv_, parked_workers_);
  for (std::thread& t : workers_) {
    t.join();
  }
}

uint64_t ShardEngine::processed_events() const {
  uint64_t total = 0;
  for (const auto& sim : sims_) {
    total += sim->processed_events();
  }
  return total;
}

void ShardEngine::Post(int dst_shard, TimePoint when, InlineFunction cb) {
  TIGER_DCHECK(dst_shard >= 0 && dst_shard < shards());
  const int src = tls_current_shard;
  if (src < 0) {
    // Driver context: everything is quiesced at now_, schedule directly.
    if (when < now_) {
      when = now_;
      ++clamped_posts_;
    }
    sims_[static_cast<size_t>(dst_shard)]->ScheduleAt(when, std::move(cb));
    return;
  }
  ShardLane& lane = lanes_[static_cast<size_t>(src)];
  lane.posts.push_back(PendingPost{when, lane.post_seq++, static_cast<uint32_t>(src),
                                   dst_shard, std::move(cb)});
}

void ShardEngine::Defer(InlineFunction apply) {
  TIGER_PROF_SCOPE(kQosAudit);
  const int src = tls_current_shard;
  ShardLane& lane = lanes_[static_cast<size_t>(src)];
  lane.journal.push_back(JournalEntry{sims_[static_cast<size_t>(src)]->Now(), lane.journal_seq++,
                                      static_cast<uint32_t>(src), std::move(apply)});
}

void ShardEngine::AddPeriodicTask(Duration period, InlineFunction task) {
  TIGER_CHECK(tls_current_shard < 0) << "tasks must be registered from driver context";
  TIGER_CHECK(period > Duration::Zero());
  TIGER_CHECK(period.micros() % grid_us_ == 0)
      << "task period " << period << " does not land on the " << window_ << " barrier grid";
  const TimePoint due = TimePoint::FromMicros(AlignUpTo((now_ + period).micros(), grid_us_));
  tasks_.push_back(PeriodicTask{period, due, std::move(task)});
}

void ShardEngine::AddBarrierHook(InlineFunction hook) {
  TIGER_CHECK(tls_current_shard < 0) << "hooks must be registered from driver context";
  hooks_.push_back(std::move(hook));
}

void ShardEngine::SetProfiler(ShardEngineProfiler* profiler) {
  TIGER_CHECK(profiler == nullptr || profiler->shards() == shards())
      << "profiler sized for " << profiler->shards() << " shards, engine has "
      << shards();
  profiler_ = profiler;
}

void ShardEngine::RunOwnedShards(int worker, TimePoint horizon) {
  tls_journal_engine_ = sharded() ? this : nullptr;
  for (int s = worker; s < shards(); s += threads_) {
    tls_current_shard = s;
    if (profiler_ != nullptr) {
      // Route this shard's dispatch-level scopes (timer dispatch, decode, …)
      // into its own flat buckets, and time the window inclusively for the
      // per-shard busy/imbalance stats. Only this thread touches shard s this
      // window; the driver reads the stats after the barrier hand-off.
      Profiler* prev = Profiler::SetCurrent(&profiler_->shard_profiler(s));
      const uint64_t t0 = ProfNowTicks();
      sims_[static_cast<size_t>(s)]->RunUntil(horizon);
      profiler_->shard_stats(s).busy_ticks += ProfNowTicks() - t0;
      Profiler::SetCurrent(prev);
    } else {
      sims_[static_cast<size_t>(s)]->RunUntil(horizon);
    }
    tls_current_shard = -1;
  }
  tls_journal_engine_ = nullptr;
}

void ShardEngine::WorkerLoop(int worker) {
  uint64_t seen_epoch = 0;
  for (;;) {
    SpinThenPark(mu_, start_cv_, parked_workers_, [&](std::memory_order order) {
      return epoch_.load(order) != seen_epoch;
    });
    ++seen_epoch;
    if (shutdown_) {
      return;
    }
    RunOwnedShards(worker, horizon_);
    if (workers_running_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      WakeParked(mu_, done_cv_, parked_driver_);
    }
  }
}

size_t ShardEngine::DrainPosts(TimePoint horizon) {
  merge_posts_.clear();
  for (ShardLane& lane : lanes_) {
    for (PendingPost& p : lane.posts) {
      merge_posts_.push_back(std::move(p));
    }
    lane.posts.clear();
  }
  // (arrival, source shard, per-source seq) is a total order — identical for
  // every thread count because lanes are filled in deterministic per-shard
  // event order. Insertion order then fixes the heap's FIFO tie-break.
  std::sort(merge_posts_.begin(), merge_posts_.end(),
            [](const PendingPost& a, const PendingPost& b) {
              if (a.when != b.when) {
                return a.when < b.when;
              }
              if (a.src != b.src) {
                return a.src < b.src;
              }
              return a.seq < b.seq;
            });
  for (PendingPost& p : merge_posts_) {
    TimePoint when = p.when;
    if (when < horizon) {
      // Lookahead contract violated (epoch fallback): deliver at the barrier.
      when = horizon;
      ++clamped_posts_;
    }
    sims_[static_cast<size_t>(p.dst)]->ScheduleAt(when, std::move(p.cb));
  }
  const size_t merged = merge_posts_.size();
  merge_posts_.clear();
  return merged;
}

size_t ShardEngine::ApplyJournals() {
  merge_journal_.clear();
  for (ShardLane& lane : lanes_) {
    for (JournalEntry& e : lane.journal) {
      merge_journal_.push_back(&e);
    }
  }
  std::sort(merge_journal_.begin(), merge_journal_.end(),
            [](const JournalEntry* a, const JournalEntry* b) {
              if (a->when != b->when) {
                return a->when < b->when;
              }
              if (a->shard != b->shard) {
                return a->shard < b->shard;
              }
              return a->seq < b->seq;
            });
  // Applies run in driver context: any observer work they trigger goes
  // straight through (CurrentShard() == -1), so the journals cannot grow
  // under this iteration.
  for (JournalEntry* e : merge_journal_) {
    e->apply();
  }
  const size_t applied = merge_journal_.size();
  merge_journal_.clear();
  for (ShardLane& lane : lanes_) {
    lane.journal.clear();
  }
  return applied;
}

void ShardEngine::RunUntil(TimePoint t) {
  TIGER_CHECK(tls_current_shard < 0) << "ShardEngine::RunUntil from shard context";
  TIGER_CHECK(t >= now_);
  const int64_t w = grid_us_;
  while (now_ < t) {
    // Earliest instant anything can happen: a pending event on any shard or
    // a periodic task due. Empty windows up to there are skipped. One shard
    // needs no barrier for its own events (nothing crosses), only for tasks.
    TimePoint next_interesting = TimePoint::Max();
    if (sharded()) {
      for (const auto& sim : sims_) {
        if (auto te = sim->PeekNextEventTime()) {
          next_interesting = std::min(next_interesting, *te);
        }
      }
    }
    for (const PeriodicTask& task : tasks_) {
      next_interesting = std::min(next_interesting, task.next_due);
    }

    TimePoint horizon;
    if (next_interesting >= t) {
      // Nothing due before the target: one final (possibly partial) window.
      horizon = t;
    } else {
      // Smallest grid point that covers the next event, but always past now_.
      // AlignUp(x) < x + W ≤ x + lookahead keeps the window safe; on the
      // one-shard 1 µs grid this is the task due itself.
      const int64_t grid_next = (now_.micros() / w + 1) * w;
      const int64_t aligned = AlignUpTo(next_interesting.micros(), w);
      horizon = TimePoint::FromMicros(std::min(t.micros(), std::max(grid_next, aligned)));
    }

    // Window timeline, driver perspective: [t_start, t_busy) running our own
    // shards, [t_busy, t_wait) stalled on the worker barrier, then the three
    // serial barrier phases. The five intervals tile the whole loop body, so
    // their sum attributes (almost) all of the engine's wall time.
    const bool prof = profiler_ != nullptr;
    const uint64_t t_start = prof ? ProfNowTicks() : 0;
    uint64_t t_busy = 0;
    uint64_t t_wait = 0;
    if (threads_ > 1) {
      horizon_ = horizon;
      workers_running_.store(threads_ - 1, std::memory_order_relaxed);
      epoch_.fetch_add(1, std::memory_order_seq_cst);
      WakeParked(mu_, start_cv_, parked_workers_);
      RunOwnedShards(0, horizon);
      if (prof) {
        t_busy = ProfNowTicks();
      }
      SpinThenPark(mu_, done_cv_, parked_driver_, [&](std::memory_order order) {
        return workers_running_.load(order) == 0;
      });
      if (prof) {
        t_wait = ProfNowTicks();
      }
    } else {
      RunOwnedShards(0, horizon);
      if (prof) {
        t_busy = ProfNowTicks();
        t_wait = t_busy;
      }
    }

    now_ = horizon;
    const size_t posts_merged = DrainPosts(horizon);
    const uint64_t t_merge = prof ? ProfNowTicks() : 0;
    const size_t journal_entries = ApplyJournals();
    const uint64_t t_journal = prof ? ProfNowTicks() : 0;
    uint64_t hook_runs = 0;
    for (InlineFunction& hook : hooks_) {
      hook();
      ++hook_runs;
    }
    uint64_t periodic_fires = 0;
    for (PeriodicTask& task : tasks_) {
      if (task.next_due == horizon) {
        task.task();
        task.next_due += task.period;
        ++periodic_fires;
      }
    }
    if (prof) {
      RecordWindowProfile(t_start, t_busy, t_wait, t_merge, t_journal, ProfNowTicks(),
                          posts_merged, journal_entries, periodic_fires, hook_runs);
    }
  }
}

void ShardEngine::RecordWindowProfile(uint64_t t_start, uint64_t t_busy, uint64_t t_wait,
                                      uint64_t t_merge, uint64_t t_journal, uint64_t t_end,
                                      size_t posts_merged, size_t journal_entries,
                                      uint64_t periodic_fires, uint64_t hook_runs) {
  ShardEngineProfiler::EngineStats& e = profiler_->engine();
  ++e.windows;
  e.driver_busy_ticks += t_busy - t_start;
  e.barrier_wait_ticks += t_wait - t_busy;
  e.merge_posts_ticks += t_merge - t_wait;
  e.journal_replay_ticks += t_journal - t_merge;
  e.periodic_tasks_ticks += t_end - t_journal;
  e.span_ticks += t_end - t_start;
  e.posts_merged += posts_merged;
  e.journal_entries += journal_entries;
  e.periodic_fires += periodic_fires;
  e.hook_runs += hook_runs;

  // Per-window, per-shard deltas. The event-based imbalance is a pure
  // function of the logical schedule (deterministic across machines and
  // thread counts); the busy-time imbalance is the machine-dependent twin.
  uint64_t total_ev = 0;
  uint64_t max_ev = 0;
  uint64_t total_busy = 0;
  uint64_t max_busy = 0;
  for (int s = 0; s < shards(); ++s) {
    const uint64_t ev = sims_[static_cast<size_t>(s)]->processed_events();
    const uint64_t dev = ev - profiler_->prev_events(s);
    profiler_->prev_events(s) = ev;
    const uint64_t bt = profiler_->shard_stats(s).busy_ticks;
    const uint64_t dbt = bt - profiler_->prev_busy_ticks(s);
    profiler_->prev_busy_ticks(s) = bt;
    total_ev += dev;
    max_ev = std::max(max_ev, dev);
    total_busy += dbt;
    max_busy = std::max(max_busy, dbt);
  }
  if (total_ev == 0) {
    return;
  }
  ++e.busy_windows;
  const double imb_ev =
      static_cast<double>(max_ev) * static_cast<double>(shards()) /
      static_cast<double>(total_ev);
  e.event_imbalance_sum += imb_ev;
  e.event_imbalance_max = std::max(e.event_imbalance_max, imb_ev);
  if (total_busy > 0) {
    const double imb_busy =
        static_cast<double>(max_busy) * static_cast<double>(shards()) /
        static_cast<double>(total_busy);
    e.busy_imbalance_sum += imb_busy;
    e.busy_imbalance_max = std::max(e.busy_imbalance_max, imb_busy);
  }
}

}  // namespace tiger
