#include "src/sim/simulator.h"

#include <algorithm>
#include <utility>

#include "src/trace/profiler.h"

namespace tiger {

TimerId Simulator::ScheduleAt(TimePoint t, Callback cb) {
  TIGER_CHECK(t >= now_) << "event scheduled in the past: " << t << " < " << now_;
  TIGER_CHECK(cb != nullptr);
  uint32_t slot;
  if (free_head_ != kNilSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    TIGER_CHECK(slots_.size() < kLiveSlot) << "event slab exhausted";
    slots_.emplace_back();
    slot = static_cast<uint32_t>(slots_.size() - 1);
  }
  EventSlot& s = slots_[slot];
  s.next_free = kLiveSlot;
  s.seq = next_seq_++;
  s.cb = std::move(cb);
  heap_.push_back(HeapEntry{t, s.seq, slot, s.generation});
  std::push_heap(heap_.begin(), heap_.end(), HeapAfter{});
  ++live_events_;
  return MakeId(s.generation, slot);
}

TimerId Simulator::ScheduleAfter(Duration d, Callback cb) {
  TIGER_CHECK(d >= Duration::Zero()) << "negative delay " << d;
  return ScheduleAt(now_ + d, std::move(cb));
}

void Simulator::FreeSlot(uint32_t slot) {
  EventSlot& s = slots_[slot];
  s.cb.Reset();
  s.generation = (s.generation + 1) & kGenMask;
  if (s.generation == 0) {
    s.generation = 1;  // Generation 0 is reserved so kInvalidTimer stays invalid.
  }
  s.next_free = free_head_;
  free_head_ = slot;
}

void Simulator::Cancel(TimerId id) {
  const uint32_t slot = SlotOf(id);
  if (slot >= slots_.size() || slots_[slot].generation != GenOf(id) ||
      slots_[slot].next_free != kLiveSlot) {
    return;  // Already fired, already cancelled, or never issued.
  }
  // A live handle presented to the wrong shard's loop is a routing bug, not a
  // stale handle — it would cancel some other shard's timer.
  TIGER_DCHECK(ShardOf(id) == shard_tag_)
      << "timer " << id << " cancelled on shard " << int{shard_tag_};
  FreeSlot(slot);  // Heap entry becomes a tombstone via the generation bump.
  --live_events_;
  ++dead_in_heap_;
  MaybeCompact();
  SkimCancelledTop();
}

void Simulator::PopHeap() {
  std::pop_heap(heap_.begin(), heap_.end(), HeapAfter{});
  heap_.pop_back();
}

void Simulator::SkimCancelledTop() {
  while (!heap_.empty() && IsStale(heap_.front())) {
    PopHeap();
    --dead_in_heap_;
  }
}

void Simulator::MaybeCompact() {
  if (dead_in_heap_ < kCompactMinTombstones || dead_in_heap_ * 2 < heap_.size()) {
    return;
  }
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const HeapEntry& e) { return IsStale(e); }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), HeapAfter{});
  dead_in_heap_ = 0;
}

bool Simulator::Step() {
  TIGER_CHECK(!dispatching_) << "Simulator loop re-entered from a callback";
  // Invariant: the heap top is never a tombstone (SkimCancelledTop runs after
  // every pop and cancel), so an empty heap means an empty queue.
  if (heap_.empty()) {
    return false;
  }
  // Arm full scope timing on every kProfSampleStride-th event (the index is
  // the logical dispatch sequence, so which events get timed is
  // deterministic; the rest only count). There is deliberately no
  // kTimerDispatch scope here: its count is processed_events and its self
  // time is computed as the busy-time residual after the finer categories —
  // wrapping every event in a timed scope would cost two cycle-counter
  // reads per event and absorb the nested scopes' measurement overhead into
  // the sample, inflating the scaled estimate.
#if TIGER_INSTRUMENTATION_ENABLED
  if (Profiler* prof = Profiler::Current()) {
    prof->ArmTiming((processed_ & (kProfSampleStride - 1)) == 0);
  }
#endif
  const HeapEntry top = heap_.front();
  PopHeap();
  TIGER_DCHECK(!IsStale(top));
  TIGER_DCHECK(top.time >= now_);
  // Move the callback out and free the slot *before* invoking: cancelling the
  // currently-firing id is then a no-op (its generation is gone), and the
  // callback may freely schedule events that reuse the slot.
  Callback cb = std::move(slots_[top.slot].cb);
  FreeSlot(top.slot);
  --live_events_;
  now_ = top.time;
  ++processed_;
  SkimCancelledTop();
  dispatching_ = true;
  cb();
  dispatching_ = false;
  return true;
}

void Simulator::Run() {
  TIGER_CHECK(!dispatching_) << "Simulator::Run re-entered from a callback";
  while (Step()) {
  }
}

void Simulator::RunUntil(TimePoint t) {
  TIGER_CHECK(!dispatching_) << "Simulator::RunUntil re-entered from a callback";
  TIGER_CHECK(t >= now_);
  while (!heap_.empty() && heap_.front().time <= t) {
    Step();
  }
  now_ = t;
}

}  // namespace tiger
