#include "src/sim/simulator.h"

namespace harmony {

void Simulator::Reserve(std::size_t events) {
  while (arena_capacity() < events) {
    AddSlab();
  }
}

// ---- arena ------------------------------------------------------------------------------

void Simulator::AddSlab() {
  HCHECK_LT(slabs_.size(), kMaxSlabs) << "event arena exhausted";
  auto slab = std::make_unique<Slot[]>(kSlabSlots);
  const std::uint32_t base = static_cast<std::uint32_t>(slabs_.size() << kSlabShift);
  // Thread the free list in increasing index order so slot assignment — and with it every
  // internal address — is deterministic.
  for (std::size_t i = kSlabSlots; i-- > 0;) {
    slab[i].next = free_slot_;
    free_slot_ = base + static_cast<std::uint32_t>(i);
  }
  slabs_.push_back(std::move(slab));
}

std::uint32_t Simulator::AllocSlot(Closure&& fn) {
  if (free_slot_ == kNil) {
    AddSlab();
  }
  const std::uint32_t index = free_slot_;
  Slot& slot = SlotAt(index);
  free_slot_ = slot.next;
  slot.fn = std::move(fn);
  slot.next = kNil;
  ++arena_in_use_;
  return index;
}

void Simulator::FreeSlot(std::uint32_t index) {
  Slot& slot = SlotAt(index);
  slot.fn.Reset();  // drop captures now; the slot may sit on the free list for a while
  slot.next = free_slot_;
  free_slot_ = index;
  --arena_in_use_;
}

// ---- timestamp buckets ------------------------------------------------------------------

std::uint32_t Simulator::AllocBucket() {
  if (!bucket_free_.empty()) {
    const std::uint32_t index = bucket_free_.back();
    bucket_free_.pop_back();
    return index;
  }
  buckets_.emplace_back();
  return static_cast<std::uint32_t>(buckets_.size() - 1);
}

void Simulator::FreeBucket(std::uint32_t index) {
  buckets_[index].chain.clear();  // keeps capacity for the bucket's next life
  buckets_[index].pos = 0;
  bucket_free_.push_back(index);
}

void Simulator::HeapSiftUp(std::size_t i) {
  const BucketRef item = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (item.when >= heap_[parent].when) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = item;
}

void Simulator::HeapSiftDown(std::size_t i) {
  const std::size_t n = heap_.size();
  const BucketRef item = heap_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) {
      break;
    }
    const std::size_t right = child + 1;
    if (right < n && heap_[right].when < heap_[child].when) {
      child = right;
    }
    if (heap_[child].when >= item.when) {
      break;
    }
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = item;
}

void Simulator::Push(SimTime when, Closure&& fn) {
  HCHECK_GE(when, now_) << "cannot schedule into the past";
  if (when == 0.0) {
    when = 0.0;  // canonicalize -0.0: bucket lookup hashes the bit pattern, ordering
                 // compares the value — they must agree on what "equal times" means
  }
  const std::uint32_t slot = AllocSlot(std::move(fn));
  const auto [it, inserted] = bucket_by_time_.try_emplace(when, kNil);
  if (!inserted) {
    // Duplicate timestamp: append to the FIFO chain. O(1), no ordering structure moves —
    // this is the hot case (zero-delay callbacks, lockstep device streams).
    buckets_[it->second].chain.push_back(slot);
    return;
  }
  const std::uint32_t bucket_index = AllocBucket();
  it->second = bucket_index;
  Bucket& bucket = buckets_[bucket_index];
  bucket.when = when;
  if (bucket.chain.capacity() == 0) {
    bucket.chain.reserve(16);  // skip the 1->2->4->8 doubling on a bucket's first life
  }
  bucket.chain.push_back(slot);
  heap_.push_back(BucketRef{when, bucket_index});
  HeapSiftUp(heap_.size() - 1);
}

// ---- execution --------------------------------------------------------------------------

void Simulator::ScheduleAfter(SimTime delay, Closure fn) {
  HCHECK_GE(delay, 0.0);
  Push(now_ + delay, std::move(fn));
}

bool Simulator::RunOne() {
  if (heap_.empty()) {
    return false;
  }
  const std::uint32_t bucket_index = heap_[0].bucket;
  Bucket& bucket = buckets_[bucket_index];
  const SimTime when = bucket.when;
  const std::uint32_t slot = bucket.chain[bucket.pos++];
  if (bucket.pos + kPrefetchDistance < bucket.chain.size()) {
    // Chained slots stride across the arena (they interleaved with other buckets' at
    // schedule time); the flat chain exposes far-ahead indices, so pull the line in well
    // before the pop that needs it.
    __builtin_prefetch(&SlotAt(bucket.chain[bucket.pos + kPrefetchDistance]));
  }
  if (bucket.pos == bucket.chain.size()) {
    // Retire an exhausted bucket before running the event: the callback may grow
    // `buckets_` (invalidating `bucket`), and anything it schedules at now() must open a
    // fresh bucket rather than append to a drained one.
    bucket_by_time_.erase(when);
    FreeBucket(bucket_index);
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      HeapSiftDown(0);
    }
  }
  now_ = when;
  ++events_processed_;
  // Run the closure in place — slab storage is stable, so re-entrant scheduling (which may
  // add slabs) cannot move it — and only then recycle the slot.
  SlotAt(slot).fn();
  FreeSlot(slot);
  return true;
}

SimTime Simulator::RunUntilIdle(std::uint64_t max_events) {
  std::uint64_t budget = max_events;
  while (RunOne()) {
    HCHECK_GT(budget, 0u) << "simulator event budget exhausted (livelock in schedule?)";
    --budget;
  }
  return now_;
}

// ---- waitable events --------------------------------------------------------------------

void OneShotEvent::Fire() {
  HCHECK(!fired_) << "OneShotEvent fired twice";
  fired_ = true;
  fire_time_ = sim_->now();
  for (auto& waiter : waiters_) {
    sim_->ScheduleAfter(0.0, std::move(waiter));
  }
  // Release the buffer, not just the closures: the engine keeps every task's fired
  // completion event for the whole run.
  std::vector<Simulator::Closure>().swap(waiters_);
}

void OneShotEvent::OnFired(Simulator::Closure fn) {
  if (fired_) {
    sim_->ScheduleAfter(0.0, std::move(fn));
  } else {
    waiters_.push_back(std::move(fn));
  }
}

void CountdownEvent::Arrive() {
  HCHECK_GT(remaining_, 0) << "CountdownEvent::Arrive past zero";
  --remaining_;
  if (remaining_ == 0) {
    done_.Fire();
  }
}

void CountdownEvent::Expect(int additional) {
  HCHECK_GT(additional, 0);
  HCHECK(!done_.fired()) << "CountdownEvent::Expect after fire";
  remaining_ += additional;
}

}  // namespace harmony
