// Deterministic discrete-event simulation core.
//
// Everything in Harmony's hardware substrate (links, DMA engines, GPU compute streams) is
// driven by one Simulator. Events scheduled for the same timestamp run in insertion order,
// so every experiment is reproducible bit-for-bit.
//
// The queue is one serial (when, seq) order (DESIGN.md §10), kept as timestamp buckets: a
// FIFO slot chain per distinct timestamp, a min-heap over the distinct timestamps, and a
// time -> bucket map. Appending to a bucket's chain *is* the insertion-order tie-break, so
// no sequence number needs storing. Event closures live in a slab arena of fixed-size slots
// with small-buffer inline storage (util/inline_function.h), so steady-state scheduling
// performs no heap allocation at all.
#ifndef HARMONY_SRC_SIM_SIMULATOR_H_
#define HARMONY_SRC_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/util/check.h"
#include "src/util/inline_function.h"

namespace harmony {

// Simulated time, in seconds.
using SimTime = double;

inline constexpr SimTime kSimTimeNever = -1.0;

class Simulator {
 public:
  // Event closure type: inline storage covers the common captures (`this` + a few
  // scalars, up to 32 bytes — every hot-path closure in the runtime fits); larger captures
  // take one heap allocation, like std::function always did.
  using Closure = InlineFunction<32>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }
  std::uint64_t events_processed() const { return events_processed_; }

  // Capacity hint: pre-sizes the event arena to at least `events` outstanding events so
  // steady-state scheduling never allocates.
  void Reserve(std::size_t events);

  // Schedules `fn` to run at absolute time `when` (must be >= now()).
  void ScheduleAt(SimTime when, Closure fn) { Push(when, std::move(fn)); }

  // Schedules `fn` to run `delay` seconds from now (delay >= 0).
  void ScheduleAfter(SimTime delay, Closure fn);

  // Runs events until the queue drains. Returns the final simulated time. The event budget
  // guards against runaway loops in buggy schedules; exceeding it is a fatal error.
  SimTime RunUntilIdle(std::uint64_t max_events = 500'000'000);

  // Runs exactly one event if available; returns false when the queue is empty.
  bool RunOne();

  bool idle() const { return heap_.empty(); }

  // Arena introspection (tests): total slots allocated / currently holding a live event.
  std::size_t arena_capacity() const { return slabs_.size() * kSlabSlots; }
  std::size_t arena_in_use() const { return arena_in_use_; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::size_t kSlabShift = 12;
  static constexpr std::size_t kSlabSlots = std::size_t{1} << kSlabShift;  // 4096
  static constexpr std::size_t kMaxSlabs = std::size_t{1} << 19;           // 2^31 slots
  // How many slots ahead of the pop cursor to prefetch within a bucket chain: deep enough
  // to cover a memory-latency stall with a handful of event executions.
  static constexpr std::size_t kPrefetchDistance = 8;

  // One arena slot: the closure and the free-list link.
  struct Slot {
    Closure fn;
    std::uint32_t next = kNil;
  };

  // One distinct timestamp: the FIFO chain of slot indices, stored flat so the pop path can
  // prefetch slot lines well ahead (an intrusive chain only reveals the next index after
  // the miss it causes). `pos` is the consumed prefix; free buckets keep their chain
  // capacity, so steady-state scheduling never reallocates here either.
  struct Bucket {
    SimTime when = 0.0;
    std::vector<std::uint32_t> chain;
    std::size_t pos = 0;
  };

  struct BucketRef {
    SimTime when = 0.0;
    std::uint32_t bucket = kNil;
  };

  Slot& SlotAt(std::uint32_t index) {
    return slabs_[index >> kSlabShift][index & (kSlabSlots - 1)];
  }

  // ---- arena ----
  void AddSlab();
  std::uint32_t AllocSlot(Closure&& fn);
  void FreeSlot(std::uint32_t index);

  // ---- timestamp buckets ----
  std::uint32_t AllocBucket();
  void FreeBucket(std::uint32_t index);
  void HeapSiftUp(std::size_t i);
  void HeapSiftDown(std::size_t i);
  void Push(SimTime when, Closure&& fn);

  SimTime now_ = 0.0;
  std::uint64_t events_processed_ = 0;

  std::vector<std::unique_ptr<Slot[]>> slabs_;
  std::uint32_t free_slot_ = kNil;
  std::size_t arena_in_use_ = 0;

  std::vector<BucketRef> heap_;             // min-heap over distinct timestamps
  std::vector<Bucket> buckets_;             // bucket pool
  std::vector<std::uint32_t> bucket_free_;  // LIFO free list into `buckets_`
  std::unordered_map<SimTime, std::uint32_t> bucket_by_time_;
};

// One-shot waitable event. Waiters registered before the fire run (in registration order) as
// fresh simulator events at the fire time; waiters registered after the fire run as fresh
// events at the current time. This "always asynchronous" rule avoids re-entrancy surprises.
class OneShotEvent {
 public:
  explicit OneShotEvent(Simulator* sim) : sim_(sim) { HCHECK(sim != nullptr); }
  OneShotEvent(const OneShotEvent&) = delete;
  OneShotEvent& operator=(const OneShotEvent&) = delete;

  bool fired() const { return fired_; }
  // Valid only after fired().
  SimTime fire_time() const {
    HCHECK(fired_);
    return fire_time_;
  }

  // Fires the event at the current simulated time. Must be called at most once.
  void Fire();

  // Registers a callback to run (as a fresh event) once the event has fired.
  void OnFired(Simulator::Closure fn);

 private:
  Simulator* sim_;
  bool fired_ = false;
  SimTime fire_time_ = kSimTimeNever;
  std::vector<Simulator::Closure> waiters_;
};

// Fires an inner OneShotEvent once `count` arrivals have been recorded. Used for joins:
// "run when all input transfers complete", "all devices reached the allreduce".
class CountdownEvent {
 public:
  CountdownEvent(Simulator* sim, int count) : remaining_(count), done_(sim) {
    HCHECK_GE(count, 0);
    if (count == 0) {
      done_.Fire();
    }
  }

  // Records one arrival; fires when the count reaches zero.
  void Arrive();

  // Registers additional expected arrivals before any Arrive() exhausts the count. Fatal
  // once the event has fired: a late Expect could never be satisfied and would deadlock
  // the join it guards.
  void Expect(int additional);

  bool fired() const { return done_.fired(); }
  void OnFired(Simulator::Closure fn) { done_.OnFired(std::move(fn)); }

 private:
  int remaining_;
  OneShotEvent done_;
};

}  // namespace harmony

#endif  // HARMONY_SRC_SIM_SIMULATOR_H_
