#include <gtest/gtest.h>

#include "src/mem/allocator.h"
#include "src/mem/memory_manager.h"
#include "src/mem/tensor.h"
#include "src/sim/simulator.h"

namespace harmony {
namespace {

// ---- DeviceAllocator -----------------------------------------------------------------------

TEST(AllocatorTest, AllocatesAndFrees) {
  DeviceAllocator alloc(1024, /*alignment=*/1);
  const Bytes a = alloc.Allocate(100);
  EXPECT_GE(a, 0);
  EXPECT_EQ(alloc.used_bytes(), 100);
  alloc.Free(a, 100);
  EXPECT_EQ(alloc.used_bytes(), 0);
  EXPECT_EQ(alloc.largest_free_block(), 1024);
}

TEST(AllocatorTest, FailsWhenFull) {
  DeviceAllocator alloc(256, 1);
  EXPECT_GE(alloc.Allocate(256), 0);
  EXPECT_EQ(alloc.Allocate(1), -1);
}

TEST(AllocatorTest, CoalescesNeighbors) {
  DeviceAllocator alloc(300, 1);
  const Bytes a = alloc.Allocate(100);
  const Bytes b = alloc.Allocate(100);
  const Bytes c = alloc.Allocate(100);
  alloc.Free(a, 100);
  alloc.Free(c, 100);
  EXPECT_EQ(alloc.num_free_blocks(), 2);
  alloc.Free(b, 100);  // merges all three into one block
  EXPECT_EQ(alloc.num_free_blocks(), 1);
  EXPECT_EQ(alloc.largest_free_block(), 300);
}

TEST(AllocatorTest, FragmentationBlocksLargeAllocation) {
  DeviceAllocator alloc(300, 1);
  const Bytes a = alloc.Allocate(100);
  const Bytes b = alloc.Allocate(100);
  const Bytes c = alloc.Allocate(100);
  (void)a;
  (void)c;
  alloc.Free(b, 100);
  // 100 free in the middle + 0 at the end: a 150-byte request cannot fit...
  EXPECT_EQ(alloc.Allocate(150), -1);
  // ...even though free_bytes() says 100 < 150 here; craft a real fragmentation case:
  DeviceAllocator frag(400, 1);
  const Bytes w = frag.Allocate(100);
  const Bytes x = frag.Allocate(100);
  const Bytes y = frag.Allocate(100);
  const Bytes z = frag.Allocate(100);
  (void)x;
  (void)z;
  frag.Free(w, 100);
  frag.Free(y, 100);
  EXPECT_EQ(frag.free_bytes(), 200);
  EXPECT_EQ(frag.largest_free_block(), 100);
  EXPECT_EQ(frag.Allocate(150), -1);  // enough bytes, no contiguous block
}

TEST(AllocatorTest, RespectsAlignment) {
  DeviceAllocator alloc(4096, 256);
  const Bytes a = alloc.Allocate(1);
  const Bytes b = alloc.Allocate(1);
  EXPECT_EQ(a % 256, 0);
  EXPECT_EQ(b % 256, 0);
  EXPECT_EQ(b - a, 256);
  EXPECT_EQ(alloc.used_bytes(), 512);  // rounded up
}

TEST(AllocatorDeathTest, DoubleFreeAborts) {
  DeviceAllocator alloc(1024, 1);
  const Bytes a = alloc.Allocate(64);
  alloc.Free(a, 64);
  EXPECT_DEATH(alloc.Free(a, 64), "double free");
}

// ---- TensorRegistry ------------------------------------------------------------------------

TEST(TensorRegistryTest, CreateAndQuery) {
  TensorRegistry reg;
  const TensorId id = reg.Create("W", 1000, TensorClass::kWeight, true, 3, -1, 1);
  EXPECT_EQ(reg.size(), 1);
  EXPECT_EQ(reg.meta(id).bytes, 1000);
  EXPECT_EQ(reg.meta(id).layer, 3);
  EXPECT_TRUE(reg.state(id).host_valid);
  EXPECT_EQ(reg.state(id).residency, Residency::kNone);
}

TEST(TensorRegistryTest, TotalBytesByClass) {
  TensorRegistry reg;
  reg.Create("W0", 100, TensorClass::kWeight, true);
  reg.Create("W1", 200, TensorClass::kWeight, true);
  reg.Create("X", 999, TensorClass::kActivation, false);
  EXPECT_EQ(reg.TotalBytes(TensorClass::kWeight), 300);
  EXPECT_EQ(reg.TotalBytes(TensorClass::kActivation), 999);
  EXPECT_EQ(reg.TotalBytes(TensorClass::kInput), 0);
}

TEST(TensorRegistryTest, ClassNames) {
  EXPECT_STREQ(TensorClassName(TensorClass::kWeight), "weight");
  EXPECT_STREQ(TensorClassName(TensorClass::kOptimizerState), "optimizer-state");
}

// ---- MemoryManager / MemorySystem ----------------------------------------------------------

class MemorySystemTest : public ::testing::Test {
 protected:
  // Two GPUs, 1000-byte capacity each (tiny, so eviction is easy to trigger).
  void Init(MemoryPolicy policy, Bytes capacity = 1000) {
    ServerConfig config;
    config.num_gpus = 2;
    topo_ = MakeCommodityServerTopology(config);
    tm_ = std::make_unique<TransferManager>(&sim_, &topo_);
    system_ = std::make_unique<MemorySystem>(&sim_, tm_.get(), &reg_, &topo_,
                                             std::vector<Bytes>{capacity, capacity}, policy);
  }

  TensorId NewTensor(const char* name, Bytes bytes, TensorClass cls, bool host_valid) {
    return reg_.Create(name, bytes, cls, host_valid);
  }

  // Acquire + wait; returns the handle.
  MemoryManager::AcquireHandle AcquireNow(int device, WorkingSet set) {
    auto acq = system_->manager(device).Acquire(std::move(set));
    sim_.RunUntilIdle();
    EXPECT_TRUE(acq.ready->fired());
    return acq.handle;
  }

  Simulator sim_;
  Topology topo_;
  TensorRegistry reg_;
  std::unique_ptr<TransferManager> tm_;
  std::unique_ptr<MemorySystem> system_;
};

TEST_F(MemorySystemTest, SwapInFromHost) {
  Init(LmsPolicy());
  const TensorId w = NewTensor("W", 400, TensorClass::kWeight, true);
  WorkingSet set;
  set.fetch = {w};
  AcquireNow(0, set);
  EXPECT_EQ(reg_.state(w).residency, Residency::kResident);
  EXPECT_EQ(reg_.state(w).device, 0);
  EXPECT_EQ(system_->manager(0).counters().swap_in_of(TensorClass::kWeight), 400);
  EXPECT_EQ(system_->manager(0).used_bytes(), 512);  // 256-byte alignment
}

TEST_F(MemorySystemTest, OutputAllocationNeedsNoTransfer) {
  Init(LmsPolicy());
  const TensorId y = NewTensor("Y", 300, TensorClass::kActivation, false);
  WorkingSet set;
  set.allocate = {y};
  AcquireNow(0, set);
  EXPECT_EQ(reg_.state(y).residency, Residency::kResident);
  EXPECT_TRUE(reg_.state(y).dirty);
  EXPECT_EQ(tm_->flows_completed(), 0);
}

TEST_F(MemorySystemTest, LruEvictionWritesBackUnderLmsPolicy) {
  Init(LmsPolicy());
  const TensorId a = NewTensor("A", 600, TensorClass::kWeight, true);
  const TensorId b = NewTensor("B", 600, TensorClass::kWeight, true);
  WorkingSet set_a;
  set_a.fetch = {a};
  const auto handle_a = AcquireNow(0, set_a);
  system_->manager(0).Release(handle_a);
  WorkingSet set_b;
  set_b.fetch = {b};
  AcquireNow(0, set_b);
  // A (clean, host copy valid) was still written back: LMS-style naive eviction.
  EXPECT_EQ(reg_.state(a).residency, Residency::kNone);
  EXPECT_EQ(system_->manager(0).counters().swap_out_of(TensorClass::kWeight), 600);
  EXPECT_EQ(reg_.state(b).residency, Residency::kResident);
}

TEST_F(MemorySystemTest, CleanDropUnderHarmonyPolicy) {
  Init(HarmonyPolicy());
  const TensorId a = NewTensor("A", 600, TensorClass::kWeight, true);
  const TensorId b = NewTensor("B", 600, TensorClass::kWeight, true);
  WorkingSet set_a;
  set_a.fetch = {a};
  system_->manager(0).Release(AcquireNow(0, set_a));
  WorkingSet set_b;
  set_b.fetch = {b};
  AcquireNow(0, set_b);
  EXPECT_EQ(reg_.state(a).residency, Residency::kNone);
  EXPECT_TRUE(reg_.state(a).host_valid);
  // No write-back bytes: the clean copy was dropped.
  EXPECT_EQ(system_->manager(0).counters().total_swap_out(), 0);
  EXPECT_EQ(system_->manager(0).counters().clean_drops[static_cast<int>(TensorClass::kWeight)],
            600);
}

TEST_F(MemorySystemTest, DirtyTensorAlwaysWritesBack) {
  Init(HarmonyPolicy());
  const TensorId a = NewTensor("A", 600, TensorClass::kActivation, false);
  const TensorId b = NewTensor("B", 600, TensorClass::kWeight, true);
  WorkingSet set_a;
  set_a.allocate = {a};
  const auto handle = AcquireNow(0, set_a);
  system_->manager(0).MarkDirty(a);
  system_->manager(0).Release(handle);
  WorkingSet set_b;
  set_b.fetch = {b};
  AcquireNow(0, set_b);
  EXPECT_EQ(reg_.state(a).residency, Residency::kNone);
  EXPECT_TRUE(reg_.state(a).host_valid);
  EXPECT_EQ(system_->manager(0).counters().swap_out_of(TensorClass::kActivation), 600);
}

TEST_F(MemorySystemTest, PinnedTensorsAreNotEvicted) {
  Init(LmsPolicy());
  const TensorId a = NewTensor("A", 512, TensorClass::kWeight, true);
  const TensorId b = NewTensor("B", 256, TensorClass::kWeight, true);
  WorkingSet set_a;
  set_a.fetch = {a};
  AcquireNow(0, set_a);  // not released: A stays pinned
  WorkingSet set_b;
  set_b.fetch = {b};
  AcquireNow(0, set_b);  // fits alongside
  EXPECT_EQ(reg_.state(a).residency, Residency::kResident);
  EXPECT_EQ(reg_.state(b).residency, Residency::kResident);
}

TEST_F(MemorySystemTest, P2pFetchMovesTensorBetweenDevices) {
  Init(HarmonyPolicy());
  const TensorId x = NewTensor("X", 400, TensorClass::kActivation, false);
  WorkingSet produce;
  produce.allocate = {x};
  const auto handle = AcquireNow(0, produce);
  system_->manager(0).MarkDirty(x);
  system_->manager(0).Release(handle);

  WorkingSet consume;
  consume.fetch = {x};
  AcquireNow(1, consume);
  EXPECT_EQ(reg_.state(x).device, 1);
  EXPECT_EQ(reg_.state(x).residency, Residency::kResident);
  EXPECT_EQ(system_->manager(1).counters().total_p2p_in(), 400);
  EXPECT_EQ(system_->manager(0).used_bytes(), 0);  // source allocation released
  EXPECT_EQ(system_->manager(0).counters().total_swap_out(), 0);
  EXPECT_EQ(tm_->bytes_by_kind(TransferKind::kPeerToPeer), 400);
}

TEST_F(MemorySystemTest, WithoutP2pCrossDeviceFetchStagesThroughHost) {
  Init(LmsPolicy());
  const TensorId x = NewTensor("X", 400, TensorClass::kActivation, false);
  WorkingSet produce;
  produce.allocate = {x};
  const auto handle = AcquireNow(0, produce);
  system_->manager(0).MarkDirty(x);
  system_->manager(0).Release(handle);

  WorkingSet consume;
  consume.fetch = {x};
  AcquireNow(1, consume);
  EXPECT_EQ(reg_.state(x).device, 1);
  // Staged: swap-out on gpu0 plus swap-in on gpu1, no p2p bytes at all.
  EXPECT_EQ(system_->manager(0).counters().swap_out_of(TensorClass::kActivation), 400);
  EXPECT_EQ(system_->manager(1).counters().swap_in_of(TensorClass::kActivation), 400);
  EXPECT_EQ(tm_->bytes_by_kind(TransferKind::kPeerToPeer), 0);
}

TEST_F(MemorySystemTest, AccumulateInitializesWhenAbsent) {
  Init(HarmonyPolicy());
  const TensorId g = NewTensor("dW", 200, TensorClass::kWeightGrad, false);
  WorkingSet set;
  set.accumulate = {g};
  AcquireNow(0, set);
  EXPECT_EQ(reg_.state(g).residency, Residency::kResident);
  EXPECT_TRUE(reg_.state(g).dirty);
  EXPECT_EQ(tm_->flows_completed(), 0);  // zero-init, no DMA
}

TEST_F(MemorySystemTest, FreeTensorReleasesSpaceAndKillsTensor) {
  Init(HarmonyPolicy());
  const TensorId x = NewTensor("X", 400, TensorClass::kActivation, false);
  WorkingSet set;
  set.allocate = {x};
  const auto handle = AcquireNow(0, set);
  system_->manager(0).Release(handle);
  system_->manager(0).FreeTensor(x);
  EXPECT_EQ(reg_.state(x).residency, Residency::kDead);
  EXPECT_EQ(system_->manager(0).used_bytes(), 0);
}

TEST_F(MemorySystemTest, ScratchHeldUntilRelease) {
  Init(HarmonyPolicy());
  WorkingSet set;
  set.scratch_bytes = 512;
  const auto handle = AcquireNow(0, set);
  EXPECT_EQ(system_->manager(0).used_bytes(), 512);
  system_->manager(0).Release(handle);
  EXPECT_EQ(system_->manager(0).used_bytes(), 0);
}

TEST_F(MemorySystemTest, BestEffortRequestCancelsWhenStuck) {
  Init(HarmonyPolicy(), /*capacity=*/1536);
  const TensorId a = NewTensor("A", 1024, TensorClass::kWeight, true);
  const TensorId b = NewTensor("B", 1024, TensorClass::kWeight, true);
  WorkingSet set_a;
  set_a.fetch = {a};
  AcquireNow(0, set_a);  // pinned; fills the device

  WorkingSet set_b;
  set_b.fetch = {b};
  auto acq = system_->manager(0).Acquire(std::move(set_b), /*best_effort=*/true);
  sim_.RunUntilIdle();
  ASSERT_TRUE(acq.ready->fired());
  EXPECT_TRUE(system_->manager(0).WasCancelled(acq.handle));
  system_->manager(0).Release(acq.handle);  // no-op, no crash
  EXPECT_EQ(reg_.state(b).pin_count, 0);
  EXPECT_EQ(reg_.state(b).residency, Residency::kNone);
}

TEST_F(MemorySystemTest, CancelledAcquisitionKeepsItsReadyEventUntilRelease) {
  Init(HarmonyPolicy(), /*capacity=*/1536);
  const TensorId a = NewTensor("A", 1024, TensorClass::kWeight, true);
  const TensorId b = NewTensor("B", 1024, TensorClass::kWeight, true);
  WorkingSet set_a;
  set_a.fetch = {a};
  const auto handle_a = AcquireNow(0, set_a);

  WorkingSet set_b;
  set_b.fetch = {b};
  auto prefetch = system_->manager(0).Acquire(set_b, /*best_effort=*/true);
  sim_.RunUntilIdle();
  ASSERT_TRUE(system_->manager(0).WasCancelled(prefetch.handle));
  const SimTime cancelled_at = prefetch.ready->fire_time();

  // Later traffic on the device (A released, B fetched for real) leaves the cancelled
  // record and its event alone: a waiter attached late, as the engine attaches one to a
  // prefetch when its task starts, still runs.
  system_->manager(0).Release(handle_a);
  const auto handle_b = AcquireNow(0, set_b);
  ASSERT_GT(sim_.now(), cancelled_at);
  bool late_waiter_ran = false;
  prefetch.ready->OnFired([&late_waiter_ran] { late_waiter_ran = true; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(late_waiter_ran);
  EXPECT_DOUBLE_EQ(prefetch.ready->fire_time(), cancelled_at);

  // Release destroys the event (reading `prefetch.ready` after this is a use-after-free).
  system_->manager(0).Release(prefetch.handle);
  EXPECT_FALSE(system_->manager(0).WasCancelled(prefetch.handle));
  system_->manager(0).Release(handle_b);
  sim_.RunUntilIdle();
  EXPECT_TRUE(system_->CheckQuiescent().ok()) << system_->CheckQuiescent().ToString();
}

TEST_F(MemorySystemTest, NormalRequestWaitsForReleaseInsteadOfCancelling) {
  Init(HarmonyPolicy(), /*capacity=*/1536);
  const TensorId a = NewTensor("A", 1024, TensorClass::kWeight, true);
  const TensorId b = NewTensor("B", 1024, TensorClass::kWeight, true);
  WorkingSet set_a;
  set_a.fetch = {a};
  const auto handle_a = AcquireNow(0, set_a);

  WorkingSet set_b;
  set_b.fetch = {b};
  auto acq = system_->manager(0).Acquire(std::move(set_b));
  sim_.RunUntilIdle();
  EXPECT_FALSE(acq.ready->fired());  // stuck but patient
  system_->manager(0).Release(handle_a);
  sim_.RunUntilIdle();
  EXPECT_TRUE(acq.ready->fired());
  EXPECT_EQ(reg_.state(b).residency, Residency::kResident);
}

TEST_F(MemorySystemTest, HighWaterTracksPeakUsage) {
  Init(HarmonyPolicy());
  const TensorId a = NewTensor("A", 512, TensorClass::kWeight, true);
  WorkingSet set;
  set.fetch = {a};
  const auto handle = AcquireNow(0, set);
  system_->manager(0).Release(handle);
  system_->manager(0).FreeTensor(a);
  EXPECT_EQ(system_->manager(0).counters().high_water, 512);
  EXPECT_EQ(system_->manager(0).used_bytes(), 0);
}

TEST_F(MemorySystemTest, FifoGrantOrderPerDevice) {
  Init(HarmonyPolicy(), /*capacity=*/2048);
  const TensorId a = NewTensor("A", 512, TensorClass::kWeight, true);
  const TensorId b = NewTensor("B", 512, TensorClass::kWeight, true);
  WorkingSet set_a;
  set_a.fetch = {a};
  WorkingSet set_b;
  set_b.fetch = {b};
  auto acq_a = system_->manager(0).Acquire(std::move(set_a));
  auto acq_b = system_->manager(0).Acquire(std::move(set_b));
  sim_.RunUntilIdle();
  ASSERT_TRUE(acq_a.ready->fired());
  ASSERT_TRUE(acq_b.ready->fired());
  EXPECT_LE(acq_a.ready->fire_time(), acq_b.ready->fire_time());
}

TEST_F(MemorySystemTest, CountersSumAcrossDevices) {
  Init(LmsPolicy());
  const TensorId a = NewTensor("A", 100, TensorClass::kWeight, true);
  const TensorId b = NewTensor("B", 100, TensorClass::kWeight, true);
  WorkingSet sa;
  sa.fetch = {a};
  WorkingSet sb;
  sb.fetch = {b};
  AcquireNow(0, sa);
  AcquireNow(1, sb);
  EXPECT_EQ(system_->TotalSwapIn(), 200);
  EXPECT_EQ(system_->TotalSwapInOf(TensorClass::kWeight), 200);
  EXPECT_EQ(system_->TotalSwapOut(), 0);
}

TEST_F(MemorySystemTest, ReleaseOfARequestStillWaitingDies) {
  Init(HarmonyPolicy(), /*capacity=*/1536);
  const TensorId a = NewTensor("A", 1024, TensorClass::kWeight, true);
  const TensorId b = NewTensor("B", 1024, TensorClass::kWeight, true);
  WorkingSet set_a;
  set_a.fetch = {a};
  AcquireNow(0, set_a);  // pinned; fills the device
  WorkingSet set_b;
  set_b.fetch = {b};
  auto waiting = system_->manager(0).Acquire(std::move(set_b));
  sim_.RunUntilIdle();
  ASSERT_FALSE(waiting.ready->fired());
  EXPECT_DEATH(system_->manager(0).Release(waiting.handle), "release of unknown acquisition");
}

TEST_F(MemorySystemTest, SecondReleaseOfAGrantedHandleDies) {
  Init(HarmonyPolicy());
  WorkingSet set;
  set.scratch_bytes = 256;
  const auto handle = AcquireNow(0, set);
  system_->manager(0).Release(handle);
  EXPECT_DEATH(system_->manager(0).Release(handle), "release of unknown acquisition");
}

TEST_F(MemorySystemTest, SingleTensorLargerThanCapacityDies) {
  Init(HarmonyPolicy());
  const TensorId huge = NewTensor("huge", 4000, TensorClass::kWeight, true);
  WorkingSet set;
  set.fetch = {huge};
  EXPECT_DEATH(
      {
        system_->manager(0).Acquire(std::move(set));
        sim_.RunUntilIdle();
      },
      "exceeds device");
}

}  // namespace
}  // namespace harmony
