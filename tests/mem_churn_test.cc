// Randomized eviction-churn property tests for indexed victim selection (DESIGN.md §5,
// "Indexed eviction"). The property: with audit mode on, every indexed pick is cross-checked
// against the retained O(residents) reference scan and the process dies on the first
// divergence — so a run that completes IS the assertion. Exercised two ways:
//   1. a direct MemorySystem driver with a hand-installed static oracle, random
//      acquire/release/dirty/free churn on a tiny two-GPU machine (hits clean drops,
//      write-backs, p2p steals, staged fetches, prefetch cancellation and defragmentation
//      under both policies and both eviction modes), and
//   2. whole-session runs at minimal feasible capacity, seeded like RandomRunTest.
// Plus deterministic regressions: the indexes survive Defragment and FreeTensor, a staged
// fetch re-pumped mid-write-back brings its tensor once, CheckQuiescent cross-checks list
// membership against TensorState, and it reports leaked cancelled best-effort handles.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "src/core/session.h"
#include "src/graph/model_zoo.h"
#include "src/hw/transfer_manager.h"
#include "src/mem/memory_manager.h"
#include "src/mem/tensor.h"
#include "src/runtime/next_use.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "tests/test_models.h"

namespace harmony {
namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

// Static per-(tensor, device) distance: answers never change, so it trivially satisfies the
// lazy heap's push-on-change contract while still producing varied tie-break tuples
// (including kNever, which combines with clean tensors into free-drop entries).
MemorySystem::NextUseFn StaticOracle() {
  return [](TensorId tensor, int device) -> std::uint64_t {
    std::uint64_t h = static_cast<std::uint64_t>(tensor) * std::uint64_t{0x9E3779B97F4A7C15} +
                      static_cast<std::uint64_t>(device) * std::uint64_t{0xBF58476D1CE4E5B9};
    h ^= h >> 31;
    h *= std::uint64_t{0x94D049BB133111EB};
    h ^= h >> 27;
    if (h % 5 == 0) {
      return kNever;
    }
    return h % 1000;
  };
}

class ChurnHarness {
 public:
  ChurnHarness(MemoryPolicy policy, Bytes capacity, bool install_oracle) {
    ServerConfig config;
    config.num_gpus = 2;
    topo_ = MakeCommodityServerTopology(config);
    tm_ = std::make_unique<TransferManager>(&sim_, &topo_);
    system_ = std::make_unique<MemorySystem>(&sim_, tm_.get(), &reg_, &topo_,
                                             std::vector<Bytes>{capacity, capacity}, policy);
    system_->set_audit_eviction(true);
    if (install_oracle) {
      system_->SetNextUseOracle(StaticOracle());
    }
  }

  Simulator sim_;
  Topology topo_;
  TensorRegistry reg_;
  std::unique_ptr<TransferManager> tm_;
  std::unique_ptr<MemorySystem> system_;
};

void ExpectIndexesConsistent(const MemorySystem& system) {
  for (int d = 0; d < system.num_devices(); ++d) {
    EXPECT_EQ(system.manager(d).DebugCheckIndexConsistency(), "");
  }
}

class EvictionChurnTest : public ::testing::TestWithParam<int> {};

TEST_P(EvictionChurnTest, IndexedVictimMatchesReferenceScanUnderRandomChurn) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * std::uint64_t{2654435761} + 11);

  MemoryPolicy policy;
  policy.write_back_clean = rng.NextBounded(2) == 0;
  policy.allow_p2p = rng.NextBounded(2) == 0;
  policy.eviction =
      rng.NextBounded(2) == 0 ? EvictionPolicy::kLru : EvictionPolicy::kLookahead;
  // Capacity fits ~5 aligned tensors while the population holds ~20, so almost every
  // acquisition evicts; two held sets (≤ 3584 B each) always fit side by side, so no
  // request can wedge behind pinned memory.
  const Bytes capacity = 8192;
  ChurnHarness h(policy, capacity, /*install_oracle=*/true);

  std::vector<TensorId> alive;
  for (int i = 0; i < 20; ++i) {
    const Bytes bytes = 64 + static_cast<Bytes>(rng.NextBounded(1437));  // aligns to ≤ 1536
    alive.push_back(h.reg_.Create("t" + std::to_string(i), bytes,
                                   TensorClass::kActivation, /*host_valid=*/true));
  }

  struct HeldSet {
    int device;
    MemoryManager::AcquireHandle handle;
    std::vector<TensorId> pinned;
  };
  std::vector<HeldSet> held;
  int created = 20;

  for (int step = 0; step < 400; ++step) {
    const std::uint64_t op = rng.NextBounded(10);
    if (op < 5 && held.size() < 2) {
      // Acquire 1-2 distinct alive tensors plus maybe scratch; occasionally best-effort
      // (prefetch-style), which may cancel instead of waiting.
      const int device = static_cast<int>(rng.NextBounded(2));
      WorkingSet set;
      const std::size_t want = 1 + rng.NextBounded(2);
      std::vector<TensorId> pool = alive;
      for (const HeldSet& hs : held) {
        for (TensorId pinned : hs.pinned) {
          pool.erase(std::remove(pool.begin(), pool.end(), pinned), pool.end());
        }
      }
      for (std::size_t k = 0; k < want && !pool.empty(); ++k) {
        const std::size_t pick = rng.NextBounded(pool.size());
        set.fetch.push_back(pool[pick]);
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      if (set.fetch.empty()) {
        continue;
      }
      set.scratch_bytes = static_cast<Bytes>(rng.NextBounded(3)) * 256;
      const bool best_effort = rng.NextBounded(4) == 0;
      std::vector<TensorId> pinned = set.fetch;
      auto acq = h.system_->manager(device).Acquire(std::move(set), best_effort);
      h.sim_.RunUntilIdle();
      ASSERT_TRUE(acq.ready->fired());
      held.push_back(HeldSet{device, acq.handle, std::move(pinned)});
    } else if (!held.empty() && (op < 7 || held.size() >= 2)) {
      // Release one held set, sometimes dirtying its members first (Release is required
      // even for cancelled best-effort handles — that erase is what keeps the held records
      // bounded).
      const std::size_t pick = rng.NextBounded(held.size());
      HeldSet hs = held[static_cast<std::size_t>(pick)];
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
      MemoryManager& manager = h.system_->manager(hs.device);
      if (!manager.WasCancelled(hs.handle) && rng.NextBounded(2) == 0) {
        for (TensorId id : hs.pinned) {
          if (manager.IsResidentHere(id) && rng.NextBounded(2) == 0) {
            manager.MarkDirty(id);
          }
        }
      }
      manager.Release(hs.handle);
      h.sim_.RunUntilIdle();
    } else if (op == 8 && alive.size() > 6) {
      // Free an unpinned tensor (end of life) and mint a replacement so the population —
      // and with it the eviction pressure — stays constant.
      std::vector<TensorId> pool = alive;
      for (const HeldSet& hs : held) {
        for (TensorId pinned : hs.pinned) {
          pool.erase(std::remove(pool.begin(), pool.end(), pinned), pool.end());
        }
      }
      if (pool.empty()) {
        continue;
      }
      const TensorId victim = pool[rng.NextBounded(pool.size())];
      const TensorState& s = h.reg_.state(victim);
      const int owner = s.device >= 0 ? s.device : 0;
      h.system_->manager(owner).FreeTensor(victim);
      h.sim_.RunUntilIdle();
      alive.erase(std::remove(alive.begin(), alive.end(), victim), alive.end());
      const Bytes bytes = 64 + static_cast<Bytes>(rng.NextBounded(1437));
      alive.push_back(h.reg_.Create("t" + std::to_string(created++), bytes,
                                     TensorClass::kActivation, /*host_valid=*/true));
    }
    if (step % 50 == 0) {
      ExpectIndexesConsistent(*h.system_);
    }
  }

  for (const HeldSet& hs : held) {
    h.system_->manager(hs.device).Release(hs.handle);
  }
  h.sim_.RunUntilIdle();
  ExpectIndexesConsistent(*h.system_);
  const Status quiescent = h.system_->CheckQuiescent();
  EXPECT_TRUE(quiescent.ok()) << quiescent.ToString();
  EXPECT_GT(h.system_->manager(0).counters().evictions +
                h.system_->manager(1).counters().evictions,
            0);

}

INSTANTIATE_TEST_SUITE_P(Seeds, EvictionChurnTest, ::testing::Range(0, 24));

// Whole-session churn: the engine installs its real plan-derived oracle and the audit
// cross-checks every pick the full runtime stack makes, at the minimum feasible capacity
// where eviction pressure is worst.
class SessionAuditChurnTest : public ::testing::TestWithParam<int> {};

TEST_P(SessionAuditChurnTest, FullRunsAuditCleanAtMinimalCapacity) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 48271 + 7);
  const Model model = test_models::RandomUniformModel(rng, test_models::ChurnModelRanges());
  SessionConfig config = test_models::RandomChurnSession(rng, model.num_layers());
  test_models::FitMinimalCapacity(model, &config);

  const SessionResult result = RunTraining(model, config);
  EXPECT_GT(result.report.makespan, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionAuditChurnTest, ::testing::Range(0, 12));

// The indexes (LRU list, lookahead heap, oracle keys) survive Defragment: compaction moves
// allocation offsets but never changes ticks or oracle answers, so a post-defrag eviction
// still matches the reference scan.
TEST(IndexRegressionTest, IndexesSurviveDefragment) {
  MemoryPolicy policy;
  policy.write_back_clean = false;
  policy.eviction = EvictionPolicy::kLookahead;
  ChurnHarness h(policy, /*capacity=*/2048, /*install_oracle=*/true);
  TensorRegistry& reg = h.reg_;
  MemoryManager& mgr = h.system_->manager(0);

  const TensorId a = reg.Create("A", 256, TensorClass::kActivation, true);
  const TensorId b = reg.Create("B", 256, TensorClass::kActivation, true);
  const TensorId c = reg.Create("C", 256, TensorClass::kActivation, true);
  const TensorId d = reg.Create("D", 256, TensorClass::kActivation, true);
  WorkingSet warm;
  warm.fetch = {a, b, c, d};
  auto acq = mgr.Acquire(std::move(warm));
  h.sim_.RunUntilIdle();
  ASSERT_TRUE(acq.ready->fired());

  // Pin A and C through a second handle, then release the warm-up pins and punch holes at
  // B and D. Free space is now 256 @B + 256 @D + 1024 at the end — 1536 B total but only
  // 1024 contiguous, and the two residents are pinned, so a 1536-B allocation can neither
  // fit nor evict: the manager must defragment.
  WorkingSet pin_ac;
  pin_ac.fetch = {a, c};
  auto pins = mgr.Acquire(std::move(pin_ac));
  h.sim_.RunUntilIdle();
  ASSERT_TRUE(pins.ready->fired());
  mgr.Release(acq.handle);
  h.sim_.RunUntilIdle();
  mgr.FreeTensor(b);
  mgr.FreeTensor(d);
  h.sim_.RunUntilIdle();

  const TensorId e = reg.Create("E", 1536, TensorClass::kActivation, false);
  WorkingSet big;
  big.allocate = {e};
  auto big_acq = mgr.Acquire(std::move(big));
  h.sim_.RunUntilIdle();
  ASSERT_TRUE(big_acq.ready->fired());
  EXPECT_EQ(mgr.counters().defrags, 1);
  EXPECT_EQ(mgr.DebugCheckIndexConsistency(), "");

  // Post-defrag churn: evicting with relocated offsets must still audit clean.
  mgr.Release(pins.handle);
  mgr.Release(big_acq.handle);
  h.sim_.RunUntilIdle();
  const TensorId f = reg.Create("F", 1024, TensorClass::kActivation, true);
  WorkingSet squeeze;
  squeeze.fetch = {f};
  auto sq = mgr.Acquire(std::move(squeeze));
  h.sim_.RunUntilIdle();
  ASSERT_TRUE(sq.ready->fired());
  mgr.Release(sq.handle);
  h.sim_.RunUntilIdle();
  EXPECT_GT(mgr.counters().evictions, 0);
  ExpectIndexesConsistent(*h.system_);
  const Status quiescent = h.system_->CheckQuiescent();
  EXPECT_TRUE(quiescent.ok()) << quiescent.ToString();
}

// FreeTensor mid-stream removes the tensor from every index; later evictions and a final
// quiescence check must not see ghosts of it.
TEST(IndexRegressionTest, IndexesSurviveFreeTensor) {
  MemoryPolicy policy;
  policy.write_back_clean = true;  // LMS-style: evictions are write-backs, never free drops
  policy.eviction = EvictionPolicy::kLru;
  ChurnHarness h(policy, /*capacity=*/2048, /*install_oracle=*/false);
  TensorRegistry& reg = h.reg_;
  MemoryManager& mgr = h.system_->manager(0);

  const TensorId a = reg.Create("A", 512, TensorClass::kWeight, true);
  const TensorId b = reg.Create("B", 512, TensorClass::kWeight, true);
  const TensorId c = reg.Create("C", 512, TensorClass::kWeight, true);
  for (TensorId id : {a, b, c}) {
    WorkingSet set;
    set.fetch = {id};
    auto acq = mgr.Acquire(std::move(set));
    h.sim_.RunUntilIdle();
    ASSERT_TRUE(acq.ready->fired());
    mgr.Release(acq.handle);
    h.sim_.RunUntilIdle();
  }
  mgr.FreeTensor(b);
  h.sim_.RunUntilIdle();
  EXPECT_EQ(mgr.DebugCheckIndexConsistency(), "");

  // A is now the LRU head; the next pressure evicts it (audited against the scan), not
  // the freed B.
  const TensorId d = reg.Create("D", 1024, TensorClass::kWeight, true);
  WorkingSet set;
  set.fetch = {d};
  auto acq = mgr.Acquire(std::move(set));
  h.sim_.RunUntilIdle();
  ASSERT_TRUE(acq.ready->fired());
  EXPECT_EQ(reg.state(a).residency, Residency::kNone);
  mgr.Release(acq.handle);
  h.sim_.RunUntilIdle();
  ExpectIndexesConsistent(*h.system_);
  const Status quiescent = h.system_->CheckQuiescent();
  EXPECT_TRUE(quiescent.ok()) << quiescent.ToString();
}

// One per-tensor LRU link table serves every manager, so a tensor moving between devices
// must leave the source list before it joins the destination's. Both move paths — a direct
// p2p fetch, and a fetch staged through host memory (the owner writes the dirty tensor
// back, the destination swaps it in) — leave both lists and the table's owner counts
// consistent, there and back.
TEST(IndexRegressionTest, TensorMovesBetweenDevicesByP2pAndStagedFetch) {
  for (const bool p2p : {true, false}) {
    MemoryPolicy policy = HarmonyPolicy();
    policy.allow_p2p = p2p;
    ChurnHarness h(policy, /*capacity=*/4096, /*install_oracle=*/false);
    TensorRegistry& reg = h.reg_;
    const TensorId a = reg.Create("A", 512, TensorClass::kActivation, true);
    const TensorId b = reg.Create("B", 512, TensorClass::kActivation, true);
    auto use = [&](int device, TensorId id, bool dirty) {
      MemoryManager& mgr = h.system_->manager(device);
      WorkingSet set;
      set.fetch = {id};
      auto acq = mgr.Acquire(std::move(set));
      h.sim_.RunUntilIdle();
      ASSERT_TRUE(acq.ready->fired());
      if (dirty) {
        mgr.MarkDirty(id);
      }
      mgr.Release(acq.handle);
      h.sim_.RunUntilIdle();
    };
    use(0, a, /*dirty=*/true);  // dirty, so the staged path must write it back
    use(0, b, /*dirty=*/false);  // gpu0's list keeps a member after A leaves
    use(1, a, /*dirty=*/false);
    EXPECT_EQ(reg.state(a).device, 1) << "p2p=" << p2p;
    EXPECT_EQ(reg.state(b).device, 0) << "p2p=" << p2p;
    if (p2p) {
      EXPECT_EQ(h.system_->manager(1).counters().total_p2p_in(), 512);
    } else {
      EXPECT_EQ(h.system_->manager(0).counters().total_swap_out(), 512);
      EXPECT_EQ(h.system_->manager(1).counters().total_p2p_in(), 0);
    }
    ExpectIndexesConsistent(*h.system_);
    Status quiescent = h.system_->CheckQuiescent();
    EXPECT_TRUE(quiescent.ok()) << quiescent.ToString();

    use(0, a, /*dirty=*/false);  // and back: the staged path now drops a clean replica
    EXPECT_EQ(reg.state(a).device, 0) << "p2p=" << p2p;
    ExpectIndexesConsistent(*h.system_);
    quiescent = h.system_->CheckQuiescent();
    EXPECT_TRUE(quiescent.ok()) << quiescent.ToString();
  }
}

// A fetch staged through host memory is in flight while its tensor is kSwappingOut on the
// owner. When another tensor of the same request lands first, the requester is re-pumped
// mid-write-back: it must wait the write-back out (kSwappingOut), not stage a second one,
// and the landing must still wake it to issue the host leg exactly once.
TEST(IndexRegressionTest, StagedFetchRepumpedMidWriteBackIssuesOneBring) {
  ChurnHarness h(LmsPolicy(), /*capacity=*/256 * kMiB, /*install_oracle=*/false);
  TensorRegistry& reg = h.reg_;
  const TensorId a = reg.Create("A", 64 * kMiB, TensorClass::kActivation, false);
  const TensorId c = reg.Create("C", 4096, TensorClass::kActivation, true);

  MemoryManager& gpu0 = h.system_->manager(0);
  WorkingSet produce;
  produce.allocate = {a};  // no copy anywhere: zero-initialized on gpu0, dirty
  auto produced = gpu0.Acquire(std::move(produce));
  h.sim_.RunUntilIdle();
  ASSERT_TRUE(produced.ready->fired());
  gpu0.Release(produced.handle);
  h.sim_.RunUntilIdle();

  MemoryManager& gpu1 = h.system_->manager(1);
  WorkingSet consume;
  consume.fetch = {a, c};
  auto consumed = gpu1.Acquire(std::move(consume));
  while (reg.state(c).residency != Residency::kResident) {
    ASSERT_TRUE(h.sim_.RunOne());
  }
  // C's landing scheduled a re-pump of gpu1; it runs while A's write-back is in flight.
  ASSERT_EQ(reg.state(a).residency, Residency::kSwappingOut);
  ASSERT_TRUE(h.sim_.RunOne());
  EXPECT_EQ(reg.state(a).residency, Residency::kSwappingOut);
  EXPECT_FALSE(consumed.ready->fired());
  h.sim_.RunUntilIdle();

  ASSERT_TRUE(consumed.ready->fired());
  EXPECT_EQ(reg.state(a).residency, Residency::kResident);
  EXPECT_EQ(reg.state(a).device, 1);
  int write_backs = 0;
  int swap_ins = 0;
  for (const ChurnEvent& event : h.system_->churn_audit_log()) {
    if (event.tensor == a) {
      write_backs += event.kind == ChurnKind::kPeerStageWriteBack ? 1 : 0;
      swap_ins += event.kind == ChurnKind::kSwapIn ? 1 : 0;
    }
  }
  EXPECT_EQ(write_backs, 1);
  EXPECT_EQ(swap_ins, 1);
  gpu1.Release(consumed.handle);
  h.sim_.RunUntilIdle();
  ExpectIndexesConsistent(*h.system_);
  const Status quiescent = h.system_->CheckQuiescent();
  EXPECT_TRUE(quiescent.ok()) << quiescent.ToString();
}

// Each LRU list is its device's resident set. A list walk checks every member against its
// TensorState; CheckQuiescent checks the converse, that every tensor whose state holds an
// allocation on a device is linked there, whether or not its id ever reached the link table.
TEST(IndexRegressionTest, CheckQuiescentCrossChecksListMembershipAgainstTensorState) {
  ChurnHarness h(HarmonyPolicy(), /*capacity=*/4096, /*install_oracle=*/false);
  TensorRegistry& reg = h.reg_;
  MemoryManager& mgr = h.system_->manager(0);
  const TensorId a = reg.Create("A", 512, TensorClass::kWeight, true);
  const TensorId b = reg.Create("B", 512, TensorClass::kWeight, true);  // never used
  WorkingSet set;
  set.fetch = {a};
  auto acq = mgr.Acquire(std::move(set));
  h.sim_.RunUntilIdle();
  ASSERT_TRUE(acq.ready->fired());
  mgr.Release(acq.handle);
  h.sim_.RunUntilIdle();
  ASSERT_TRUE(h.system_->CheckQuiescent().ok());
  const TensorId ghost = reg.Create("Ghost", 512, TensorClass::kWeight, true);

  // B's id is in the link table, Ghost's lies past its end; neither is linked.
  for (const TensorId unlinked : {b, ghost}) {
    TensorState& s = reg.mutable_state(unlinked);
    const TensorState saved = s;
    s.residency = Residency::kResident;
    s.device = 0;
    s.alloc_offset = 2048;
    const Status status = h.system_->CheckQuiescent();
    ASSERT_FALSE(status.ok()) << reg.name(unlinked);
    EXPECT_NE(status.ToString().find("tensor " + reg.name(unlinked) + " holds an allocation"),
              std::string::npos)
        << status.ToString();
    s = saved;
  }
  ASSERT_TRUE(h.system_->CheckQuiescent().ok());

  // A is linked on gpu0, but its state now claims gpu1: gpu0's list walk reports it.
  reg.mutable_state(a).device = 1;
  EXPECT_NE(mgr.DebugCheckIndexConsistency().find("holds no allocation here"),
            std::string::npos)
      << mgr.DebugCheckIndexConsistency();
  EXPECT_FALSE(h.system_->CheckQuiescent().ok());
  reg.mutable_state(a).device = 0;
  ExpectIndexesConsistent(*h.system_);
}

// A cancelled best-effort handle that is never Released leaks its request record;
// CheckQuiescent must call that out (the tuner sweep would otherwise grow the records
// forever), and the late Release must clear it.
TEST(IndexRegressionTest, CheckQuiescentReportsLeakedCancelledHandles) {
  ChurnHarness h(HarmonyPolicy(), /*capacity=*/1024, /*install_oracle=*/false);
  TensorRegistry& reg = h.reg_;
  MemoryManager& mgr = h.system_->manager(0);

  const TensorId a = reg.Create("A", 768, TensorClass::kWeight, true);
  const TensorId b = reg.Create("B", 768, TensorClass::kWeight, true);
  WorkingSet pin_a;
  pin_a.fetch = {a};
  auto held = mgr.Acquire(std::move(pin_a));
  h.sim_.RunUntilIdle();
  ASSERT_TRUE(held.ready->fired());

  // B cannot fit without evicting pinned A: the best-effort request cancels.
  WorkingSet want_b;
  want_b.fetch = {b};
  auto prefetch = mgr.Acquire(std::move(want_b), /*best_effort=*/true);
  h.sim_.RunUntilIdle();
  ASSERT_TRUE(prefetch.ready->fired());
  ASSERT_TRUE(mgr.WasCancelled(prefetch.handle));

  mgr.Release(held.handle);
  h.sim_.RunUntilIdle();
  const Status leaked = h.system_->CheckQuiescent();
  ASSERT_FALSE(leaked.ok());
  EXPECT_NE(leaked.ToString().find("cancelled"), std::string::npos) << leaked.ToString();

  mgr.Release(prefetch.handle);  // the required cleanup erases the entry
  const Status clean = h.system_->CheckQuiescent();
  EXPECT_TRUE(clean.ok()) << clean.ToString();
}

// ---- NextUseIndex (the engine's O(1) amortized oracle substrate) --------------------------

TEST(NextUseIndexTest, CursorAnswersMatchDefinition) {
  NextUseIndex index(/*num_devices=*/1);
  const TensorId t = 3;
  index.AddUse(t, 0, 2);
  index.AddUse(t, 0, 5);
  index.AddUse(t, 0, 5);  // duplicate positions are legal (two tasks at one queue slot)
  index.AddUse(t, 0, 9);
  EXPECT_EQ(index.NextUseAtOrAfter(t, 0, 0), 2u);
  EXPECT_EQ(index.NextUseAtOrAfter(t, 0, 2), 2u);
  EXPECT_EQ(index.NextUseAtOrAfter(t, 0, 3), 5u);
  EXPECT_EQ(index.NextUseAtOrAfter(t, 0, 6), 9u);
  EXPECT_EQ(index.NextUseAtOrAfter(t, 0, 10), NextUseIndex::kNever);
}

TEST(NextUseIndexTest, UnknownTensorIsNeverUsed) {
  NextUseIndex index(/*num_devices=*/2);
  index.AddUse(1, 0, 4);
  EXPECT_EQ(index.NextUseAtOrAfter(7, 0, 0), NextUseIndex::kNever);
  EXPECT_EQ(index.NextUseAtOrAfter(1, 1, 0), NextUseIndex::kNever);  // not touched by gpu1
  EXPECT_EQ(index.NextUseAtOrAfter(1, 0, 0), 4u);
}

TEST(NextUseIndexTest, MatchesLowerBoundReferenceUnderMonotoneQueries) {
  Rng rng(0xFEED);
  NextUseIndex index(/*num_devices=*/1);
  std::vector<std::vector<std::uint64_t>> reference(16);
  for (std::uint64_t pos = 0; pos < 500; ++pos) {
    const TensorId t = static_cast<TensorId>(rng.NextBounded(16));
    index.AddUse(t, 0, pos);
    reference[static_cast<std::size_t>(t)].push_back(pos);
  }
  for (std::uint64_t pos = 0; pos <= 500; pos += 1 + rng.NextBounded(7)) {
    for (TensorId t = 0; t < 16; ++t) {
      const auto& uses = reference[static_cast<std::size_t>(t)];
      const auto it = std::lower_bound(uses.begin(), uses.end(), pos);
      const std::uint64_t expected = it == uses.end() ? NextUseIndex::kNever : *it;
      EXPECT_EQ(index.NextUseAtOrAfter(t, 0, pos), expected) << "tensor " << t << " pos " << pos;
    }
  }
}

// A PP stage-boundary tensor: the producer and the consumer stage both touch it, at
// interleaved queue positions. Each device has its own entry, cursor and rewind guard, so
// one device racing ahead neither consumes the other's uses nor unlocks a rewind.
TEST(NextUseIndexTest, SharedTensorKeepsIndependentCursorsPerDevice) {
  NextUseIndex index(/*num_devices=*/2);
  const TensorId t = 5;
  index.AddUse(t, 0, 1);
  index.AddUse(t, 1, 2);
  index.AddUse(t, 1, 3);
  index.AddUse(t, 0, 4);
  index.AddUse(t, 0, 7);
  index.AddUse(t, 1, 8);
  EXPECT_EQ(index.NextUseAtOrAfter(t, 1, 4), 8u);  // gpu1 advances past its 2 and 3
  // gpu0 queries below gpu1's position: its cursor and rewind guard are its own.
  EXPECT_EQ(index.NextUseAtOrAfter(t, 0, 0), 1u);
  EXPECT_EQ(index.NextUseAtOrAfter(t, 0, 2), 4u);
  EXPECT_EQ(index.NextUseAtOrAfter(t, 1, 5), 8u);
  EXPECT_EQ(index.NextUseAtOrAfter(t, 0, 5), 7u);
  EXPECT_EQ(index.NextUseAtOrAfter(t, 0, 8), NextUseIndex::kNever);
  EXPECT_EQ(index.NextUseAtOrAfter(t, 1, 8), 8u);
  EXPECT_EQ(index.NextUseAtOrAfter(t, 1, 9), NextUseIndex::kNever);
  EXPECT_DEATH(index.NextUseAtOrAfter(t, 0, 3), "cannot rewind");
}

}  // namespace
}  // namespace harmony
