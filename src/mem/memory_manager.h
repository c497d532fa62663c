// Per-device virtual memory managers with a machine-wide coordinator.
//
// MemorySystem owns one MemoryManager per GPU plus the shared tensor registry. The execution
// engine asks a device to Acquire a task's working set (inputs to fetch, accumulators to
// fetch-or-init, outputs to allocate, transient scratch); the manager pins the set, evicts
// LRU victims under pressure, and issues DMA flows through the TransferManager. The returned
// event fires when the whole set is resident; it belongs to the acquisition and dies at its
// Release.
//
// Two policy bits differentiate the paper's schemes:
//   - write_back_clean: evicting an unmodified tensor still copies it to host (IBM-LMS-style
//     per-GPU virtualization). Harmony's coherent memory drops clean tensors for free.
//   - allow_p2p: a tensor resident on a peer GPU is fetched with one device-to-device DMA.
//     Without it the fetch is staged through host memory as a swap-out + swap-in pair —
//     the "Only CPU-GPU Swaps" inefficiency of Sec. 2.
#ifndef HARMONY_SRC_MEM_MEMORY_MANAGER_H_
#define HARMONY_SRC_MEM_MEMORY_MANAGER_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/hw/transfer_manager.h"
#include "src/mem/allocator.h"
#include "src/mem/tensor.h"
#include "src/util/status.h"
#include "src/sim/simulator.h"

namespace harmony {

enum class EvictionPolicy {
  kLru,        // least-recently-used (what per-GPU virtualization can do on its own)
  kLookahead,  // Belady-style: evict the tensor whose next use is farthest in the future,
               // using the schedule the Task & Swap Scheduler already knows ("the scheduler
               // and swapping algorithms inform each other's decisions")
};

struct MemoryPolicy {
  bool write_back_clean = true;  // LMS-style naive eviction (baseline schemes)
  bool allow_p2p = false;        // coherent cross-device fetch (Harmony)
  EvictionPolicy eviction = EvictionPolicy::kLru;
};

inline MemoryPolicy LmsPolicy() { return MemoryPolicy{true, false}; }
inline MemoryPolicy HarmonyPolicy() { return MemoryPolicy{false, true}; }

struct MemoryCounters {
  Bytes swap_in[kNumTensorClasses] = {};   // host -> this device
  Bytes swap_out[kNumTensorClasses] = {};  // this device -> host
  Bytes p2p_in[kNumTensorClasses] = {};    // peer -> this device
  Bytes clean_drops[kNumTensorClasses] = {};
  std::int64_t evictions = 0;
  // Virtual-address compactions (CUDA-VMM-style remap when free bytes suffice but no
  // contiguous block does). Zero-cost in simulated time; counted for observability.
  std::int64_t defrags = 0;
  Bytes high_water = 0;  // max allocator usage observed

  Bytes total_swap_in() const;
  Bytes total_swap_out() const;
  Bytes total_p2p_in() const;
  Bytes swap_in_of(TensorClass cls) const { return swap_in[static_cast<int>(cls)]; }
  Bytes swap_out_of(TensorClass cls) const { return swap_out[static_cast<int>(cls)]; }
};

// Per-tensor swap churn, maintained machine-wide by the MemorySystem. Every counter is
// bumped at the exact site its per-device MemoryCounters counterpart is bumped, so sums
// over tensors equal sums over devices by construction (metrics_test asserts it, and
// fuzz_test recounts these from the churn audit log under SessionConfig::audit_eviction).
struct TensorChurnCounters {
  std::int64_t evictions = 0;    // EvictOne victims (clean drops + eviction write-backs)
  std::int64_t clean_drops = 0;
  std::int64_t write_backs = 0;  // eviction write-backs + staged peer write-backs
  std::int64_t swap_ins = 0;
  std::int64_t p2p_ins = 0;
  Bytes swap_in_bytes = 0;
  Bytes swap_out_bytes = 0;
  Bytes p2p_in_bytes = 0;
  Bytes clean_drop_bytes = 0;

  bool any() const {
    return evictions != 0 || clean_drops != 0 || write_backs != 0 || swap_ins != 0 ||
           p2p_ins != 0;
  }
};

// One churn event, appended to the audit log when audit_eviction is on. The kinds split
// write-backs by origin so a recount can reproduce the eviction counter exactly
// (evictions = kEvictCleanDrop + kEvictWriteBack events).
enum class ChurnKind : int {
  kSwapIn = 0,            // host -> device upload (first touch or re-fetch)
  kEvictCleanDrop = 1,    // EvictOne dropped a clean replica for free
  kEvictWriteBack = 2,    // EvictOne paid a device -> host copy
  kPeerStageWriteBack = 3,  // staged fetch forced the owner to write back (no-p2p path)
  kP2pIn = 4,             // direct peer -> peer fetch
};

struct ChurnEvent {
  TensorId tensor = kInvalidTensor;
  int device = -1;  // device whose counters the event hit
  ChurnKind kind = ChurnKind::kSwapIn;
  Bytes bytes = 0;
};

// One task's working-set request against a specific device.
struct WorkingSet {
  std::vector<TensorId> fetch;       // must arrive with valid contents
  std::vector<TensorId> accumulate;  // fetch if a copy exists anywhere, else zero-init here
  std::vector<TensorId> allocate;    // outputs: fresh device allocation
  Bytes scratch_bytes = 0;           // transient workspace, freed on Release
};

class MemorySystem;

// Next-use oracle for lookahead eviction: returns the position (monotone per device) of the
// next task on `device` that touches `tensor`, or a huge sentinel when it is never used
// again. Installed by the engine, which knows the plan. The indexed eviction fast path
// assumes a distance only changes while the tensor is pinned or off-device (true for any
// plan-derived oracle: a device advances past a use only while the using task holds its
// pins, and the release tick-bump refreshes the key). Oracles that drift outside that
// contract stay correct but pay a heap rebuild per drifting victim pick.
using NextUseFn = std::function<std::uint64_t(TensorId tensor, int device)>;

class MemoryManager {
 public:
  MemoryManager(MemorySystem* system, int device_index, NodeId device_node, NodeId host_node,
                Bytes capacity);
  MemoryManager(const MemoryManager&) = delete;
  MemoryManager& operator=(const MemoryManager&) = delete;

  using AcquireHandle = std::int64_t;

  struct Acquisition {
    AcquireHandle handle;
    // Fires when the set is resident and pinned, or when a best-effort request is
    // cancelled. Owned by the acquisition's record: valid until Release(handle), not after.
    OneShotEvent* ready;
  };

  // Queues a working-set acquisition. Requests are granted FIFO per device. A best-effort
  // request (used for prefetch / double buffering) is *cancelled* instead of waiting when it
  // can make no progress without evicting pinned tensors: its pins are dropped, `ready`
  // fires, and WasCancelled(handle) returns true. Transfers already in flight still land.
  Acquisition Acquire(WorkingSet set, bool best_effort = false);

  // True when `handle` belonged to a best-effort request that was cancelled. Release() on a
  // cancelled handle is a no-op.
  bool WasCancelled(AcquireHandle handle) const { return cancelled_.count(handle) > 0; }

  // Unpins the set, frees its scratch and destroys its `ready` event. Tensors stay resident
  // until evicted or freed.
  void Release(AcquireHandle handle);

  // Marks a resident tensor's device copy as diverged from host (output written).
  void MarkDirty(TensorId id);

  // End of life: drops any device copy instantly and invalidates the host copy. The tensor
  // must not be pinned or mid-transfer.
  void FreeTensor(TensorId id);

  int device_index() const { return device_index_; }
  NodeId device_node() const { return device_node_; }
  Bytes capacity() const { return allocator_.capacity(); }
  Bytes used_bytes() const { return allocator_.used_bytes(); }
  const MemoryCounters& counters() const { return counters_; }
  bool IsResidentHere(TensorId id) const;

  // Bytes of `cls` tensors resident on this device whose copy diverges from host — exactly
  // what a lightweight checkpoint must copy out (clean tensors already have a host copy).
  Bytes ResidentDirtyBytesOf(TensorClass cls) const;

 private:
  friend class MemorySystem;

  // An acquisition's `ready` event moves with it from Pending to Held (or into cancelled_)
  // and is destroyed by Release, so the manager keeps events only for live acquisitions.
  struct Pending {
    AcquireHandle handle;
    WorkingSet set;
    std::unique_ptr<OneShotEvent> ready;
    std::set<TensorId> issued;  // bring-actions already in flight for this request
    bool scratch_allocated = false;
    Bytes scratch_offset = -1;
    bool best_effort = false;
  };

  enum class Progress {
    kOk,       // tensor satisfied or a transfer is in flight
    kBlocked,  // allocation must wait for in-flight evictions
    kStuck,    // no progress possible without external change (release / free)
  };

  struct Held {
    WorkingSet set;
    Bytes scratch_offset = -1;
    std::unique_ptr<OneShotEvent> ready;
  };

  // Tries to make progress on the head pending request; returns true if it was granted.
  bool PumpHead();
  // Checks whether every tensor of `p` is resident here and scratch is allocated.
  bool Satisfied(const Pending& p) const;
  // Issues whatever actions tensor `id` needs; on kBlocked/kStuck callers stop issuing to
  // preserve FIFO memory fairness.
  Progress EnsureTensor(Pending& p, TensorId id, bool is_accumulate, bool is_allocate);
  // Allocates `bytes` for `tensor` (kInvalidTensor: a task's scratch), evicting LRU victims
  // as needed. Returns the offset, or -1 when blocked behind an in-flight eviction, or -2
  // when stuck (everything evictable is gone and nothing is in flight). Fatal only when
  // `bytes` exceeds raw device capacity.
  Bytes AllocateWithEviction(Bytes bytes, TensorId tensor);
  // Drops a best-effort head request: unpins, marks cancelled, fires ready.
  void CancelHead();
  // Compacts all live allocations to low offsets (simulating a virtual-memory remap),
  // leaving one contiguous free block. Updates every stored offset.
  void Defragment();
  // Starts eviction of the least-recently-used unpinned resident tensor. Returns true if a
  // victim was processed (sync drop or async write-back started); false if none exists.
  bool EvictOne();
  void BeginSwapIn(TensorId id, Bytes offset);
  void BeginPeerFetch(TensorId id, Bytes offset, MemoryManager* peer);
  void BeginStagedFetchFromPeer(TensorId id, MemoryManager* peer);
  // A staged fetch of `id` for request `handle` finished its owner-side leg: lets the
  // request issue the host leg and re-pumps this device.
  void FinishStagedOwnerLeg(AcquireHandle handle, TensorId id);
  void NoteUsage();

  // ---- Indexed victim selection (DESIGN.md §5, "Indexed eviction") ----
  // Heap entry for the lookahead policy, keyed by the reference scan's exact tie-break
  // tuple. Entries are never updated in place: every key change pushes a fresh entry and
  // the stale one is discarded when it surfaces (lazy invalidation).
  struct LookaheadEntry {
    bool free_drop;  // clean && never used again: evicting costs nothing
    std::uint64_t next_use;
    bool clean;
    std::uint64_t lru_tick;
    TensorId id;
  };
  // "Worse-than" order so the priority queue's top is the scan's unique winner (lru_tick is
  // unique across kResident tensors, so there are no cross-tensor key ties).
  struct LookaheadWorse {
    bool operator()(const LookaheadEntry& a, const LookaheadEntry& b) const {
      if (a.free_drop != b.free_drop) {
        return b.free_drop;
      }
      if (a.next_use != b.next_use) {
        return a.next_use < b.next_use;
      }
      if (a.clean != b.clean) {
        return b.clean;
      }
      return a.lru_tick > b.lru_tick;
    }
  };

  // Index maintenance. Every resident_ insert/erase and every lru_tick change of a member
  // must go through these, or indexed victim selection diverges from the reference scan.
  void IndexAdd(TensorId id);
  void IndexRemove(TensorId id);
  void IndexTickChange(TensorId id);
  // Intrusive-list primitives: O(1), allocation-free (tick bumps are the hot path — the
  // tuner sweep does ~14 of them per eviction).
  void LruLink(TensorId id);    // append at the tail (the fresh-tick end)
  void LruUnlink(TensorId id);
  // Pushes a fresh lookahead key for `id` (no-op unless the policy is kLookahead, an oracle
  // is installed, and `id` is kResident here). Duplicates are harmless.
  void LookaheadPush(TensorId id);
  // Drops and re-derives the lookahead heap from resident_ (oracle install / replacement).
  void RebuildLookaheadIndex();
  TensorId PickVictimLru() const;
  TensorId PickVictimLookahead(const NextUseFn& oracle, bool drop_is_free);
  // The original O(residents) scan, kept as the audit / benchmark baseline.
  TensorId PickVictimByScan(const NextUseFn& oracle, bool lookahead) const;

 public:
  // Returns "" when the LRU list exactly mirrors resident_ (size, membership, ascending
  // ticks among kResident members), else a description of the first divergence. Test hook.
  std::string DebugCheckIndexConsistency() const;

 private:

  MemorySystem* system_;
  int device_index_;
  NodeId device_node_;
  NodeId host_node_;  // this GPU's swap target (its own server's DRAM)
  DeviceAllocator allocator_;
  MemoryCounters counters_;

  std::deque<Pending> pending_;
  std::map<AcquireHandle, Held> held_;
  // Cancelled best-effort requests, each with its fired `ready` event, until Release.
  std::map<AcquireHandle, std::unique_ptr<OneShotEvent>> cancelled_;
  std::set<TensorId> resident_;  // tensors whose allocation lives on this device
  int evictions_in_flight_ = 0;
  AcquireHandle next_handle_ = 1;

  // Intrusive doubly-linked LRU list over exactly the members of resident_. Every lru_tick
  // bump assigns a fresh global maximum (NextLruTick is a global monotone counter) and
  // moves the tensor to the tail, so kResident members always sit in ascending-tick order
  // and the head-side walk in PickVictimLru finds the reference scan's min-tick pick.
  // kSwappingIn members may be linked out of tick order (they join with a pre-assigned
  // tick), but they are never candidates and land with a tick bump that repositions them.
  // The links themselves live in the MemorySystem's per-tensor table (see LruLinks).
  TensorId lru_head_ = kInvalidTensor;
  TensorId lru_tail_ = kInvalidTensor;
  std::size_t lru_size_ = 0;
  std::priority_queue<LookaheadEntry, std::vector<LookaheadEntry>, LookaheadWorse>
      lookahead_heap_;
  std::vector<LookaheadEntry> lookahead_stash_;  // current-but-pinned entries parked mid-pop
};

class MemorySystem {
 public:
  MemorySystem(Simulator* sim, TransferManager* transfers, TensorRegistry* registry,
               const Topology* topology, const std::vector<Bytes>& gpu_capacities,
               MemoryPolicy policy);
  MemorySystem(const MemorySystem&) = delete;
  MemorySystem& operator=(const MemorySystem&) = delete;

  int num_devices() const { return static_cast<int>(managers_.size()); }
  MemoryManager& manager(int device) { return *managers_.at(static_cast<std::size_t>(device)); }
  const MemoryManager& manager(int device) const {
    return *managers_.at(static_cast<std::size_t>(device));
  }

  TensorRegistry& registry() { return *registry_; }
  const MemoryPolicy& policy() const { return policy_; }
  Simulator& sim() { return *sim_; }
  TransferManager& transfers() { return *transfers_; }
  const Topology& topology() const { return *topology_; }

  // See the namespace-scope NextUseFn above. Installing (or replacing) the oracle rebuilds
  // every manager's lookahead index, since heap keys embed oracle answers.
  using NextUseFn = harmony::NextUseFn;
  void SetNextUseOracle(NextUseFn oracle);
  const NextUseFn& next_use_oracle() const { return next_use_; }

  // Coalesced "something changed, re-examine pending requests on every device" signal.
  // Internally the system tracks a per-device dirty set, so only managers whose state
  // actually changed get pumped; this entry point conservatively marks all of them.
  void SchedulePumpAll();

  // Victim-selection audit: cross-check every indexed pick against the reference scan
  // (fatal on divergence). For randomized churn tests; too slow for benches.
  void set_audit_eviction(bool on) { audit_eviction_ = on; }
  bool audit_eviction() const { return audit_eviction_; }
  // Forces the O(residents) reference scan for victim selection — the baseline arm of
  // BM_EvictionChurn. Index maintenance still runs so the comparison is honest.
  void set_reference_scan_eviction(bool on) { reference_scan_eviction_ = on; }
  bool reference_scan_eviction() const { return reference_scan_eviction_; }

  // Post-run hygiene check: no pending acquisitions, no held pins, no in-flight
  // transfers anywhere. Returns an error describing the first violation (leaked pins and
  // stuck requests are scheduler/engine bugs that would otherwise go unnoticed).
  Status CheckQuiescent() const;

  // Sums a counter across devices.
  Bytes TotalSwapIn() const;
  Bytes TotalSwapOut() const;
  Bytes TotalSwapInOf(TensorClass cls) const;

  // ---- observability (DESIGN.md §8) ----
  // Wall time device `device` has had at least one inbound DMA (swap-in / p2p-in) in
  // flight, integrated lazily up to now. The engine samples this at acquire-start and
  // acquire-grant to split the wait exactly into stall-on-transfer vs stall-on-memory.
  double InboundBusySeconds(int device) const;

  // Machine-wide per-tensor churn; indexed by TensorId, sized lazily (ids past the end
  // have all-zero counters).
  const std::vector<TensorChurnCounters>& tensor_churn() const { return churn_; }
  // Event-granular churn log; appended only while audit_eviction is on (the recount arm
  // of the fuzz cross-check — unbounded growth otherwise).
  const std::vector<ChurnEvent>& churn_audit_log() const { return churn_log_; }

 private:
  friend class MemoryManager;
  // Dirty-device pump. SchedulePump marks one device and guarantees a zero-delay pump
  // event; MarkDeviceDirty only sets the bit, for state changes whose wakeup rode an
  // already-guaranteed future pump in the pre-indexed code (keeping the event schedule —
  // and therefore every bench's stdout — byte-identical).
  void SchedulePump(int device);
  void MarkDeviceDirty(int device);
  // Devices that saw a tensor in flight while pumping record themselves as waiters; the
  // transfer's completion wakes exactly those devices (all of them past 64 GPUs).
  void MarkTensorWaiter(TensorId id, int device);
  void WakeTensorWaiters(TensorId id);
  // Routes an lru_tick change to the owning manager's indexes and marks it dirty.
  void NoteTickChanged(TensorId id);
  void EnsurePumpScheduled();
  void PumpDirty();

  // Inbound-DMA busy integrator: pure accounting, never schedules events, so enabling the
  // observability layer cannot perturb the simulated schedule.
  void NoteInboundStart(int device);
  void NoteInboundEnd(int device);
  // Per-tensor churn bump + audit-log append; called at the same sites as the per-device
  // MemoryCounters bumps.
  void NoteChurn(TensorId id, int device, ChurnKind kind, Bytes bytes);
  void NoteEviction(TensorId id);

  // One tensor's place in its owner's LRU list. A tensor sits in at most one device's
  // resident_ at a time (moves, not replicas; see tensor.h), so one table indexed by
  // TensorId serves every manager's list: O(tensors), not O(devices x tensors).
  struct LruLinks {
    TensorId prev = kInvalidTensor;  // kInvalidTensor = list end
    TensorId next = kInvalidTensor;
    int owner = -1;                  // device whose list links the tensor; -1 = unlinked
  };
  // The tensor's entry, growing the table to the registry's current size on first touch.
  LruLinks& lru_links(TensorId id) {
    const std::size_t idx = static_cast<std::size_t>(id);
    if (idx >= lru_links_.size()) {
      lru_links_.resize(std::max(idx + 1, static_cast<std::size_t>(registry_->size())));
    }
    return lru_links_[idx];
  }

  Simulator* sim_;
  TransferManager* transfers_;
  TensorRegistry* registry_;
  const Topology* topology_;
  MemoryPolicy policy_;
  std::vector<std::unique_ptr<MemoryManager>> managers_;
  NextUseFn next_use_;
  bool pump_scheduled_ = false;
  std::vector<char> dirty_;                     // per-device "pump me" bits
  std::vector<std::uint64_t> tensor_waiters_;   // per-tensor bitmask of waiting devices
  std::vector<LruLinks> lru_links_;             // indexed by TensorId
  bool audit_eviction_ = false;
  bool reference_scan_eviction_ = false;

  struct InboundBusy {
    int active = 0;
    double seconds = 0.0;
    SimTime last_change = 0.0;
  };
  std::vector<InboundBusy> inbound_;
  std::vector<TensorChurnCounters> churn_;
  std::vector<ChurnEvent> churn_log_;
};

}  // namespace harmony

#endif  // HARMONY_SRC_MEM_MEMORY_MANAGER_H_
