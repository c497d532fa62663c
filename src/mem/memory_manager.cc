#include "src/mem/memory_manager.h"

#include <algorithm>
#include <limits>

#include "src/util/logging.h"

namespace harmony {

Bytes MemoryCounters::total_swap_in() const {
  Bytes total = 0;
  for (Bytes b : swap_in) {
    total += b;
  }
  return total;
}

Bytes MemoryCounters::total_swap_out() const {
  Bytes total = 0;
  for (Bytes b : swap_out) {
    total += b;
  }
  return total;
}

Bytes MemoryCounters::total_p2p_in() const {
  Bytes total = 0;
  for (Bytes b : p2p_in) {
    total += b;
  }
  return total;
}

// ---- MemoryManager -------------------------------------------------------------------------

MemoryManager::MemoryManager(MemorySystem* system, int device_index, NodeId device_node,
                             NodeId host_node, Bytes capacity)
    : system_(system),
      device_index_(device_index),
      device_node_(device_node),
      host_node_(host_node),
      allocator_(capacity) {}

MemoryManager::Acquisition MemoryManager::Acquire(WorkingSet set, bool best_effort) {
  TensorRegistry& reg = system_->registry();
  auto pin_all = [&](const std::vector<TensorId>& ids) {
    for (TensorId id : ids) {
      TensorState& s = reg.mutable_state(id);
      HCHECK(s.residency != Residency::kDead)
          << "acquire of dead tensor " << reg.name(id);
      ++s.pin_count;
    }
  };
  pin_all(set.fetch);
  pin_all(set.accumulate);
  pin_all(set.allocate);

  Request& request = requests_.emplace_back();
  request.handle = next_handle_++;
  request.ready = std::make_unique<OneShotEvent>(&system_->sim());
  request.set = std::move(set);
  request.best_effort = best_effort;
  const Acquisition result{request.handle, request.ready.get()};
  system_->SchedulePump(device_index_);
  return result;
}

std::size_t MemoryManager::GrantedIndex(AcquireHandle handle) const {
  const auto end = requests_.begin() + static_cast<std::ptrdiff_t>(granted_);
  const auto it = std::ranges::lower_bound(requests_.begin(), end, handle, {}, &Request::handle);
  return it != end && it->handle == handle ? static_cast<std::size_t>(it - requests_.begin())
                                           : granted_;
}

void MemoryManager::Release(AcquireHandle handle) {
  const std::size_t i = GrantedIndex(handle);
  HCHECK(i < granted_) << "release of unknown acquisition " << handle;
  const auto it = requests_.begin() + static_cast<std::ptrdiff_t>(i);
  if (it->cancelled()) {
    requests_.erase(it);
    --granted_;
    return;  // best-effort request that never materialized: nothing to unpin or pump
  }
  TensorRegistry& reg = system_->registry();
  auto unpin_all = [&](const std::vector<TensorId>& ids) {
    for (TensorId id : ids) {
      TensorState& s = reg.mutable_state(id);
      HCHECK_GT(s.pin_count, 0);
      --s.pin_count;
      s.lru_tick = reg.NextLruTick();
      // The tensor may have been stolen by a peer while pinned; route the index update to
      // whichever manager tracks it now.
      system_->NoteTickChanged(id);
    }
  };
  unpin_all(it->set.fetch);
  unpin_all(it->set.accumulate);
  unpin_all(it->set.allocate);
  if (it->scratch_offset >= 0) {
    allocator_.Free(it->scratch_offset, it->set.scratch_bytes);
  }
  requests_.erase(it);
  --granted_;
  system_->SchedulePump(device_index_);
}

void MemoryManager::MarkDirty(TensorId id) {
  TensorState& s = system_->registry().mutable_state(id);
  HCHECK(s.residency == Residency::kResident && s.device == device_index_)
      << "MarkDirty on non-resident tensor " << system_->registry().name(id);
  if (!s.dirty) {
    s.dirty = true;
    LookaheadPush(id);  // the clean bit is part of the lookahead eviction key
  }
}

bool MemoryManager::IsResidentHere(TensorId id) const {
  const TensorState& s = system_->registry().state(id);
  return s.residency == Residency::kResident && s.device == device_index_;
}

Bytes MemoryManager::ResidentDirtyBytesOf(TensorClass cls) const {
  const TensorRegistry& reg = system_->registry();
  Bytes total = 0;
  for (TensorId id = lru_head_; id != kInvalidTensor; id = system_->lru_links(id).next) {
    if (reg.meta(id).cls != cls) {
      continue;
    }
    const TensorState& s = reg.state(id);
    if (s.residency == Residency::kResident && s.dirty) {
      total += reg.meta(id).bytes;
    }
  }
  return total;
}

void MemoryManager::FreeTensor(TensorId id) {
  TensorRegistry& reg = system_->registry();
  TensorState& s = reg.mutable_state(id);
  HCHECK_EQ(s.pin_count, 0) << "FreeTensor on pinned tensor " << reg.name(id);
  HCHECK(s.residency == Residency::kResident || s.residency == Residency::kNone)
      << "FreeTensor on in-flight tensor " << reg.name(id)
      << " (callers must free synchronously after Release, before the next pump)";
  if (s.residency == Residency::kResident) {
    HCHECK_EQ(s.device, device_index_);
    allocator_.Free(s.alloc_offset, reg.meta(id).bytes);
    IndexRemove(id);
  }
  s.residency = Residency::kDead;
  s.device = -1;
  s.host_valid = false;
  s.dirty = false;
  s.alloc_offset = -1;
  system_->SchedulePump(device_index_);
}

bool MemoryManager::Satisfied(const Request& r) const {
  const TensorRegistry& reg = system_->registry();
  auto all_resident = [&](const std::vector<TensorId>& ids) {
    for (TensorId id : ids) {
      const TensorState& s = reg.state(id);
      if (!(s.residency == Residency::kResident && s.device == device_index_)) {
        return false;
      }
    }
    return true;
  };
  if (!all_resident(r.set.fetch) || !all_resident(r.set.accumulate) ||
      !all_resident(r.set.allocate)) {
    return false;
  }
  return r.set.scratch_bytes == 0 || r.scratch_offset >= 0;
}

bool MemoryManager::PumpHead() {
  if (granted_ == requests_.size()) {
    return false;
  }
  Request& head = requests_[granted_];

  Progress worst = Progress::kOk;
  auto ensure_all = [&](const std::vector<TensorId>& ids, bool accumulate, bool allocate) {
    for (TensorId id : ids) {
      const Progress p = EnsureTensor(id, accumulate, allocate);
      if (p != Progress::kOk) {
        worst = p;
        return;
      }
    }
  };
  ensure_all(head.set.fetch, /*accumulate=*/false, /*allocate=*/false);
  if (worst == Progress::kOk) {
    ensure_all(head.set.accumulate, /*accumulate=*/true, /*allocate=*/false);
  }
  if (worst == Progress::kOk) {
    ensure_all(head.set.allocate, /*accumulate=*/false, /*allocate=*/true);
  }
  if (worst == Progress::kOk && head.scratch_offset < 0 && head.set.scratch_bytes > 0) {
    const Bytes offset = AllocateWithEviction(head.set.scratch_bytes, kInvalidTensor);
    if (offset == -2) {
      worst = Progress::kStuck;
    } else if (offset == -1) {
      worst = Progress::kBlocked;
    } else {
      head.scratch_offset = offset;
    }
  }
  if (worst == Progress::kStuck && head.best_effort) {
    CancelHead();
    return true;
  }
  if (worst != Progress::kOk || !Satisfied(head)) {
    return false;
  }

  // Grant: bump recency so freshly-acquired tensors are the last eviction candidates.
  TensorRegistry& reg = system_->registry();
  auto touch_all = [&](const std::vector<TensorId>& ids) {
    for (TensorId id : ids) {
      TensorState& s = reg.mutable_state(id);
      s.lru_tick = reg.NextLruTick();
      IndexTickChange(id);  // Satisfied() guarantees residency on this device
    }
  };
  touch_all(head.set.fetch);
  touch_all(head.set.accumulate);
  touch_all(head.set.allocate);

  ++granted_;
  head.ready->Fire();
  return true;
}

MemoryManager::Progress MemoryManager::EnsureTensor(TensorId id, bool is_accumulate,
                                                    bool is_allocate) {
  TensorRegistry& reg = system_->registry();
  TensorState& s = reg.mutable_state(id);
  const TensorMeta& meta = reg.meta(id);

  if (s.residency == Residency::kResident && s.device == device_index_) {
    return Progress::kOk;
  }
  if (s.residency == Residency::kSwappingIn && s.device == device_index_) {
    return Progress::kOk;  // arrival will re-pump
  }
  if (s.residency == Residency::kSwappingOut ||
      (s.residency == Residency::kSwappingIn && s.device != device_index_)) {
    system_->MarkTensorWaiter(id, device_index_);
    return Progress::kOk;  // the transfer's completion wakes this device to re-evaluate
  }
  HCHECK(s.residency != Residency::kDead) << "use of dead tensor " << reg.name(id);

  auto progress_of = [](Bytes offset) {
    return offset == -2 ? Progress::kStuck : Progress::kBlocked;
  };

  if (s.residency == Residency::kNone) {
    if (s.host_valid) {
      const Bytes offset = AllocateWithEviction(meta.bytes, id);
      if (offset < 0) {
        return progress_of(offset);
      }
      BeginSwapIn(id, offset);
      return Progress::kOk;
    }
    HCHECK(is_accumulate || is_allocate)
        << "fetch of tensor " << reg.name(id) << " which has no valid copy anywhere";
    const Bytes offset = AllocateWithEviction(meta.bytes, id);
    if (offset < 0) {
      return progress_of(offset);
    }
    s.residency = Residency::kResident;
    s.device = device_index_;
    s.alloc_offset = offset;
    s.dirty = true;  // device copy is the only copy
    s.lru_tick = reg.NextLruTick();
    IndexAdd(id);
    NoteUsage();
    return Progress::kOk;
  }

  // Resident on a peer device.
  HCHECK(s.residency == Residency::kResident);
  HCHECK_NE(s.device, device_index_);
  HCHECK(!is_allocate) << "fresh output " << reg.name(id) << " already resident on device "
                       << s.device;
  MemoryManager* peer = &system_->manager(s.device);
  if (system_->policy().allow_p2p) {
    const Bytes offset = AllocateWithEviction(meta.bytes, id);
    if (offset < 0) {
      return progress_of(offset);
    }
    BeginPeerFetch(id, offset, peer);
    return Progress::kOk;
  }
  // Per-GPU virtualization: no cross-device context. Stage through host memory: the owner
  // writes the tensor back, then the regular kNone+host_valid path swaps it in here.
  BeginStagedFetchFromPeer(id, peer);
  return Progress::kOk;
}

void MemoryManager::CancelHead() {
  Request& head = requests_[granted_];
  TensorRegistry& reg = system_->registry();
  auto unpin_all = [&](const std::vector<TensorId>& ids) {
    for (TensorId id : ids) {
      TensorState& s = reg.mutable_state(id);
      HCHECK_GT(s.pin_count, 0);
      --s.pin_count;
      if (s.device >= 0) {
        // The unpin may create an eviction candidate; the owner is re-pumped on the
        // pump pass that follows this cancellation. Unlike Release there is no tick bump
        // here, so the owner's heap needs an explicit push for the new candidate.
        system_->MarkDeviceDirty(s.device);
        if (s.pin_count == 0) {
          system_->manager(s.device).LookaheadPush(id);
        }
      }
    }
  };
  unpin_all(head.set.fetch);
  unpin_all(head.set.accumulate);
  unpin_all(head.set.allocate);
  if (head.scratch_offset >= 0) {
    allocator_.Free(head.scratch_offset, head.set.scratch_bytes);
  }
  head.set = WorkingSet{};
  head.scratch_offset = Request::kCancelled;
  ++granted_;
  head.ready->Fire();
}

Bytes MemoryManager::AllocateWithEviction(Bytes bytes, TensorId tensor) {
  auto what = [&] {
    return tensor == kInvalidTensor ? std::string("scratch") : system_->registry().name(tensor);
  };
  HCHECK_LE(bytes, allocator_.capacity())
      << "tensor " << what() << " (" << FormatBytes(bytes) << ") exceeds device "
      << device_index_ << " capacity " << FormatBytes(allocator_.capacity());
  for (;;) {
    const Bytes offset = allocator_.Allocate(bytes);
    if (offset >= 0) {
      NoteUsage();
      return offset;
    }
    if (EvictOne()) {
      continue;  // a victim was dropped (retry now) or a write-back started (retry too,
                 // there may be further victims to overlap)
    }
    if (evictions_in_flight_ > 0) {
      return -1;  // wait for write-backs to land
    }
    if (allocator_.free_bytes() >= bytes && allocator_.largest_free_block() < bytes) {
      // Enough bytes, no contiguous block: remap (CUDA-VMM-style) and retry. This always
      // makes progress, so the loop cannot spin here.
      Defragment();
      continue;
    }
    // Everything evictable is gone and nothing is in flight: only an external change
    // (Release / FreeTensor, often on another request) can unblock this. The engine's
    // deadlock detector reports schedules where that never happens.
    if (LogThreshold() <= LogSeverity::kDebug) {
      HLOG(kDebug) << "device " << device_index_ << " stuck allocating " << what() << " ("
                   << FormatBytes(bytes) << "): used " << FormatBytes(allocator_.used_bytes())
                   << " of " << FormatBytes(allocator_.capacity());
    }
    return -2;
  }
}

void MemoryManager::Defragment() {
  struct Item {
    Bytes offset;
    Bytes size;
    Bytes* slot;  // where the new offset must be written
  };
  std::vector<Item> items;
  TensorRegistry& reg = system_->registry();
  for (TensorId id = lru_head_; id != kInvalidTensor; id = system_->lru_links(id).next) {
    TensorState& s = reg.mutable_state(id);
    HCHECK_GE(s.alloc_offset, 0);
    items.push_back(Item{s.alloc_offset, reg.meta(id).bytes, &s.alloc_offset});
  }
  for (Request& request : requests_) {
    if (request.scratch_offset >= 0) {
      items.push_back(
          Item{request.scratch_offset, request.set.scratch_bytes, &request.scratch_offset});
    }
  }
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.offset < b.offset; });

  DeviceAllocator fresh(allocator_.capacity());
  for (Item& item : items) {
    const Bytes new_offset = fresh.Allocate(item.size);
    HCHECK_GE(new_offset, 0) << "defragmentation failed to repack";
    *item.slot = new_offset;
  }
  allocator_ = std::move(fresh);
  ++counters_.defrags;
}

TensorId MemoryManager::PickVictimByScan(const NextUseFn& oracle, bool lookahead) const {
  const TensorRegistry& reg = system_->registry();
  TensorId victim = kInvalidTensor;
  if (lookahead) {
    // Belady with a write-back-cost tiebreak: among candidates, prefer (1) dead-and-clean
    // (a free drop), then (2) farthest next use, preferring clean over dirty on equal
    // distance, then oldest LRU tick. Pure farthest-next-use can lose to LRU by evicting
    // dirty tensors (paid write-back) while clean never-used-again ones sit idle.
    constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
    const bool drop_is_free = !system_->policy().write_back_clean;
    std::uint64_t best_next = 0;
    bool best_clean = false;
    std::uint64_t best_tick = std::numeric_limits<std::uint64_t>::max();
    for (TensorId id = lru_head_; id != kInvalidTensor; id = system_->lru_links(id).next) {
      const TensorState& s = reg.state(id);
      if (s.residency != Residency::kResident || s.pin_count > 0) {
        continue;
      }
      const std::uint64_t next = oracle(id, device_index_);
      const bool clean = !s.dirty && s.host_valid && drop_is_free;
      const bool better = [&] {
        if (victim == kInvalidTensor) {
          return true;
        }
        // Free drops of dead tensors beat everything.
        const bool cand_free = clean && next == kNever;
        const bool best_free = best_clean && best_next == kNever;
        if (cand_free != best_free) {
          return cand_free;
        }
        if (next != best_next) {
          return next > best_next;
        }
        if (clean != best_clean) {
          return clean;
        }
        return s.lru_tick < best_tick;
      }();
      if (better) {
        best_next = next;
        best_clean = clean;
        best_tick = s.lru_tick;
        victim = id;
      }
    }
  } else {
    std::uint64_t best_tick = std::numeric_limits<std::uint64_t>::max();
    for (TensorId id = lru_head_; id != kInvalidTensor; id = system_->lru_links(id).next) {
      const TensorState& s = reg.state(id);
      if (s.residency != Residency::kResident || s.pin_count > 0) {
        continue;
      }
      if (s.lru_tick < best_tick) {
        best_tick = s.lru_tick;
        victim = id;
      }
    }
  }
  return victim;
}

TensorId MemoryManager::PickVictimLru() const {
  // Every tick bump moves the member to the tail with a fresh global-maximum tick, so the
  // list holds kResident members in ascending lru_tick order and the first unpinned one is
  // exactly the scan's min-tick pick. kSwappingIn members may sit out of order (they link
  // at allocation with their pre-swap tick) but are skipped here and reposition on the
  // landing tick bump.
  const TensorRegistry& reg = system_->registry();
  for (TensorId id = lru_head_; id != kInvalidTensor; id = system_->lru_links(id).next) {
    const TensorState& s = reg.state(id);
    if (s.residency == Residency::kResident && s.pin_count == 0) {
      return id;
    }
  }
  return kInvalidTensor;
}

TensorId MemoryManager::PickVictimLookahead(const NextUseFn& oracle, bool drop_is_free) {
  const TensorRegistry& reg = system_->registry();
  constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
  lookahead_stash_.clear();
  TensorId victim = kInvalidTensor;
  bool rebuilt = false;
  while (!lookahead_heap_.empty()) {
    const LookaheadEntry top = lookahead_heap_.top();
    lookahead_heap_.pop();
    const TensorState& s = reg.state(top.id);
    if (s.residency != Residency::kResident || s.device != device_index_ ||
        s.lru_tick != top.lru_tick) {
      continue;  // stale: the tensor left, or a tick bump pushed a newer key
    }
    const bool clean = !s.dirty && s.host_valid && drop_is_free;
    if (clean != top.clean || top.free_drop != (clean && top.next_use == kNever)) {
      continue;  // stale: MarkDirty pushed a newer key
    }
    if (oracle(top.id, device_index_) != top.next_use) {
      // A distance changed without a tick bump: this oracle violates the push-on-change
      // contract the lazy heap relies on (plan-derived oracles can't — a device only moves
      // past a use while the used tensor is pinned, and the release tick-bump pushes a
      // fresh key — but hand-rolled oracles may drift freely). Self-heal by re-deriving
      // every key; after the rebuild all keys are current, so one pass suffices and the
      // pick is exact for any oracle, at reference-scan cost.
      HCHECK(!rebuilt) << "lookahead oracle drifted twice during one victim pick";
      RebuildLookaheadIndex();
      lookahead_stash_.clear();
      rebuilt = true;
      continue;
    }
    if (s.pin_count > 0) {
      lookahead_stash_.push_back(top);  // key is current, just not evictable right now
      continue;
    }
    victim = top.id;
    break;
  }
  for (const LookaheadEntry& entry : lookahead_stash_) {
    lookahead_heap_.push(entry);
  }
  lookahead_stash_.clear();
  return victim;
}

bool MemoryManager::EvictOne() {
  TensorRegistry& reg = system_->registry();
  const MemoryPolicy& policy = system_->policy();
  const NextUseFn& oracle = system_->next_use_oracle();
  const bool lookahead = policy.eviction == EvictionPolicy::kLookahead && oracle != nullptr;
  TensorId victim;
  if (system_->reference_scan_eviction()) {
    victim = PickVictimByScan(oracle, lookahead);
  } else {
    victim = lookahead ? PickVictimLookahead(oracle, !policy.write_back_clean)
                       : PickVictimLru();
    if (system_->audit_eviction()) {
      const TensorId reference = PickVictimByScan(oracle, lookahead);
      HCHECK_EQ(victim, reference)
          << "indexed victim selection diverged from the reference scan on device "
          << device_index_;
    }
  }
  if (victim == kInvalidTensor) {
    return false;
  }

  TensorState& s = reg.mutable_state(victim);
  const TensorMeta& meta = reg.meta(victim);
  ++counters_.evictions;
  system_->NoteEviction(victim);

  const bool can_drop = !s.dirty && s.host_valid && !policy.write_back_clean;
  if (can_drop) {
    allocator_.Free(s.alloc_offset, meta.bytes);
    IndexRemove(victim);
    s.residency = Residency::kNone;
    s.device = -1;
    s.alloc_offset = -1;
    counters_.clean_drops[static_cast<int>(meta.cls)] += meta.bytes;
    system_->NoteChurn(victim, device_index_, ChurnKind::kEvictCleanDrop, meta.bytes);
    return true;
  }

  // Write-back (LMS-style always, or a dirty tensor under any policy).
  s.residency = Residency::kSwappingOut;
  ++evictions_in_flight_;
  counters_.swap_out[static_cast<int>(meta.cls)] += meta.bytes;
  system_->NoteChurn(victim, device_index_, ChurnKind::kEvictWriteBack, meta.bytes);
  auto written_back = [this, victim](TransferOutcome) {
    TensorRegistry& registry = system_->registry();
    TensorState& state = registry.mutable_state(victim);
    const TensorMeta& m = registry.meta(victim);
    HCHECK(state.residency == Residency::kSwappingOut);
    allocator_.Free(state.alloc_offset, m.bytes);
    IndexRemove(victim);
    state.residency = Residency::kNone;
    state.device = -1;
    state.alloc_offset = -1;
    state.host_valid = true;
    state.dirty = false;
    --evictions_in_flight_;
    system_->SchedulePump(device_index_);
    system_->WakeTensorWaiters(victim);
  };
  static_assert(TransferManager::Continuation::kStoredInline<decltype(written_back)>);
  system_->transfers().StartTransfer(device_node_, host_node_, meta.bytes,
                                     TransferKind::kSwapOut, std::move(written_back));
  return true;
}

void MemoryManager::BeginSwapIn(TensorId id, Bytes offset) {
  TensorRegistry& reg = system_->registry();
  TensorState& s = reg.mutable_state(id);
  const TensorMeta& meta = reg.meta(id);
  s.residency = Residency::kSwappingIn;
  s.device = device_index_;
  s.alloc_offset = offset;
  IndexAdd(id);
  counters_.swap_in[static_cast<int>(meta.cls)] += meta.bytes;
  system_->NoteChurn(id, device_index_, ChurnKind::kSwapIn, meta.bytes);
  NoteUsage();
  system_->NoteInboundStart(device_index_);
  auto landed = [this, id](TransferOutcome) {
    system_->NoteInboundEnd(device_index_);
    TensorRegistry& registry = system_->registry();
    TensorState& state = registry.mutable_state(id);
    HCHECK(state.residency == Residency::kSwappingIn);
    state.residency = Residency::kResident;
    state.dirty = false;
    state.lru_tick = registry.NextLruTick();
    IndexTickChange(id);
    system_->SchedulePump(device_index_);
    system_->WakeTensorWaiters(id);
  };
  static_assert(TransferManager::Continuation::kStoredInline<decltype(landed)>);
  system_->transfers().StartTransfer(host_node_, device_node_, meta.bytes,
                                     TransferKind::kSwapIn, std::move(landed));
}

void MemoryManager::BeginPeerFetch(TensorId id, Bytes offset, MemoryManager* peer) {
  TensorRegistry& reg = system_->registry();
  TensorState& s = reg.mutable_state(id);
  const TensorMeta& meta = reg.meta(id);
  const Bytes peer_offset = s.alloc_offset;
  const int peer_device = s.device;
  HCHECK_EQ(peer_device, peer->device_index_);

  // The tensor now logically belongs to this device. The source allocation is released at
  // transfer start: a relocation-safe simplification (the peer may not reuse-and-corrupt it
  // in the simulation, since data never physically exists) that keeps no raw offsets alive
  // across defragmentation.
  peer->IndexRemove(id);
  peer->allocator_.Free(peer_offset, meta.bytes);
  // The peer just gained free memory; its wakeup rides the pump pass already in progress
  // (peer fetches only start from inside a pump), exactly like the pre-indexed full sweep.
  system_->MarkDeviceDirty(peer->device_index_);
  s.residency = Residency::kSwappingIn;
  s.device = device_index_;
  s.alloc_offset = offset;
  IndexAdd(id);
  counters_.p2p_in[static_cast<int>(meta.cls)] += meta.bytes;
  system_->NoteChurn(id, device_index_, ChurnKind::kP2pIn, meta.bytes);
  NoteUsage();

  system_->NoteInboundStart(device_index_);
  auto landed = [this, id](TransferOutcome) {
    system_->NoteInboundEnd(device_index_);
    TensorRegistry& registry = system_->registry();
    TensorState& state = registry.mutable_state(id);
    HCHECK(state.residency == Residency::kSwappingIn);
    state.residency = Residency::kResident;
    state.lru_tick = registry.NextLruTick();
    IndexTickChange(id);
    system_->SchedulePump(device_index_);
    system_->WakeTensorWaiters(id);
  };
  static_assert(TransferManager::Continuation::kStoredInline<decltype(landed)>);
  system_->transfers().StartTransfer(peer->device_node_, device_node_, meta.bytes,
                                     TransferKind::kPeerToPeer, std::move(landed));
}

void MemoryManager::BeginStagedFetchFromPeer(TensorId id, MemoryManager* peer) {
  TensorRegistry& reg = system_->registry();
  TensorState& s = reg.mutable_state(id);
  const TensorMeta& meta = reg.meta(id);

  if (!s.dirty && s.host_valid) {
    // Host already has a valid copy; the owner just drops its replica (no DMA). Note this
    // still differs from p2p: the data must be *re-uploaded* from host over the uplink.
    peer->allocator_.Free(s.alloc_offset, meta.bytes);
    peer->IndexRemove(id);
    s.residency = Residency::kNone;
    s.device = -1;
    s.alloc_offset = -1;
    // Freed memory; its wakeup rides the pump of this device that issues the host leg.
    system_->MarkDeviceDirty(peer->device_index_);
    system_->SchedulePump(device_index_);
    return;
  }

  s.residency = Residency::kSwappingOut;
  ++peer->evictions_in_flight_;
  peer->counters_.swap_out[static_cast<int>(meta.cls)] += meta.bytes;
  system_->NoteChurn(id, peer->device_index_, ChurnKind::kPeerStageWriteBack, meta.bytes);
  auto written_back = [this, id, peer](TransferOutcome) {
    TensorRegistry& registry = system_->registry();
    TensorState& state = registry.mutable_state(id);
    const TensorMeta& m = registry.meta(id);
    HCHECK(state.residency == Residency::kSwappingOut);
    peer->allocator_.Free(state.alloc_offset, m.bytes);
    peer->IndexRemove(id);
    state.residency = Residency::kNone;
    state.device = -1;
    state.alloc_offset = -1;
    state.host_valid = true;
    state.dirty = false;
    --peer->evictions_in_flight_;
    system_->SchedulePump(peer->device_index_);
    // Wakes this device too if a re-pump saw the write-back in flight; the pump below
    // issues the host leg either way.
    system_->WakeTensorWaiters(id);
    system_->SchedulePump(device_index_);
  };
  static_assert(TransferManager::Continuation::kStoredInline<decltype(written_back)>);
  system_->transfers().StartTransfer(peer->device_node_, peer->host_node_, meta.bytes,
                                     TransferKind::kSwapOut, std::move(written_back));
}

void MemoryManager::NoteUsage() {
  counters_.high_water = std::max(counters_.high_water, allocator_.used_bytes());
}

// ---- Indexed victim selection maintenance --------------------------------------------------

void MemoryManager::LruLink(TensorId id) {
  MemorySystem::LruLinks& links = system_->lru_links(id);
  HCHECK(links.owner < 0) << "tensor " << id << " double-linked: on device " << links.owner
                          << ", linking on device " << device_index_;
  links.owner = device_index_;
  ++lru_size_;
  links.prev = lru_tail_;
  links.next = kInvalidTensor;
  if (lru_tail_ != kInvalidTensor) {
    system_->lru_links(lru_tail_).next = id;
  } else {
    lru_head_ = id;
  }
  lru_tail_ = id;
}

void MemoryManager::LruUnlink(TensorId id) {
  MemorySystem::LruLinks& links = system_->lru_links(id);
  HCHECK_EQ(links.owner, device_index_)
      << "eviction index out of sync: tensor " << id << " not linked on device "
      << device_index_;
  links.owner = -1;
  --lru_size_;
  if (links.prev != kInvalidTensor) {
    system_->lru_links(links.prev).next = links.next;
  } else {
    lru_head_ = links.next;
  }
  if (links.next != kInvalidTensor) {
    system_->lru_links(links.next).prev = links.prev;
  } else {
    lru_tail_ = links.prev;
  }
}

void MemoryManager::IndexAdd(TensorId id) {
  LruLink(id);
  LookaheadPush(id);  // no-op for kSwappingIn members; their landing tick-bump pushes
}

void MemoryManager::IndexRemove(TensorId id) {
  LruUnlink(id);
  // Any heap entries for `id` are now stale and get discarded when they surface.
}

void MemoryManager::IndexTickChange(TensorId id) {
  // The new tick is a fresh global maximum, so move-to-back keeps ascending-tick order.
  LruUnlink(id);
  LruLink(id);
  LookaheadPush(id);
}

void MemoryManager::LookaheadPush(TensorId id) {
  if (system_->policy().eviction != EvictionPolicy::kLookahead) {
    return;
  }
  const NextUseFn& oracle = system_->next_use_oracle();
  if (oracle == nullptr) {
    return;  // SetNextUseOracle rebuilds the heap when one arrives
  }
  const TensorState& s = system_->registry().state(id);
  if (s.residency != Residency::kResident) {
    return;  // only kResident tensors are candidates; in-flight ones push on landing
  }
  if (s.pin_count > 0) {
    // Not a candidate, and the unpin that makes it one bumps the tick (Release) or pushes
    // explicitly (CancelHead), so a current key will exist the moment it matters. Grant
    // touches in particular would otherwise flood the heap with born-stale entries.
    return;
  }
  const bool drop_is_free = !system_->policy().write_back_clean;
  const bool clean = !s.dirty && s.host_valid && drop_is_free;
  const std::uint64_t next = oracle(id, device_index_);
  constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
  lookahead_heap_.push(LookaheadEntry{clean && next == kNever, next, clean, s.lru_tick, id});
}

void MemoryManager::RebuildLookaheadIndex() {
  lookahead_heap_ = decltype(lookahead_heap_){};
  for (TensorId id = lru_head_; id != kInvalidTensor; id = system_->lru_links(id).next) {
    LookaheadPush(id);
  }
}

std::string MemoryManager::DebugCheckIndexConsistency() const {
  const TensorRegistry& reg = system_->registry();
  // Walk the list: every member's state must hold an allocation on this device, and
  // kResident members must appear in strictly ascending lru_tick order (the PickVictimLru
  // correctness invariant).
  std::size_t walked = 0;
  std::uint64_t last_resident_tick = 0;
  TensorId prev = kInvalidTensor;
  for (TensorId id = lru_head_; id != kInvalidTensor; id = system_->lru_links(id).next) {
    if (++walked > lru_size_) {
      return "device " + std::to_string(device_index_) + ": LRU list is cyclic";
    }
    const MemorySystem::LruLinks& links = system_->lru_links(id);
    if (links.owner != device_index_) {
      return "device " + std::to_string(device_index_) + ": LRU member " +
             std::to_string(id) + " is owned by device " + std::to_string(links.owner);
    }
    if (links.prev != prev) {
      return "device " + std::to_string(device_index_) + ": LRU back-link of tensor " +
             std::to_string(id) + " is broken";
    }
    const TensorState& s = reg.state(id);
    if (s.device != device_index_ || s.residency == Residency::kNone ||
        s.residency == Residency::kDead) {
      return "device " + std::to_string(device_index_) + ": LRU member " +
             std::to_string(id) + " holds no allocation here (device " +
             std::to_string(s.device) + ")";
    }
    if (s.residency == Residency::kResident) {
      if (s.lru_tick <= last_resident_tick && last_resident_tick != 0) {
        return "device " + std::to_string(device_index_) + ": LRU order violated at tensor " +
               std::to_string(id) + " (tick " + std::to_string(s.lru_tick) +
               " after tick " + std::to_string(last_resident_tick) + ")";
      }
      last_resident_tick = s.lru_tick;
    }
    prev = id;
  }
  if (walked != lru_size_) {
    return "device " + std::to_string(device_index_) + ": LRU list walk saw " +
           std::to_string(walked) + " members, expected " + std::to_string(lru_size_);
  }
  return "";
}

// ---- MemorySystem --------------------------------------------------------------------------

MemorySystem::MemorySystem(Simulator* sim, TransferManager* transfers, TensorRegistry* registry,
                           const Topology* topology, const std::vector<Bytes>& gpu_capacities,
                           MemoryPolicy policy)
    : sim_(sim),
      transfers_(transfers),
      registry_(registry),
      topology_(topology),
      policy_(policy) {
  HCHECK_EQ(static_cast<int>(gpu_capacities.size()), topology->num_gpus());
  for (int g = 0; g < topology->num_gpus(); ++g) {
    managers_.push_back(std::make_unique<MemoryManager>(
        this, g, topology->gpu_node(g), topology->HostNodeForGpu(g),
        gpu_capacities[static_cast<std::size_t>(g)]));
  }
  dirty_.assign(gpu_capacities.size(), 0);
  inbound_.assign(gpu_capacities.size(), InboundBusy{});
}

void MemorySystem::NoteInboundStart(int device) {
  InboundBusy& busy = inbound_[static_cast<std::size_t>(device)];
  const SimTime now = sim_->now();
  if (busy.active > 0) {
    busy.seconds += now - busy.last_change;
  }
  ++busy.active;
  busy.last_change = now;
}

void MemorySystem::NoteInboundEnd(int device) {
  InboundBusy& busy = inbound_[static_cast<std::size_t>(device)];
  const SimTime now = sim_->now();
  HCHECK_GT(busy.active, 0);
  busy.seconds += now - busy.last_change;
  --busy.active;
  busy.last_change = now;
}

double MemorySystem::InboundBusySeconds(int device) const {
  const InboundBusy& busy = inbound_.at(static_cast<std::size_t>(device));
  if (busy.active > 0) {
    return busy.seconds + (sim_->now() - busy.last_change);
  }
  return busy.seconds;
}

void MemorySystem::NoteChurn(TensorId id, int device, ChurnKind kind, Bytes bytes) {
  const std::size_t idx = static_cast<std::size_t>(id);
  if (idx >= churn_.size()) {
    churn_.resize(idx + 1);
  }
  TensorChurnCounters& churn = churn_[idx];
  switch (kind) {
    case ChurnKind::kSwapIn:
      ++churn.swap_ins;
      churn.swap_in_bytes += bytes;
      break;
    case ChurnKind::kEvictCleanDrop:
      ++churn.clean_drops;
      churn.clean_drop_bytes += bytes;
      break;
    case ChurnKind::kEvictWriteBack:
    case ChurnKind::kPeerStageWriteBack:
      ++churn.write_backs;
      churn.swap_out_bytes += bytes;
      break;
    case ChurnKind::kP2pIn:
      ++churn.p2p_ins;
      churn.p2p_in_bytes += bytes;
      break;
  }
  if (audit_eviction_) {
    churn_log_.push_back(ChurnEvent{id, device, kind, bytes});
  }
}

void MemorySystem::NoteEviction(TensorId id) {
  const std::size_t idx = static_cast<std::size_t>(id);
  if (idx >= churn_.size()) {
    churn_.resize(idx + 1);
  }
  ++churn_[idx].evictions;
}

void MemorySystem::SetNextUseOracle(NextUseFn oracle) {
  next_use_ = std::move(oracle);
  // Heap keys embed oracle answers, so a new oracle invalidates every entry wholesale.
  for (auto& manager : managers_) {
    manager->RebuildLookaheadIndex();
  }
}

void MemorySystem::SchedulePumpAll() {
  for (char& d : dirty_) {
    d = 1;
  }
  EnsurePumpScheduled();
}

void MemorySystem::SchedulePump(int device) {
  MarkDeviceDirty(device);
  EnsurePumpScheduled();
}

void MemorySystem::MarkDeviceDirty(int device) {
  dirty_[static_cast<std::size_t>(device)] = 1;
}

void MemorySystem::MarkTensorWaiter(TensorId id, int device) {
  if (num_devices() > 64) {
    return;  // bitmask overflow: WakeTensorWaiters falls back to waking everyone
  }
  const std::size_t idx = static_cast<std::size_t>(id);
  if (idx >= tensor_waiters_.size()) {
    tensor_waiters_.resize(idx + 1, 0);
  }
  tensor_waiters_[idx] |= std::uint64_t{1} << static_cast<unsigned>(device);
}

void MemorySystem::WakeTensorWaiters(TensorId id) {
  if (num_devices() > 64) {
    SchedulePumpAll();
    return;
  }
  const std::size_t idx = static_cast<std::size_t>(id);
  if (idx >= tensor_waiters_.size() || tensor_waiters_[idx] == 0) {
    return;
  }
  std::uint64_t mask = tensor_waiters_[idx];
  tensor_waiters_[idx] = 0;
  for (int d = 0; mask != 0; ++d, mask >>= 1) {
    if ((mask & 1) != 0) {
      SchedulePump(d);
    }
  }
}

void MemorySystem::NoteTickChanged(TensorId id) {
  const TensorState& s = registry_->state(id);
  if (s.device < 0) {
    return;  // kNone/kDead: no device index tracks it
  }
  managers_[static_cast<std::size_t>(s.device)]->IndexTickChange(id);
  MarkDeviceDirty(s.device);
}

void MemorySystem::EnsurePumpScheduled() {
  if (pump_scheduled_) {
    return;
  }
  pump_scheduled_ = true;
  sim_->ScheduleAfter(0.0, [this] {
    pump_scheduled_ = false;
    PumpDirty();
  });
}

void MemorySystem::PumpDirty() {
  // Keep pumping until no device makes progress; a grant on one device can unblock another
  // (e.g. a p2p source became free). Only devices whose state changed since their last pump
  // are examined: PumpHead on unchanged state is a side-effect-free no-op, so skipping
  // clean devices preserves the exact grant order of the original full sweep. Bits set
  // without a pass of progress persist to the next scheduled pump, which is exactly when
  // the full sweep would next have examined those devices anyway.
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& manager : managers_) {
      const std::size_t d = static_cast<std::size_t>(manager->device_index_);
      if (dirty_[d] == 0) {
        continue;
      }
      dirty_[d] = 0;
      while (manager->PumpHead()) {
        progress = true;
      }
    }
  }
}

Status MemorySystem::CheckQuiescent() const {
  for (const auto& manager : managers_) {
    const std::size_t granted = manager->granted_;
    if (manager->requests_.size() > granted) {
      return InternalError("device " + std::to_string(manager->device_index_) + " has " +
                           std::to_string(manager->requests_.size() - granted) +
                           " pending acquisitions after the run");
    }
    if (granted > 0) {
      const auto cancelled = std::count_if(
          manager->requests_.begin(), manager->requests_.end(),
          [](const MemoryManager::Request& request) { return request.cancelled(); });
      return InternalError("device " + std::to_string(manager->device_index_) + " has " +
                           std::to_string(granted) +
                           " unreleased acquisitions after the run, " +
                           std::to_string(cancelled) +
                           " of them cancelled best-effort requests (which must be "
                           "Release()d too, or the records grow forever)");
    }
    if (manager->evictions_in_flight_ != 0) {
      return InternalError("device " + std::to_string(manager->device_index_) +
                           " has write-backs in flight after the run");
    }
    const std::string index_drift = manager->DebugCheckIndexConsistency();
    if (!index_drift.empty()) {
      return InternalError("eviction index out of sync after the run: " + index_drift);
    }
  }
  // Each manager's walk only follows its own list, so a table entry left claiming a device
  // whose list does not hold it is invisible there; one recount over the table catches it.
  std::vector<std::size_t> owned(managers_.size(), 0);
  for (const LruLinks& links : lru_links_) {
    if (links.owner >= 0) {
      ++owned[static_cast<std::size_t>(links.owner)];
    }
  }
  for (const auto& manager : managers_) {
    const std::size_t count = owned[static_cast<std::size_t>(manager->device_index_)];
    if (count != manager->lru_size_) {
      return InternalError("eviction index out of sync after the run: device " +
                           std::to_string(manager->device_index_) + " owns " +
                           std::to_string(count) + " LRU links but its list holds " +
                           std::to_string(manager->lru_size_));
    }
  }
  for (TensorId id = 0; id < registry_->size(); ++id) {
    const TensorState& state = registry_->state(id);
    if (state.pin_count != 0) {
      return InternalError("tensor " + registry_->name(id) + " leaked " +
                           std::to_string(state.pin_count) + " pins");
    }
    if (state.residency == Residency::kSwappingIn ||
        state.residency == Residency::kSwappingOut) {
      return InternalError("tensor " + registry_->name(id) +
                           " still in flight after the run");
    }
    // The converse of each list walk: a tensor whose allocation lives on a device is
    // linked on that device's list. Read the table directly: an id that was never linked
    // may lie past its end, and a check must not grow it.
    if (state.residency != Residency::kNone && state.residency != Residency::kDead) {
      const std::size_t idx = static_cast<std::size_t>(id);
      if (state.device < 0 || idx >= lru_links_.size() ||
          lru_links_[idx].owner != state.device) {
        return InternalError("eviction index out of sync after the run: tensor " +
                             registry_->name(id) + " holds an allocation on device " +
                             std::to_string(state.device) + " but is not on its LRU list");
      }
    }
  }
  return Status::Ok();
}

Bytes MemorySystem::TotalSwapIn() const {
  Bytes total = 0;
  for (const auto& m : managers_) {
    total += m->counters().total_swap_in();
  }
  return total;
}

Bytes MemorySystem::TotalSwapOut() const {
  Bytes total = 0;
  for (const auto& m : managers_) {
    total += m->counters().total_swap_out();
  }
  return total;
}

Bytes MemorySystem::TotalSwapInOf(TensorClass cls) const {
  Bytes total = 0;
  for (const auto& m : managers_) {
    total += m->counters().swap_in_of(cls);
  }
  return total;
}

}  // namespace harmony
