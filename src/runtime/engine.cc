#include "src/runtime/engine.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "src/runtime/plan_lint.h"
#include "src/util/logging.h"

namespace harmony {

Engine::Engine(Simulator* sim, const Machine* machine, MemorySystem* memory,
               TransferManager* transfers, CollectiveEngine* collective, const Plan* plan,
               EngineOptions options)
    : sim_(sim),
      machine_(machine),
      memory_(memory),
      transfers_(transfers),
      collective_(collective),
      plan_(plan),
      options_(options) {
  HCHECK_EQ(plan->num_devices(), machine->num_gpus());
  // Static lint (cheap tier) before anything executes: catches structural corruption,
  // pin-balance leaks, collective rank mismatches, and rendezvous deadlocks that would
  // otherwise surface as hangs or quiescence failures mid-run. Silent when clean.
  LintOptions lint_options;
  lint_options.deep = false;
  for (int d = 0; d < plan->num_devices(); ++d) {
    lint_options.device_capacities.push_back(memory->manager(d).capacity());
  }
  const LintReport lint = LintPlan(*plan, memory->registry(), lint_options);
  HCHECK_EQ(lint.num_errors(), 0) << "plan failed static lint — refusing to run:\n"
                                  << lint.Render();

  completion_.reserve(plan->tasks.size());
  for (std::size_t i = 0; i < plan->tasks.size(); ++i) {
    completion_.push_back(std::make_unique<OneShotEvent>(sim));
  }
  devices_.resize(static_cast<std::size_t>(plan->num_devices()));
  device_busy_.assign(static_cast<std::size_t>(plan->num_devices()), 0.0);
  device_time_.assign(static_cast<std::size_t>(plan->num_devices()), DeviceTimeBreakdown{});
  dep_wait_start_.assign(static_cast<std::size_t>(plan->num_devices()), 0.0);
  acquire_start_.assign(static_cast<std::size_t>(plan->num_devices()), 0.0);
  inbound_mark_.assign(static_cast<std::size_t>(plan->num_devices()), 0.0);
  last_finish_.assign(static_cast<std::size_t>(plan->num_devices()), 0.0);
  if (options_.record_timeline) {
    transfers_->set_record_queue_timeline(true);
  }
  iteration_remaining_.assign(static_cast<std::size_t>(plan->num_iterations), 0);
  for (const Task& task : plan->tasks) {
    ++iteration_remaining_[static_cast<std::size_t>(task.iteration)];
    if (task.kind == TaskKind::kAllReduce) {
      ++collective_group_size_[task.collective_group];
    }
  }
  last_snapshot_ = TakeSnapshot();
  compute_scale_.assign(static_cast<std::size_t>(plan->num_devices()), 1.0);
  degraded_since_.assign(static_cast<std::size_t>(plan->num_devices()), 0.0);
  degraded_sec_.assign(static_cast<std::size_t>(plan->num_devices()), 0.0);
  if (options_.straggler_threshold > 0.0) {
    HealthMonitorOptions monitor_options;
    monitor_options.threshold = options_.straggler_threshold;
    monitor_ = std::make_unique<HealthMonitor>(plan->num_devices(), monitor_options);
  }

  // Only lookahead eviction consults the next-use oracle, so only it pays for the index
  // (one use list per (tensor, device) pair the plan touches; see next_use.h).
  if (memory->policy().eviction == EvictionPolicy::kLookahead) {
    next_use_index_ = std::make_unique<NextUseIndex>(plan->num_devices());
    for (int d = 0; d < plan->num_devices(); ++d) {
      const auto& order = plan->per_device_order[static_cast<std::size_t>(d)];
      for (std::size_t pos = 0; pos < order.size(); ++pos) {
        for (TaskList which : kWorkingSetLists) {
          for (TensorId id : plan->list(which, order[pos])) {
            next_use_index_->AddUse(id, d, pos);
          }
        }
      }
    }
    memory->SetNextUseOracle([this](TensorId tensor, int device) -> std::uint64_t {
      return next_use_index_->NextUseAtOrAfter(
          tensor, device, devices_[static_cast<std::size_t>(device)].next_index);
    });
  }
}

Engine::Snapshot Engine::TakeSnapshot() const {
  Snapshot snap;
  snap.swap_in_per_device.resize(static_cast<std::size_t>(plan_->num_devices()));
  snap.swap_out_per_device.resize(static_cast<std::size_t>(plan_->num_devices()));
  for (int d = 0; d < plan_->num_devices(); ++d) {
    const MemoryCounters& counters = memory_->manager(d).counters();
    for (int c = 0; c < kNumTensorClasses; ++c) {
      snap.swap_in_by_class[c] += counters.swap_in[c];
      snap.swap_out_by_class[c] += counters.swap_out[c];
    }
    snap.swap_in_per_device[static_cast<std::size_t>(d)] = counters.total_swap_in();
    snap.swap_out_per_device[static_cast<std::size_t>(d)] = counters.total_swap_out();
    snap.p2p += counters.total_p2p_in();
  }
  snap.collective = transfers_->bytes_by_kind(TransferKind::kCollective);
  return snap;
}

RunReport Engine::Run() {
  for (int d = 0; d < plan_->num_devices(); ++d) {
    StartNextTask(d);
  }
  if (options_.watchdog_timeout > 0.0) {
    watchdog_anchor_ = sim_->now();
    ArmWatchdog(0);
  }
  sim_->RunUntilIdle();
  if (!aborting_) {
    if (completed_tasks_ != static_cast<int>(plan_->tasks.size())) {
      ReportDeadlock();
    }
    const Status quiescent = memory_->CheckQuiescent();
    HCHECK(quiescent.ok()) << quiescent.ToString();
  }

  RunReport report;
  report.scheme = plan_->scheme;
  // Fault expiries and watchdog ticks can leave the sim clock past the last productive
  // event; failure-free runs keep the historical sim-idle makespan bit-for-bit.
  report.makespan = fault_mode() ? finish_time_ : sim_->now();
  report.failed = failed_;
  report.failure_kind = failure_kind_;
  report.failed_device = failed_device_;
  report.failure_time = failure_time_;
  report.checkpoints_committed = checkpoints_committed_;
  report.checkpoint_bytes = checkpoint_bytes_;
  report.last_checkpoint_iteration = last_checkpoint_iteration_;
  report.last_checkpoint_time = last_checkpoint_time_;
  report.flows_retried = transfers_->flows_retried();
  report.retry_exhausted = transfers_->retry_exhausted();
  report.retry_backoff_sec = transfers_->retry_backoff_sec();
  report.straggler_device = failure_kind_ == "gpu-straggler" ? failed_device_ : -1;
  for (int d = 0; d < plan_->num_devices(); ++d) {
    const std::size_t slot = static_cast<std::size_t>(d);
    double degraded = degraded_sec_[slot];
    if (compute_scale_[slot] < 1.0) {
      // Window still open at the end of the run: close it at the reported makespan.
      degraded += std::max(report.makespan - degraded_since_[slot], 0.0);
    }
    degraded = std::min(std::max(degraded, 0.0), std::max(report.makespan, 0.0));
    report.device_degraded_sec.push_back(degraded);
    report.degraded_sec += degraded;
  }
  if (options_.checkpoint_store != nullptr) {
    report.ckpt_generations = options_.checkpoint_store->resident();
    report.ckpt_verified_ok = options_.checkpoint_store->verified_ok();
    report.ckpt_corrupt_detected = options_.checkpoint_store->corrupt_detected();
  }
  report.samples_per_iteration = plan_->samples_per_iteration;
  report.iterations = iteration_stats_;
  report.device_busy = device_busy_;
  // Close each device's breakdown with its idle tail. On failure-free runs every other
  // bucket was accumulated between consecutive lifecycle points since t = 0, so the six
  // buckets now sum to makespan (metrics_test holds this for every scheduler); aborted
  // runs leave windows open and make no conservation claim.
  report.device_time = device_time_;
  for (int d = 0; d < plan_->num_devices(); ++d) {
    const double idle = report.makespan - last_finish_[static_cast<std::size_t>(d)];
    report.device_time[static_cast<std::size_t>(d)].of(TimeClass::kIdle) =
        std::max(idle, 0.0);
  }
  for (int d = 0; d < plan_->num_devices(); ++d) {
    const MemoryCounters& counters = memory_->manager(d).counters();
    report.device_swap_in.push_back(counters.total_swap_in());
    report.device_swap_out.push_back(counters.total_swap_out());
    report.device_high_water.push_back(counters.high_water);
    report.device_evictions.push_back(counters.evictions);
    report.device_defrags.push_back(counters.defrags);
    report.total_swap_in += counters.total_swap_in();
    report.total_swap_out += counters.total_swap_out();
    report.total_p2p += counters.total_p2p_in();
  }
  report.total_collective = transfers_->bytes_by_kind(TransferKind::kCollective);
  const Topology& topo = transfers_->topology();
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    const LinkStats& stats = transfers_->link_stats(l);
    RunReport::LinkUsage usage;
    usage.name = topo.node(topo.link(l).src).name + " -> " + topo.node(topo.link(l).dst).name;
    usage.bytes = stats.bytes_carried;
    usage.busy_time = stats.busy_time;
    usage.utilization = report.makespan > 0.0 ? stats.busy_time / report.makespan : 0.0;
    usage.avg_queue_depth = report.makespan > 0.0 ? stats.flow_seconds / report.makespan : 0.0;
    usage.max_queue_depth = stats.max_queue_depth;
    usage.flows = stats.flows;
    for (int k = 0; k < kNumTransferKinds; ++k) {
      usage.bytes_by_kind[k] = stats.bytes_by_kind[k];
    }
    report.links.push_back(std::move(usage));
  }
  // Per-tier aggregation, only for machines that actually have a network tier: single-server
  // topologies (every link kPcie) report no tiers, keeping legacy output byte-identical.
  bool has_network_tier = false;
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    if (topo.link(l).tier != LinkTier::kPcie) {
      has_network_tier = true;
      break;
    }
  }
  if (has_network_tier) {
    report.tiers.resize(static_cast<std::size_t>(kNumLinkTiers));
    for (int t = 0; t < kNumLinkTiers; ++t) {
      report.tiers[static_cast<std::size_t>(t)].name =
          LinkTierName(static_cast<LinkTier>(t));
    }
    for (LinkId l = 0; l < topo.num_links(); ++l) {
      const LinkStats& stats = transfers_->link_stats(l);
      RunReport::TierUsage& tier =
          report.tiers[static_cast<std::size_t>(topo.link(l).tier)];
      tier.bytes += stats.bytes_carried;
      tier.busy_time += stats.busy_time;
      tier.flows += stats.flows;
      for (int k = 0; k < kNumTransferKinds; ++k) {
        tier.bytes_by_kind[k] += stats.bytes_by_kind[k];
      }
    }
  }
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    const NodeIoStats& io = transfers_->node_io(n);
    RunReport::NodeIo node;
    node.node = topo.node(n).name;
    for (int k = 0; k < kNumTransferKinds; ++k) {
      node.in_by_kind[k] = io.in_by_kind[k];
      node.out_by_kind[k] = io.out_by_kind[k];
    }
    report.node_io.push_back(std::move(node));
  }
  const TensorRegistry& registry = memory_->registry();
  const std::vector<TensorChurnCounters>& churn = memory_->tensor_churn();
  report.tensor_churn.reserve(static_cast<std::size_t>(std::count_if(
      churn.begin(), churn.end(), [](const TensorChurnCounters& c) { return c.any(); })));
  for (std::size_t t = 0; t < churn.size(); ++t) {
    const TensorChurnCounters& c = churn[t];
    if (!c.any()) {
      continue;
    }
    const TensorId id = static_cast<TensorId>(t);
    const TensorMeta& meta = registry.meta(id);
    RunReport::TensorChurn entry;
    entry.tensor = id;
    entry.name = registry.name(id);
    entry.cls = TensorClassName(meta.cls);
    entry.bytes = meta.bytes;
    entry.evictions = c.evictions;
    entry.clean_drops = c.clean_drops;
    entry.write_backs = c.write_backs;
    entry.swap_ins = c.swap_ins;
    entry.p2p_ins = c.p2p_ins;
    entry.swap_in_bytes = c.swap_in_bytes;
    entry.swap_out_bytes = c.swap_out_bytes;
    entry.p2p_in_bytes = c.p2p_in_bytes;
    entry.clean_drop_bytes = c.clean_drop_bytes;
    report.tensor_churn.push_back(std::move(entry));
  }
  if (options_.record_timeline) {
    for (LinkId l = 0; l < topo.num_links(); ++l) {
      std::vector<RunReport::LinkQueuePoint> points;
      for (const LinkQueueSample& sample : transfers_->queue_timeline(l)) {
        points.push_back({sample.time, sample.depth});
      }
      report.link_queue_timeline.push_back(std::move(points));
    }
  }
  return report;
}

void Engine::StartNextTask(int device) {
  if (aborting_) {
    return;  // recovery restarts from the last checkpoint; this segment is done
  }
  DeviceState& state = devices_[static_cast<std::size_t>(device)];
  const auto& order = plan_->per_device_order[static_cast<std::size_t>(device)];
  if (state.next_index >= order.size()) {
    return;  // device drained
  }
  const TaskId task_id = order[state.next_index];
  const std::span<const TaskId> deps = plan_->deps(task_id);
  dep_wait_start_[static_cast<std::size_t>(device)] = sim_->now();

  auto deps_done = std::make_shared<CountdownEvent>(sim_, static_cast<int>(deps.size()));
  for (TaskId dep : deps) {
    completion_[static_cast<std::size_t>(dep)]->OnFired([deps_done] { deps_done->Arrive(); });
  }
  deps_done->OnFired([this, device, task_id] { AcquireAndRun(device, task_id); });
}

void Engine::AcquireAndRun(int device, TaskId task_id) {
  if (aborting_) {
    return;  // deps fired during the abort drain; don't pin new working sets
  }
  MemoryManager& manager = memory_->manager(device);

  // Dependency wait ends, acquire wait begins. The inbound-busy sample taken here is
  // differenced at grant time to split the wait into transfer vs memory stall.
  const std::size_t slot = static_cast<std::size_t>(device);
  const double now = sim_->now();
  device_time_[slot].of(TimeClass::kStallDependency) += now - dep_wait_start_[slot];
  acquire_start_[slot] = now;
  inbound_mark_[slot] = memory_->InboundBusySeconds(device);

  DeviceState& state = devices_[slot];
  if (state.prefetched != kInvalidTask) {
    HCHECK_EQ(state.prefetched, task_id) << "device " << device << " prefetched out of order";
    const MemoryManager::Acquisition acq = state.prefetch;
    state.prefetched = kInvalidTask;
    acq.ready->OnFired([this, device, task_id, acq] {
      MemoryManager& mgr = memory_->manager(device);
      if (mgr.WasCancelled(acq.handle)) {
        mgr.Release(acq.handle);  // clears the cancellation record
        const MemoryManager::Acquisition fresh = mgr.Acquire(plan_->working_set(task_id));
        fresh.ready->OnFired(
            [this, device, task_id, fresh] { RunWithHandle(device, task_id, fresh.handle); });
      } else {
        RunWithHandle(device, task_id, acq.handle);
      }
    });
    return;
  }

  const MemoryManager::Acquisition acq = manager.Acquire(plan_->working_set(task_id));
  acq.ready->OnFired(
      [this, device, task_id, acq] { RunWithHandle(device, task_id, acq.handle); });
}

void Engine::RunWithHandle(int device, TaskId task_id,
                           MemoryManager::AcquireHandle handle) {
  const Task& task = plan_->tasks[static_cast<std::size_t>(task_id)];
  const std::size_t slot = static_cast<std::size_t>(device);
  // Acquire wait ends: split [acquire_start, now) into the part with inbound DMA in flight
  // (stall-on-transfer) and the remainder (stall-on-memory-acquire). The split is exact by
  // construction — the integral difference is the in-window inbound busy time — with a
  // clamp only against FP round-off.
  {
    const double now = sim_->now();
    const double window = now - acquire_start_[slot];
    double transfer = memory_->InboundBusySeconds(device) - inbound_mark_[slot];
    transfer = std::min(std::max(transfer, 0.0), window);
    device_time_[slot].of(TimeClass::kStallTransfer) += transfer;
    device_time_[slot].of(TimeClass::kStallMemory) += window - transfer;
  }
  // The working set is resident; overlap the next task's swap-ins with this compute.
  ++devices_[slot].next_index;
  MaybePrefetch(device);

  const double start = sim_->now();
  if (task.kind == TaskKind::kAllReduce) {
    collective_->Arrive(task.collective_group, device, task.collective_bytes,
                        collective_group_size_.at(task.collective_group),
                        [this, device, task_id, handle, start] {
                          device_time_[static_cast<std::size_t>(device)].of(
                              TimeClass::kStallCollective) += sim_->now() - start;
                          if (options_.record_timeline) {
                            timeline_.push_back(TaskTrace{task_id, start, sim_->now()});
                          }
                          FinishTask(device, task_id, handle);
                        });
    return;
  }

  // A healthy device multiplies by exactly 1.0, which is bitwise identity — the
  // failure-free path stays byte-identical to the pre-resilience engine.
  const double rate = machine_->gpus[static_cast<std::size_t>(device)].effective_flops() *
                      compute_scale_[slot];
  HCHECK_GT(rate, 0.0);
  const double duration = task.flops / rate;
  if (monitor_ != nullptr && duration > 0.0) {
    const double expected =
        task.flops / machine_->gpus[static_cast<std::size_t>(device)].effective_flops();
    monitor_->Observe(device, expected, duration);
    if (!straggler_pending_ && plan_->num_devices() > 1 && monitor_->IsStraggler(device)) {
      // Defer the graceful degradation to the next iteration boundary so the segment
      // closes on complete iterations (no rollback needed).
      straggler_pending_ = true;
      straggler_device_ = device;
    }
  }
  device_busy_[static_cast<std::size_t>(device)] += duration;
  device_time_[slot].of(TimeClass::kCompute) += duration;
  sim_->ScheduleAfter(duration, [this, device, task_id, handle, start] {
    if (options_.record_timeline) {
      timeline_.push_back(TaskTrace{task_id, start, sim_->now()});
    }
    FinishTask(device, task_id, handle);
  });
}

void Engine::FinishTask(int device, TaskId task_id, MemoryManager::AcquireHandle handle) {
  const Task& task = plan_->tasks[static_cast<std::size_t>(task_id)];
  MemoryManager& manager = memory_->manager(device);
  for (TensorId id : plan_->dirty_outputs(task_id)) {
    manager.MarkDirty(id);
  }
  manager.Release(handle);
  // Free end-of-life tensors synchronously, before any pump can start evicting them.
  for (TensorId id : plan_->free_after(task_id)) {
    manager.FreeTensor(id);
  }
  ++completed_tasks_;
  finish_time_ = sim_->now();
  last_finish_[static_cast<std::size_t>(device)] = sim_->now();
  completion_[static_cast<std::size_t>(task_id)]->Fire();

  auto& remaining = iteration_remaining_[static_cast<std::size_t>(task.iteration)];
  HCHECK_GT(remaining, 0);
  if (--remaining == 0) {
    OnIterationComplete(task.iteration);
  }
  StartNextTask(device);
}

void Engine::MaybePrefetch(int device) {
  if (!options_.prefetch) {
    return;
  }
  DeviceState& state = devices_[static_cast<std::size_t>(device)];
  const auto& order = plan_->per_device_order[static_cast<std::size_t>(device)];
  if (state.next_index >= order.size()) {
    return;
  }
  const TaskId next_id = order[state.next_index];
  HCHECK_EQ(state.prefetched, kInvalidTask) << "device " << device << " prefetched twice";
  for (TaskId dep : plan_->deps(next_id)) {
    if (!completion_[static_cast<std::size_t>(dep)]->fired()) {
      return;  // inputs not produced yet; prefetching would fetch stale/absent data
    }
  }
  // Size heuristic: only prefetch when the bytes we would bring fit in currently-free
  // memory. The acquisition is best-effort anyway, so this is purely to avoid useless churn.
  MemoryManager& manager = memory_->manager(device);
  const TensorRegistry& registry = memory_->registry();
  Bytes needed = plan_->tasks[static_cast<std::size_t>(next_id)].scratch_bytes;
  for (TaskList which : kWorkingSetLists) {
    for (TensorId id : plan_->list(which, next_id)) {
      if (!manager.IsResidentHere(id)) {
        needed += registry.meta(id).bytes;
      }
    }
  }
  if (needed > manager.capacity() - manager.used_bytes()) {
    return;
  }
  state.prefetched = next_id;
  state.prefetch = manager.Acquire(plan_->working_set(next_id), /*best_effort=*/true);
}

void Engine::OnIterationComplete(int iteration) {
  const Snapshot snap = TakeSnapshot();
  IterationStats stats;
  stats.iteration = iteration;
  stats.start_time = last_iteration_end_;
  stats.end_time = sim_->now();
  for (int c = 0; c < kNumTensorClasses; ++c) {
    stats.swap_in_by_class[c] = snap.swap_in_by_class[c] - last_snapshot_.swap_in_by_class[c];
    stats.swap_out_by_class[c] =
        snap.swap_out_by_class[c] - last_snapshot_.swap_out_by_class[c];
    stats.swap_in += stats.swap_in_by_class[c];
    stats.swap_out += stats.swap_out_by_class[c];
  }
  stats.swap_in_per_device.resize(snap.swap_in_per_device.size());
  stats.swap_out_per_device.resize(snap.swap_out_per_device.size());
  for (std::size_t d = 0; d < snap.swap_in_per_device.size(); ++d) {
    stats.swap_in_per_device[d] =
        snap.swap_in_per_device[d] - last_snapshot_.swap_in_per_device[d];
    stats.swap_out_per_device[d] =
        snap.swap_out_per_device[d] - last_snapshot_.swap_out_per_device[d];
  }
  stats.p2p_in = snap.p2p - last_snapshot_.p2p;
  stats.collective_bytes = snap.collective - last_snapshot_.collective;
  iteration_stats_.push_back(std::move(stats));
  last_snapshot_ = snap;
  last_iteration_end_ = sim_->now();
  MaybeCheckpoint(iteration);
  if (straggler_pending_ && !aborting_ && iteration + 1 < plan_->num_iterations) {
    // Graceful degradation: end the segment on this complete iteration boundary. The
    // recovery coordinator resumes from iteration + 1 without touching the checkpoint.
    // On the final iteration (or a single-device plan) the run just completes degraded.
    aborting_ = true;
    failed_ = true;
    failure_kind_ = "gpu-straggler";
    failed_device_ = straggler_device_;
    failure_time_ = sim_->now();
    finish_time_ = std::max(finish_time_, sim_->now());
  }
}

void Engine::MaybeCheckpoint(int iteration) {
  if (options_.checkpoint_every <= 0 || aborting_) {
    return;
  }
  if ((iteration + 1) % options_.checkpoint_every != 0 ||
      (iteration + 1 >= plan_->num_iterations && !options_.checkpoint_final)) {
    return;  // no checkpoint after the final iteration — the run is the checkpoint
            // (unless checkpoint_final: a preemption drain ends *with* the commit)
  }
  // Copy out every device's diverged weight/optimizer bytes. Tensors already swapped out
  // (or never touched) have a valid host copy and cost nothing — that is what makes the
  // checkpoint "lightweight" relative to a full model dump.
  const Topology& topo = transfers_->topology();
  std::vector<std::pair<int, Bytes>> per_device;
  Bytes total = 0;
  for (int d = 0; d < plan_->num_devices(); ++d) {
    if (transfers_->NodeFailed(topo.gpu_node(d))) {
      continue;
    }
    const MemoryManager& manager = memory_->manager(d);
    const Bytes bytes = manager.ResidentDirtyBytesOf(TensorClass::kWeight) +
                        manager.ResidentDirtyBytesOf(TensorClass::kOptimizerState);
    per_device.emplace_back(d, bytes);
    total += bytes;
  }
  auto committed =
      std::make_shared<CountdownEvent>(sim_, static_cast<int>(per_device.size()));
  auto lost = std::make_shared<bool>(false);
  for (const auto& [device, bytes] : per_device) {
    auto copied = [committed, lost](TransferOutcome outcome) {
      if (outcome == TransferOutcome::kAborted) {
        *lost = true;  // a device died mid-checkpoint: this checkpoint never commits
      }
      committed->Arrive();
    };
    transfers_->StartTransfer(topo.gpu_node(device), topo.HostNodeForGpu(device), bytes,
                              TransferKind::kCheckpoint, std::move(copied));
  }
  committed->OnFired([this, iteration, total, lost] {
    if (*lost || aborting_) {
      return;
    }
    ++checkpoints_committed_;
    checkpoint_bytes_ += total;
    if (iteration > last_checkpoint_iteration_) {
      last_checkpoint_iteration_ = iteration;
      last_checkpoint_time_ = sim_->now();
      if (options_.checkpoint_store != nullptr) {
        options_.checkpoint_store->Commit(iteration, sim_->now(), total);
      }
    }
    finish_time_ = std::max(finish_time_, sim_->now());
  });
}

void Engine::NotifyDeviceFailed(int gpu, SimTime when) {
  if (aborting_) {
    return;
  }
  aborting_ = true;
  failed_ = true;
  failure_kind_ = "gpu-fail-stop";
  failed_device_ = gpu;
  failure_time_ = when;
  finish_time_ = std::max(finish_time_, when);
}

void Engine::NotifyTransferRetryExhausted(SimTime when) {
  if (aborting_) {
    return;
  }
  aborting_ = true;
  failed_ = true;
  failure_kind_ = "transfer-retry-exhausted";
  failed_device_ = -1;
  failure_time_ = when;
  finish_time_ = std::max(finish_time_, when);
}

void Engine::SetComputeScale(int gpu, double scale, SimTime when) {
  if (gpu < 0 || gpu >= plan_->num_devices()) {
    return;
  }
  const std::size_t slot = static_cast<std::size_t>(gpu);
  if (compute_scale_[slot] < 1.0) {
    // Close the open degraded window before the scale changes.
    degraded_sec_[slot] += std::max(when - degraded_since_[slot], 0.0);
  }
  degraded_since_[slot] = when;
  compute_scale_[slot] = scale;
}

void Engine::WatchdogCheck(int last_completed) {
  if (aborting_ || completed_tasks_ == static_cast<int>(plan_->tasks.size())) {
    return;  // stop re-arming so the sim can go idle
  }
  if (completed_tasks_ == last_completed) {
    // A whole period with zero task completions: the schedule is stuck (circular memory
    // wait, lost collective partner) or livelocked (event churn without progress).
    aborting_ = true;
    failed_ = true;
    failure_kind_ = "watchdog-stall";
    failure_time_ = sim_->now();
    finish_time_ = std::max(finish_time_, sim_->now());
    return;
  }
  ArmWatchdog(completed_tasks_);
}

void Engine::ArmWatchdog(int last_completed) {
  // Deadline k lands at exactly anchor + k * timeout (one multiply, not k accumulated
  // adds), so a stall detected in period k reports failure_time == k * timeout bitwise.
  const double deadline =
      watchdog_anchor_ + static_cast<double>(++watchdog_periods_) * options_.watchdog_timeout;
  sim_->ScheduleAt(deadline, [this, last_completed] { WatchdogCheck(last_completed); });
}

void Engine::ReportDeadlock() const {
  std::ostringstream os;
  os << "engine deadlock: " << completed_tasks_ << "/" << plan_->tasks.size()
     << " tasks completed in plan '" << plan_->scheme << "'\n";
  for (int d = 0; d < plan_->num_devices(); ++d) {
    const DeviceState& state = devices_[static_cast<std::size_t>(d)];
    const auto& order = plan_->per_device_order[static_cast<std::size_t>(d)];
    os << "  gpu" << d << ": ";
    if (state.next_index >= order.size()) {
      os << "drained";
    } else {
      const Task& task =
          plan_->tasks[static_cast<std::size_t>(order[state.next_index - 0])];
      os << "stalled before " << task.DebugName() << " (used "
         << FormatBytes(memory_->manager(d).used_bytes()) << " of "
         << FormatBytes(memory_->manager(d).capacity()) << ")";
    }
    os << "\n";
  }
  HCHECK(false) << os.str();
}

}  // namespace harmony
