#include "src/core/session.h"

#include <cmath>
#include <iterator>
#include <utility>

#include "src/baseline/baseline_dp.h"
#include "src/baseline/baseline_pp.h"
#include "src/core/harmony_dp.h"
#include "src/core/harmony_pp.h"
#include "src/core/harmony_tp.h"
#include "src/graph/plan_builder.h"
#include "src/hw/fault_injector.h"
#include "src/hw/transfer_manager.h"
#include "src/runtime/collective.h"
#include "src/runtime/demand.h"
#include "src/sim/simulator.h"
#include "src/util/check.h"
#include "src/util/units.h"

namespace harmony {

const char* SchemeName(Scheme scheme) {
  for (const SchemeNameEntry& entry : kSchemeNames) {
    if (entry.scheme == scheme) {
      return entry.name;
    }
  }
  return "unknown";
}

StatusOr<Scheme> SchemeByName(const std::string& name) {
  for (const SchemeNameEntry& entry : kSchemeNames) {
    if (name == entry.name) {
      return entry.scheme;
    }
  }
  std::string expected;
  for (std::size_t i = 0; i < std::size(kSchemeNames); ++i) {
    expected += i == 0 ? "" : i + 1 == std::size(kSchemeNames) ? ", or " : ", ";
    expected += kSchemeNames[i].name;
  }
  return InvalidArgumentError("unknown scheme '" + name + "' (expected " + expected + ")");
}

MemoryPolicy DefaultPolicyFor(Scheme scheme, bool p2p) {
  switch (scheme) {
    case Scheme::kBaselineDp:
    case Scheme::kBaselinePp:
      return LmsPolicy();
    case Scheme::kHarmonyDp:
    case Scheme::kHarmonyPp:
    case Scheme::kHarmonyTp:
    // Serving runs under the Harmony policy: cross-device context makes stage-boundary
    // activations move p2p, and weight evictions are clean drops either way.
    case Scheme::kServing: {
      MemoryPolicy policy = HarmonyPolicy();
      policy.allow_p2p = p2p;
      return policy;
    }
  }
  return LmsPolicy();
}

Machine MakeSessionMachine(const SessionConfig& config) {
  if (config.num_nodes <= 1) {
    return MakeCommodityServer(config.server);
  }
  ClusterConfig cluster;
  cluster.num_servers = config.num_nodes;
  cluster.nodes_per_rack = config.nodes_per_rack;
  cluster.server = config.server;
  cluster.nic = config.nic_link;
  cluster.rack = config.rack_link;
  return MakeCluster(cluster);
}

Plan BuildPlanForConfig(const Model& model, const Machine& machine, TensorRegistry* registry,
                        const SessionConfig& config) {
  Plan plan;
  switch (config.scheme) {
    case Scheme::kBaselineDp: {
      BaselineDpOptions options;
      options.microbatches_per_gpu = config.microbatches;
      options.microbatch_size = config.microbatch_size;
      options.iterations = config.iterations;
      options.recompute = config.recompute;
      plan = BuildBaselineDpPlan(model, machine, registry, options);
      break;
    }
    case Scheme::kBaselinePp: {
      BaselinePpOptions options;
      options.microbatches = config.microbatches;
      options.microbatch_size = config.microbatch_size;
      options.iterations = config.iterations;
      options.recompute = config.recompute;
      plan = BuildBaselinePpPlan(model, machine, registry, options);
      break;
    }
    case Scheme::kHarmonyDp: {
      HarmonyDpOptions options;
      options.microbatches_per_gpu = config.microbatches;
      options.microbatch_size = config.microbatch_size;
      options.iterations = config.iterations;
      options.input_batch_grouping = config.grouping;
      options.jit_updates = config.jit_updates;
      options.recompute = config.recompute;
      plan = BuildHarmonyDpPlan(model, machine, registry, options);
      break;
    }
    case Scheme::kHarmonyPp: {
      HarmonyPpOptions options;
      options.microbatches = config.microbatches;
      options.microbatch_size = config.microbatch_size;
      options.iterations = config.iterations;
      options.pack_size = config.pack_size;
      options.input_batch_grouping = config.grouping;
      options.group_size = config.group_size;
      options.jit_updates = config.jit_updates;
      options.balanced_packing = config.balanced_packing;
      options.recompute = config.recompute;
      plan = BuildHarmonyPpPlan(model, machine, registry, options);
      break;
    }
    case Scheme::kHarmonyTp: {
      HarmonyTpOptions options;
      options.microbatches = config.microbatches;
      options.microbatch_size = config.microbatch_size;
      options.iterations = config.iterations;
      options.input_batch_grouping = config.grouping;
      options.jit_updates = config.jit_updates;
      options.recompute = config.recompute;
      plan = BuildHarmonyTpPlan(model, machine, registry, options);
      break;
    }
    case Scheme::kServing: {
      ServingPlanOptions options;
      options.requests = config.iterations;
      options.batches = config.microbatches;
      options.batch_size = config.microbatch_size;
      plan = BuildServingPlan(model, machine, registry, options);
      break;
    }
  }
  AnnotateClusterStructure(&plan, machine.topology);
  return plan;
}

Status CheckSessionShape(const Model& model, const SessionConfig& config) {
  if (model.num_layers() < 1) {
    return InvalidArgumentError("model has no layers — need at least one");
  }
  if (config.server.num_gpus < 1) {
    return InvalidArgumentError("num_gpus must be >= 1, got " +
                                std::to_string(config.server.num_gpus));
  }
  if (config.server.gpus_per_switch < 1) {
    return InvalidArgumentError("gpus_per_switch must be >= 1, got " +
                                std::to_string(config.server.gpus_per_switch));
  }
  if (config.num_nodes < 1) {
    return InvalidArgumentError("nodes must be >= 1, got " +
                                std::to_string(config.num_nodes));
  }
  if (config.nodes_per_rack < 0) {
    return InvalidArgumentError("nodes_per_rack must be >= 0 (0 = one rack), got " +
                                std::to_string(config.nodes_per_rack));
  }
  if (config.num_nodes > 1 && (!(config.nic_link.bandwidth_bytes_per_sec > 0.0) ||
                               !(config.rack_link.bandwidth_bytes_per_sec > 0.0))) {
    return InvalidArgumentError("nic/rack link bandwidth must be positive");
  }
  // Bound the machine size before any sizing math or topology construction: both factors
  // are individually valid up to 1 << 20, so the product must be computed widened.
  const std::int64_t machine_gpus = std::int64_t{config.num_nodes} * config.server.num_gpus;
  if (machine_gpus > kMaxClusterGpus) {
    return InvalidArgumentError(
        "cluster of " + std::to_string(config.num_nodes) + " nodes x " +
        std::to_string(config.server.num_gpus) + " GPUs = " + std::to_string(machine_gpus) +
        " total GPUs exceeds the supported maximum of " + std::to_string(kMaxClusterGpus));
  }
  // Both schemes place one pipeline stage per GPU, and a stage needs a layer.
  if ((config.scheme == Scheme::kServing || config.scheme == Scheme::kBaselinePp) &&
      model.num_layers() < config.total_gpus()) {
    return InvalidArgumentError(
        std::string(SchemeName(config.scheme)) +
        " needs at least one layer per pipeline stage: model has " +
        std::to_string(model.num_layers()) + " layers but the machine has " +
        std::to_string(config.total_gpus()) + " GPUs");
  }
  if (!(config.uplink_bw_fraction > 0.0) || config.uplink_bw_fraction > 1.0 ||
      !std::isfinite(config.uplink_bw_fraction)) {
    return InvalidArgumentError(
        "uplink_bw_fraction must be in (0, 1] — the share of host-uplink and network "
        "bandwidth this session may draw");
  }
  const bool data_parallel =
      config.scheme == Scheme::kBaselineDp || config.scheme == Scheme::kHarmonyDp;
  DecomposerOptions decomposer;
  decomposer.num_replicas = data_parallel ? config.total_gpus() : 1;
  decomposer.microbatches = config.microbatches;
  decomposer.microbatch_size = config.microbatch_size;
  decomposer.iterations = config.iterations;
  HARMONY_RETURN_IF_ERROR(ValidateDecomposerOptions(config.total_gpus(), decomposer));
  if (config.pack_size < 1) {
    return InvalidArgumentError("pack_size must be >= 1, got " +
                                std::to_string(config.pack_size));
  }
  if (config.group_size < 0) {
    return InvalidArgumentError("group_size must be >= 0 (0 = whole minibatch), got " +
                                std::to_string(config.group_size));
  }
  if (config.checkpoint_every < 0) {
    return InvalidArgumentError("checkpoint_every must be >= 0 (0 = never), got " +
                                std::to_string(config.checkpoint_every));
  }
  if (config.watchdog_timeout < 0.0) {
    return InvalidArgumentError("watchdog_timeout must be >= 0 (0 = off)");
  }
  if (config.retry_max < 0) {
    return InvalidArgumentError("retry_max must be >= 0 (0 = retries off), got " +
                                std::to_string(config.retry_max));
  }
  if (!(config.retry_base > 0.0) || !std::isfinite(config.retry_base)) {
    return InvalidArgumentError("retry_base must be a positive finite delay in seconds");
  }
  if (config.ckpt_keep < 1) {
    return InvalidArgumentError("ckpt_keep must be >= 1, got " +
                                std::to_string(config.ckpt_keep));
  }
  if (config.straggler_threshold != 0.0 &&
      (!(config.straggler_threshold > 1.0) || !std::isfinite(config.straggler_threshold))) {
    return InvalidArgumentError(
        "straggler_threshold must be 0 (off) or > 1 (a healthy device sits at exactly 1.0)");
  }
  // Each node has one NIC; rack count follows the nodes_per_rack grouping (0 = one rack).
  const int num_nics = config.num_nodes > 1 ? config.num_nodes : 0;
  const int nodes_per_rack =
      config.nodes_per_rack == 0 ? config.num_nodes : config.nodes_per_rack;
  const int num_racks =
      config.num_nodes > 1 ? (config.num_nodes + nodes_per_rack - 1) / nodes_per_rack : 0;
  for (const FaultEvent& event : config.faults.events()) {
    if (event.targets_gpu() && event.gpu >= config.total_gpus()) {
      return InvalidArgumentError("fault event '" + event.ToString() + "' targets gpu" +
                                  std::to_string(event.gpu) + " but the machine has only " +
                                  std::to_string(config.total_gpus()) + " GPUs");
    }
    if (event.nic >= num_nics) {
      return InvalidArgumentError("fault event '" + event.ToString() + "' targets nic" +
                                  std::to_string(event.nic) + " but the machine has " +
                                  std::to_string(num_nics) + " NICs (one per node; nodes=" +
                                  std::to_string(config.num_nodes) + ")");
    }
    if (event.rack >= num_racks) {
      return InvalidArgumentError("fault event '" + event.ToString() + "' targets rack" +
                                  std::to_string(event.rack) + " but the machine has " +
                                  std::to_string(num_racks) + " racks");
    }
  }
  return Status::Ok();
}

namespace {

// The feasibility rule: every task's working set fits its device.
Status CheckWorkingSetFit(const std::vector<Bytes>& peaks, Bytes capacity) {
  for (std::size_t d = 0; d < peaks.size(); ++d) {
    if (peaks[d] > capacity) {
      return InvalidArgumentError(
          "infeasible configuration: a single task's working set (" + FormatBytes(peaks[d]) +
          ") exceeds gpu" + std::to_string(d) + " memory (" + FormatBytes(capacity) +
          ") — shrink microbatch_size or pack_size");
    }
  }
  return Status::Ok();
}

}  // namespace

std::vector<Bytes> ProbePeakWorkingSet(const Model& model, const SessionConfig& config) {
  SessionConfig probe = config;
  probe.iterations = 1;
  const Machine machine = MakeSessionMachine(probe);
  TensorRegistry registry;
  return BuildPlanForConfig(model, machine, &registry, probe).PeakTaskWorkingSet(registry);
}

Status ValidateSessionConfig(const Model& model, const SessionConfig& config) {
  HARMONY_RETURN_IF_ERROR(CheckSessionShape(model, config));
  return CheckWorkingSetFit(ProbePeakWorkingSet(model, config),
                            config.server.gpu.memory_bytes);
}

StatusOr<PreparedSession> PrepareSession(const Model& model, const SessionConfig& config) {
  HARMONY_RETURN_IF_ERROR(CheckSessionShape(model, config));
  PreparedSession session;
  session.config = config;
  session.machine = MakeSessionMachine(config);
  session.plan = BuildPlanForConfig(model, session.machine, &session.registry, config);
  session.peak_task_working_set = session.plan.PeakTaskWorkingSet(session.registry);
  HARMONY_RETURN_IF_ERROR(
      CheckWorkingSetFit(session.peak_task_working_set, config.server.gpu.memory_bytes));
  return session;
}

SessionResult RunTraining(const Model& model, const SessionConfig& config) {
  StatusOr<PreparedSession> prepared = PrepareSession(model, config);
  HCHECK(prepared.ok()) << prepared.status().ToString();
  return RunTraining(std::move(prepared).value());
}

SessionResult RunTraining(PreparedSession session) {
  const SessionConfig& config = session.config;
  Machine& machine = session.machine;
  TensorRegistry& registry = session.registry;
  Plan& plan = session.plan;
  Simulator sim;
  TransferManager transfers(&sim, &machine.topology);
  // Tenant bandwidth reservation (DESIGN.md §13): applied before any flow exists, so a
  // full share (the default 1.0) keeps the historical event sequence bit-for-bit.
  transfers.ApplyUplinkBandwidthQuota(config.uplink_bw_fraction);

  MemoryPolicy policy =
      config.policy.has_value() ? *config.policy : DefaultPolicyFor(config.scheme, config.p2p);
  if (config.lookahead_eviction) {
    policy.eviction = EvictionPolicy::kLookahead;
  }

  std::vector<Bytes> capacities;
  capacities.reserve(machine.gpus.size());
  for (const GpuSpec& gpu : machine.gpus) {
    capacities.push_back(gpu.memory_bytes);
  }
  MemorySystem memory(&sim, &transfers, &registry, &machine.topology, capacities, policy);
  memory.set_audit_eviction(config.audit_eviction);
  CollectiveEngine collective(&sim, &transfers);

  EngineOptions engine_options;
  engine_options.prefetch = config.prefetch;
  engine_options.record_timeline = config.record_timeline;
  engine_options.checkpoint_every = config.checkpoint_every;
  engine_options.checkpoint_final = config.checkpoint_final;
  engine_options.watchdog_timeout = config.watchdog_timeout;
  engine_options.fault_mode = !config.faults.empty();
  engine_options.straggler_threshold = config.straggler_threshold;
  engine_options.checkpoint_store = config.checkpoint_store;
  // The engine lints the plan first, so a malformed plan stops there, before any analysis.
  Engine engine(&sim, &machine, &memory, &transfers, &collective, &plan, engine_options);

  SessionResult result;
  result.peak_task_working_set = std::move(session.peak_task_working_set);
  result.memory_demand_per_device = ComputeMemoryDemand(plan, registry);

  // Retry tier: the policy is constructed only when a budget is set, so default runs keep
  // the exact pre-retry abort semantics (and event sequence). The exhaustion handler is
  // wired unconditionally — a flap with no budget IS immediate exhaustion, and it must
  // surface as a typed engine failure, not as an aborted completion the memory system
  // would mistake for delivered bytes.
  std::optional<RetryPolicy> retry_policy;
  if (config.retry_max > 0) {
    RetryPolicyConfig retry_config;
    retry_config.max_attempts = config.retry_max;
    retry_config.base_delay_sec = config.retry_base;
    retry_config.max_delay_sec = config.retry_base * 64.0;
    retry_policy.emplace(retry_config);
    transfers.SetRetryPolicy(&*retry_policy);
  }
  transfers.SetRetryExhaustedHandler([&engine](std::int64_t /*flow_id*/, SimTime when) {
    engine.NotifyTransferRetryExhausted(when);
  });

  // The injector is only constructed when faults are armed, so the failure-free path runs
  // the exact historical event sequence.
  std::optional<FaultInjector> injector;
  if (!config.faults.empty()) {
    injector.emplace(&sim, &transfers);
    injector->SetDeviceFailHandler(
        [&engine](int gpu, SimTime when) { engine.NotifyDeviceFailed(gpu, when); });
    injector->SetComputeScaleHandler([&engine](int gpu, double scale, SimTime when) {
      engine.SetComputeScale(gpu, scale, when);
    });
    if (config.checkpoint_store != nullptr) {
      CheckpointStore* store = config.checkpoint_store;
      injector->SetCheckpointCorruptHandler([store](SimTime /*when*/) {
        store->CorruptNewest();
      });
    }
    injector->Arm(config.faults);
  }

  result.report = engine.Run();
  result.timeline = engine.timeline();
  result.churn_audit_log = memory.churn_audit_log();
  if (injector.has_value()) {
    result.fault_trace = injector->TraceString();
  }
  result.plan = std::move(plan);
  return result;
}

}  // namespace harmony
