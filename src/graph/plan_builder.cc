#include "src/graph/plan_builder.h"

#include <algorithm>
#include <limits>
#include <tuple>

#include "src/graph/partition.h"
#include "src/util/check.h"

namespace harmony {

Status ValidateDecomposerOptions(int num_devices, const DecomposerOptions& options) {
  if (num_devices < 1) {
    return InvalidArgumentError("num_devices must be >= 1, got " +
                                std::to_string(num_devices));
  }
  if (options.num_replicas < 1) {
    return InvalidArgumentError("num_replicas must be >= 1, got " +
                                std::to_string(options.num_replicas));
  }
  if (options.microbatches < 1) {
    return InvalidArgumentError("microbatches must be >= 1, got " +
                                std::to_string(options.microbatches));
  }
  if (options.microbatch_size < 1) {
    return InvalidArgumentError("microbatch_size must be >= 1, got " +
                                std::to_string(options.microbatch_size));
  }
  if (options.iterations < 1) {
    return InvalidArgumentError("iterations must be >= 1, got " +
                                std::to_string(options.iterations));
  }
  if (options.weight_shards < 1) {
    return InvalidArgumentError("weight_shards must be >= 1, got " +
                                std::to_string(options.weight_shards));
  }
  return Status::Ok();
}

PlanBuilder::PlanBuilder(const Model* model, TensorRegistry* registry, int num_devices,
                         DecomposerOptions options)
    : model_(model), registry_(registry), options_(options) {
  const Status valid = ValidateDecomposerOptions(num_devices, options);
  HCHECK(valid.ok()) << valid.ToString();
  plan_.per_device_order.resize(static_cast<std::size_t>(num_devices));
  plan_.num_iterations = options.iterations;
  plan_.microbatch_size = options.microbatch_size;
  plan_.samples_per_iteration =
      options.num_replicas * options.microbatches * options.microbatch_size;

  const int R = model_->num_layers();
  std::vector<std::string> layer_names;
  layer_names.reserve(static_cast<std::size_t>(R));
  for (int l = 0; l < R; ++l) {
    layer_names.push_back(model_->layer(l).name);
  }
  registry_->SetLayerNames(std::move(layer_names));

  weights_.Resize(1, R, 1, options.num_replicas);
  opt_states_.Resize(1, R, 1, options.num_replicas);
  grads_.Resize(options.iterations, R, 1, options.num_replicas);
  acts_.Resize(options.iterations, R + 1, options.microbatches, options.num_replicas);
  act_grads_.Resize(options.iterations, R + 1, options.microbatches, options.num_replicas);
  stashes_.Resize(options.iterations, R, options.microbatches, options.num_replicas);
  // Each table slot holds at most one tensor.
  registry_->Reserve(weights_.ids.size() + opt_states_.ids.size() + grads_.ids.size() +
                     acts_.ids.size() + act_grads_.ids.size() + stashes_.ids.size());
}

void PlanBuilder::TensorTable::Resize(int iterations, int layers, int microbatches,
                                      int replicas) {
  extent = {iterations, layers, microbatches, replicas};
  std::size_t size = 1;
  for (const int n : extent) {
    HCHECK_GT(n, 0);
    HCHECK_LE(size, std::numeric_limits<std::size_t>::max() / static_cast<std::size_t>(n))
        << "tensor table size overflows";
    size *= static_cast<std::size_t>(n);
  }
  ids.assign(size, kInvalidTensor);
}

TensorId& PlanBuilder::TensorTable::at(int iteration, int layer, int microbatch,
                                       int replica) {
  const std::array<int, 4> index = {iteration, layer, microbatch, replica};
  std::size_t slot = 0;
  for (std::size_t k = 0; k < index.size(); ++k) {
    HCHECK(index[k] >= 0 && index[k] < extent[k])
        << "tensor table index " << index[k] << " outside [0, " << extent[k] << ")";
    slot = slot * static_cast<std::size_t>(extent[k]) + static_cast<std::size_t>(index[k]);
  }
  return ids[slot];
}

Bytes PlanBuilder::ActBytes(int layer) const {
  return model_->activation_bytes_per_sample(layer) * options_.microbatch_size;
}

Bytes PlanBuilder::ShardBytes(Bytes bytes) const {
  if (options_.weight_shards <= 1) {
    return bytes;
  }
  return (bytes + options_.weight_shards - 1) / options_.weight_shards;
}

double PlanBuilder::ShardFlops(double flops) const {
  return flops / static_cast<double>(options_.weight_shards);
}

TensorId PlanBuilder::Weight(int layer, int replica) {
  TensorId& id = weights_.at(0, layer, 0, replica);
  if (id != kInvalidTensor) {
    return id;
  }
  id = registry_->Create({.bytes = ShardBytes(model_->layer(layer).cost.param_bytes),
                          .cls = TensorClass::kWeight, .layer = layer, .replica_gpu = replica,
                          .form = TensorNameForm::kWeight},
                         /*host_valid=*/true);
  return id;
}

TensorId PlanBuilder::OptState(int layer, int replica) {
  const Layer& l = model_->layer(layer);
  if (l.cost.opt_state_bytes == 0) {
    return kInvalidTensor;
  }
  TensorId& id = opt_states_.at(0, layer, 0, replica);
  if (id != kInvalidTensor) {
    return id;
  }
  id = registry_->Create({.bytes = ShardBytes(l.cost.opt_state_bytes),
                          .cls = TensorClass::kOptimizerState, .layer = layer,
                          .replica_gpu = replica, .form = TensorNameForm::kOptState},
                         /*host_valid=*/true);
  return id;
}

TensorId PlanBuilder::WeightGrad(int layer, int replica) {
  TensorId& id = grads_.at(iteration_, layer, 0, replica);
  if (id != kInvalidTensor) {
    return id;
  }
  id = registry_->Create({.bytes = ShardBytes(model_->layer(layer).cost.grad_bytes),
                          .cls = TensorClass::kWeightGrad, .layer = layer, .replica_gpu = replica,
                          .iteration = iteration_, .form = TensorNameForm::kWeightGrad},
                         /*host_valid=*/false);
  return id;
}

TensorId PlanBuilder::Activation(int layer, int microbatch, int replica) {
  TensorId& id = acts_.at(iteration_, layer, microbatch, replica);
  if (id != kInvalidTensor) {
    return id;
  }
  const bool is_input = layer == 0;
  id = registry_->Create({.bytes = ActBytes(layer),
                          .cls = is_input ? TensorClass::kInput : TensorClass::kActivation,
                          .layer = layer - 1, .microbatch = microbatch, .replica_gpu = replica,
                          .iteration = iteration_, .form = TensorNameForm::kActivation},
                         /*host_valid=*/is_input);
  return id;
}

TensorId PlanBuilder::ActGrad(int layer, int microbatch, int replica) {
  HCHECK_GT(layer, 0) << "input gradients are never materialized";
  TensorId& id = act_grads_.at(iteration_, layer, microbatch, replica);
  if (id != kInvalidTensor) {
    return id;
  }
  id = registry_->Create({.bytes = ActBytes(layer), .cls = TensorClass::kActivationGrad,
                          .layer = layer - 1, .microbatch = microbatch, .replica_gpu = replica,
                          .iteration = iteration_, .form = TensorNameForm::kActivationGrad},
                         /*host_valid=*/false);
  return id;
}

TensorId PlanBuilder::Stash(int layer, int microbatch, int replica) {
  const Layer& l = model_->layer(layer);
  if (options_.recompute || l.cost.stash_bytes_per_sample == 0) {
    return kInvalidTensor;
  }
  TensorId& id = stashes_.at(iteration_, layer, microbatch, replica);
  if (id != kInvalidTensor) {
    return id;
  }
  id = registry_->Create({.bytes = l.cost.stash_bytes_per_sample * options_.microbatch_size,
                          .cls = TensorClass::kActivation, .layer = layer, .microbatch = microbatch,
                          .replica_gpu = replica, .iteration = iteration_,
                          .form = TensorNameForm::kStash},
                         /*host_valid=*/false);
  return id;
}

Task& PlanBuilder::NewTask(TaskKind kind, int device, int layer_begin, int layer_end,
                           int microbatch, int replica, const std::vector<TaskId>& deps) {
  HCHECK_GE(device, 0);
  HCHECK_LT(device, plan_.num_devices());
  Task task;
  task.kind = kind;
  task.device = device;
  task.iteration = iteration_;
  task.layer_begin = layer_begin;
  task.layer_end = layer_end;
  task.microbatch = microbatch;
  task.replica = replica;
  const TaskId id = plan_.AddTask(task);
  plan_.per_device_order[static_cast<std::size_t>(device)].push_back(id);
  for (TaskId dep : deps) {
    plan_.Append(TaskList::kDeps, dep);
  }
  return plan_.tasks.back();
}

TaskId PlanBuilder::AddForward(int device, int layer_begin, int layer_end, int microbatch,
                               int replica, std::vector<TaskId> deps) {
  HCHECK_LT(layer_begin, layer_end);
  HCHECK_LE(layer_end, num_layers());
  Task& task =
      NewTask(TaskKind::kForward, device, layer_begin, layer_end, microbatch, replica, deps);
  plan_.Append(TaskList::kFetch, Activation(layer_begin, microbatch, replica));
  Bytes transient = 0;
  for (int l = layer_begin; l < layer_end; ++l) {
    const Layer& layer = model_->layer(l);
    plan_.Append(TaskList::kFetch, Weight(l, replica));
    task.flops += ShardFlops(layer.cost.fwd_flops_per_sample) *
                  static_cast<double>(options_.microbatch_size);
    transient = std::max(transient, layer.cost.workspace_bytes_per_sample *
                                        options_.microbatch_size);
    const bool boundary = l == layer_end - 1;
    if (options_.recompute) {
      // Internal activations/stashes live only within the task.
      if (!boundary) {
        transient += ActBytes(l + 1);
      }
      transient += layer.cost.stash_bytes_per_sample * options_.microbatch_size;
    } else {
      const TensorId out = Activation(l + 1, microbatch, replica);
      plan_.Append(TaskList::kAllocate, out);
      plan_.Append(TaskList::kDirty, out);
      const TensorId stash = Stash(l, microbatch, replica);
      if (stash != kInvalidTensor) {
        plan_.Append(TaskList::kAllocate, stash);
        plan_.Append(TaskList::kDirty, stash);
      }
    }
  }
  if (options_.recompute) {
    const TensorId out = Activation(layer_end, microbatch, replica);
    plan_.Append(TaskList::kAllocate, out);
    plan_.Append(TaskList::kDirty, out);
  }
  task.scratch_bytes = transient;
  return task.id;
}

TaskId PlanBuilder::AddLoss(int device, int microbatch, int replica, std::vector<TaskId> deps) {
  const int R = num_layers();
  Task& task = NewTask(TaskKind::kLoss, device, R, R, microbatch, replica, deps);
  const TensorId logits = Activation(R, microbatch, replica);
  const TensorId grad = ActGrad(R, microbatch, replica);
  plan_.Append(TaskList::kFetch, logits);
  plan_.Append(TaskList::kAllocate, grad);
  plan_.Append(TaskList::kDirty, grad);
  plan_.Append(TaskList::kFreeAfter, logits);
  task.flops = static_cast<double>(ActBytes(R)) / 2.0;  // elementwise over the logits
  return task.id;
}

TaskId PlanBuilder::AddBackward(int device, int layer_begin, int layer_end, int microbatch,
                                int replica, std::vector<TaskId> deps) {
  HCHECK_LT(layer_begin, layer_end);
  HCHECK_LE(layer_end, num_layers());
  Task& task =
      NewTask(TaskKind::kBackward, device, layer_begin, layer_end, microbatch, replica, deps);

  const TensorId out_grad = ActGrad(layer_end, microbatch, replica);
  plan_.Append(TaskList::kFetch, out_grad);
  plan_.Append(TaskList::kFreeAfter, out_grad);

  Bytes transient = 0;
  for (int l = layer_begin; l < layer_end; ++l) {
    const Layer& layer = model_->layer(l);
    plan_.Append(TaskList::kFetch, Weight(l, replica));
    const TensorId grad = WeightGrad(l, replica);
    plan_.Append(TaskList::kAccumulate, grad);
    plan_.Append(TaskList::kDirty, grad);
    task.flops += ShardFlops(layer.cost.bwd_flops_per_sample) *
                  static_cast<double>(options_.microbatch_size);
    transient = std::max(transient, 2 * layer.cost.workspace_bytes_per_sample *
                                        options_.microbatch_size);

    const bool is_pack_input = l == layer_begin;
    if (options_.recompute) {
      task.flops += ShardFlops(layer.cost.fwd_flops_per_sample) *
                    static_cast<double>(options_.microbatch_size);
      if (!is_pack_input) {
        transient += ActBytes(l);
      }
      transient += layer.cost.stash_bytes_per_sample * options_.microbatch_size;
    } else {
      const TensorId act = Activation(l, microbatch, replica);
      plan_.Append(TaskList::kFetch, act);
      plan_.Append(TaskList::kFreeAfter, act);
      const TensorId stash = Stash(l, microbatch, replica);
      if (stash != kInvalidTensor) {
        plan_.Append(TaskList::kFetch, stash);
        plan_.Append(TaskList::kFreeAfter, stash);
      }
    }
  }
  if (options_.recompute) {
    const TensorId act = Activation(layer_begin, microbatch, replica);
    plan_.Append(TaskList::kFetch, act);
    plan_.Append(TaskList::kFreeAfter, act);
  }
  if (layer_begin > 0) {
    const TensorId in_grad = ActGrad(layer_begin, microbatch, replica);
    plan_.Append(TaskList::kAllocate, in_grad);
    plan_.Append(TaskList::kDirty, in_grad);
  }
  task.scratch_bytes = transient;
  return task.id;
}

TaskId PlanBuilder::AddUpdate(int device, int layer_begin, int layer_end, int replica,
                              std::vector<TaskId> deps) {
  HCHECK_LT(layer_begin, layer_end);
  HCHECK_LE(layer_end, num_layers());
  Task& task = NewTask(TaskKind::kUpdate, device, layer_begin, layer_end, -1, replica, deps);
  for (int l = layer_begin; l < layer_end; ++l) {
    const TensorId w = Weight(l, replica);
    const TensorId grad = WeightGrad(l, replica);
    plan_.Append(TaskList::kFetch, w);
    plan_.Append(TaskList::kFetch, grad);
    plan_.Append(TaskList::kDirty, w);
    plan_.Append(TaskList::kFreeAfter, grad);  // "reset dW'" in Fig. 5(a)
    const TensorId opt = OptState(l, replica);
    if (opt != kInvalidTensor) {
      plan_.Append(TaskList::kFetch, opt);
      plan_.Append(TaskList::kDirty, opt);
    }
    task.flops += ShardFlops(model_->layer(l).cost.upd_flops);
  }
  return task.id;
}

TaskId PlanBuilder::AddAllReduce(int device, int layer_begin, int layer_end, int replica,
                                 int group, std::vector<TaskId> deps) {
  HCHECK_LT(layer_begin, layer_end);
  HCHECK_LE(layer_end, num_layers());
  Task& task =
      NewTask(TaskKind::kAllReduce, device, layer_begin, layer_end, -1, replica, deps);
  task.collective_group = group;
  for (int l = layer_begin; l < layer_end; ++l) {
    const TensorId grad = WeightGrad(l, replica);
    plan_.Append(TaskList::kFetch, grad);
    plan_.Append(TaskList::kDirty, grad);
    task.collective_bytes += ShardBytes(model_->layer(l).cost.grad_bytes);
  }
  return task.id;
}

TaskId PlanBuilder::AddActivationAllReduce(int device, int layer, int microbatch,
                                           int replica, bool grad, int group,
                                           std::vector<TaskId> deps) {
  Task& task = NewTask(TaskKind::kAllReduce, device, layer, layer, microbatch, replica, deps);
  task.collective_group = group;
  task.collective_data =
      grad ? Task::CollectiveData::kActivationGrad : Task::CollectiveData::kActivation;
  const TensorId tensor =
      grad ? ActGrad(layer, microbatch, replica) : Activation(layer, microbatch, replica);
  plan_.Append(TaskList::kFetch, tensor);
  plan_.Append(TaskList::kDirty, tensor);
  task.collective_bytes = registry_->meta(tensor).bytes;
  return task.id;
}

void PlanBuilder::AddDep(TaskId task, TaskId dep) {
  HCHECK_GE(dep, 0);
  HCHECK_LT(dep, static_cast<TaskId>(plan_.tasks.size()));
  AppendTo(task, TaskList::kDeps, dep);
}

void PlanBuilder::FreeAfter(TaskId task, TensorId tensor) {
  HCHECK(tensor != kInvalidTensor);
  AppendTo(task, TaskList::kFreeAfter, tensor);
}

void PlanBuilder::AppendTo(TaskId task, TaskList list, int id) {
  HCHECK_GE(task, 0);
  HCHECK_LT(task, static_cast<TaskId>(plan_.tasks.size()));
  late_.push_back(LateEntry{list, task, id});
}

Plan PlanBuilder::Finish(std::string scheme) {
  plan_.scheme = std::move(scheme);
  // Fold the late entries in, one pass per list that has any: each task keeps its own
  // entries first, then its late ones in call order.
  std::stable_sort(late_.begin(), late_.end(), [](const LateEntry& a, const LateEntry& b) {
    return std::tie(a.list, a.task) < std::tie(b.list, b.task);
  });
  auto next = late_.begin();
  while (next != late_.end()) {
    const TaskList list = next->list;
    IdColumn& column = plan_.lists[static_cast<std::size_t>(list)];
    IdColumn merged;
    merged.offsets.reserve(column.offsets.size());
    merged.ids.reserve(column.ids.size() + late_.size());
    for (std::size_t t = 0; t < plan_.tasks.size(); ++t) {
      merged.ids.insert(merged.ids.end(), column.ids.begin() + column.offsets[t],
                        column.ids.begin() + column.offsets[t + 1]);
      for (; next != late_.end() && next->list == list &&
             next->task == static_cast<TaskId>(t);
           ++next) {
        merged.ids.push_back(next->id);
      }
      merged.offsets.push_back(static_cast<std::uint32_t>(merged.ids.size()));
    }
    column = std::move(merged);
  }
  late_.clear();
  return std::move(plan_);
}

Plan BuildServingPlan(const Model& model, const Machine& machine, TensorRegistry* registry,
                      const ServingPlanOptions& options) {
  const int N = machine.num_gpus();
  const int R = model.num_layers();
  HCHECK_GE(R, N) << "serving needs at least one layer per stage (" << R << " layers, " << N
                  << " GPUs)";
  // One compute-balanced contiguous stage per GPU, weighted by forward FLOPs only — there
  // is no backward pass to balance against.
  std::vector<double> costs(static_cast<std::size_t>(R), 0.0);
  for (int l = 0; l < R; ++l) {
    costs[static_cast<std::size_t>(l)] = model.layer(l).cost.fwd_flops_per_sample;
  }
  const std::vector<int> bounds = PartitionContiguousMinMax(costs, N);

  DecomposerOptions decomp;
  decomp.microbatches = options.batches;
  decomp.microbatch_size = options.batch_size;
  decomp.iterations = options.requests;
  decomp.recompute = true;  // stashless: only stage-boundary activations materialize
  PlanBuilder builder(&model, registry, N, decomp);

  for (int it = 0; it < options.requests; ++it) {
    builder.BeginIteration(it);
    for (int mb = 0; mb < options.batches; ++mb) {
      TaskId prev = kInvalidTask;
      for (int s = 0; s < N; ++s) {
        std::vector<TaskId> deps;
        if (prev != kInvalidTask) {
          deps.push_back(prev);
        }
        const TaskId fwd = builder.AddForward(s, bounds[static_cast<std::size_t>(s)],
                                              bounds[static_cast<std::size_t>(s + 1)], mb, 0,
                                              std::move(deps));
        // The consumer owns its input: once stage s has read its boundary activation the
        // producer's output is dead (no backward will revisit it).
        builder.FreeAfter(fwd, builder.Activation(bounds[static_cast<std::size_t>(s)], mb, 0));
        prev = fwd;
      }
      // The response leaves the machine: the last stage drops the logits it just produced.
      builder.FreeAfter(prev, builder.Activation(R, mb, 0));
    }
  }
  return builder.Finish("serving");
}

void AnnotateClusterStructure(Plan* plan, const Topology& topology) {
  if (topology.num_servers() <= 1) {
    return;  // single-node plans carry no annotation (byte-identical legacy shape)
  }
  plan->device_node.clear();
  plan->device_node.reserve(static_cast<std::size_t>(plan->num_devices()));
  for (int d = 0; d < plan->num_devices(); ++d) {
    plan->device_node.push_back(topology.ServerOfGpu(d));
  }
  for (Task& task : plan->tasks) {
    if (task.kind == TaskKind::kAllReduce) {
      task.collective_node = plan->device_node[static_cast<std::size_t>(task.device)];
    }
  }
}

}  // namespace harmony
