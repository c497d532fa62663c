#include "src/numeric/plan_executor.h"

#include <algorithm>
#include <set>

namespace harmony {

PlanExecutor::PlanExecutor(const Plan* plan, PlanExecutorConfig config, DataFn data)
    : plan_(plan), config_(std::move(config)), data_(std::move(data)) {
  const Status valid = plan->Validate();
  HCHECK(valid.ok()) << valid.ToString();
  num_model_layers_ = static_cast<int>(config_.dims.size()) - 1;
  HCHECK_GE(num_model_layers_, 1);
  tensor_parallel_ = plan->scheme == "harmony-tp";

  int max_replica = 0;
  for (const Task& task : plan->tasks) {
    max_replica = std::max(max_replica, task.replica);
    HCHECK_LE(task.layer_end, num_model_layers_)
        << "plan layer range exceeds the MLP in " << task.DebugName();
  }
  if (config_.initial_params.has_value()) {
    HCHECK(!tensor_parallel_) << "initial_params resume is not supported for sharded plans";
  }
  for (int r = 0; r <= max_replica; ++r) {
    replicas_.push_back(config_.initial_params.has_value()
                            ? *config_.initial_params
                            : InitMlp(config_.dims, config_.init_seed));
  }
  losses_.assign(static_cast<std::size_t>(plan->num_iterations), 0.0);
}

void PlanExecutor::LoadData(int iteration, int microbatch, int replica) {
  const ActKey input_key{iteration, 0, microbatch, replica};
  if (acts_.count(input_key) > 0) {
    return;
  }
  // Data-parallel replicas each own a slice of the minibatch; tensor-parallel shards all
  // see the same microbatches.
  const int global =
      tensor_parallel_ ? microbatch : replica * config_.microbatches_per_replica + microbatch;
  Mat x, y;
  data_(iteration, global, &x, &y);
  acts_.emplace(input_key, std::move(x));
  targets_.emplace(ActKey{iteration, -1, microbatch, replica}, std::move(y));
}

Mat& PlanExecutor::InputActivation(int iteration, int microbatch, int replica) {
  LoadData(iteration, microbatch, replica);
  return acts_.at(ActKey{iteration, 0, microbatch, replica});
}

Mat& PlanExecutor::Target(int iteration, int microbatch, int replica) {
  LoadData(iteration, microbatch, replica);
  return targets_.at(ActKey{iteration, -1, microbatch, replica});
}

void PlanExecutor::Run() {
  const int n = static_cast<int>(plan_->tasks.size());
  std::vector<bool> executed(static_cast<std::size_t>(n), false);
  std::vector<std::size_t> head(static_cast<std::size_t>(plan_->num_devices()), 0);

  // All-reduce tasks rendezvous: collect "arrived" members per group, execute the group
  // atomically when complete.
  std::map<int, std::vector<const Task*>> arrived;

  auto deps_met = [&](const Task& task) {
    for (TaskId dep : plan_->deps(task.id)) {
      if (!executed[static_cast<std::size_t>(dep)]) {
        return false;
      }
    }
    return true;
  };

  int remaining = n;
  bool progress = true;
  while (remaining > 0 && progress) {
    progress = false;
    for (int d = 0; d < plan_->num_devices(); ++d) {
      const auto& order = plan_->per_device_order[static_cast<std::size_t>(d)];
      while (head[static_cast<std::size_t>(d)] < order.size()) {
        const Task& task =
            plan_->tasks[static_cast<std::size_t>(order[head[static_cast<std::size_t>(d)]])];
        if (!deps_met(task)) {
          break;
        }
        if (task.kind == TaskKind::kAllReduce) {
          auto& members = arrived[task.collective_group];
          members.push_back(&task);
          ++head[static_cast<std::size_t>(d)];
          progress = true;
          // Count expected members lazily: a group spans every replica that has a task with
          // this id anywhere in the plan.
          int expected = 0;
          for (const Task& t : plan_->tasks) {
            if (t.kind == TaskKind::kAllReduce && t.collective_group == task.collective_group) {
              ++expected;
            }
          }
          if (static_cast<int>(members.size()) == expected) {
            ExecAllReduceGroup(members);
            for (const Task* member : members) {
              executed[static_cast<std::size_t>(member->id)] = true;
              --remaining;
            }
            arrived.erase(task.collective_group);
          }
          continue;
        }
        if (!TryExecute(task)) {
          break;
        }
        executed[static_cast<std::size_t>(task.id)] = true;
        --remaining;
        ++head[static_cast<std::size_t>(d)];
        progress = true;
      }
    }
  }
  HCHECK_EQ(remaining, 0) << "plan executor stalled (rendezvous or dependency deadlock)";
}

bool PlanExecutor::TryExecute(const Task& task) {
  switch (task.kind) {
    case TaskKind::kForward:
      ExecForward(task);
      return true;
    case TaskKind::kLoss:
      ExecLoss(task);
      return true;
    case TaskKind::kBackward:
      ExecBackward(task);
      return true;
    case TaskKind::kUpdate:
      ExecUpdate(task);
      return true;
    case TaskKind::kAllReduce:
      HCHECK(false) << "allreduce handled by the rendezvous path";
  }
  return false;
}

std::pair<int, int> PlanExecutor::ShardCols(int layer, int shard) const {
  const int in = config_.dims[static_cast<std::size_t>(layer)];
  const int n = num_replicas();
  return {shard * in / n, (shard + 1) * in / n};
}

void PlanExecutor::ExecForward(const Task& task) {
  const int it = task.iteration;
  const int mb = task.microbatch;
  const int r = task.replica;
  MlpParams& params = replicas_[static_cast<std::size_t>(r)];
  const Mat* x = task.layer_begin == 0
                     ? &InputActivation(it, mb, r)
                     : &acts_.at(ActKey{it, task.layer_begin, mb, r});

  if (tensor_parallel_) {
    // Row-parallel partial product over the shard's input columns; the activation
    // collective sums the partials (and applies the nonlinearity). Bias contributed by
    // shard 0 only so the sum sees it once.
    HCHECK_EQ(task.layer_end, task.layer_begin + 1) << "TP packs are single layers";
    const int l = task.layer_begin;
    const auto [c0, c1] = ShardCols(l, r);
    const Mat& w = params.weights[static_cast<std::size_t>(l)];
    const Mat& b = params.biases[static_cast<std::size_t>(l)];
    Mat partial(x->rows, w.rows);
    for (int i = 0; i < x->rows; ++i) {
      for (int o = 0; o < w.rows; ++o) {
        double sum = r == 0 ? b.at(0, o) : 0.0;
        for (int c = c0; c < c1; ++c) {
          sum += x->at(i, c) * w.at(o, c);
        }
        partial.at(i, o) = sum;
      }
    }
    acts_.insert_or_assign(ActKey{it, l + 1, mb, r}, std::move(partial));
    return;
  }

  for (int l = task.layer_begin; l < task.layer_end; ++l) {
    const bool relu = l < num_model_layers_ - 1;
    Mat y = MlpForwardLayer(params, l, *x, relu);
    auto [iter, inserted] = acts_.insert_or_assign(ActKey{it, l + 1, mb, r}, std::move(y));
    x = &iter->second;
  }
}

void PlanExecutor::ExecLoss(const Task& task) {
  const int it = task.iteration;
  const int mb = task.microbatch;
  const int r = task.replica;
  const Mat& logits = acts_.at(ActKey{it, num_model_layers_, mb, r});
  // Tensor-parallel shards all hold identical logits; count the loss once.
  double* loss_sink =
      (!tensor_parallel_ || r == 0) ? &losses_[static_cast<std::size_t>(it)] : nullptr;
  Mat grad = MlpLossGrad(logits, Target(it, mb, r), loss_sink);
  act_grads_.insert_or_assign(ActKey{it, num_model_layers_, mb, r}, std::move(grad));
}

void PlanExecutor::ExecBackward(const Task& task) {
  const int it = task.iteration;
  const int mb = task.microbatch;
  const int r = task.replica;
  MlpParams& params = replicas_[static_cast<std::size_t>(r)];
  Mat dy = std::move(act_grads_.at(ActKey{it, task.layer_end, mb, r}));
  act_grads_.erase(ActKey{it, task.layer_end, mb, r});

  if (tensor_parallel_) {
    // Shard-masked backward: full-size dW / dX buffers that are zero outside the shard's
    // columns, so the sum-collective reconstructs the dense result exactly.
    HCHECK_EQ(task.layer_end, task.layer_begin + 1);
    const int l = task.layer_begin;
    const auto [c0, c1] = ShardCols(l, r);
    const bool relu = l < num_model_layers_ - 1;
    const Mat& x = l == 0 ? InputActivation(it, mb, r) : acts_.at(ActKey{it, l, mb, r});
    const Mat& y = acts_.at(ActKey{it, l + 1, mb, r});
    const Mat& w = params.weights[static_cast<std::size_t>(l)];

    Mat dz = dy;
    if (relu) {
      for (std::size_t i = 0; i < dz.v.size(); ++i) {
        if (y.v[i] <= 0.0) {
          dz.v[i] = 0.0;
        }
      }
    }
    GradBuffer& buffer = grads_[GradKey{it, l, r}];
    if (buffer.dw.empty()) {
      buffer.dw = Mat(w.rows, w.cols);
      buffer.db = Mat(1, w.rows);
    }
    for (int o = 0; o < w.rows; ++o) {
      for (int i = 0; i < dz.rows; ++i) {
        const double g = dz.at(i, o);
        if (r == 0) {
          buffer.db.at(0, o) += g;
        }
        for (int c = c0; c < c1; ++c) {
          buffer.dw.at(o, c) += g * x.at(i, c);
        }
      }
    }
    if (l > 0) {
      Mat dx(x.rows, x.cols);  // zero outside [c0, c1)
      for (int i = 0; i < dz.rows; ++i) {
        for (int c = c0; c < c1; ++c) {
          double sum = 0.0;
          for (int o = 0; o < w.rows; ++o) {
            sum += dz.at(i, o) * w.at(o, c);
          }
          dx.at(i, c) = sum;
        }
      }
      act_grads_.insert_or_assign(ActKey{it, l, mb, r}, std::move(dx));
    }
    return;
  }

  for (int l = task.layer_end - 1; l >= task.layer_begin; --l) {
    const bool relu = l < num_model_layers_ - 1;
    const Mat& x = l == 0 ? InputActivation(it, mb, r) : acts_.at(ActKey{it, l, mb, r});
    const Mat& y = acts_.at(ActKey{it, l + 1, mb, r});
    LayerGrads grads = MlpBackwardLayer(params, l, x, y, dy, relu);
    GradBuffer& buffer = grads_[GradKey{it, l, r}];
    if (buffer.dw.empty()) {
      buffer.dw = std::move(grads.dw);
      buffer.db = std::move(grads.db);
    } else {
      AddInPlace(buffer.dw, grads.dw);
      AddInPlace(buffer.db, grads.db);
    }
    dy = std::move(grads.dx);
  }
  if (task.layer_begin > 0) {
    act_grads_.insert_or_assign(ActKey{it, task.layer_begin, mb, r}, std::move(dy));
  }
}

void PlanExecutor::ExecUpdate(const Task& task) {
  const int it = task.iteration;
  const int r = task.replica;
  MlpParams& params = replicas_[static_cast<std::size_t>(r)];
  for (int l = task.layer_begin; l < task.layer_end; ++l) {
    GradBuffer& buffer = grads_.at(GradKey{it, l, r});
    MlpApplyUpdate(params, l, buffer.dw, buffer.db, config_.lr,
                   plan_->samples_per_iteration, config_.momentum);
    grads_.erase(GradKey{it, l, r});
  }
}

void PlanExecutor::ExecAllReduceGroup(const std::vector<const Task*>& members) {
  HCHECK(!members.empty());
  const Task& first = *members.front();
  const int it = first.iteration;

  if (first.collective_data != Task::CollectiveData::kWeightGrad) {
    // Activation (or activation-gradient) collective: sum the shards' full-size partials
    // and hand every shard the reduced copy. The forward reduction also applies the
    // nonlinearity the partial sums had to skip.
    const bool is_grad = first.collective_data == Task::CollectiveData::kActivationGrad;
    const int layer = first.layer_begin;
    const int mb = first.microbatch;
    auto& store = is_grad ? act_grads_ : acts_;
    std::vector<const Task*> sorted = members;
    std::sort(sorted.begin(), sorted.end(),
              [](const Task* a, const Task* b) { return a->replica < b->replica; });
    Mat sum;
    for (const Task* member : sorted) {
      const Mat& partial = store.at(ActKey{it, layer, mb, member->replica});
      if (sum.empty()) {
        sum = partial;
      } else {
        AddInPlace(sum, partial);
      }
    }
    if (!is_grad && layer < num_model_layers_) {
      for (double& v : sum.v) {
        if (v < 0.0) {
          v = 0.0;
        }
      }
    }
    for (const Task* member : sorted) {
      store.insert_or_assign(ActKey{it, layer, mb, member->replica}, sum);
    }
    return;
  }
  for (int l = first.layer_begin; l < first.layer_end; ++l) {
    // Deterministic reduction order: ascending replica.
    std::vector<const Task*> sorted = members;
    std::sort(sorted.begin(), sorted.end(),
              [](const Task* a, const Task* b) { return a->replica < b->replica; });
    Mat sum_dw, sum_db;
    for (const Task* member : sorted) {
      const GradBuffer& buffer = grads_.at(GradKey{it, l, member->replica});
      if (sum_dw.empty()) {
        sum_dw = buffer.dw;
        sum_db = buffer.db;
      } else {
        AddInPlace(sum_dw, buffer.dw);
        AddInPlace(sum_db, buffer.db);
      }
    }
    for (const Task* member : sorted) {
      GradBuffer& buffer = grads_.at(GradKey{it, l, member->replica});
      buffer.dw = sum_dw;
      buffer.db = sum_db;
    }
  }
}

MlpParams PlanExecutor::AssembleShardedParams() const {
  HCHECK(tensor_parallel_);
  MlpParams assembled = replicas_[0];
  for (int l = 0; l < num_model_layers_; ++l) {
    for (int r = 1; r < num_replicas(); ++r) {
      const auto [c0, c1] = ShardCols(l, r);
      const Mat& shard = replicas_[static_cast<std::size_t>(r)].weights[static_cast<std::size_t>(l)];
      Mat& w = assembled.weights[static_cast<std::size_t>(l)];
      for (int o = 0; o < w.rows; ++o) {
        for (int c = c0; c < c1; ++c) {
          w.at(o, c) = shard.at(o, c);
        }
      }
    }
  }
  return assembled;
}

}  // namespace harmony

