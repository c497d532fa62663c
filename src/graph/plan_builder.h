// PlanBuilder: the Task Decomposer (Fig. 3, left box).
//
// Splits model-wise operations into fine-grained tasks — forward / backward / update over a
// layer pack [layer_begin, layer_end) and one microbatch — creates every tensor each task
// touches (weights, gradient buffers, optimizer state, boundary activations, internal
// stashes, activation gradients), and records precise working sets and lifetimes. Schedulers
// (baseline and Harmony) differ only in which tasks they emit, in what per-device order, and
// with which memory policy; the decomposition logic lives here once.
//
// Tensor lifetime rules encoded by the builder (Fig. 5(a) of the paper):
//   FWD  in: X[lb], W[lb..le)            out: X[lb+1..le], stashes
//   LOSS in: X[R]                        out: dX[R]             frees X[R]
//   BWD  in: X,S,W of the pack, dX[le]   out: dX[lb], dW+=      frees X, S, dX[le]
//   UPD  in: W, dW, K                    out: W', K'            frees dW ("reset dW'")
//
// With `recompute` enabled, forward keeps only the pack's boundary activation and backward
// re-runs the pack's forward math (Chen et al. sublinear-memory training), trading FLOPs and
// scratch for stash memory — the knob discussed in the paper's "memory-performance tango".
#ifndef HARMONY_SRC_GRAPH_PLAN_BUILDER_H_
#define HARMONY_SRC_GRAPH_PLAN_BUILDER_H_

#include <array>
#include <string>
#include <vector>

#include "src/graph/model.h"
#include "src/graph/task.h"
#include "src/hw/topology.h"
#include "src/mem/tensor.h"
#include "src/util/status.h"

namespace harmony {

struct DecomposerOptions {
  // Weight replicas: N for data parallelism, 1 for pipeline parallelism. Under intra-op
  // (tensor-parallel) splitting the "replica" index doubles as the shard index.
  int num_replicas = 1;
  // Microbatches per replica (DP) or in the whole minibatch (PP).
  int microbatches = 1;
  int microbatch_size = 1;
  int iterations = 1;
  bool recompute = false;
  // Intra-op splitting (the paper's second key idea: "decompose individual operations —
  // such as a matrix multiplication — into subtasks that can run on different physical
  // devices"). Each replica index then holds 1/weight_shards of every layer's weights,
  // gradients and optimizer state, and compute tasks carry 1/weight_shards of the FLOPs;
  // activations stay full-size per shard (row-parallel partials reduced by collectives).
  int weight_shards = 1;
};

// Validates user-reachable decomposition parameters with actionable messages. The
// PlanBuilder constructor still enforces the same conditions fatally (internal-invariant
// style); front ends route configuration through this first so a bad flag value surfaces
// as a Status, not a crash.
Status ValidateDecomposerOptions(int num_devices, const DecomposerOptions& options);

// Stamps the plan's two-level (node) group structure from the machine topology: fills
// Plan::device_node with each device's server index and Task::collective_node on every
// collective participant. No-op on single-server topologies, so single-node plans stay
// byte-identical to pre-cluster builds. Called by BuildPlanForConfig after the scheduler
// emits the plan; the hierarchical CollectiveEngine path and plan_lint's hierarchical
// checks both key on the annotation.
void AnnotateClusterStructure(Plan* plan, const Topology& topology);

class PlanBuilder {
 public:
  PlanBuilder(const Model* model, TensorRegistry* registry, int num_devices,
              DecomposerOptions options);

  // Tasks added after this call belong to iteration `iter`; per-iteration tensors
  // (activations, gradients) are distinct across iterations, persistent state (W, K) is not.
  void BeginIteration(int iter) { iteration_ = iter; }

  // ---- tensors (created lazily on first use) ----
  TensorId Weight(int layer, int replica);
  TensorId OptState(int layer, int replica);  // kInvalidTensor when the optimizer is stateless
  TensorId WeightGrad(int layer, int replica);
  TensorId Activation(int layer, int microbatch, int replica);  // X[0..R]
  TensorId ActGrad(int layer, int microbatch, int replica);     // dX[1..R]
  TensorId Stash(int layer, int microbatch, int replica);       // kInvalidTensor if stashless

  // ---- tasks; each call appends to `device`'s execution queue in call order ----
  TaskId AddForward(int device, int layer_begin, int layer_end, int microbatch, int replica,
                    std::vector<TaskId> deps);
  TaskId AddLoss(int device, int microbatch, int replica, std::vector<TaskId> deps);
  TaskId AddBackward(int device, int layer_begin, int layer_end, int microbatch, int replica,
                     std::vector<TaskId> deps);
  TaskId AddUpdate(int device, int layer_begin, int layer_end, int replica,
                   std::vector<TaskId> deps);
  TaskId AddAllReduce(int device, int layer_begin, int layer_end, int replica, int group,
                      std::vector<TaskId> deps);

  // Activation collective for intra-op splitting: reduces the row-parallel partial outputs
  // X[layer] (or partial input gradients dX[layer] when `grad`) of one microbatch across
  // shards. One task per shard, rendezvousing via `group`.
  TaskId AddActivationAllReduce(int device, int layer, int microbatch, int replica, bool grad,
                                int group, std::vector<TaskId> deps);

  // Wires an extra dependency after both tasks exist (needed when queue emission order
  // differs from dependency order, e.g. 1F1B backward edges pointing at later stages).
  // Lands after the task's own deps, in call order, when Finish folds it in.
  void AddDep(TaskId task, TaskId dep);

  // Appends `tensor` to `task`'s free list: its lifetime ends when the task completes.
  // Lets plan shapes whose consumers differ from the builder's built-in lifetime rules
  // (e.g. forward-only serving pipelines, where the consumer stage owns its input
  // activation) encode explicit frees without a backward pass. Ordered like AddDep.
  void FreeAfter(TaskId task, TensorId tensor);

  const Model& model() const { return *model_; }
  const DecomposerOptions& options() const { return options_; }
  int num_layers() const { return model_->num_layers(); }

  Plan Finish(std::string scheme);

 private:
  // Dense TensorId table over (iteration, layer, microbatch, replica); kInvalidTensor until
  // the tensor's first use. Tables that do not vary along an axis give it extent 1.
  struct TensorTable {
    void Resize(int iterations, int layers, int microbatches, int replicas);
    TensorId& at(int iteration, int layer, int microbatch, int replica);

    std::array<int, 4> extent = {};
    std::vector<TensorId> ids;
  };

  // A list entry for a task older than the newest, folded in by Finish.
  struct LateEntry {
    TaskList list;
    TaskId task;
    int id;
  };

  // Appends the task (with `deps`) and returns it; list entries then go to it via
  // plan_.Append until the next NewTask.
  Task& NewTask(TaskKind kind, int device, int layer_begin, int layer_end, int microbatch,
                int replica, const std::vector<TaskId>& deps);
  void AppendTo(TaskId task, TaskList list, int id);
  Bytes ActBytes(int layer) const;
  Bytes ShardBytes(Bytes bytes) const;
  double ShardFlops(double flops) const;

  const Model* model_;
  TensorRegistry* registry_;
  DecomposerOptions options_;
  int iteration_ = 0;
  Plan plan_;
  std::vector<LateEntry> late_;

  TensorTable weights_;     // (layer, replica)
  TensorTable opt_states_;  // (layer, replica)
  TensorTable grads_;       // (iteration, layer, replica)
  TensorTable acts_;        // (iteration, layer 0..R, microbatch, replica)
  TensorTable act_grads_;   // (iteration, layer 1..R, microbatch, replica)
  TensorTable stashes_;     // (iteration, layer, microbatch, replica)
};

// ---- inference serving (Computron-style model-parallel swapping; DESIGN.md §13) ----
//
// A serving plan is a forward-only pipeline: layers are partitioned into one
// compute-balanced contiguous stage per GPU, and each request batch flows swap-in →
// forward → swap-out. "Swap-in" is the ordinary first-touch (or post-eviction) weight
// fetch from host memory; "swap-out" is a *clean drop* — serving never dirties weights, so
// evicting a cold model's stage writes nothing back, which is exactly what lets many
// models time-share a small GPU pool. Stages run stashless (recompute-style decomposition:
// only boundary activations materialize); the consumer stage frees its input activation
// once consumed, and the last stage frees the logits it produced (the response leaves the
// simulated machine).
struct ServingPlanOptions {
  int requests = 1;    // pipeline wavefronts; maps to Plan::num_iterations for SLO stats
  int batches = 1;     // request batches pipelined per wavefront
  int batch_size = 1;  // samples per batch
};

Plan BuildServingPlan(const Model& model, const Machine& machine, TensorRegistry* registry,
                      const ServingPlanOptions& options);

}  // namespace harmony

#endif  // HARMONY_SRC_GRAPH_PLAN_BUILDER_H_
