// Task IR: the unit of scheduling in Harmony.
//
// The Task Decomposer splits a training iteration into fine-grained tasks — forward,
// backward, and weight update per (layer pack, microbatch) — exactly as in Fig. 3 of the
// paper. A Plan binds tasks to devices with an explicit per-device execution order plus
// cross-device dependency edges; the runtime engine executes Plans against the simulated
// machine, and the numeric substrate can replay the same Plan with real math.
#ifndef HARMONY_SRC_GRAPH_TASK_H_
#define HARMONY_SRC_GRAPH_TASK_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "src/mem/memory_manager.h"
#include "src/mem/tensor.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace harmony {

using TaskId = int;
inline constexpr TaskId kInvalidTask = -1;

enum class TaskKind {
  kForward,
  kLoss,      // loss + output-gradient computation (virtual layer after the last layer)
  kBackward,
  kUpdate,
  kAllReduce,  // data-parallel gradient reduction (rendezvous across replicas)
};

const char* TaskKindName(TaskKind kind);

// A task's scalars. Its id lists (deps and the working set) live in its Plan's flat
// storage, so a Task owns no heap memory.
struct Task {
  TaskId id = kInvalidTask;
  TaskKind kind = TaskKind::kForward;
  int device = -1;
  int iteration = 0;

  // Layer pack [layer_begin, layer_end); for kLoss both equal num_layers.
  int layer_begin = 0;
  int layer_end = 0;
  // Microbatch this instance operates on; -1 for per-model tasks (update, allreduce).
  int microbatch = -1;
  // Data-parallel replica index; 0 when weights are not replicated.
  int replica = 0;

  double flops = 0.0;      // compute cost; duration = flops / device effective FLOP/s
  Bytes scratch_bytes = 0;  // transient workspace, part of the working set

  // kAllReduce: tasks sharing a group rendezvous and move `collective_bytes` per device
  // around the ring. `collective_data` records what is being reduced so semantic replay
  // (numeric::PlanExecutor) can apply the right math; the timing engine ignores it.
  enum class CollectiveData { kWeightGrad, kActivation, kActivationGrad };
  int collective_group = -1;
  Bytes collective_bytes = 0;
  CollectiveData collective_data = CollectiveData::kWeightGrad;
  // Server (node) this collective participant lives on in a multi-node plan; -1 in
  // single-node plans. Stamped by AnnotateClusterStructure; must agree with
  // Plan::device_node[device] (the hierarchical lint's crossed-rendezvous check).
  int collective_node = -1;

  std::string DebugName() const;
};

static_assert(std::is_trivially_copyable_v<Task>, "a plan's tasks hold no heap memory");

// The six per-task id lists.
enum class TaskList {
  kDeps,        // tasks that must complete first (TaskIds; the rest hold TensorIds)
  kFetch,       // working set: must arrive with valid contents
  kAccumulate,  // working set: fetch if a copy exists anywhere, else zero-init here
  kAllocate,    // working set: outputs, fresh device allocation
  kDirty,       // marked dirty on completion
  kFreeAfter,   // freed on completion (end of lifetime)
};
inline constexpr int kNumTaskLists = 6;
// The lists a task's working set is made of (what it pins while it runs).
inline constexpr std::array<TaskList, 3> kWorkingSetLists = {
    TaskList::kFetch, TaskList::kAccumulate, TaskList::kAllocate};

// "dep list", "fetch list", ... (lint and validation messages).
const char* TaskListName(TaskList list);

// One list for every task of a plan, stored flat (CSR): task t's entries are
// ids[offsets[t], offsets[t + 1]). Well formed, it has one offset more than the plan has
// tasks, starts at 0, never decreases and ends at ids.size() (Plan::CheckListShape).
struct IdColumn {
  std::vector<std::uint32_t> offsets = {0};
  std::vector<int> ids;
};

struct Plan {
  std::string scheme;  // e.g. "baseline-dp", "harmony-pp"
  std::vector<Task> tasks;
  std::array<IdColumn, kNumTaskLists> lists;  // indexed by TaskList
  std::vector<std::vector<TaskId>> per_device_order;
  int num_iterations = 1;
  int microbatch_size = 1;
  // Samples consumed per iteration (for throughput reporting).
  int samples_per_iteration = 0;
  // Two-level group structure for multi-node plans: device_node[d] = dense server index of
  // device d (Topology::ServerOfGpu). Empty for single-node plans, keeping them
  // byte-identical to pre-cluster builds. Stamped by AnnotateClusterStructure.
  std::vector<int> device_node;

  int num_devices() const { return static_cast<int>(per_device_order.size()); }

  // Task t's entries in one list. The span points into `lists`: it is valid until the
  // next change to them, and only on a plan whose list shape is sound.
  std::span<const int> list(TaskList which, TaskId t) const {
    const IdColumn& column = lists[static_cast<std::size_t>(which)];
    const std::size_t begin = column.offsets[static_cast<std::size_t>(t)];
    const std::size_t end = column.offsets[static_cast<std::size_t>(t) + 1];
    return {column.ids.data() + begin, end - begin};
  }
  std::span<const TaskId> deps(TaskId t) const { return list(TaskList::kDeps, t); }
  std::span<const TensorId> fetch(TaskId t) const { return list(TaskList::kFetch, t); }
  std::span<const TensorId> accumulate(TaskId t) const {
    return list(TaskList::kAccumulate, t);
  }
  std::span<const TensorId> allocate(TaskId t) const { return list(TaskList::kAllocate, t); }
  std::span<const TensorId> dirty_outputs(TaskId t) const { return list(TaskList::kDirty, t); }
  std::span<const TensorId> free_after(TaskId t) const { return list(TaskList::kFreeAfter, t); }

  // An owning copy of task t's working set, for MemoryManager::Acquire.
  WorkingSet working_set(TaskId t) const;

  // Appends `task` with empty lists, renumbered to the next id, and returns that id.
  TaskId AddTask(Task task);
  // Appends `id` to the newest task's `which` list.
  void Append(TaskList which, int id);

  // The flat lists' shape (see IdColumn); every reader of a list relies on it.
  Status CheckListShape() const;

  // Structural validation: list shape sound, ids consistent, every task appears exactly
  // once in exactly one device order, deps reference existing tasks, the dependency graph
  // plus per-device order is acyclic, and every collective group has one task per
  // participating device.
  Status Validate() const;

  // Largest single-task working set per device; must fit in device memory for the plan to
  // be executable.
  std::vector<Bytes> PeakTaskWorkingSet(const TensorRegistry& registry) const;

  std::string Stats() const;
};

}  // namespace harmony

#endif  // HARMONY_SRC_GRAPH_TASK_H_
