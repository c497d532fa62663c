#include "src/graph/task.h"

#include <algorithm>
#include <limits>
#include <map>
#include <queue>
#include <sstream>

#include "src/util/check.h"

namespace harmony {

const char* TaskKindName(TaskKind kind) {
  switch (kind) {
    case TaskKind::kForward:
      return "FWD";
    case TaskKind::kLoss:
      return "LOSS";
    case TaskKind::kBackward:
      return "BWD";
    case TaskKind::kUpdate:
      return "UPD";
    case TaskKind::kAllReduce:
      return "AR";
  }
  return "?";
}

std::string Task::DebugName() const {
  std::ostringstream os;
  os << TaskKindName(kind) << "[L" << layer_begin;
  if (layer_end > layer_begin + 1) {
    os << "-L" << layer_end - 1;
  }
  os << "]";
  if (microbatch >= 0) {
    os << " mb" << microbatch;
  }
  os << " r" << replica << " it" << iteration << " @gpu" << device;
  return os.str();
}

const char* TaskListName(TaskList list) {
  static constexpr std::array<const char*, kNumTaskLists> kNames = {
      "dep list",      "fetch list",        "accumulate list",
      "allocate list", "dirty-output list", "free-after list"};
  return kNames[static_cast<std::size_t>(list)];
}

WorkingSet Plan::working_set(TaskId t) const {
  WorkingSet set;
  const auto copy = [&](TaskList which, std::vector<TensorId>* out) {
    const std::span<const int> ids = list(which, t);
    out->assign(ids.begin(), ids.end());
  };
  copy(TaskList::kFetch, &set.fetch);
  copy(TaskList::kAccumulate, &set.accumulate);
  copy(TaskList::kAllocate, &set.allocate);
  set.scratch_bytes = tasks[static_cast<std::size_t>(t)].scratch_bytes;
  return set;
}

TaskId Plan::AddTask(Task task) {
  task.id = static_cast<TaskId>(tasks.size());
  tasks.push_back(task);
  for (IdColumn& column : lists) {
    column.offsets.push_back(column.offsets.back());
  }
  return task.id;
}

void Plan::Append(TaskList which, int id) {
  IdColumn& column = lists[static_cast<std::size_t>(which)];
  HCHECK_LT(column.ids.size(), std::size_t{std::numeric_limits<std::uint32_t>::max()})
      << TaskListName(which) << " outgrew its 32-bit offsets";
  column.ids.push_back(id);
  column.offsets.back() = static_cast<std::uint32_t>(column.ids.size());
}

Status Plan::CheckListShape() const {
  for (int l = 0; l < kNumTaskLists; ++l) {
    const IdColumn& column = lists[static_cast<std::size_t>(l)];
    const std::vector<std::uint32_t>& offsets = column.offsets;
    if (offsets.size() != tasks.size() + 1 || offsets.front() != 0 ||
        offsets.back() != column.ids.size() ||
        !std::is_sorted(offsets.begin(), offsets.end())) {
      return InternalError(std::string(TaskListName(static_cast<TaskList>(l))) +
                           " is not one run per task: its " + std::to_string(offsets.size()) +
                           " offsets for " + std::to_string(tasks.size()) + " tasks and " +
                           std::to_string(column.ids.size()) +
                           " ids must start at 0, never decrease and end at the id count");
    }
  }
  return Status::Ok();
}

Status Plan::Validate() const {
  HARMONY_RETURN_IF_ERROR(CheckListShape());
  const int n = static_cast<int>(tasks.size());
  for (int i = 0; i < n; ++i) {
    if (tasks[static_cast<std::size_t>(i)].id != i) {
      return InternalError("task id mismatch at index " + std::to_string(i));
    }
  }

  // Every task appears exactly once in its device's order.
  std::vector<int> seen(static_cast<std::size_t>(n), 0);
  for (int d = 0; d < num_devices(); ++d) {
    for (TaskId t : per_device_order[static_cast<std::size_t>(d)]) {
      if (t < 0 || t >= n) {
        return InternalError("device order references unknown task " + std::to_string(t));
      }
      if (tasks[static_cast<std::size_t>(t)].device != d) {
        return InternalError("task " + tasks[static_cast<std::size_t>(t)].DebugName() +
                             " queued on device " + std::to_string(d));
      }
      if (++seen[static_cast<std::size_t>(t)] > 1) {
        return InternalError("task " + std::to_string(t) + " queued twice");
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    if (seen[static_cast<std::size_t>(i)] != 1) {
      return InternalError("task " + tasks[static_cast<std::size_t>(i)].DebugName() +
                           " not queued on any device");
    }
  }

  // Acyclicity of deps + per-device order (Kahn's algorithm over the combined edges).
  std::vector<std::vector<TaskId>> out(static_cast<std::size_t>(n));
  std::vector<int> indegree(static_cast<std::size_t>(n), 0);
  auto add_edge = [&](TaskId from, TaskId to) {
    out[static_cast<std::size_t>(from)].push_back(to);
    ++indegree[static_cast<std::size_t>(to)];
  };
  for (const Task& task : tasks) {
    for (TaskId dep : deps(task.id)) {
      if (dep < 0 || dep >= n) {
        return InternalError("task " + task.DebugName() + " has unknown dep " +
                             std::to_string(dep));
      }
      add_edge(dep, task.id);
    }
  }
  for (const auto& order : per_device_order) {
    for (std::size_t i = 1; i < order.size(); ++i) {
      add_edge(order[i - 1], order[i]);
    }
  }
  std::queue<TaskId> ready;
  for (int i = 0; i < n; ++i) {
    if (indegree[static_cast<std::size_t>(i)] == 0) {
      ready.push(i);
    }
  }
  int processed = 0;
  while (!ready.empty()) {
    const TaskId t = ready.front();
    ready.pop();
    ++processed;
    for (TaskId next : out[static_cast<std::size_t>(t)]) {
      if (--indegree[static_cast<std::size_t>(next)] == 0) {
        ready.push(next);
      }
    }
  }
  if (processed != n) {
    return InternalError("plan has a dependency cycle (" + std::to_string(n - processed) +
                         " tasks unreachable)");
  }

  // Collective groups: all members share byte count and have distinct devices.
  std::map<int, std::vector<const Task*>> groups;
  for (const Task& task : tasks) {
    if (task.kind == TaskKind::kAllReduce) {
      if (task.collective_group < 0) {
        return InternalError("allreduce task without a group: " + task.DebugName());
      }
      groups[task.collective_group].push_back(&task);
    }
  }
  for (const auto& [group, members] : groups) {
    std::vector<int> devices;
    for (const Task* task : members) {
      devices.push_back(task->device);
      if (task->collective_bytes != members.front()->collective_bytes) {
        return InternalError("collective group " + std::to_string(group) +
                             " has mismatched byte counts");
      }
    }
    std::sort(devices.begin(), devices.end());
    if (std::adjacent_find(devices.begin(), devices.end()) != devices.end()) {
      return InternalError("collective group " + std::to_string(group) +
                           " has two members on one device");
    }
  }
  return Status::Ok();
}

std::vector<Bytes> Plan::PeakTaskWorkingSet(const TensorRegistry& registry) const {
  std::vector<Bytes> peak(static_cast<std::size_t>(num_devices()), 0);
  for (const Task& task : tasks) {
    Bytes total = task.scratch_bytes;
    for (TaskList which : kWorkingSetLists) {
      for (TensorId id : list(which, task.id)) {
        total += registry.meta(id).bytes;
      }
    }
    auto& slot = peak[static_cast<std::size_t>(task.device)];
    slot = std::max(slot, total);
  }
  return peak;
}

std::string Plan::Stats() const {
  int counts[5] = {};
  for (const Task& task : tasks) {
    ++counts[static_cast<int>(task.kind)];
  }
  std::ostringstream os;
  os << "plan " << scheme << ": " << tasks.size() << " tasks over " << num_devices()
     << " devices, " << num_iterations << " iteration(s) ("
     << counts[static_cast<int>(TaskKind::kForward)] << " fwd, "
     << counts[static_cast<int>(TaskKind::kLoss)] << " loss, "
     << counts[static_cast<int>(TaskKind::kBackward)] << " bwd, "
     << counts[static_cast<int>(TaskKind::kUpdate)] << " upd, "
     << counts[static_cast<int>(TaskKind::kAllReduce)] << " allreduce)";
  return os.str();
}

}  // namespace harmony
