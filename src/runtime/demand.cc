#include "src/runtime/demand.h"

#include <algorithm>
#include <map>

#include "src/util/check.h"

namespace harmony {

std::vector<Bytes> ComputeMemoryDemand(const Plan& plan, const TensorRegistry& registry) {
  const int n = static_cast<int>(plan.tasks.size());
  const int D = plan.num_devices();
  std::vector<bool> executed(static_cast<std::size_t>(n), false);
  std::vector<std::size_t> head(static_cast<std::size_t>(D), 0);

  // Device each live tensor sits on, -1 while not live.
  std::vector<int> home(static_cast<std::size_t>(registry.size()), -1);
  std::vector<Bytes> live(static_cast<std::size_t>(D), 0);
  std::vector<Bytes> peak(static_cast<std::size_t>(D), 0);

  auto deps_met = [&](const Task& task) {
    for (TaskId dep : plan.deps(task.id)) {
      if (!executed[static_cast<std::size_t>(dep)]) {
        return false;
      }
    }
    return true;
  };

  auto touch = [&](TensorId id, int device) {
    const Bytes bytes = registry.meta(id).bytes;
    int& where = home[static_cast<std::size_t>(id)];
    if (where < 0) {
      live[static_cast<std::size_t>(device)] += bytes;
    } else if (where != device) {
      live[static_cast<std::size_t>(where)] -= bytes;
      live[static_cast<std::size_t>(device)] += bytes;
    }
    where = device;
  };

  // All-reduce rendezvous bookkeeping mirrors the numeric executor.
  std::map<int, std::vector<const Task*>> arrived;
  std::map<int, int> group_size;
  for (const Task& task : plan.tasks) {
    if (task.kind == TaskKind::kAllReduce) {
      ++group_size[task.collective_group];
    }
  }

  auto run_task = [&](const Task& task) {
    const int d = task.device;
    for (TaskList which : kWorkingSetLists) {
      for (TensorId id : plan.list(which, task.id)) {
        touch(id, d);
      }
    }
    peak[static_cast<std::size_t>(d)] =
        std::max(peak[static_cast<std::size_t>(d)],
                 live[static_cast<std::size_t>(d)] + task.scratch_bytes);
    for (TensorId id : plan.free_after(task.id)) {
      int& where = home[static_cast<std::size_t>(id)];
      HCHECK_GE(where, 0);
      live[static_cast<std::size_t>(where)] -= registry.meta(id).bytes;
      where = -1;
    }
    executed[static_cast<std::size_t>(task.id)] = true;
  };

  int remaining = n;
  bool progress = true;
  while (remaining > 0 && progress) {
    progress = false;
    for (int d = 0; d < D; ++d) {
      const auto& order = plan.per_device_order[static_cast<std::size_t>(d)];
      while (head[static_cast<std::size_t>(d)] < order.size()) {
        const Task& task =
            plan.tasks[static_cast<std::size_t>(order[head[static_cast<std::size_t>(d)]])];
        if (!deps_met(task)) {
          break;
        }
        if (task.kind == TaskKind::kAllReduce) {
          auto& members = arrived[task.collective_group];
          members.push_back(&task);
          ++head[static_cast<std::size_t>(d)];
          progress = true;
          if (static_cast<int>(members.size()) == group_size.at(task.collective_group)) {
            for (const Task* member : members) {
              run_task(*member);
              --remaining;
            }
            arrived.erase(task.collective_group);
          }
          continue;
        }
        run_task(task);
        --remaining;
        ++head[static_cast<std::size_t>(d)];
        progress = true;
      }
    }
  }
  HCHECK_EQ(remaining, 0) << "demand analysis stalled on plan " << plan.scheme;
  return peak;
}

}  // namespace harmony
