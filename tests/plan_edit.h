// Test-only edits to a built Plan's flat per-task lists (src/graph/task.h).
//
// PlanBuilder only ever appends to the newest task. Tests that corrupt a plan, or splice a
// task out of it, edit through these helpers instead: they unpack one list into a vector
// per task, change it, and pack it back, so every other task keeps its entries in order.
#ifndef HARMONY_TESTS_PLAN_EDIT_H_
#define HARMONY_TESTS_PLAN_EDIT_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/graph/task.h"

namespace harmony {

// Every task's entries in `which`, one vector per task.
inline std::vector<std::vector<int>> UnpackList(const Plan& plan, TaskList which) {
  std::vector<std::vector<int>> lists;
  lists.reserve(plan.tasks.size());
  for (std::size_t t = 0; t < plan.tasks.size(); ++t) {
    const std::span<const int> ids = plan.list(which, static_cast<TaskId>(t));
    lists.emplace_back(ids.begin(), ids.end());
  }
  return lists;
}

// Replaces all of `which` with one vector per task.
inline void PackList(Plan* plan, TaskList which, const std::vector<std::vector<int>>& lists) {
  IdColumn column;
  for (const std::vector<int>& ids : lists) {
    column.ids.insert(column.ids.end(), ids.begin(), ids.end());
    column.offsets.push_back(static_cast<std::uint32_t>(column.ids.size()));
  }
  plan->lists[static_cast<std::size_t>(which)] = std::move(column);
}

// Replaces task t's entries in `which`.
inline void SetList(Plan* plan, TaskList which, TaskId t, std::vector<int> ids) {
  std::vector<std::vector<int>> lists = UnpackList(*plan, which);
  lists[static_cast<std::size_t>(t)] = std::move(ids);
  PackList(plan, which, lists);
}

// Splices task `victim` out of the plan: its dependents inherit its dependencies, later
// ids shift down by one, and every other task keeps its lists. The result stays
// structurally valid; only what the victim did (say, one collective rank) is gone.
inline void DropTask(Plan* plan, TaskId victim) {
  const std::size_t slot = static_cast<std::size_t>(victim);
  std::array<std::vector<std::vector<int>>, kNumTaskLists> lists;
  for (int l = 0; l < kNumTaskLists; ++l) {
    lists[static_cast<std::size_t>(l)] = UnpackList(*plan, static_cast<TaskList>(l));
  }
  std::vector<std::vector<int>>& deps = lists[static_cast<std::size_t>(TaskList::kDeps)];
  const std::vector<TaskId> victim_deps = deps[slot];
  for (std::size_t t = 0; t < deps.size(); ++t) {
    std::vector<TaskId>& own = deps[t];
    const auto it = std::find(own.begin(), own.end(), victim);
    if (it == own.end()) {
      continue;
    }
    own.erase(it);
    for (TaskId inherited : victim_deps) {
      if (inherited != static_cast<TaskId>(t) &&
          std::find(own.begin(), own.end(), inherited) == own.end()) {
        own.push_back(inherited);
      }
    }
  }
  auto& queue = plan->per_device_order[static_cast<std::size_t>(plan->tasks[slot].device)];
  queue.erase(std::find(queue.begin(), queue.end(), victim));
  plan->tasks.erase(plan->tasks.begin() + static_cast<std::ptrdiff_t>(victim));
  for (std::vector<std::vector<int>>& list : lists) {
    list.erase(list.begin() + static_cast<std::ptrdiff_t>(victim));
  }
  auto renumber = [victim](TaskId id) { return id > victim ? id - 1 : id; };
  for (Task& t : plan->tasks) {
    t.id = renumber(t.id);
  }
  for (std::vector<TaskId>& own : deps) {
    for (TaskId& dep : own) {
      dep = renumber(dep);
    }
  }
  for (auto& order : plan->per_device_order) {
    for (TaskId& id : order) {
      id = renumber(id);
    }
  }
  for (int l = 0; l < kNumTaskLists; ++l) {
    PackList(plan, static_cast<TaskList>(l), lists[static_cast<std::size_t>(l)]);
  }
}

}  // namespace harmony

#endif  // HARMONY_TESTS_PLAN_EDIT_H_
