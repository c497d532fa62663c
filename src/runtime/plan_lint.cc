#include "src/runtime/plan_lint.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <sstream>
#include <utility>

#include "src/util/json.h"

namespace harmony {

const char* LintCheckName(LintCheck check) {
  switch (check) {
    case LintCheck::kStructure:
      return "structure";
    case LintCheck::kDanglingReference:
      return "dangling-reference";
    case LintCheck::kPinBalance:
      return "pin-balance";
    case LintCheck::kCollective:
      return "collective";
    case LintCheck::kHierarchical:
      return "hierarchical";
    case LintCheck::kFeasibility:
      return "feasibility";
    case LintCheck::kCrossDeviceHazard:
      return "cross-device-hazard";
    case LintCheck::kLifetime:
      return "lifetime";
    case LintCheck::kStaleWeightRead:
      return "stale-weight-read";
  }
  return "?";
}

const char* LintSeverityName(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::kError:
      return "error";
    case LintSeverity::kWarning:
      return "warning";
  }
  return "?";
}

int LintReport::num_errors() const {
  int n = 0;
  for (const LintFinding& f : findings) {
    n += f.severity == LintSeverity::kError ? 1 : 0;
  }
  return n;
}

int LintReport::num_warnings() const {
  int n = 0;
  for (const LintFinding& f : findings) {
    n += f.severity == LintSeverity::kWarning ? 1 : 0;
  }
  return n;
}

std::string LintReport::Render() const {
  std::ostringstream os;
  os << "plan lint [" << scheme << "]: " << num_tasks << " tasks, " << num_devices
     << " devices (" << (deep_ran ? "cheap+deep" : "cheap only") << ")";
  if (clean()) {
    os << " — clean\n";
    return os.str();
  }
  os << " — " << num_errors() << " error(s), " << num_warnings() << " warning(s)"
     << (truncated ? " [truncated]" : "") << "\n";
  for (const LintFinding& f : findings) {
    os << (f.severity == LintSeverity::kError ? "ERROR" : "WARN ") << " ["
       << LintCheckName(f.check) << "] " << f.message << "\n";
  }
  return os.str();
}

std::string LintReport::ToJson() const {
  std::ostringstream os;
  os << "{\"schema\": \"harmony-lint-report\", \"version\": 1";
  os << ", \"scheme\": " << JsonString(scheme);
  os << ", \"tasks\": " << num_tasks << ", \"devices\": " << num_devices;
  os << ", \"deep\": " << (deep_ran ? "true" : "false");
  os << ", \"truncated\": " << (truncated ? "true" : "false");
  os << ", \"errors\": " << num_errors() << ", \"warnings\": " << num_warnings();
  os << ", \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const LintFinding& f = findings[i];
    if (i > 0) {
      os << ", ";
    }
    os << "{\"check\": " << JsonString(LintCheckName(f.check));
    os << ", \"severity\": " << JsonString(LintSeverityName(f.severity));
    os << ", \"message\": " << JsonString(f.message);
    os << ", \"tasks\": [";
    for (std::size_t t = 0; t < f.tasks.size(); ++t) {
      os << (t > 0 ? ", " : "") << f.tasks[t];
    }
    os << "]";
    os << ", \"tensor\": ";
    if (f.tensor == kInvalidTensor) {
      os << "null";
    } else {
      os << f.tensor;
    }
    os << ", \"device\": ";
    if (f.device < 0) {
      os << "null";
    } else {
      os << f.device;
    }
    os << "}";
  }
  os << "]}";
  return os.str();
}

namespace {

// How one task touches one tensor (bitmask; a task can both read and write, e.g. an
// accumulating backward or an in-place all-reduce).
struct Access {
  TaskId task;
  bool read = false;
  bool write = false;
  bool free = false;
};

class Linter {
 public:
  Linter(const Plan& plan, const TensorRegistry& registry, const LintOptions& options)
      : plan_(plan), registry_(registry), options_(options) {
    report_.scheme = plan.scheme;
    report_.num_tasks = static_cast<int>(plan.tasks.size());
    report_.num_devices = plan.num_devices();
  }

  LintReport Run() {
    // Every check below reads the flat lists, so their shape comes first.
    const Status shape = plan_.CheckListShape();
    if (!shape.ok()) {
      Error(LintCheck::kStructure, shape.message());
      return std::move(report_);
    }
    CheckStructure();
    CheckTensorReferences();
    if (!structure_ok_) {
      // Without a sane task graph the remaining checks would chase garbage ids.
      return std::move(report_);
    }
    CheckPinBalance();
    CheckCollectives();
    CheckFeasibility();
    if (options_.deep && !tensor_refs_broken_) {
      if (report_.num_tasks > options_.max_deep_tasks) {
        report_.deep_ran = false;
      } else {
        report_.deep_ran = true;
        BuildHappensBefore();
        BuildAccessMap();
        CheckCrossDeviceHazards();
        CheckLifetimes();
        CheckUninitializedReads();
        CheckWeightVersions();
      }
    }
    return std::move(report_);
  }

 private:
  std::size_t st(int v) const { return static_cast<std::size_t>(v); }
  int n() const { return static_cast<int>(plan_.tasks.size()); }

  const Task& task(TaskId id) const { return plan_.tasks[st(id)]; }

  bool Emit(LintFinding finding) {
    if (static_cast<int>(report_.findings.size()) >= options_.max_findings) {
      report_.truncated = true;
      return false;
    }
    report_.findings.push_back(std::move(finding));
    return true;
  }

  bool Error(LintCheck check, std::string message, std::vector<TaskId> tasks = {},
             TensorId tensor = kInvalidTensor, int device = -1) {
    LintFinding f;
    f.check = check;
    f.severity = LintSeverity::kError;
    f.message = std::move(message);
    f.tasks = std::move(tasks);
    f.tensor = tensor;
    f.device = device;
    return Emit(std::move(f));
  }

  bool Warn(LintCheck check, std::string message, std::vector<TaskId> tasks = {},
            TensorId tensor = kInvalidTensor, int device = -1) {
    LintFinding f;
    f.check = check;
    f.severity = LintSeverity::kWarning;
    f.message = std::move(message);
    f.tasks = std::move(tasks);
    f.tensor = tensor;
    f.device = device;
    return Emit(std::move(f));
  }

  std::string TaskName(TaskId id) const {
    return "task " + std::to_string(id) + " (" + task(id).DebugName() + ")";
  }

  std::string TensorName(TensorId id) const {
    return "tensor " + std::to_string(id) + " (" + registry_.name(id) + ")";
  }

  // ---- cheap tier ---------------------------------------------------------------------------

  void CheckStructure() {
    structure_ok_ = true;
    for (int i = 0; i < n(); ++i) {
      if (plan_.tasks[st(i)].id != i) {
        structure_ok_ = false;
        Error(LintCheck::kStructure,
              "task id mismatch at index " + std::to_string(i) + ": id is " +
                  std::to_string(plan_.tasks[st(i)].id),
              {});
      }
    }
    if (!structure_ok_) {
      return;  // ids are the addressing scheme for everything below
    }

    std::vector<int> seen(st(n()), 0);
    for (int d = 0; d < plan_.num_devices(); ++d) {
      for (TaskId t : plan_.per_device_order[st(d)]) {
        if (t < 0 || t >= n()) {
          structure_ok_ = false;
          Error(LintCheck::kStructure,
                "device " + std::to_string(d) + " order references unknown task " +
                    std::to_string(t),
                {}, kInvalidTensor, d);
          continue;
        }
        if (task(t).device != d) {
          structure_ok_ = false;
          Error(LintCheck::kStructure,
                TaskName(t) + " is bound to device " + std::to_string(task(t).device) +
                    " but queued on device " + std::to_string(d),
                {t}, kInvalidTensor, d);
        }
        if (++seen[st(t)] > 1) {
          structure_ok_ = false;
          Error(LintCheck::kStructure, TaskName(t) + " queued more than once", {t});
        }
      }
    }
    for (int i = 0; i < n(); ++i) {
      if (seen[st(i)] == 0) {
        structure_ok_ = false;
        Error(LintCheck::kStructure, TaskName(i) + " not queued on any device", {i});
      }
    }
    for (const Task& t : plan_.tasks) {
      if (t.device < 0 || t.device >= plan_.num_devices()) {
        structure_ok_ = false;
        Error(LintCheck::kStructure,
              TaskName(t.id) + " bound to nonexistent device " + std::to_string(t.device),
              {t.id}, kInvalidTensor, t.device);
      }
      for (TaskId dep : plan_.deps(t.id)) {
        if (dep < 0 || dep >= n()) {
          structure_ok_ = false;
          Error(LintCheck::kStructure,
                TaskName(t.id) + " depends on unknown task " + std::to_string(dep), {t.id});
        }
      }
    }
    if (!structure_ok_) {
      return;
    }

    // Acyclicity of deps + per-device order (Kahn). The topological order doubles as the
    // processing order for the deep tier's reachability pass. Successors are stored flat
    // (CSR), each task's in edge order: its dependents by id, then its queue successor.
    std::vector<int> indegree(st(n()), 0);
    auto for_each_edge = [this](auto&& edge) {
      for (const Task& t : plan_.tasks) {
        for (TaskId dep : plan_.deps(t.id)) {
          edge(dep, t.id);
        }
      }
      for (const auto& order : plan_.per_device_order) {
        for (std::size_t i = 1; i < order.size(); ++i) {
          edge(order[i - 1], order[i]);
        }
      }
    };
    successor_offsets_.assign(st(n()) + 1, 0);
    for_each_edge([&](TaskId from, TaskId to) {
      ++successor_offsets_[st(from) + 1];
      ++indegree[st(to)];
    });
    for (std::size_t i = 1; i < successor_offsets_.size(); ++i) {
      successor_offsets_[i] += successor_offsets_[i - 1];
    }
    successors_.resize(successor_offsets_.back());
    std::vector<std::size_t> fill(successor_offsets_.begin(), successor_offsets_.end() - 1);
    for_each_edge([&](TaskId from, TaskId to) { successors_[fill[st(from)]++] = to; });

    // topo_ doubles as Kahn's FIFO: tasks leave it in the order they entered.
    topo_.clear();
    topo_.reserve(st(n()));
    for (int i = 0; i < n(); ++i) {
      if (indegree[st(i)] == 0) {
        topo_.push_back(i);
      }
    }
    for (std::size_t head = 0; head < topo_.size(); ++head) {
      for (TaskId next : successors(topo_[head])) {
        if (--indegree[st(next)] == 0) {
          topo_.push_back(next);
        }
      }
    }
    if (static_cast<int>(topo_.size()) != n()) {
      structure_ok_ = false;
      std::vector<TaskId> stuck;
      for (int i = 0; i < n() && stuck.size() < 8; ++i) {
        if (indegree[st(i)] > 0) {
          stuck.push_back(i);
        }
      }
      Error(LintCheck::kStructure,
            "dependency graph plus per-device order has a cycle (" +
                std::to_string(n() - static_cast<int>(topo_.size())) +
                " tasks unreachable, first stuck: " +
                (stuck.empty() ? std::string("?") : TaskName(stuck.front())) + ")",
            std::move(stuck));
    }
  }

  std::span<const TaskId> successors(TaskId t) const {
    const std::size_t begin = successor_offsets_[st(t)];
    return {successors_.data() + begin, successor_offsets_[st(t) + 1] - begin};
  }

  // Every tensor id a task mentions must exist. Scans the five tensor columns whole (their
  // shape is sound, so that covers every task's lists), and walks them task by task, by
  // position, only to name the offenders.
  void CheckTensorReferences() {
    constexpr std::array<TaskList, 5> kTensorLists = {
        TaskList::kFetch, TaskList::kAccumulate, TaskList::kAllocate, TaskList::kDirty,
        TaskList::kFreeAfter};
    const auto known = [this](TensorId id) { return id >= 0 && id < registry_.size(); };
    tensor_refs_broken_ = false;
    for (TaskList which : kTensorLists) {
      const std::vector<int>& ids = plan_.lists[static_cast<std::size_t>(which)].ids;
      tensor_refs_broken_ = tensor_refs_broken_ || !std::all_of(ids.begin(), ids.end(), known);
    }
    if (!tensor_refs_broken_) {
      return;
    }
    for (TaskId i = 0; i < n(); ++i) {
      for (TaskList which : kTensorLists) {
        for (TensorId id : plan_.list(which, i)) {
          if (known(id)) {
            continue;
          }
          if (!Error(LintCheck::kDanglingReference,
                     TaskName(i) + " " + TaskListName(which) + " references tensor " +
                         std::to_string(id) + " outside the registry (size " +
                         std::to_string(registry_.size()) + ")",
                     {i}, id, task(i).device)) {
            break;
          }
        }
      }
    }
  }

  // The engine pins once per working-set entry on Acquire and unpins once per entry on
  // Release; a duplicate entry double-pins and the release leaves a dangling pin — a
  // guaranteed quiescence failure after the run. free_after must name distinct tensors
  // from the task's own working set (FreeTensor on a pinned or in-flight tensor aborts).
  void CheckPinBalance() {
    std::vector<TensorId> ws;  // scratch, reused across tasks
    std::vector<TensorId> frees;
    for (const Task& t : plan_.tasks) {
      ws.clear();
      for (TaskList which : kWorkingSetLists) {
        const std::span<const TensorId> ids = plan_.list(which, t.id);
        ws.insert(ws.end(), ids.begin(), ids.end());
      }
      std::sort(ws.begin(), ws.end());
      const auto dup = std::adjacent_find(ws.begin(), ws.end());
      if (dup != ws.end()) {
        Error(LintCheck::kPinBalance,
              TaskName(t.id) + " pins " + TensorName(*dup) +
                  " more than once in one working set — acquire/release pairing leaks a pin",
              {t.id}, *dup, t.device);
      }
      const std::span<const TensorId> free_after = plan_.free_after(t.id);
      frees.assign(free_after.begin(), free_after.end());
      std::sort(frees.begin(), frees.end());
      const auto dup_free = std::adjacent_find(frees.begin(), frees.end());
      if (dup_free != frees.end()) {
        Error(LintCheck::kPinBalance,
              TaskName(t.id) + " frees " + TensorName(*dup_free) + " twice in free_after",
              {t.id}, *dup_free, t.device);
      }
      for (TensorId id : free_after) {
        if (!std::binary_search(ws.begin(), ws.end(), id)) {
          Error(LintCheck::kPinBalance,
                TaskName(t.id) + " frees " + TensorName(id) +
                    " that is not in its own working set — the free is unordered with the "
                    "tensor's last use",
                {t.id}, id, t.device);
        }
      }
    }
  }

  void CheckCollectives() {
    std::map<int, std::vector<const Task*>> groups;
    for (const Task& t : plan_.tasks) {
      if (t.kind != TaskKind::kAllReduce) {
        continue;
      }
      if (t.collective_group < 0) {
        Error(LintCheck::kCollective, TaskName(t.id) + " has no collective group", {t.id},
              kInvalidTensor, t.device);
        continue;
      }
      groups[t.collective_group].push_back(&t);
    }

    // Cardinality consensus per payload kind: every group reducing the same kind of data
    // must have the same member count (a dropped participant shrinks exactly one group).
    std::map<int, std::map<std::size_t, int>> size_votes;  // payload kind -> size -> count
    for (const auto& [group, members] : groups) {
      size_votes[static_cast<int>(members.front()->collective_data)][members.size()]++;
    }
    std::map<int, std::size_t> modal_size;
    for (const auto& [kind, votes] : size_votes) {
      std::size_t best = 0;
      int best_count = 0;
      for (const auto& [size, count] : votes) {
        if (count > best_count) {
          best = size;
          best_count = count;
        }
      }
      modal_size[kind] = best;
    }

    for (const auto& [group, members] : groups) {
      std::vector<TaskId> ids;
      for (const Task* m : members) {
        ids.push_back(m->id);
      }
      // Distinct devices (two members on one device would rendezvous with themselves and
      // starve the real peer).
      std::vector<int> devices;
      std::vector<int> replicas;
      for (const Task* m : members) {
        devices.push_back(m->device);
        replicas.push_back(m->replica);
        if (m->collective_bytes != members.front()->collective_bytes) {
          Error(LintCheck::kCollective,
                "collective group " + std::to_string(group) + ": " + TaskName(m->id) +
                    " moves " + std::to_string(m->collective_bytes) + " bytes but " +
                    TaskName(members.front()->id) + " moves " +
                    std::to_string(members.front()->collective_bytes),
                ids);
          break;
        }
      }
      for (const Task* m : members) {
        if (m->collective_data != members.front()->collective_data) {
          Error(LintCheck::kCollective,
                "collective group " + std::to_string(group) +
                    " mixes payload kinds across members",
                ids);
          break;
        }
      }
      std::sort(devices.begin(), devices.end());
      if (std::adjacent_find(devices.begin(), devices.end()) != devices.end()) {
        Error(LintCheck::kCollective,
              "collective group " + std::to_string(group) + " has two members on device " +
                  std::to_string(*std::adjacent_find(devices.begin(), devices.end())),
              ids);
      }
      // Rank matching: member replica/shard indices must be dense {0..k-1} — exactly one
      // participant per replica. A dropped participant leaves a hole or shifts the count.
      std::sort(replicas.begin(), replicas.end());
      for (std::size_t r = 0; r < replicas.size(); ++r) {
        if (replicas[r] != static_cast<int>(r)) {
          Error(LintCheck::kCollective,
                "collective group " + std::to_string(group) + " expects one member per " +
                    "replica 0.." + std::to_string(replicas.size() - 1) + " but rank " +
                    std::to_string(r) + " is " +
                    (replicas[r] > static_cast<int>(r) ? "missing" : "duplicated") +
                    " (replica " + std::to_string(replicas[r]) + " found)",
                ids);
          break;
        }
      }
      const std::size_t expected = modal_size[static_cast<int>(members.front()->collective_data)];
      if (members.size() != expected) {
        Error(LintCheck::kCollective,
              "collective group " + std::to_string(group) + " has " +
                  std::to_string(members.size()) + " participant(s) but sibling groups " +
                  "reducing the same payload have " + std::to_string(expected) +
                  " — a rank would wait forever or reduce partial data",
              ids);
      }
    }

    CheckHierarchical(groups);
    CheckRendezvousDeadlock(groups);
  }

  // Two-level group structure (DESIGN.md §12): on multi-node plans (device_node stamped by
  // AnnotateClusterStructure with > 1 distinct node) every collective's members must (a)
  // carry the node annotation of their own device — a crossed intra/inter rendezvous would
  // make the hierarchical engine build the wrong tree, (b) balance membership and bytes
  // across the nodes they span — the inter-node reduce-scatter assumes equal shards, and
  // (c) cover the same number of nodes as sibling groups reducing the same payload — a
  // node dropped from the inter-node tree leaves dense replica ranks (node-major indexing)
  // and survives the flat-rank check above, so coverage is voted on separately.
  void CheckHierarchical(const std::map<int, std::vector<const Task*>>& groups) {
    const std::vector<int>& node_of = plan_.device_node;
    if (node_of.empty()) {
      return;  // single-node plan: no annotation, no hierarchical structure to check
    }
    bool multi_node = false;
    for (int node : node_of) {
      if (node != node_of.front()) {
        multi_node = true;
        break;
      }
    }
    if (!multi_node) {
      return;
    }

    // Node-coverage consensus per payload kind, mirroring the member-count consensus in
    // CheckCollectives: sibling groups reducing the same payload must span the same number
    // of nodes.
    std::map<int, std::map<std::size_t, int>> coverage_votes;  // payload -> nodes -> count
    std::map<int, std::map<int, std::vector<const Task*>>> by_node_per_group;
    for (const auto& [group, members] : groups) {
      std::map<int, std::vector<const Task*>>& by_node = by_node_per_group[group];
      for (const Task* m : members) {
        if (m->device < 0 || m->device >= static_cast<int>(node_of.size())) {
          continue;  // structural checks already flagged the bad device
        }
        by_node[node_of[st(m->device)]].push_back(m);
      }
      coverage_votes[static_cast<int>(members.front()->collective_data)][by_node.size()]++;
    }
    std::map<int, std::size_t> modal_coverage;
    for (const auto& [kind, votes] : coverage_votes) {
      std::size_t best = 0;
      int best_count = 0;
      for (const auto& [nodes, count] : votes) {
        if (count > best_count) {
          best = nodes;
          best_count = count;
        }
      }
      modal_coverage[kind] = best;
    }

    for (const auto& [group, members] : groups) {
      std::vector<TaskId> ids;
      for (const Task* m : members) {
        ids.push_back(m->id);
      }
      // (a) annotation consistency: a member whose collective_node disagrees with its
      // device's node would rendezvous in the wrong tier of the two-level structure.
      for (const Task* m : members) {
        if (m->device < 0 || m->device >= static_cast<int>(node_of.size())) {
          continue;
        }
        const int expected_node = node_of[st(m->device)];
        if (m->collective_node != expected_node) {
          Error(LintCheck::kHierarchical,
                "collective group " + std::to_string(group) + ": " + TaskName(m->id) +
                    " is annotated node " + std::to_string(m->collective_node) +
                    " but runs on device " + std::to_string(m->device) + " (node " +
                    std::to_string(expected_node) +
                    ") — crossed intra/inter rendezvous",
                ids, kInvalidTensor, m->device);
        }
      }
      const std::map<int, std::vector<const Task*>>& by_node = by_node_per_group[group];
      // (c) dense node coverage vs. the sibling consensus. Checked before the single-node
      // early-out: a group whose siblings span the fleet but which itself collapsed onto
      // one node is precisely a dropped inter-node tree.
      const std::size_t expected_nodes =
          modal_coverage[static_cast<int>(members.front()->collective_data)];
      if (by_node.size() != expected_nodes) {
        Error(LintCheck::kHierarchical,
              "collective group " + std::to_string(group) + " spans " +
                  std::to_string(by_node.size()) + " node(s) but sibling groups reducing " +
                  "the same payload span " + std::to_string(expected_nodes) +
                  " — a node was dropped from the inter-node tree",
              ids);
      }
      if (by_node.size() <= 1) {
        continue;  // intra-node group: the flat checks fully cover the rest
      }
      // (b) per-node membership and byte balance: the hierarchical engine reduces equal
      // sub-group shards, so a node with more members or different byte sums desyncs the
      // inter-node tree.
      const std::size_t first_count = by_node.begin()->second.size();
      Bytes first_bytes = 0;
      for (const Task* m : by_node.begin()->second) {
        first_bytes += m->collective_bytes;
      }
      for (const auto& [node, node_members] : by_node) {
        Bytes node_bytes = 0;
        for (const Task* m : node_members) {
          node_bytes += m->collective_bytes;
        }
        if (node_members.size() != first_count) {
          Error(LintCheck::kHierarchical,
                "collective group " + std::to_string(group) + " has " +
                    std::to_string(node_members.size()) + " member(s) on node " +
                    std::to_string(node) + " but " + std::to_string(first_count) +
                    " on node " + std::to_string(by_node.begin()->first) +
                    " — uneven sub-groups break the inter-node reduce-scatter",
                ids);
          break;
        }
        if (node_bytes != first_bytes) {
          Error(LintCheck::kHierarchical,
                "collective group " + std::to_string(group) + " moves " +
                    std::to_string(node_bytes) + " bytes on node " + std::to_string(node) +
                    " but " + std::to_string(first_bytes) + " on node " +
                    std::to_string(by_node.begin()->first) +
                    " — sub-group byte skew desyncs the shard exchange",
                ids);
          break;
        }
      }
    }
  }

  // "No rank waits forever": collapse each collective group into one rendezvous node (all
  // members must be schedulable together) and re-check acyclicity. Two groups crossed in
  // two device orders collapse into a 2-cycle here while the plain task graph stays
  // acyclic — the classic all-reduce deadlock.
  void CheckRendezvousDeadlock(const std::map<int, std::vector<const Task*>>& groups) {
    if (groups.empty()) {
      return;
    }
    // node id: merged group nodes first, then singleton tasks.
    std::vector<int> node_of(st(n()), -1);
    std::vector<int> group_ids;
    std::vector<const std::vector<const Task*>*> group_members;
    for (const auto& [group, members] : groups) {
      for (const Task* m : members) {
        node_of[st(m->id)] = static_cast<int>(group_ids.size());
      }
      group_ids.push_back(group);
      group_members.push_back(&members);
    }
    const int num_groups = static_cast<int>(group_ids.size());
    std::vector<TaskId> singleton_task;  // node num_groups + k is singleton_task[k]
    for (int i = 0; i < n(); ++i) {
      if (node_of[st(i)] < 0) {
        node_of[st(i)] = num_groups + static_cast<int>(singleton_task.size());
        singleton_task.push_back(i);
      }
    }
    const int num_nodes = num_groups + static_cast<int>(singleton_task.size());
    // Kahn over the merged graph, read straight off the task graph's successors. Merged
    // edges are counted with their multiplicity: each copy is removed once its source is
    // processed, so a node still becomes ready exactly when all its predecessors are done.
    std::vector<int> indegree(st(num_nodes), 0);
    for (TaskId t = 0; t < n(); ++t) {
      for (TaskId succ : successors(t)) {
        if (node_of[st(t)] != node_of[st(succ)]) {
          ++indegree[st(node_of[st(succ)])];
        }
      }
    }
    std::vector<int> ready;
    ready.reserve(st(num_nodes));
    for (int v = 0; v < num_nodes; ++v) {
      if (indegree[st(v)] == 0) {
        ready.push_back(v);
      }
    }
    auto release = [&](int v, TaskId t) {
      for (TaskId succ : successors(t)) {
        const int w = node_of[st(succ)];
        if (w != v && --indegree[st(w)] == 0) {
          ready.push_back(w);
        }
      }
    };
    for (std::size_t head = 0; head < ready.size(); ++head) {
      const int v = ready[head];
      if (v < num_groups) {
        for (const Task* m : *group_members[st(v)]) {
          release(v, m->id);
        }
      } else {
        release(v, singleton_task[st(v - num_groups)]);
      }
    }
    if (static_cast<int>(ready.size()) != num_nodes) {
      std::vector<int> stuck_groups;
      for (int g = 0; g < num_groups; ++g) {
        if (indegree[st(g)] > 0) {
          stuck_groups.push_back(group_ids[st(g)]);
        }
      }
      std::ostringstream os;
      os << "collective rendezvous deadlock: group(s)";
      for (std::size_t i = 0; i < stuck_groups.size() && i < 8; ++i) {
        os << " " << stuck_groups[i];
      }
      os << " are crossed in the device orders — some rank waits forever";
      Error(LintCheck::kCollective, os.str());
    }
  }

  // A single task's working set must fit in raw device capacity; no eviction policy can
  // save a plan that violates this.
  void CheckFeasibility() {
    if (options_.device_capacities.empty()) {
      return;
    }
    for (const Task& t : plan_.tasks) {
      if (t.device < 0 || st(t.device) >= options_.device_capacities.size()) {
        continue;  // structure checks already flagged out-of-range devices
      }
      Bytes total = t.scratch_bytes;
      for (TaskList which : kWorkingSetLists) {
        for (TensorId id : plan_.list(which, t.id)) {
          total += registry_.meta(id).bytes;
        }
      }
      const Bytes capacity = options_.device_capacities[st(t.device)];
      if (total > capacity) {
        Error(LintCheck::kFeasibility,
              TaskName(t.id) + " needs " + FormatBytes(total) + " resident at once but gpu" +
                  std::to_string(t.device) + " holds " + FormatBytes(capacity) +
                  " — infeasible even with perfect eviction",
              {t.id}, kInvalidTensor, t.device);
      }
    }
  }

  // ---- deep tier ----------------------------------------------------------------------------

  // Reachability over the happens-before relation (deps + per-device order), one bitset row
  // per task, filled in reverse topological order.
  void BuildHappensBefore() {
    blocks_ = (st(n()) + 63) / 64;
    reach_.assign(st(n()) * blocks_, 0);
    for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
      const TaskId u = *it;
      std::uint64_t* row = &reach_[st(u) * blocks_];
      for (TaskId v : successors(u)) {
        row[st(v) / 64] |= std::uint64_t{1} << (st(v) % 64);
        const std::uint64_t* succ = &reach_[st(v) * blocks_];
        for (std::size_t b = 0; b < blocks_; ++b) {
          row[b] |= succ[b];
        }
      }
    }
  }

  bool Reaches(TaskId from, TaskId to) const {
    return (reach_[st(from) * blocks_ + st(to) / 64] >> (st(to) % 64)) & 1;
  }

  bool Ordered(TaskId a, TaskId b) const { return Reaches(a, b) || Reaches(b, a); }

  void BuildAccessMap() {
    accesses_.assign(st(registry_.size()), {});
    auto note = [&](TensorId id, TaskId t, bool read, bool write, bool free) {
      auto& list = accesses_[st(id)];
      if (!list.empty() && list.back().task == t) {
        list.back().read |= read;
        list.back().write |= write;
        list.back().free |= free;
        return;
      }
      list.push_back(Access{t, read, write, free});
    };
    for (const Task& t : plan_.tasks) {
      for (TensorId id : plan_.fetch(t.id)) {
        note(id, t.id, /*read=*/true, /*write=*/false, /*free=*/false);
      }
      // Accumulate entries are read-modify-write and double as definitions (zero-init when
      // no copy exists); allocate entries are definitions of fresh contents.
      for (TensorId id : plan_.accumulate(t.id)) {
        note(id, t.id, /*read=*/true, /*write=*/true, /*free=*/false);
      }
      for (TensorId id : plan_.allocate(t.id)) {
        note(id, t.id, /*read=*/false, /*write=*/true, /*free=*/false);
      }
      for (TensorId id : plan_.dirty_outputs(t.id)) {
        note(id, t.id, /*read=*/false, /*write=*/true, /*free=*/false);
      }
      for (TensorId id : plan_.free_after(t.id)) {
        note(id, t.id, /*read=*/false, /*write=*/false, /*free=*/true);
      }
    }
  }

  // Two tasks on different devices touching the same tensor with at least one writer and no
  // ordering path is a data race: residency is move-not-copy, so who computes on which
  // bytes depends on event timing. Unordered cross-device read/read is legal but thrashy
  // (the tensor ping-pongs) — reported as a warning.
  void CheckCrossDeviceHazards() {
    for (TensorId id = 0; id < registry_.size(); ++id) {
      const auto& list = accesses_[st(id)];
      if (list.size() < 2) {
        continue;
      }
      bool multi_device = false;
      for (std::size_t i = 1; i < list.size(); ++i) {
        if (task(list[i].task).device != task(list[0].task).device) {
          multi_device = true;
          break;
        }
      }
      if (!multi_device) {
        continue;  // same-device accesses are always queue-ordered
      }
      bool reported_error = false;
      bool reported_warn = false;
      for (std::size_t i = 0; i < list.size() && !(reported_error && reported_warn); ++i) {
        for (std::size_t j = i + 1; j < list.size(); ++j) {
          const Access& a = list[i];
          const Access& b = list[j];
          if (task(a.task).device == task(b.task).device) {
            continue;
          }
          if (Ordered(a.task, b.task)) {
            continue;
          }
          const bool writes = a.write || b.write || a.free || b.free;
          if (writes && !reported_error) {
            reported_error = true;
            Error(LintCheck::kCrossDeviceHazard,
                  TensorName(id) + ": " + TaskName(a.task) + " on gpu" +
                      std::to_string(task(a.task).device) + " and " + TaskName(b.task) +
                      " on gpu" + std::to_string(task(b.task).device) +
                      " are unordered and at least one writes — cross-device WAR/WAW race",
                  {a.task, b.task}, id);
          } else if (!writes && !reported_warn) {
            reported_warn = true;
            Warn(LintCheck::kCrossDeviceHazard,
                 TensorName(id) + ": unordered cross-device readers " + TaskName(a.task) +
                     " and " + TaskName(b.task) +
                     " — legal but the single copy will ping-pong between devices",
                 {a.task, b.task}, id);
          }
          if (reported_error && reported_warn) {
            break;
          }
        }
      }
    }
  }

  void CheckLifetimes() {
    for (TensorId id = 0; id < registry_.size(); ++id) {
      const auto& list = accesses_[st(id)];
      TaskId freer = kInvalidTask;
      for (const Access& a : list) {
        if (!a.free) {
          continue;
        }
        if (freer != kInvalidTask) {
          Error(LintCheck::kLifetime,
                TensorName(id) + " freed twice: by " + TaskName(freer) + " and " +
                    TaskName(a.task),
                {freer, a.task}, id);
          break;
        }
        freer = a.task;
      }
      if (freer == kInvalidTask) {
        continue;
      }
      for (const Access& a : list) {
        if (a.task == freer || (!a.read && !a.write)) {
          continue;
        }
        if (Reaches(freer, a.task)) {
          Error(LintCheck::kLifetime,
                TensorName(id) + ": " + TaskName(a.task) + " uses it after " +
                    TaskName(freer) + " frees it",
                {freer, a.task}, id);
          break;
        }
        if (!Reaches(a.task, freer)) {
          Error(LintCheck::kLifetime,
                TensorName(id) + ": " + TaskName(a.task) + " is unordered with the free in " +
                    TaskName(freer) + " — racy end-of-life",
                {freer, a.task}, id);
          break;
        }
      }
    }
  }

  // A fetched tensor must have a defined value: either it was created with a valid host
  // copy (weights, optimizer state, input batches) or some ordered predecessor wrote it.
  // A deleted producer edge leaves the consumer fetching undefined bytes.
  void CheckUninitializedReads() {
    for (TensorId id = 0; id < registry_.size(); ++id) {
      const auto& list = accesses_[st(id)];
      if (list.empty() || registry_.state(id).host_valid) {
        continue;
      }
      for (const Access& a : list) {
        if (!a.read || a.write) {
          continue;  // accumulate zero-inits, so read-write accesses define the value
        }
        bool defined = false;
        bool racy_writer = false;
        for (const Access& w : list) {
          if (!w.write || w.task == a.task) {
            continue;
          }
          if (Reaches(w.task, a.task)) {
            defined = true;
            break;
          }
          if (!Reaches(a.task, w.task)) {
            racy_writer = true;
          }
        }
        if (!defined) {
          Error(LintCheck::kCrossDeviceHazard,
                TensorName(id) + ": " + TaskName(a.task) + " fetches it but no ordered " +
                    "predecessor writes it" +
                    (racy_writer ? " (a writer exists but is unordered with the read)"
                                 : " and it has no initial host copy"),
                {a.task}, id);
          break;  // one finding per tensor
        }
      }
    }
  }

  // JIT-update legality: a reader in iteration i must see the weight version produced by
  // the newest update from an earlier iteration — that update must be ordered before the
  // reader, or the reader computes on a stale (or torn) version.
  void CheckWeightVersions() {
    for (TensorId id = 0; id < registry_.size(); ++id) {
      if (registry_.meta(id).cls != TensorClass::kWeight) {
        continue;
      }
      const auto& list = accesses_[st(id)];
      std::vector<const Access*> updates;
      for (const Access& a : list) {
        if (a.write && task(a.task).kind == TaskKind::kUpdate) {
          updates.push_back(&a);
        }
      }
      if (updates.empty()) {
        continue;
      }
      bool reported = false;
      for (const Access& r : list) {
        if (!r.read) {
          continue;
        }
        // The newest update strictly before the reader's iteration.
        const Access* latest = nullptr;
        for (const Access* u : updates) {
          if (u->task == r.task) {
            continue;
          }
          if (task(u->task).iteration < task(r.task).iteration &&
              (latest == nullptr ||
               task(u->task).iteration > task(latest->task).iteration)) {
            latest = u;
          }
        }
        if (latest == nullptr) {
          continue;
        }
        if (!Reaches(latest->task, r.task)) {
          const bool reversed = Reaches(r.task, latest->task);
          Error(LintCheck::kStaleWeightRead,
                TensorName(id) + ": " + TaskName(r.task) + " (iteration " +
                    std::to_string(task(r.task).iteration) + ") " +
                    (reversed ? "is ordered before" : "is unordered with") + " " +
                    TaskName(latest->task) + " (iteration " +
                    std::to_string(task(latest->task).iteration) +
                    ") — it reads a weight version older than the latest update before it",
                {latest->task, r.task}, id);
          reported = true;
        }
        if (reported) {
          break;  // one finding per weight tensor
        }
      }
    }
  }

  const Plan& plan_;
  const TensorRegistry& registry_;
  const LintOptions& options_;
  LintReport report_;

  bool structure_ok_ = false;
  bool tensor_refs_broken_ = false;
  std::vector<TaskId> topo_;
  // The task graph (deps + per-device order) as CSR: task t's successors are
  // successors_[successor_offsets_[t], successor_offsets_[t + 1]).
  std::vector<std::size_t> successor_offsets_;
  std::vector<TaskId> successors_;
  std::size_t blocks_ = 0;
  std::vector<std::uint64_t> reach_;
  std::vector<std::vector<Access>> accesses_;
};

}  // namespace

LintReport LintPlan(const Plan& plan, const TensorRegistry& registry,
                    const LintOptions& options) {
  return Linter(plan, registry, options).Run();
}

}  // namespace harmony
