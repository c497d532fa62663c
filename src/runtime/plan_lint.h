// Static plan linter ("harmony_lint"): validates a schedule before it runs.
//
// Harmony's bet is that aggressive schedule rewriting (input-batch grouping, JIT updates,
// p2p routing, task packing) transparently preserves training semantics. Plan::Validate()
// only checks raw structure; everything else used to be enforced dynamically — a broken
// schedule surfaced only if a seeded test happened to execute the broken path. LintPlan()
// closes that gap with a whole-plan static analysis that returns typed findings with task
// and tensor provenance, split into two tiers:
//
// Cheap (O(tasks + edges), run by the Engine constructor on every plan it is given):
//   - structure: the flat per-task lists well formed (checked before any list is read),
//     ids consistent, every task queued exactly once on its own device, dep references
//     in range, dependency graph + per-device order acyclic;
//   - dangling references: every TensorId a task touches exists in the registry;
//   - pin balance: no tensor appears twice in one task's working set (the engine pins per
//     list entry and releases per list entry, so a duplicate double-pins and the release
//     leaves a pin behind — a guaranteed CheckQuiescent failure later), and free_after
//     entries are unique and belong to the freeing task's working set;
//   - collective rank matching: every all-reduce member names a group, members sit on
//     distinct devices with equal byte counts and payload kinds, member replica/shard
//     indices are dense {0..k-1}, groups reducing the same payload kind have equal
//     cardinality (a dropped participant leaves a hole in one of these), and the
//     rendezvous graph is deadlock-free (no two groups crossed in device orders — the
//     "some rank waits forever" class);
//   - feasibility: the largest single-task working set per device fits in that device's
//     capacity — otherwise the plan is infeasible even with perfect eviction.
//
// Deep (adds all-pairs reachability over the happens-before relation; harmony_sim --lint
// and plan_lint_test):
//   - cross-device WAR/WAW hazards: two tasks on different devices touch the same tensor,
//     at least one writes or frees it, and neither is ordered before the other — exactly
//     the race class JIT reordering can introduce (residency is move-not-copy, so even the
//     bytes moved depend on who wins);
//   - lifetime: a task uses a tensor after (or unordered with) the task that frees it, or
//     two tasks free the same tensor;
//   - uninitialized reads: a task fetches a tensor that no ordered predecessor ever wrote
//     and that had no initial host copy (the signature of a deleted producer edge);
//   - JIT-update legality: no reader sees a weight version older than the latest update
//     ordered before it — for every weight reader in iteration i, the newest update of
//     that weight from an earlier iteration must be ordered before the reader.
//
// plan_lint_test proves detection power by mutation: deleting a load-bearing ordering
// edge, swapping a device binding, or dropping an all-reduce participant from a valid plan
// must be flagged (>= 95% over 100 seeded mutations per class).
#ifndef HARMONY_SRC_RUNTIME_PLAN_LINT_H_
#define HARMONY_SRC_RUNTIME_PLAN_LINT_H_

#include <string>
#include <vector>

#include "src/graph/task.h"
#include "src/mem/tensor.h"
#include "src/util/units.h"

namespace harmony {

enum class LintSeverity { kError, kWarning };

enum class LintCheck {
  kStructure,          // list shape, ids, queue membership, dep ranges, acyclicity
  kDanglingReference,  // tensor ids outside the registry
  kPinBalance,         // duplicate pins in a working set / free-pairing violations
  kCollective,         // rank matching, group consistency, rendezvous deadlock
  kHierarchical,       // two-level (node) group structure: annotation consistency,
                       // per-node membership/byte balance, dense node coverage
  kFeasibility,        // single-task working set exceeds device capacity
  kCrossDeviceHazard,  // unordered cross-device write/write or read/write on one tensor
  kLifetime,           // use-after-free, double free, racy free
  kStaleWeightRead,    // reader sees an outdated weight version (JIT-update legality)
};

const char* LintCheckName(LintCheck check);
const char* LintSeverityName(LintSeverity severity);

// One finding, with provenance: the tasks involved (in the roles the message describes),
// the tensor at stake (kInvalidTensor when the finding is not about a tensor), and the
// device (-1 when not device-specific).
struct LintFinding {
  LintCheck check = LintCheck::kStructure;
  LintSeverity severity = LintSeverity::kError;
  std::string message;
  std::vector<TaskId> tasks;
  TensorId tensor = kInvalidTensor;
  int device = -1;
};

struct LintOptions {
  // Run the reachability-based checks (hazards, lifetime, uninitialized reads, weight
  // versions). Costs O(tasks^2 / 64) bits of memory and time; the cheap tier alone is
  // linear in the plan.
  bool deep = true;
  // Per-device capacities for the feasibility check; empty skips it.
  std::vector<Bytes> device_capacities;
};

struct LintReport {
  std::vector<LintFinding> findings;
  std::string scheme;
  int num_tasks = 0;
  int num_devices = 0;
  bool deep_ran = false;   // deep tier executed (requested, and at most 20,000 tasks)
  bool truncated = false;  // 256 findings hit; counts below are lower bounds

  int num_errors() const;
  int num_warnings() const;
  bool clean() const { return findings.empty(); }

  // Human-readable rendering: one line per finding ("ERROR [cross-device-hazard] ...")
  // plus a summary line; "clean" plans render as a single summary line.
  std::string Render() const;

  // Deterministic JSON export, schema "harmony-lint-report" v1:
  //   {"schema": "harmony-lint-report", "version": 1, "scheme": ..., "tasks": N,
  //    "devices": D, "deep": bool, "truncated": bool, "errors": E, "warnings": W,
  //    "findings": [{"check": ..., "severity": ..., "message": ..., "tasks": [...],
  //                  "tensor": id-or-null, "device": id-or-null}, ...]}
  // Parse it back with util/json.h.
  std::string ToJson() const;
};

// Lints `plan` against `registry`. Never fatal: structurally broken plans come back as
// findings (deep checks that need a sane structure are skipped once structure errors are
// present, since reachability over a cyclic graph is meaningless).
LintReport LintPlan(const Plan& plan, const TensorRegistry& registry,
                    const LintOptions& options = {});

}  // namespace harmony

#endif  // HARMONY_SRC_RUNTIME_PLAN_LINT_H_
