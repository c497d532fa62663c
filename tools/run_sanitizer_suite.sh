#!/usr/bin/env bash
# Sanitizer job for the observability layer (DESIGN.md §8), the flow model and recovery.
#
# Builds the tree three times — under ThreadSanitizer, UBSan and AddressSanitizer — and
# runs the test selections that exercise the hot paths each one guards. The labelled
# suites run under TSan and UBSan:
#   - `ctest -L trace`  : the observability suite (conservation invariants, churn
#                         recounts, golden --explain output),
#   - `ctest -R tuner`  : the tuner, whose ParallelFor profiling now calls Attribute()
#                         concurrently from worker threads (the one genuinely
#                         multi-threaded consumer of the span/report machinery),
#   - `ctest -L lint`   : the static plan linter (DESIGN.md §9), whose bitset
#                         reachability and access-map passes index heavily into
#                         per-task state — exactly where UBSan catches drift.
#   - `ctest -L simcore`: the simulator unit suite and the golden-regime run-twice
#                         determinism check (DESIGN.md §10).
#   - `ctest -L chaos`  : the degraded-mode resilience suite + chaos harness
#                         (DESIGN.md §11) — retry re-issue on the simulator clock and
#                         the elastic coordinator under seeded random fault plans, each
#                         run twice and compared byte-for-byte.
#   - `ctest -L cluster`: the multi-server scale-out tier (DESIGN.md §12) — the
#                         run-twice determinism check across node counts, tier
#                         conservation, and the hierarchical-linter mutation suite.
#   - `ctest -L sched`  : the multi-tenant cluster scheduler (DESIGN.md §13) — the
#                         trace × policy determinism check, the preemption
#                         checkpoint/restore protocol, and per-tenant quota
#                         enforcement, which nest whole sessions inside an outer
#                         event stream.
#   - `ctest -L scale`  : the conservation invariants on 256- and 512-GPU fleets under
#                         both eviction policies, past the 64-GPU waiter-bitmask limit.
# The flow-model and fault selection runs under UBSan and ASan:
#   - TopologyTest and TopologyDeathTest: the tree routes against their all-pairs BFS
#                         oracle, and Finalize's tree checks,
#   - TransferTest, RetryTransferTest, RandomFlowTest and RandomFlowChurnTest: the
#                         route-group flow model (DESIGN.md §5), whose raw pointers
#                         (flow -> group, group -> members, heap entry -> group) ASan
#                         keeps honest while transfer records are reused slot by slot,
#                         a flapped flow re-joins from its record, and flows in their
#                         latency window escape a flap,
#   - `ctest -R fault`  : fault injection and elastic recovery, whose bookkeeping is
#                         indexed by fleet-wide GPU ids.
# ASan also runs the whole of mem_test and mem_churn_test: an acquisition's `ready` event
# dies at its Release, so a late read of it is a use-after-free. So does a pointer into a
# PreparedSession kept across the move into RunTraining, which session_test exercises, and
# a span into a plan's flat task lists kept across a reallocation of that storage, which
# plan_test, plan_lint_test and runtime_test exercise (the linter's misshapen-offset cases
# would be out-of-bounds reads if the shape check missed them). ASan runs sched_test too:
# each running job points into the scheduler's per-stream session memo, so a reference
# kept across an insert would dangle if the memo's container ever moved its entries.
# Pass --full to run the entire ctest suite under each sanitizer instead (slower).
#
# Usage: tools/run_sanitizer_suite.sh [--full]
# Build trees land in build-tsan/, build-ubsan/ and build-asan/ next to the source tree.
set -eu

full=0
if [[ "${1:-}" == "--full" ]]; then
  full=1
fi

repo=$(cd "$(dirname "$0")/.." && pwd)
jobs=$(nproc 2>/dev/null || echo 4)

run_ctest() {
  local build_dir=$1
  shift
  (cd "$repo/$build_dir" && ctest --output-on-failure -j "$jobs" "$@")
}

labelled_suites() {
  run_ctest "$1" -L trace
  run_ctest "$1" -R tuner
  for label in lint simcore chaos cluster sched scale; do
    run_ctest "$1" -L "$label"
  done
}

flow_and_fault() {
  run_ctest "$1" -R '(^|/)(TopologyTest|TopologyDeathTest|TransferTest|RandomFlowTest|RandomFlowChurnTest)\.|RetryTransferTest\.'
  run_ctest "$1" -R fault
}

memory_suites() {
  "$repo/$1/tests/mem_test"
  "$repo/$1/tests/mem_churn_test"
  "$repo/$1/tests/session_test"
  "$repo/$1/tests/plan_test"
  "$repo/$1/tests/plan_lint_test"
  "$repo/$1/tests/runtime_test"
  "$repo/$1/tests/sched_test"
}

# run_one SANITIZER BUILD_DIR SELECTION...: builds the tree under SANITIZER and runs each
# SELECTION function (or, with --full, the whole suite).
run_one() {
  local sanitizer=$1 build_dir=$2
  shift 2
  echo "==== HARMONY_SANITIZE=$sanitizer -> $build_dir ===="
  cmake -B "$repo/$build_dir" -S "$repo" -DHARMONY_SANITIZE="$sanitizer" >/dev/null
  cmake --build "$repo/$build_dir" -j "$jobs"
  if [[ $full -eq 1 ]]; then
    run_ctest "$build_dir"
  else
    for selection in "$@"; do
      "$selection" "$build_dir"
    done
  fi
  echo "==== $sanitizer: clean ===="
}

run_one thread build-tsan labelled_suites
run_one undefined build-ubsan labelled_suites flow_and_fault
run_one address build-asan flow_and_fault memory_suites
echo "OK   all three sanitizer jobs clean"
