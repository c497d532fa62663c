#!/usr/bin/env bash
# Sanitizer job for the observability layer (DESIGN.md §8).
#
# Builds the tree twice — once under ThreadSanitizer, once under UBSan — and runs the
# test selections that exercise the new instrumentation hot paths:
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
# Pass --full to run the entire ctest suite under each sanitizer instead (slower).
#
# Usage: tools/run_sanitizer_suite.sh [--full]
# Build trees land in build-tsan/ and build-ubsan/ next to the source tree.
set -eu

full=0
if [[ "${1:-}" == "--full" ]]; then
  full=1
fi

repo=$(cd "$(dirname "$0")/.." && pwd)
jobs=$(nproc 2>/dev/null || echo 4)

run_one() {
  local sanitizer=$1 build_dir=$2
  echo "==== HARMONY_SANITIZE=$sanitizer -> $build_dir ===="
  cmake -B "$repo/$build_dir" -S "$repo" -DHARMONY_SANITIZE="$sanitizer" >/dev/null
  cmake --build "$repo/$build_dir" -j "$jobs"
  if [[ $full -eq 1 ]]; then
    (cd "$repo/$build_dir" && ctest --output-on-failure -j "$jobs")
  else
    (cd "$repo/$build_dir" && ctest --output-on-failure -j "$jobs" -L trace)
    (cd "$repo/$build_dir" && ctest --output-on-failure -j "$jobs" -R tuner)
    (cd "$repo/$build_dir" && ctest --output-on-failure -j "$jobs" -L lint)
    (cd "$repo/$build_dir" && ctest --output-on-failure -j "$jobs" -L simcore)
    (cd "$repo/$build_dir" && ctest --output-on-failure -j "$jobs" -L chaos)
    (cd "$repo/$build_dir" && ctest --output-on-failure -j "$jobs" -L cluster)
    (cd "$repo/$build_dir" && ctest --output-on-failure -j "$jobs" -L sched)
    (cd "$repo/$build_dir" && ctest --output-on-failure -j "$jobs" -L scale)
  fi
  echo "==== $sanitizer: clean ===="
}

run_one thread build-tsan
run_one undefined build-ubsan
echo "OK   both sanitizer jobs clean"
