#!/usr/bin/env bash
# CLI error-handling regression test for harmony_sim.
#
# Malformed flag values used to be coerced (unknown strings fell back to defaults); now
# every flag read goes through the checked accessors, so a bad value must produce a typed
# error on stderr, a usage hint, and exit code 2 — never a silent run with a default.
#
# Usage: tools/check_cli_errors.sh <path-to-harmony_sim>
set -u

sim=${1:?usage: check_cli_errors.sh <path-to-harmony_sim>}
failures=0

# expect_reject <expected-substring> <flag...>: harmony_sim must exit 2 and mention both
# the typed error and the usage hint on stderr.
expect_reject() {
  local expected=$1
  shift
  local err
  err=$("$sim" "$@" 2>&1 >/dev/null)
  local code=$?
  if [[ $code -ne 2 ]]; then
    echo "FAIL $* : exit $code, want 2" >&2
    failures=$((failures + 1))
    return
  fi
  if [[ "$err" != *"INVALID_ARGUMENT"* ]]; then
    echo "FAIL $* : stderr lacks typed INVALID_ARGUMENT error: $err" >&2
    failures=$((failures + 1))
    return
  fi
  if [[ "$err" != *"$expected"* ]]; then
    echo "FAIL $* : stderr lacks '$expected': $err" >&2
    failures=$((failures + 1))
    return
  fi
  if [[ "$err" != *"--help"* ]]; then
    echo "FAIL $* : stderr lacks the --help usage hint: $err" >&2
    failures=$((failures + 1))
    return
  fi
  echo "ok   $* -> exit 2 ($expected)"
}

expect_reject "expects true/false" --prefetch=maybe
expect_reject "expects true/false" --lint=sometimes
expect_reject "expects an integer" --gpus=four
expect_reject "expects an integer" --microbatches=2.5
expect_reject "expects a finite number" --watchdog=soon
expect_reject "expects an integer" --retry_max=lots
expect_reject "expects a finite number" --retry_base=slow
expect_reject "expects an integer" --ckpt_keep=all
expect_reject "expects a finite number" --straggler_threshold=high

# Cluster topology flags: individual knobs go through the checked accessors, and the
# --cluster spec grammar rejects with the byte offset of the offending field.
expect_reject "expects an integer" --nodes=two
expect_reject "expects an integer" --nodes_per_rack=1.5
expect_reject "expects a finite number" --nic_gbps=fast
expect_reject "expects a finite number" --rack_gbps=
expect_reject "at byte" --cluster='nodes=0'
expect_reject "unknown cluster option" --cluster='nodes=2,racks=3'
expect_reject "duplicate cluster option" --cluster='nodes=2,nodes=4'
expect_reject "must be a positive number" --cluster='nic_gbps=-25'

# Fault-plan grammar violations (DESIGN.md §11): rejected at parse time with the byte
# offset of the offending field, before any simulation starts.
expect_reject "duration must be > 0 seconds or 'inf'" --faults='degrade@1:gpu0:0.5:0'
expect_reject "at byte" --faults='fail@1:gpu0;degrade@2:gpu0:0.5:nan'
expect_reject "must be 0, 1, true or false" --faults='rand:ext=2'
expect_reject "expected a target like 'nic0'" --faults='flow_flap@1:nic'
expect_reject "expected a target like" --faults='brownout@1:rack-1:0.5:1'
# Values past their target type's range and malformed rand: options reject; they must not
# wrap (gpu4294967296 is not gpu0), read as 0, or let a later key silently win.
expect_reject "expected a target like 'gpu0'" --faults='fail@1:gpu4294967296'
expect_reject "seed must be an unsigned integer" --faults='rand:seed=abc,mtbf=1,horizon=3'
expect_reject "duplicate rand option 'seed'" --faults='rand:seed=1,seed=2,mtbf=1,horizon=3'

# Scheduler-mode grammars (DESIGN.md §13): --sched, --jobs, --trace and --quota are all
# parsed up front; malformed specs are typed errors with the byte offset of the offending
# field, before any job is admitted.
expect_reject "unknown scheduling policy" --sched=bogus --jobs='train@0'
expect_reject "at byte" --sched=fifo --jobs='train@'
expect_reject "unknown job option" --sched=fifo --jobs='train@0:color=red'
expect_reject "duplicate job option" --sched=fifo --jobs='train@0:gpus=2,gpus=4'
expect_reject "trace kind must be" --sched=fifo --trace='weekly:seed=1,rate=1,horizon=9'
expect_reject "at byte" --sched=fifo --trace='poisson:seed=1,rate=-1,horizon=9'
expect_reject "duplicate trace option" --sched=fifo --trace='poisson:seed=1,seed=2,rate=1,horizon=9'
expect_reject "seed must be an unsigned integer" --sched=fifo --trace='poisson:seed=-1,rate=1,horizon=9'
expect_reject "require burst= and period=" --sched=fifo --trace='bursty:seed=1,rate=1,horizon=9'
expect_reject "do not apply to poisson" --sched=fifo --trace='poisson:seed=1,rate=1,horizon=9,burst=2'
expect_reject "burst= only applies to bursty" --sched=fifo --trace='diurnal:seed=1,rate=1,horizon=9,period=3,burst=2'
expect_reject "at byte" --sched=priority --jobs='train@0' --quota='t0:mem_gib=-4'
expect_reject "duplicate quota for tenant" --sched=priority --jobs='train@0' --quota='t0:bw=0.5;t0:bw=0.25'

# Scheduler flags outside scheduler mode, and single-run modes inside it, are both
# rejected up front (plain typed message, exit 2).
for args in "--jobs=train@0" "--quota=t0:bw=0.5" "--sched=fifo --jobs=train@0 --lint"; do
  # shellcheck disable=SC2086
  err=$("$sim" $args 2>&1 >/dev/null)
  code=$?
  if [[ $code -ne 2 || "$err" != *"--sched"* || "$err" != *"--help"* ]]; then
    echo "FAIL $args : exit $code, stderr: $err" >&2
    failures=$((failures + 1))
  else
    echo "ok   $args -> exit 2 (scheduler-mode gating)"
  fi
done

# --tune and the elastic --faults run end in no run report: each report flag is refused
# (exit 2) instead of being dropped by a run that exits 0 and writes nothing.
out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT
for mode in --tune --faults=fail@1:gpu1; do
  for flag in --json="$out_dir/r.json" --csv="$out_dir/r.csv" --trace="$out_dir/r.trace" \
      --timeline --explain; do
    err=$("$sim" --model=lenet "$mode" "$flag" 2>&1 >/dev/null)
    code=$?
    want="${mode%%=*} cannot be combined"
    if [[ $code -ne 2 || "$err" != *"$want"* || "$err" != *"--help"* ]]; then
      echo "FAIL $mode $flag : exit $code, stderr: $err" >&2
      failures=$((failures + 1))
    else
      echo "ok   $mode $flag -> exit 2 (report flag refused)"
    fi
  done
done

# expect_invalid <expected-substring> <flag...>: well-formed flags whose configuration
# fails validation must exit 1 with the typed error on stderr, not crash.
expect_invalid() {
  local expected=$1
  shift
  local err
  err=$("$sim" "$@" 2>&1 >/dev/null)
  local code=$?
  if [[ $code -ne 1 || "$err" != *"INVALID_ARGUMENT"* || "$err" != *"$expected"* ]]; then
    echo "FAIL $* : exit $code, want 1 with '$expected'; stderr: $err" >&2
    failures=$((failures + 1))
  else
    echo "ok   $* -> exit 1 ($expected)"
  fi
}

# Network-scoped fault targets are validated against the cluster shape before the run.
expect_invalid "targets nic5" --nodes=2 --scheme=harmony-dp --microbatches=2 \
  --faults='flow_flap@1:nic5'
# baseline-pp places one 1F1B stage per GPU: more GPUs than layers is a validation error,
# in a single run and as a scheduled job, not an abort inside the plan builder.
stages="baseline-pp needs at least one layer per pipeline stage"
expect_invalid "$stages" --model=lenet --scheme=baseline-pp --gpus=8
expect_invalid "$stages" --sched=fifo --nodes=2 \
  --jobs='train@0:model=lenet,scheme=baseline-pp,gpus=8'
# The tuner checks every sweep point's shape before it builds anything, and a sweep with
# no feasible point names its smallest working set instead of aborting.
expect_invalid "iterations must be >= 1" --tune --iterations=0
expect_invalid "microbatches must be >= 1" --tune --microbatches=0
expect_invalid "num_gpus must be >= 1" --tune --gpus=0
expect_invalid "smallest single-task working set in the sweep" --model=bert-large --tune \
  --gpu_memory_gib=0.01

# A report that cannot be written is an error (exit 1), never a "wrote ..." success line:
# /dev/full accepts the open and fails only when the text is flushed.
for args in "--iterations=1 --csv=/dev/full" "--lint --iterations=1 --json=/dev/full"; do
  # shellcheck disable=SC2086
  err=$("$sim" $args 2>&1 >/dev/null)
  code=$?
  if [[ $code -ne 1 || "$err" != *"failed writing /dev/full"* ]]; then
    echo "FAIL $args : exit $code, want 1 with a write error; stderr: $err" >&2
    failures=$((failures + 1))
  else
    echo "ok   $args -> exit 1 (write error)"
  fi
done

# Unknown flags are rejected up front with the full usage text.
err=$("$sim" --no_such_flag=1 2>&1 >/dev/null)
code=$?
if [[ $code -ne 2 || "$err" != *"no_such_flag"* || "$err" != *"Usage"* && "$err" != *"usage"* ]]; then
  echo "FAIL --no_such_flag : exit $code, stderr: $err" >&2
  failures=$((failures + 1))
else
  echo "ok   --no_such_flag -> exit 2 with usage"
fi

# Well-formed invocations still work: --help exits 0, and --lint on a clean default plan
# exits 0 with a clean report line.
if ! "$sim" --help >/dev/null 2>&1; then
  echo "FAIL --help : non-zero exit" >&2
  failures=$((failures + 1))
else
  echo "ok   --help -> exit 0"
fi

lint_out=$("$sim" --lint --iterations=1 2>&1)
if [[ $? -ne 0 || "$lint_out" != *"clean"* ]]; then
  echo "FAIL --lint on default plan: $lint_out" >&2
  failures=$((failures + 1))
else
  echo "ok   --lint -> exit 0, clean report"
fi

if [[ $failures -ne 0 ]]; then
  echo "FAIL $failures CLI error-handling check(s)" >&2
  exit 1
fi
echo "OK   harmony_sim CLI error handling"
