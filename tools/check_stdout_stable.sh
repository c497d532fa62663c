#!/usr/bin/env bash
# Golden-stdout determinism gate (ctest label: golden).
#
# The experiment benches must produce byte-identical stdout on every run and across code
# changes that claim to be performance-only (stderr is exempt: wall-clock diagnostics live
# there). This script runs each golden bench TWICE — catching nondeterminism within one
# build (iteration-order leaks, uninitialized reads, time-dependent output) — and compares
# the hash against the committed manifest, catching semantic drift against the recorded
# baseline. The two passes run concurrently, and every bench runs in its own temporary
# working directory, so the BENCH_*.json files some benches write there never collide
# between passes or land in the caller's directory.
#
# Usage: check_stdout_stable.sh <bench_dir> [manifest]
#   bench_dir  directory holding the built bench binaries (e.g. build/bench)
#   manifest   golden sha256 list (default: tools/golden_stdout.sha256 next to this script)
#
# To regenerate the manifest after an intentional output change:
#   cd <scratch>; for b in <benches>; do <bench_dir>/$b > $b.stdout; done
#   sha256sum *.stdout > tools/golden_stdout.sha256
set -u

bench_dir=${1:?usage: check_stdout_stable.sh <bench_dir> [manifest]}
script_dir=$(cd "$(dirname "$0")" && pwd)
manifest=${2:-"$script_dir/golden_stdout.sha256"}

benches=(
  bench_fig1_model_growth
  bench_fig2a_dp_swap
  bench_fig2b_interconnect
  bench_fig2c_pp_imbalance
  bench_fig4_schedule
  bench_fig5_swap_volume
  bench_ablation_opts
  bench_e2e_comparison
  bench_chaos
  bench_cluster_scaleout
  bench_multitenant
  bench_whatif_interconnect
  bench_fault_recovery
  bench_tango_tuner
  bench_tp_hugelayer
)

if [[ -d "$bench_dir" ]]; then
  bench_dir=$(cd "$bench_dir" && pwd)  # the benches run from other directories
fi
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# run_pass NAME: runs every bench once, each from its own working directory, writing its
# stdout to $workdir/<bench>.NAME and its exit code to $workdir/<bench>.NAME.rc.
run_pass() {
  local name=$1 bench
  for bench in "${benches[@]}"; do
    [[ -x "$bench_dir/$bench" ]] || continue
    mkdir -p "$workdir/cwd.$name/$bench"
    (cd "$workdir/cwd.$name/$bench" && "$bench_dir/$bench" > "$workdir/$bench.$name" 2> /dev/null)
    echo $? > "$workdir/$bench.$name.rc"
  done
}

# Run 1's output keeps the name the manifest lists (<bench>.stdout).
run_pass stdout &
run_pass run2 &
wait

fail=0
for bench in "${benches[@]}"; do
  bin="$bench_dir/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "FAIL $bench: binary not found at $bin (build first)"
    fail=1
    continue
  fi
  if [[ $(cat "$workdir/$bench.stdout.rc") != 0 ]]; then
    echo "FAIL $bench: run 1 exited non-zero"
    fail=1
    continue
  fi
  if [[ $(cat "$workdir/$bench.run2.rc") != 0 ]]; then
    echo "FAIL $bench: run 2 exited non-zero"
    fail=1
    continue
  fi
  if ! cmp -s "$workdir/$bench.stdout" "$workdir/$bench.run2"; then
    echo "FAIL $bench: stdout differs between two runs of the same binary"
    fail=1
    continue
  fi
  echo "OK   $bench: two runs byte-identical"
done

if [[ -f "$manifest" ]]; then
  # sha256sum -c wants the hashed filenames relative to the cwd.
  if (cd "$workdir" && sha256sum -c --quiet "$manifest"); then
    echo "OK   all stdout hashes match the committed manifest"
  else
    echo "FAIL stdout drifted from the committed golden manifest ($manifest);"
    echo "     if the change is intentional, regenerate it (see header comment)"
    fail=1
  fi
else
  echo "WARN no golden manifest at $manifest — ran the two-run stability check only"
fi

exit $fail
