#!/usr/bin/env python3
"""Builds perfbench from the repository's sources and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload <dp_cluster|pp_server|lms_server|job_stream> \\
      --seed <n> --seconds <n> --trace <0|1> [--job-trace-seed <n>]

The first run configures and builds into .bench_build/perfbench; later runs rebuild only
what changed. The last line of stdout is the JSON result; run.py withholds it and exits
with code 2 when its metric names or units differ from BENCHMARK.json. See
perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
REQUIRED = ("src/CMakeLists.txt", "src/core/session.h", "src/runtime/cluster_scheduler.h")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Identifies the simulator code measured; the tree being timed need not be a git
    checkout."""
    digest = hashlib.sha256()
    for path in sorted(p for p in (ROOT / "src").rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout is reserved for the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def metric_mismatch(argv, result_line):
    """Describes how the result's metrics differ from those BENCHMARK.json lists for the
    run's mode; empty when they agree."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--trace", default="0")
    trace = parser.parse_known_args(argv)[0].trace == "1"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in json.loads(result_line)["metrics"].items()}
    return "" if got == want else f"printed {got}, BENCHMARK.json lists {want}"


def main():
    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        fail("simulator sources not found (" + ", ".join(missing) + ")")
    build()
    # The measured program is the serial simulator: an exported thread count must not
    # change it.
    env = {k: v for k, v in os.environ.items() if k != "HARMONY_SIM_THREADS"}
    command = [str(BUILD / "perfbench"), *sys.argv[1:],
               "--spans-out", str(BUILD / "spans.json"),
               "--source-digest", source_digest()]
    run = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode == 0 and lines:
        mismatch = metric_mismatch(sys.argv[1:], lines[-1])
        if mismatch:
            print("\n".join(lines[:-1]))
            fail("metrics differ from BENCHMARK.json: " + mismatch)
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
