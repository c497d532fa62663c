#!/usr/bin/env python3
"""Host-cost scale ladder: wall time and peak RSS of one harmony_sim run per GPU count.

Runs bert-large Harmony-DP (`--nodes_per_rack=16 --iterations=2`, 4 GPUs per node) at
each GPU count under LRU and under lookahead eviction, one harmony_sim process per point,
and writes BENCH_scale.json. Each point records the run's wall seconds, the child
process's own peak RSS (from wait4, so earlier points cannot inflate it), a digest of its
stdout (equal digests mean byte-identical reports) and its time per GPU relative to the
64-GPU point of the same policy.

Run from the repository root after building the Tier-1 tree:

  python3 tools/scale_ladder.py [--binary build/tools/harmony_sim] [--out BENCH_scale.json]
      [--gpus 8,64,256,512,1024,2048,4096]

Points run one at a time and the largest needs a few GB of RAM.

With --check [BENCH_scale.json], the script writes nothing: it reruns the given points and
exits 1 unless each one's stdout digest and exit code equal the committed point's. ctest
runs it at 8 and 64 GPUs (label `golden`).
"""
import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GPUS_PER_NODE = 4
BASE_ARGS = ["--model=bert-large", "--scheme=harmony-dp", f"--gpus={GPUS_PER_NODE}",
             "--nodes_per_rack=16", "--iterations=2"]
POLICIES = (("lru", "false"), ("lookahead", "true"))


def build_type(binary):
    """CMAKE_BUILD_TYPE of the build tree that holds `binary`, or "unknown"."""
    for parent in binary.resolve().parents:
        cache = parent / "CMakeCache.txt"
        if cache.is_file():
            match = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache.read_text(), re.M)
            return match.group(1) if match and match.group(1) else "unknown"
    return "unknown"


def run_point(binary, gpus, lookahead):
    """Runs one configuration; returns (wall_s, peak_rss_mb, stdout_sha256, exit_code)."""
    argv = [str(binary), *BASE_ARGS, f"--nodes={gpus // GPUS_PER_NODE}",
            f"--lookahead_eviction={lookahead}"]
    digest = hashlib.sha256()
    start = time.monotonic()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    for chunk in iter(lambda: child.stdout.read(1 << 16), b""):
        digest.update(chunk)
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.monotonic() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, digest.hexdigest()[:16], child.returncode


def check(binary, ladder, committed_path):
    """Reruns each point and compares its digest and exit code with the committed ladder."""
    committed = {(p["gpus"], p["eviction"]): p
                 for p in json.loads(committed_path.read_text())["points"]}
    mismatches = 0
    for gpus in ladder:
        for policy, flag in POLICIES:
            want = committed.get((gpus, policy))
            _, _, digest, code = run_point(binary, gpus, flag)
            if want is None:
                verdict = f"no committed point in {committed_path.name}"
            elif (digest, code) != (want["stdout_sha256"], want["exit_code"]):
                verdict = (f"MISMATCH: committed {want['stdout_sha256']} exit "
                           f"{want['exit_code']}")
            else:
                verdict = "ok"
            mismatches += verdict != "ok"
            print(f"{gpus:>5} {policy:>9} {digest:>16} exit {code}  {verdict}", flush=True)
    return 1 if mismatches else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", default=str(ROOT / "build" / "tools" / "harmony_sim"))
    parser.add_argument("--out", default=str(ROOT / "BENCH_scale.json"))
    parser.add_argument("--gpus", default="8,64,256,512,1024,2048,4096")
    parser.add_argument("--check", nargs="?", const=str(ROOT / "BENCH_scale.json"),
                        metavar="JSON", help="compare stdout digests with a committed "
                        "ladder instead of writing one")
    args = parser.parse_args()
    binary = Path(args.binary)
    if not binary.is_file():
        sys.exit(f"scale_ladder.py: no harmony_sim at {binary}; build the tree first")
    ladder = [int(g) for g in args.gpus.split(",")]
    if any(g <= 0 or g % GPUS_PER_NODE != 0 for g in ladder):
        sys.exit(f"scale_ladder.py: every GPU count must be a positive multiple of "
                 f"{GPUS_PER_NODE}")

    if args.check:
        return check(binary, ladder, Path(args.check))

    points = []
    print(f"{'gpus':>5} {'eviction':>9} {'wall_s':>8} {'rss_mb':>8} {'stdout':>16}")
    for gpus in ladder:
        for policy, flag in POLICIES:
            wall, rss, digest, code = run_point(binary, gpus, flag)
            points.append({"gpus": gpus, "nodes": gpus // GPUS_PER_NODE, "eviction": policy,
                           "wall_s": round(wall, 3), "peak_rss_mb": round(rss, 1),
                           "stdout_sha256": digest, "exit_code": code})
            print(f"{gpus:>5} {policy:>9} {wall:>8.2f} {rss:>8.1f} {digest:>16}"
                  + ("" if code == 0 else f"  exit {code}"), flush=True)

    # Time per GPU relative to the 64-GPU point of the same policy: 1.0 is linear scaling.
    for policy, _ in POLICIES:
        anchor = next((p for p in points if p["eviction"] == policy and p["gpus"] == 64
                       and p["exit_code"] == 0), None)
        for p in points:
            if anchor is not None and p["eviction"] == policy and p["exit_code"] == 0:
                p["time_per_gpu_vs_64"] = round(
                    (p["wall_s"] / p["gpus"]) / (anchor["wall_s"] / 64), 3)

    report = {
        "description": "Host cost of one harmony_sim run vs GPU count (tools/scale_ladder.py): "
                       "bert-large Harmony-DP, 4 GPUs per node, 16 nodes per rack, 2 "
                       "iterations, under LRU and lookahead eviction. wall_s is wall-clock "
                       "seconds of the whole process, peak_rss_mb its own maximum resident "
                       "set, stdout_sha256 a digest of its report.",
        "context": {"nproc": os.cpu_count(), "build_type": build_type(binary),
                    "command": " ".join(["harmony_sim", *BASE_ARGS,
                                         "--nodes=<gpus/4>", "--lookahead_eviction=<bool>"])},
        "points": points,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0 if all(p["exit_code"] == 0 for p in points) else 1


if __name__ == "__main__":
    sys.exit(main())
