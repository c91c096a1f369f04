#!/usr/bin/env python3
"""Runs one workload of the bootleg serving/training benchmark.

    python3 perfbench/run.py --workload serve_zipf_burst --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the benchmark (`perfbench/Cargo.toml`,
into $CARGO_TARGET_DIR, default `.bench_build`), generates the seeded inputs
under `.bench_work/`, measures, and prints a run record followed by the
result as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. Any failed check, or a failed build, exits non-zero without
a result line.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# A run is flagged when the load generator released requests late or the
# hypervisor took this much of the CPU: its latencies are then suspect.
LATE_FLAG_MS = 2.0
STEAL_FLAG = 0.10
# The KB, corpus and model are one fixed dataset; --seed varies the traffic
# and the training order.
DATASET_SEED = 2021
# Every run must end within 180 s (the first may spend 900 s building);
# the budget starts once the build is done.
DEADLINE_S = 175.0


def cpu_times():
    """Aggregate jiffies from /proc/stat: (total, steal)."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return sum(fields[:8]), fields[7]


def cpu_facts():
    model, avx2 = "unknown", False
    with open("/proc/cpuinfo") as f:
        for line in f:
            key, _, value = line.partition(":")
            key = key.strip()
            if key == "model name" and model == "unknown":
                model = value.strip()
            elif key == "flags":
                avx2 = avx2 or "avx2" in value.split()
    return model, avx2


def source_digest(root):
    """The commit if the checkout has one, else a digest of the sources."""
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(root, ".git", ref[5:])
            if os.path.exists(path):
                with open(path) as f:
                    return f.read().strip()
        return ref
    h = hashlib.sha256()
    for top in ("crates", "perfbench", "Cargo.toml", "Cargo.lock"):
        base = os.path.join(root, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, n) for d, _, names in os.walk(base) for n in names
        )
        for p in paths:
            if p.endswith((".rs", ".toml", ".lock", ".py")):
                h.update(p[len(root):].encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()

    env = dict(os.environ)
    target = os.path.join(root, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, timeout=850,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    binary = os.path.join(target, "release", "bootleg-perfbench")
    deadline = time.monotonic() + DEADLINE_S
    budget = lambda: max(1.0, deadline - time.monotonic())

    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    out_dir = os.path.join(root, ".bench_runs")
    try:
        gen = subprocess.run(
            [binary, "gen", "--seed", str(DATASET_SEED), "--dir", work],
            env=env, stdout=sys.stderr, timeout=budget(),
        )
        if gen.returncode != 0:
            sys.exit("perfbench: input generation failed")
        total0, steal0 = cpu_times()
        run = subprocess.run(
            [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--dir", work, "--out", out_dir],
            env=env, stdout=subprocess.PIPE, text=True, timeout=budget(),
        )
        total1, steal1 = cpu_times()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if run.returncode != 0:
        sys.exit(f"perfbench: run failed (exit {run.returncode})")
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = result.pop("info")
    steal = (steal1 - steal0) / max(1, total1 - total0)

    model, avx2 = cpu_facts()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cpu": model,
        "nproc": os.cpu_count(),
        "avx2": avx2,
        "steal_frac": steal,
        "workers": info.get("workers"),
        "pool_threads_serve": info.get("pool_threads_serve"),
        "pool_threads_train": info.get("pool_threads_train"),
        "source": source_digest(root),
        "info": info,
    }
    flags = []
    late = info.get("late_ms_p99", 0.0)
    if late > LATE_FLAG_MS:
        flags.append(f"load generator ran late: p99 {late:.3f} ms > {LATE_FLAG_MS} ms")
    if steal > STEAL_FLAG:
        flags.append(f"steal share {steal:.3f} > {STEAL_FLAG}")
    record["flags"] = flags
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "records.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    print("run record: " + json.dumps(record))
    for flag in flags:
        print("FLAG: " + flag)
    if args.trace:
        result["metrics"]["run.steal_frac"] = {"value": steal, "unit": "frac"}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
