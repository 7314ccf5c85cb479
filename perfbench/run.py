#!/usr/bin/env python3
"""GraphZ benchmark runner: ingest, run and serve, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload pr-spill --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

It builds the `perfbench` package (release, offline) from this checkout,
runs one workload in a scratch directory under `.bench_work/`, and prints
the workload's result as the last line of standard output:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer ones; a traced run keeps its spans in
`.bench_work/trace-<workload>-<seed>.jsonl`. `--self-test` runs every
workload on a small graph, traced and untraced, and checks that each
metric BENCHMARK.json names is reported with its unit. See
perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("ingest-text", "pr-spill", "bfs-fit", "serve-open")
# The binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
SELF_TEST_SCALE = 13
# serve-open runs with one malloc arena and no thread-stack cache, so that
# its peak RSS is the memory it holds rather than what the allocator
# retained from set-up's threads (48-70 MiB between identical runs
# otherwise, against ~17 MiB held). Its request path does not allocate.
SERVE_MALLOC_TUNABLES = "glibc.malloc.arena_max=1:glibc.pthread.stack_cache_size=0"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Build the benchmark binary; return its path."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"cargo build failed with exit code {proc.returncode}")
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if (msg.get("reason") == "compiler-artifact"
                and msg.get("target", {}).get("name") == "perfbench"
                and msg.get("executable")):
            exe = msg["executable"]
    if exe is None:
        raise RuntimeError("cargo build produced no perfbench executable")
    return exe


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]], [w["name"] for w in spec["workloads"]]


def run_workload(exe, workload, seed, seconds, trace, scale=None):
    """Run one workload; return (result dict, other stdout lines)."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work", work,
           "--trace-file", os.path.join(WORK_ROOT, f"trace-{workload}-{seed}.jsonl")]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    # Library scratch files that default to the temp dir stay in the checkout.
    env = dict(os.environ, TMPDIR=work)
    if workload == "serve-open":
        env["GLIBC_TUNABLES"] = SERVE_MALLOC_TUNABLES
    os.makedirs(work)
    # Earlier runs' files reach the disk now, not during this run.
    os.sync()
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited with code {proc.returncode}")
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError(f"{workload} printed no result")
    return json.loads(lines[-1]), lines[:-1]


def check_result(result, trace):
    """Problems with a result's shape against BENCHMARK.json; empty if none."""
    want, _ = expected_metrics(trace)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
    got = result.get("metrics", {})
    for name, unit in want:
        if name not in got:
            problems.append(f"metric {name} missing")
        elif got[name].get("unit") != unit:
            problems.append(f"metric {name} has unit {got[name].get('unit')!r}, want {unit!r}")
        elif not isinstance(got[name].get("value"), (int, float)):
            problems.append(f"metric {name} has no numeric value")
    extra = set(got) - {n for n, _ in want}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number of at least 1")
    return problems


def self_test():
    """Every workload at small scale, untraced and traced: each metric of
    BENCHMARK.json is emitted with its unit, outputs check, self-checks
    pass."""
    started = time.time()
    exe = build()
    _, workloads = expected_metrics(False)
    if sorted(workloads) != sorted(WORKLOADS):
        log(f"BENCHMARK.json workloads {workloads} differ from {list(WORKLOADS)}")
        return 1
    unit = subprocess.run(["cargo", "test", "--release", "--offline", "--quiet",
                           "--manifest-path", os.path.join(HERE, "Cargo.toml")], cwd=ROOT)
    failures = 0 if unit.returncode == 0 else 1
    for workload in WORKLOADS:
        for trace in (False, True):
            label = f"{workload} trace={int(trace)}"
            try:
                result, _ = run_workload(exe, workload, 1, 2, trace, scale=SELF_TEST_SCALE)
            except (RuntimeError, ValueError) as e:
                log(f"FAIL {label}: {e}")
                failures += 1
                continue
            problems = check_result(result, trace)
            if not result.get("correct") or result.get("failed"):
                problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
            for p in problems:
                log(f"FAIL {label}: {p}")
            failures += bool(problems)
            if not problems:
                log(f"ok   {label}: {len(result['metrics'])} metrics")
    log(f"self-test {'passed' if failures == 0 else 'FAILED'} in {time.time() - started:.0f} s")
    return 0 if failures == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    try:
        exe = build()
        result, lines = run_workload(exe, args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, ValueError, OSError, subprocess.SubprocessError) as e:
        log(str(e))
        return 1
    problems = check_result(result, bool(args.trace))
    for p in problems:
        log(p)
    if problems:
        result["correct"] = False
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
