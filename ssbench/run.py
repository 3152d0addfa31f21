#!/usr/bin/env python3
"""Build and run the ShieldStore repository benchmark.

    python3 ssbench/run.py --workload get_hot --seed 1 --seconds 15 --trace 0
    python3 ssbench/run.py --workload all --seed 2      # every workload
    python3 ssbench/run.py --smoke                      # metric-name check

Run from the repository root. The first run configures and builds the
daemon and the load generator (Release) under .bench_build/ssbench; later
runs reuse that build. The generator starts shieldstore_server itself, so
nothing else needs to be running. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["get_hot", "get_cold", "set_durable", "mixed_replicated"]
RUN_TIMEOUT_S = 170
SMOKE_SCALE = "0.05"


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "ssbench"


def build():
    """Configures (once) and builds the daemon and the generator."""
    out = build_dir()
    if not (ROOT / "src").is_dir() or not (ROOT / "tools").is_dir():
        print("ssbench: run from a ShieldStore checkout (src/ and tools/ are missing)",
              file=sys.stderr)
        return None
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(out), "-j", jobs, "--target", "ssbench_gen",
           "shieldstore_server"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return out


def run_one(out, workload, seed, seconds, trace, scale=None):
    """Runs the generator once; returns (exit code, parsed last JSON line)."""
    cmd = [str(out / "ssbench_gen"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--server", str(out / "tools" / "shieldstore_server"),
           "--work-dir", str(out / "run" / f"{workload}-{os.getpid()}")]
    if scale is not None:
        cmd += ["--scale", scale]
    # Own process group: a timeout, or this script being stopped, kills the
    # generator and its daemons.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"ssbench: {workload} timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    sys.stdout.write(stdout)
    sys.stdout.flush()
    rc = proc.returncode
    lines = [line for line in stdout.splitlines() if line.strip()]
    last = lines[-1] if lines else None
    try:
        result = json.loads(last) if last else None
    except json.JSONDecodeError:
        result = None
    if rc == 0 and (not isinstance(result, dict) or
                    set(result) != {"correct", "attempted", "failed", "metrics"}):
        print("ssbench: generator printed no result line", file=sys.stderr)
        rc = 1
    return rc, result


def smoke(out):
    """Runs every workload small, both modes, and checks the metric names
    against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            rc, result = run_one(out, workload, 1, 1, trace, SMOKE_SCALE)
            got = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
            if rc != 0 or got != want[trace]:
                ok = False
                print(f"smoke: {workload} trace {trace}: rc {rc}; missing "
                      f"{sorted(set(want[trace]) - set(got))}, unexpected "
                      f"{sorted(set(got) - set(want[trace]))}, unit mismatches "
                      f"{sorted(k for k in got if k in want[trace] and got[k] != want[trace][k])}",
                      file=sys.stderr)
    print("smoke: metric names match BENCHMARK.json" if ok else "smoke: FAILED",
          file=sys.stderr)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short runs that check every metric name against BENCHMARK.json")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload or --smoke is required")

    out = build()
    if out is None:
        print("ssbench: build failed", file=sys.stderr)
        return 1
    if args.smoke:
        return smoke(out)
    if args.workload != "all":
        rc, _ = run_one(out, args.workload, args.seed, args.seconds, args.trace)
        return rc

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        rc, result = run_one(out, workload, args.seed, args.seconds, args.trace)
        worst = worst or rc
        if result is None:
            total["correct"] = False
            continue
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(total))
    return worst


if __name__ == "__main__":
    sys.exit(main())
