#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload fork_join --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root.  The runtime is built from ../src into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).  The last
line of stdout is one JSON object: correct, attempted, failed and the
metrics BENCHMARK.json names (end_to_end with --trace 0, per_layer with
--trace 1).  Exits non-zero without that line when the build or the run
fails.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Environment knobs the runtime would read behind the benchmark's back
# (OMP_* ICVs, OMPMCA_BARRIER, OMPMCA_LEASE_WAIT_NS, telemetry, ...).
STRIPPED_PREFIXES = ("OMP_", "OMPMCA_")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def run_checked(cmd, timeout):
    """Runs cmd with its output on stderr; True on exit code 0."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode == 0
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return False


def build():
    """Configures (once) and builds; returns the binary path or None."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_checked(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return None
    if not run_checked(["cmake", "--build", out, "-j", "4"], BUILD_TIMEOUT_S):
        return None
    return os.path.join(out, "perfbench")


def git_sha():
    """HEAD's sha read from the checkout's own .git, or "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_times():
    """The aggregate "cpu" line of /proc/stat as a list of jiffies, or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_pct(before, after):
    """Share of all CPU time the hypervisor gave to other guests, in %.
    A run with a high share measured the shared host, not the runtime."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return round(delta[7] / total * 100.0, 2) if total > 0 else None


def run_once(binary, spec, workload, seed, seconds, trace):
    """Runs one measurement; returns (result, fingerprint) or None."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(STRIPPED_PREFIXES)}
    stripped = {k: v for k, v in os.environ.items()
                if k.startswith(STRIPPED_PREFIXES)}
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out",
                os.path.join(build_dir(), f"trace-{workload}.json")]
    before = cpu_times()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, timeout=RUN_TIMEOUT_S, text=True,
                              check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None
    host_steal_pct = steal_pct(before, cpu_times())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{workload}: exited with {proc.returncode}")
        return None
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: unparseable result line")
        return None

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    correct = raw["failed"] == 0 and raw["attempted"] > 0
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or \
                not math.isfinite(got["value"]):
            log(f"{workload}: metric {m['name']} missing or malformed")
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for line in lines[:-1]:
        print(line)
    fingerprint = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": raw["build"]["compiler"],
        "build_type": raw["build"]["build_type"],
        "git_sha": git_sha(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "stripped_env": stripped,
        "host_steal_pct": host_steal_pct,
    }
    result = {"correct": correct, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return result, fingerprint


def self_check(binary, spec):
    """Runs every workload briefly, traced and not, and checks that every
    metric BENCHMARK.json names is emitted and every output verified."""
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            got = run_once(binary, spec, w["name"], 1, 1, trace)
            passed = got is not None and got[0]["correct"]
            print(f"self-check {w['name']} trace={trace}: "
                  f"{'PASS' if passed else 'FAIL'}")
            ok = ok and passed
    print("self-check: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    binary = build()
    if binary is None:
        log("build failed")
        return 1
    if args.self_check:
        return self_check(binary, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"--workload must be one of {names}")
        return 2
    got = run_once(binary, spec, args.workload, args.seed, args.seconds,
                   args.trace)
    if got is None:
        return 1
    result, fingerprint = got
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
