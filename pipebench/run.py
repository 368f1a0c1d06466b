#!/usr/bin/env python3
"""Pipeline benchmark: one workload of the repro pipeline, timed end to end
(--trace 0) or per layer (--trace 1).

    python3 pipebench/run.py --workload distgnn-edge --seed 0 --seconds 18 --trace 0
    python3 pipebench/run.py --workload all --seed 0 --seconds 18

Run from the root of a checkout. Builds the program from source first (see
build.py), then runs it in one JVM. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}. Spark scratch files,
the JVM log and the span files stay under .bench_build/pipebench.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ("distgnn-edge", "distdgl-vertex", "distdgl-batch")
TIME_LIMIT_S = 170
HEAP = "3g"
# Spark runs local[N], N = min(MAX_CORES, cores available). The pass is
# mostly driver-side work; on a 4-core machine local[2] was both faster and
# steadier than local[4]. The graphs do not depend on N (see PipeBench).
MAX_CORES = 2

# JDK 17 module opens that Spark needs (spark-submit normally adds them).
OPENS = ["java.base/" + p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def git_commit():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
        return res.stdout.strip() if res.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


SEED_OPTIONS = ("graph-seed", "partition-seed", "sampler-seed")


def run(classpath, workload, trace, args, time_limit):
    """Run one workload in its own JVM and relay its standard output.
    Returns the exit code: 0 only if the JVM printed a result line."""
    cores = min(MAX_CORES, len(os.sched_getaffinity(0)))
    work = build.WORK
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [build.java(), f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           "-Djdk.reflect.useDirectMethodHandleAccessor=false"]
    cmd += [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
    cmd += ["-cp", classpath, "pipebench.PipeBench",
            "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace), "--cores", str(cores), "--work-dir", work, "--commit", git_commit()]
    for opt in SEED_OPTIONS:
        value = getattr(args, opt.replace("-", "_"))
        if value is not None:
            cmd += ["--" + opt, str(value)]
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(work, "spark-local"))
    log_path = os.path.join(work, f"jvm-{workload}.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, cwd=build.ROOT, env=env, stdout=subprocess.PIPE, stderr=log,
                                text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=time_limit)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print(f"timed out; JVM log in {log_path}", file=sys.stderr)
            return 4

    lines = out.rstrip("\n").splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        with open(log_path) as f:
            sys.stderr.write(f.read()[-4000:])
        print(f"no result (exit {proc.returncode}); JVM log in {log_path}", file=sys.stderr)
        return proc.returncode or 5
    print(out, end="", flush=True)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="'all' runs every workload, untraced and then traced")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    for opt in SEED_OPTIONS:
        ap.add_argument("--" + opt, type=int, help="overrides the seed --seed derives")
    args = ap.parse_args()

    start = time.monotonic()
    try:
        classpath = build.build()
    except build.BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 3
    time_limit = max(10, TIME_LIMIT_S - (time.monotonic() - start))

    if args.workload != "all":
        return run(classpath, args.workload, args.trace, args, time_limit)
    code = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} --trace {trace}", flush=True)
            code = run(classpath, workload, trace, args, time_limit) or code
    return code


if __name__ == "__main__":
    sys.exit(main())
