#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/pbench.exe from source
with dune (first run only does real work), pins the benchmark process to
one CPU, runs it and re-prints its output.  The last stdout line is the
result JSON object.  Exits non-zero when the build fails, a verdict check
fails or the result is malformed.  Extra arguments (--quick,
--corrupt-reference) are passed to pbench.exe; see README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "pbench.exe")
WORKLOADS = ("online-mmul", "trace-analysis", "serve-stream")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    # the shared dune cache lives outside the checkout: keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            [dune, "build", "--root", ROOT, "-j", "2", "./perfbench/pbench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (run from the root of a full checkout)")


def pin_cpu():
    # One CPU for the whole process: serve-stream runs three domains, and
    # unpinned multi-domain timings wander with the host's scheduling.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = ap.parse_known_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(ROOT, "perfbench", "_out")] + extra
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            preexec_fn=pin_cpu)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark run timed out", 1)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stdout.write(out)
        fail("malformed result line", 1)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
