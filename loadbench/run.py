#!/usr/bin/env python3
"""Build vpbnd and the load driver from source, then run one workload.

    python3 loadbench/run.py --workload lookup|views --seed N \
        --seconds S --trace 0|1 [--corrupt-one]

Run it from anywhere inside a checkout of the repository. The build goes to
.bench_build/loadbench at the checkout root and the corpus files of a run to
.bench_build/work/<workload>. The last line of standard output is the result
object; the line before it is the run record. The exit status is non-zero if
the build fails, vpbnd cannot be started, or any answer differs from the
oracle (--corrupt-one forces one such answer, as a self-check).
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "loadbench")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build only the two targets the run needs."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "loadbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", BUILD, "-j", jobs,
               "--target", "vpbnd", "vpbnd_load"]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git_commit():
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["lookup", "views"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt-one", action="store_true",
                        help="flip one byte of one reply (oracle self-check)")
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 2

    work = os.path.join(ROOT, ".bench_build", "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(BUILD, "vpbnd_load"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--vpbnd", os.path.join(BUILD, "vpbnd"), "--workdir", work]
    if args.corrupt_one:
        cmd.append("--corrupt-one")
    env = dict(os.environ, VPBN_GIT_COMMIT=git_commit())
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # vpbnd children die with the driver (PR_SET_PDEATHSIG).
        proc.kill()
        proc.wait()
        log(f"driver exceeded {DRIVER_TIMEOUT_S} s")
        return 3
    finally:
        # The corpus files are large; keep only the record and spans.
        for name in os.listdir(work):
            if name.endswith((".xml", ".vpsn")):
                os.remove(os.path.join(work, name))


if __name__ == "__main__":
    sys.exit(main())
