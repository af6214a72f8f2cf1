#!/usr/bin/env python3
"""Build the repository's benchmark and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is one of train-fast, compile-suite, serve-mixed, serve-miss (see
perfbench/README.md). The benchmark and the posetrl daemon it starts are
built from source with dune first. The last line of standard output is
the result object; build output goes to standard error. The benchmark
runs in its own process group, which is killed as a whole if it
overruns.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("train-fast", "compile-suite", "serve-mixed", "serve-miss")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, **kw):
    """Run cmd in a new process group; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {cmd[0]} overran {timeout} s and was killed", file=sys.stderr)
        return 124
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # The benchmark measures the repository it sits in: without the
    # project and its sources there is nothing to build.
    missing = [p for p in ("dune-project", "lib", "bin", "perfbench/dune")
               if not os.path.exists(p)]
    if missing:
        print("run.py: not a checkout of the repository (missing %s); "
              "run from its root" % ", ".join(missing), file=sys.stderr)
        return 2

    build = run_group(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/posetrl.exe"],
        BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
    if build != 0:
        print("run.py: build failed", file=sys.stderr)
        return build or 1

    sys.stdout.flush()
    return run_group(
        ["_build/default/perfbench/bench.exe",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--posetrl", "_build/default/bin/posetrl.exe"],
        RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
