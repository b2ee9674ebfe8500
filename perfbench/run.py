#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The arguments go to perfbench/main.exe,
whose last line of standard output is the JSON result.  A failed build
exits non-zero without printing a result.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def run_group(argv, timeout, **kwargs):
    """Run argv in its own process group; on timeout kill the group and wait."""
    proc = subprocess.Popen(argv, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"{argv[0]}: timed out after {timeout} s", file=sys.stderr)
        return 124


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"]
    # Build output goes to stderr: stdout carries the result only.
    code = run_group(build, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        print(f"perfbench: build failed (exit {code})", file=sys.stderr)
        return 1
    return run_group([EXE] + sys.argv[1:], RUN_TIMEOUT_S, env=env)


if __name__ == "__main__":
    sys.exit(main())
