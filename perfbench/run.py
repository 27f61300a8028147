#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds `monomapd` and the benchmark in
release mode (into $CARGO_TARGET_DIR, default `target`), then runs the
benchmark. With `--workload`, the last line of standard output is the
result JSON. Without it, every workload runs in a process of its own
(so none inherits another's peak RSS), each printing its row and its
result line. Build output goes to standard error. Exits non-zero,
printing no result, if either build fails.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
WORKLOADS = ["cold-4x4", "cold-20x20", "daemon-mix"]


def run(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 1
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    target = os.environ.get("CARGO_TARGET_DIR", "target")
    builds = [
        ["cargo", "build", "--release", "--offline", "--bin", "monomapd"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        if run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    bench = os.path.join(target, "release", "perfbench")
    daemon = os.path.join(target, "release", "monomapd")
    args = sys.argv[1:]
    runs = [args] if "--workload" in args else [["--workload", w] + args for w in WORKLOADS]
    for run_args in runs:
        sys.stdout.flush()
        code = run([bench, "--monomapd", daemon] + run_args, RUN_TIMEOUT_S)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
