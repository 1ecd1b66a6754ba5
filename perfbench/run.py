#!/usr/bin/env python3
"""Builds the release retreet-serve and the perfbench load generator, then
runs one benchmark pass against the server.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Cargo's target directory is
$CARGO_TARGET_DIR, or .bench_build when unset.  Store files and span dumps
go to .perfbench_out.  The last stdout line is the JSON result printed by
the load generator; the exit code is non-zero when a build fails, an answer
is wrong or a workload leaves its path.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")

# A run ends well inside the three minutes a pass may take; builds may
# take longer on a cold target directory.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 900


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for args in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "retreet-serve"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(BENCH, "Cargo.toml")],
    ):
        result = subprocess.run(args, cwd=ROOT, env=env, stdout=sys.stderr,
                                timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            sys.exit(f"run.py: `{' '.join(args)}` failed")


def commit():
    # Look no further up than the repository root: outside a git checkout
    # the commit is simply unknown.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "retreet-serve", "Cargo.toml")):
        sys.exit("run.py: no retreet-serve sources next to perfbench/; "
                 "run from a full checkout of the repository")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    build(target_dir)
    release = os.path.join(target_dir, "release")
    args = [os.path.join(release, "perfbench"), *sys.argv[1:],
            "--server", os.path.join(release, "retreet-serve"),
            "--scratch", os.path.join(ROOT, ".perfbench_out"),
            "--commit", commit()]
    # A session of its own, so a timeout takes the spawned servers down
    # with the load generator.
    proc = subprocess.Popen(args, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: the run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
