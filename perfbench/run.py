#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload figures|rom-decode|verify \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/bench.exe with dune from
the sources in the tree, then runs it with the same arguments; the last
line of standard output is the JSON result.  Exits non-zero, without a
result, when the tree cannot be built.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
EXE = pathlib.Path("_build/default/perfbench/bench.exe")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def revision():
    """The git revision, or a digest of the library sources when the tree
    is not a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    for p in sorted(pathlib.Path("lib").rglob("*.ml*")):
        h.update(str(p).encode())
        h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["figures", "rom-decode", "verify"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the repository root")

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0 or not EXE.exists():
        fail("build failed")

    env["PERFBENCH_GIT_REV"] = revision()
    cmd = [str(EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
