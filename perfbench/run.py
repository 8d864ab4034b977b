#!/usr/bin/env python3
"""Build `dctstream` and the benchmark harness from source, then run one
workload of the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve-ingest --seed 1 --seconds 10 --trace 0

Every argument is passed to the harness (`perfbench/src/main.rs`), with
`--dctstream` pointing at the freshly built binary. Both builds go to
`$CARGO_TARGET_DIR` (default `.bench_build`). Build output goes to
standard error, so the last line of standard output is the harness's
JSON result. The exit code is the harness's.
"""

import os
import subprocess
import sys


def main() -> int:
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        print("perfbench: run from the repository root (no Cargo.toml and crates/ here)",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "dctstream-cli",
         "--bin", "dctstream"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return done.returncode or 1
    release = os.path.join(target, "release")
    harness = [os.path.join(release, "perfbench"), *sys.argv[1:],
               "--dctstream", os.path.join(release, "dctstream")]
    return subprocess.run(harness, env=env, stdin=subprocess.DEVNULL).returncode


if __name__ == "__main__":
    sys.exit(main())
