#!/usr/bin/env python3
"""Builds the program and the benchmark from source, then runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `ggd` daemon (driven by the traced runs' daemon probe) and the
`perfbench` harness in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the harness with scratch files under
`.bench_work`. Build output goes to stderr; the last stdout line is the
harness's JSON result. Exits non-zero without a result when either build
fails, e.g. outside a full checkout.
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", "Cargo.toml", "-p", "gdsii-guard", "--bin", "ggd"],
        ["--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for args in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    bin_dir = os.path.join(target, "release")
    cmd = [
        os.path.join(bin_dir, "perfbench"),
        *sys.argv[1:],
        "--ggd",
        os.path.join(bin_dir, "ggd"),
        # Relative on purpose: the daemon's Unix socket lives under it, and
        # socket paths are limited to about 100 bytes.
        "--work-dir",
        ".bench_work",
    ]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
