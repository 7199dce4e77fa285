#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build` under the checkout root), then runs it in its own
process and passes its output through: the last line of stdout is the JSON
result.  Exits non-zero without a result when the build or the run fails.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A run measures for --seconds (at most 60) plus set-up and the rest of
# its last input cycle; anything near this limit is a hang.
RUN_TIMEOUT_S = 170


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(ROOT / "perfbench" / "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stderr)
        sys.stderr.write("perfbench: build failed\n")
        return 1
    binary = target / "release" / "perfbench"
    cmd = [str(binary), *sys.argv[1:], "--root", str(ROOT), "--out", str(target / "perfbench-out")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
