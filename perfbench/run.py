#!/usr/bin/env python3
"""Build perfbench from source and run it.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload userver --seed 1 --seconds 10 --trace 0

Every argument is passed on to the benchmark (see perfbench/main.go). The Go
build cache, temporary files, the binary and the --trace 1 spans all go to
the build directory: $CARGO_TARGET_DIR if set, else .bench_build in the
working directory. Build output goes to standard error, so the benchmark's
JSON result stays the last line of standard output. A failed build exits
with the build's status and prints no result.
"""
import os
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        # The go command keeps telemetry counters under the user config dir.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="-buildvcs=false",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=bench_dir, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        return built.returncode
    args = sys.argv[1:] + ["--trace-dir", os.path.join(build, "traces")]
    return subprocess.run([exe] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
