#!/usr/bin/env python3
"""Build and run Fremont's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload campus-discovery --seed 1 --seconds 10 --trace 0

The benchmark is its own Go module (perfbench/go.mod) that imports the
program from the enclosing checkout. It is built from source on every run
into .bench_build/ (Go's build cache lives there too, so a rebuild of
unchanged code is quick), then run with the given arguments. Every file it
reads or writes is inside the checkout. The last line of its standard output
is the JSON result; a failed build or run exits non-zero without one.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    go = shutil.which("go") or "go"
    # Keep every file the toolchain writes (build cache, work directories,
    # telemetry counters) inside the checkout.
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary] + sys.argv[1:] + ["--data", os.path.join(build, "data")]
    proc = subprocess.Popen(args, cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
