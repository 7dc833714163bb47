#!/usr/bin/env python3
"""Build perfbench from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload serve-lanes --seed 1 --seconds 15 --trace 0

Every argument is passed to the benchmark. The Go build cache, temporary
files, the binary and the run reports live under the build directory
($CARGO_TARGET_DIR, default .bench_build), inside the checkout. The build
fails, and so does this script, where the repository's sources are missing.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOFLAGS="-buildvcs=false", GOWORK="off",
               GOPROXY="off", CGO_ENABLED="0")

    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    ran = subprocess.run([binary, "--out", os.path.join(build, "reports")] + sys.argv[1:],
                         cwd=root, env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
