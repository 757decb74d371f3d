#!/usr/bin/env python3
"""Build and run d2t2's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold --seed 1 --seconds 10 --trace 0

The Go program is built from source into the build directory
($CARGO_TARGET_DIR, default .bench_build), with the Go build cache kept
there too, then run with the same arguments. Its last line of standard
output is the result; see perfbench/README.md.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    binary = os.path.join(out, "perfbench")
    os.makedirs(out, exist_ok=True)
    try:
        build = subprocess.run(
            ["go", "build", "-buildvcs=false", "-o", binary, "."],
            cwd=here, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: build failed:", err, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        name = "spans"
        for flag in ("--workload", "--seed"):
            if flag in args and args.index(flag) + 1 < len(args):
                name += "-" + args[args.index(flag) + 1]
        args += ["--spans", os.path.join(out, "spans", name + ".jsonl")]
    try:
        run = subprocess.run([binary] + args, cwd=root, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench:", err, file=sys.stderr)
        return 2
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
