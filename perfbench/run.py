#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. --trace 0 builds and runs the untraced
perfbench/bench.exe (end-to-end metrics); --trace 1 the traced
perfbench/traced.exe (per-layer metrics). The first run compiles the
libraries; later runs find the build up to date. The last line of standard
output is the benchmark's JSON result (see perfbench/README.md).
"""

import argparse
import os
import subprocess
import sys

EXES = {0: "bench.exe", 1: "traced.exe"}
# A traced serve-cold run, the longest, takes about 100 s on a 2-vCPU VM.
RUN_TIMEOUT_S = 175


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--trace", type=int, choices=sorted(EXES), required=True)
    args, rest = parser.parse_known_args()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: no dune-project and lib/ here; run from the repository root")
    target = os.path.join("perfbench", EXES[args.trace])
    # PERFBENCH=1 enables the benchmark's stanzas (see perfbench/dune). The
    # shared dune cache lives outside the checkout; keep the build inside.
    env = dict(os.environ, PERFBENCH="1", DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./" + target],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    try:
        run = subprocess.run([os.path.join("_build", "default", target)] + rest, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
