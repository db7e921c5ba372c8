#!/usr/bin/env python3
"""Build and run the attested-request-path benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload echo_plane --seed 1 --seconds 10 --trace 0

Workloads: echo_plane, libos_mix, fleet_churn.  `--trace 0` prints the
end-to-end metrics, `--trace 1` the per-layer ones (and writes a Chrome
trace-event file next to the build).  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

The program is built from source with dune into the directory named by
CARGO_TARGET_DIR (default `.bench_build`), with the dune cache off so
that nothing is written outside the checkout.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("echo_plane", "libos_mix", "fleet_churn")
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib"))):
        print("perfbench: run from the repository root (no dune-project or lib/ here)",
              file=sys.stderr)
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--profile", "release", "--cache", "disabled", "./perfbench/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, "perfbench-trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
