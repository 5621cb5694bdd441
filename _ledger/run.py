#!/usr/bin/env python3
"""Build and run the election ledger benchmark.

Usage, from the repository root:

    python3 _ledger/run.py --workload elect-pulse --seed 1 --seconds 10 --trace 0

The script builds the ledger (a Go module in this directory that imports
the repository's packages) into .bench_build/ at the repository root, with
the Go build cache, temporary files and Go's own config kept there too,
then runs it. The ledger prints its metrics; the last line of standard
output is one JSON object. Traced runs (--trace 1) also leave their span
log in .bench_build/. The exit status is the ledger's, or 2 when the
build fails (for example outside a checkout of the repository).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="-buildvcs=false",
        CGO_ENABLED="0",
    )
    return env


def commit():
    """The commit of the checkout, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("ledger: no go.mod at %s; run from a checkout of the repository" % ROOT,
              file=sys.stderr)
        return 2
    env = go_env()
    for d in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    binary = os.path.join(BUILD, "ledger")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("ledger: build failed", file=sys.stderr)
        return 2

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-commit", commit()]
    if args.trace:
        cmd += ["-spans", os.path.join(BUILD, "spans-%s-%d.json" % (args.workload, args.seed))]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
