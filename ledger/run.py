#!/usr/bin/env python3
"""Build and run the CompDiff campaign ledger.

    python3 ledger/run.py --workload campaign --seed 1 --seconds 25 --trace 0
    python3 ledger/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 ledger/run.py --selftest

Run from the root of a checkout. The ledger is a CMake package of its
own (ledger/CMakeLists.txt) that compiles the repository's src/ tree
in Release mode into $CARGO_TARGET_DIR/ledger (default
.bench_build/ledger); the first run builds, later runs only check that
the build is current. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Every run also appends its full
record (provenance, every metric, notes) to ledger.jsonl in the build
directory. Session trees, report bundles and span dumps go to a
scratch directory under the build directory; the scratch directory is
removed when the run ends, except for the span dumps of traced runs
(trace-<workload>.jsonl in the build directory).
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "ledger"


def build(bdir, env):
    """Configure (once) and build; returns False on failure."""
    log = sys.stderr
    if not (bdir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(bdir),
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=log, stderr=log,
                          env=env).returncode:
            shutil.rmtree(bdir, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", str(bdir), "-j", jobs],
                          stdout=log, stderr=log, env=env).returncode == 0


def commit():
    """The checked-out commit, or "unknown" outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over src/ and ledger/, so a record names the exact code
    it measured even where there is no git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "ledger"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["campaign", "campaign_persist", "triage",
                                 "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the ledger's own tests instead")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    bdir = build_dir()
    # Compiler and program temporaries stay inside the checkout too.
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not build(bdir, env):
        print("ledger: build failed", file=sys.stderr)
        return 2

    scratch = bdir / "scratch" / str(os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        if args.selftest:
            cmd = [str(bdir / "ledger_selftest"), str(scratch)]
        else:
            cmd = [str(bdir / "ledger_bench"),
                   "--workload", args.workload,
                   "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace),
                   "--scratch", str(scratch),
                   "--ledger", str(bdir / "ledger.jsonl"),
                   "--commit", commit(),
                   "--source-digest", source_digest()]
        sys.stdout.flush()
        code = subprocess.run(cmd, env=env).returncode
        for dump in scratch.glob("*/trace-*.jsonl"):
            shutil.move(str(dump), str(bdir / dump.name))
        return code
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
