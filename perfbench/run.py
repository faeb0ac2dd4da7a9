#!/usr/bin/env python3
"""Builds the benchmark program occm_perfbench from this checkout's sources, then runs it.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--pool N]
    python3 perfbench/run.py --selftest

Every argument goes to occm_perfbench unchanged (see README.md in this
directory); this script adds only the source revision for the host record
and, with --trace 1, the directory the spans are written to. Build output
goes to stderr, so the program's result stays the last line of stdout.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
PROGRAM = BUILD / "occm_perfbench"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "occm_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
            fail("build failed: " + " ".join(step))


def source_id():
    """Git commit when the checkout has one, plus a digest of src/ and perfbench/."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    commit = "none"
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = head.stdout.strip() or "none"
    return f"git:{commit} src-sha256:{digest.hexdigest()[:16]}"


def main():
    args = sys.argv[1:]
    build()
    extra = ["--commit", source_id()]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        spans = ROOT / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        extra += ["--spans-dir", str(spans)]
    sys.stdout.flush()
    return subprocess.run([str(PROGRAM)] + args + extra).returncode


if __name__ == "__main__":
    sys.exit(main())
