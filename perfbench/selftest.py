#!/usr/bin/env python3
"""Self-tests of the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py

Builds occm_perfbench like run.py does, then checks:
  * the program's own selftest (metric names and units, a short run where the
    controllers' requests sum to the LLC misses, traced counts equal untraced
    counts, a different seed changes the fingerprint);
  * BENCHMARK.json names exactly the metrics the program emits, with the
    same units and directions (whose names and units the program's own
    selftest validates);
  * unknown flags, unknown workloads and a pool larger than nproc exit
    non-zero with usage and print no result.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (after disabling bytecode, so no __pycache__ appears)

failures = 0


def expect(ok, what):
    global failures
    print(("ok   " if ok else "FAIL ") + what)
    failures += 0 if ok else 1


def rejects(args, what):
    proc = subprocess.run([str(run.PROGRAM)] + args, capture_output=True, text=True)
    expect(proc.returncode != 0 and "usage:" in proc.stderr
           and '"correct"' not in proc.stdout, what)


def main():
    run.build()
    proc = subprocess.run([str(run.PROGRAM), "--selftest"], capture_output=True, text=True)
    sys.stdout.write("".join(l + "\n" for l in proc.stdout.splitlines()
                             if not l.startswith("metric-def")))
    expect(proc.returncode == 0, "occm_perfbench --selftest passes")

    emitted = {"end_to_end": [], "per_layer": []}
    for line in proc.stdout.splitlines():
        if line.startswith("metric-def "):
            _, kind, name, unit, better = line.split()
            emitted[kind].append({"name": name, "unit": unit, "better": better})
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for kind in ("end_to_end", "per_layer"):
        declared = [{k: m[k] for k in ("name", "unit", "better")} for m in config[kind]]
        expect(declared == emitted[kind],
               f"BENCHMARK.json {kind} matches the program's metrics")

    rejects(["--workload", config["workloads"][0]["name"], "--bogus", "1"],
            "an unknown flag exits non-zero with usage")
    rejects(["--workload", "no-such-workload"],
            "an unknown workload exits non-zero with usage")
    rejects(["--workload", config["workloads"][0]["name"],
             "--pool", str(len(os.sched_getaffinity(0)) + 1)],
            "a pool larger than nproc is refused")
    via_runner = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--bogus"],
                                capture_output=True, text=True)
    expect(via_runner.returncode != 0 and "usage:" in via_runner.stderr,
           "run.py passes an unknown flag's failure through")

    print(f"selftest.py: {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
