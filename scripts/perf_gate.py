#!/usr/bin/env python3
"""Paired A/B performance gate: the repository benchmark on two checkouts.

Usage (from anywhere):
    scripts/perf_gate.py BASE_DIR HEAD_DIR

BASE_DIR and HEAD_DIR are two checkouts of this repository, e.g. the merge
base and the change under review. For every workload in HEAD_DIR's
BENCHMARK.json the gate runs `python3 perfbench/run.py --workload W
--seconds <run_seconds>` PAIRS times in each tree, alternating which side
runs first, and compares every end-to-end metric pair by pair.

A metric fails only when its median paired ratio is worse than the metric's
bound AND either the base's own spread over its runs is within the bound or
every head run is worse than every base run. A metric that is worse than its
bound while the base alone spreads wider than it is printed as `unresolved`
and does not fail. Any run that is not `correct`, reports `failed > 0` or
prints no result fails the gate.

Every run's result line and host record go to perf_gate.json in the current
directory. Exits 0 when the gate passes, 1 when it fails, 2 on bad usage.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 3
REPORT = Path("perf_gate.json")


def worse_by(better, base, head):
    """How much worse head is than base, as a fraction (negative: better)."""
    low, high = (base, head) if better == "lower" else (head, base)
    if low == high:
        return 0.0
    return high / low - 1.0 if low > 0 else float("inf")


def is_sound(run):
    result = run.get("result")
    return result is not None and result.get("correct") is True \
        and result.get("failed", 1) == 0


def decide(end_to_end, base_runs, head_runs):
    """Verdicts for one workload's runs; run i of each side forms pair i.

    end_to_end is BENCHMARK.json's list of metrics ({name, better, bound}).
    A run is {"result": <perfbench result line as parsed JSON, or None>}.
    Returns a list of (name, verdict, detail); verdict is "pass", "fail" or
    "unresolved", and the first entry judges the runs' correctness.
    """
    unsound = [f"{side} run {i + 1}"
               for side, runs in (("base", base_runs), ("head", head_runs))
               for i, run in enumerate(runs) if not is_sound(run)]
    if unsound:
        return [("correct", "fail", "not correct or failed > 0: " + ", ".join(unsound))]
    verdicts = [("correct", "pass", f"{len(base_runs)} + {len(head_runs)} runs")]
    for metric in end_to_end:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        base = [run["result"]["metrics"][name]["value"] for run in base_runs]
        head = [run["result"]["metrics"][name]["value"] for run in head_runs]
        paired = statistics.median(worse_by(better, b, h) for b, h in zip(base, head))
        centre = statistics.median(base)
        spread = (max(base) - min(base)) / abs(centre) if centre else 0.0
        all_worse = all(worse_by(better, b, h) > 0 for b in base for h in head)
        detail = (f"median paired change {paired:+.3f} worse, base spread "
                  f"{spread:.3f}, bound {bound}")
        if paired <= bound:
            verdict = "pass"
        elif spread <= bound or all_worse:
            verdict = "fail"
        else:
            verdict = "unresolved"
        verdicts.append((name, verdict, detail))
    return verdicts


def run_once(tree, workload, seconds):
    """One benchmark run in one tree: its host record and result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds)],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    run = {"returncode": proc.returncode, "host": None, "result": None}
    for line in proc.stdout.splitlines():
        if line.startswith("host "):
            run["host"] = json.loads(line[len("host "):])
        elif line.startswith('{"correct"'):
            run["result"] = json.loads(line)
    return run


def main(argv):
    if len(argv) != 3 or not all(Path(d).is_dir() for d in argv[1:]):
        print("usage: scripts/perf_gate.py BASE_DIR HEAD_DIR", file=sys.stderr)
        return 2
    trees = {"base": Path(argv[1]).resolve(), "head": Path(argv[2]).resolve()}
    config = json.loads((trees["head"] / "BENCHMARK.json").read_text())
    runs = {"base": {}, "head": {}}
    order = ("base", "head")
    for workload in (w["name"] for w in config["workloads"]):
        for pair in range(PAIRS):
            for side in order:
                run = run_once(trees[side], workload, config["run_seconds"])
                runs[side].setdefault(workload, []).append(run)
                print(f"{workload} pair {pair + 1} {side}: "
                      f"{json.dumps(run['result']) if run['result'] else 'no result'}",
                      flush=True)
            order = order[::-1]

    failed = False
    verdicts = {}
    for workload in runs["head"]:
        verdicts[workload] = decide(config["end_to_end"], runs["base"][workload],
                                    runs["head"][workload])
        for name, verdict, detail in verdicts[workload]:
            print(f"{workload} {name}: {verdict} ({detail})")
            failed |= verdict == "fail"
    REPORT.write_text(json.dumps(
        {"base": str(trees["base"]), "head": str(trees["head"]), "pairs": PAIRS,
         "runs": runs, "verdicts": verdicts}, indent=1) + "\n")
    print(f"perf gate: {'FAIL' if failed else 'pass'}; runs written to {REPORT.resolve()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
