"""Fast self-test of the benchmark:  python3 perfbench/selftest.py

Runs every workload at tiny sizes, untraced and traced, and checks that
- every metric BENCHMARK.json names for the mode is printed, with its unit;
- every answer passes the correctness gate;
- traced, the spans of reduce, solve_system and apply_power account for
  decide_orbit, and those of moved_mask, project and rotation_exponents for
  most of reduce;
- a wrong answer injected into the gate shows up in "failed" and, traced,
  in check.failed_frac;
- two counted passes that differ are caught.
Exits 0 when all hold.  Takes well under a minute.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import sys

import run
from workloads import WORKLOADS, OrbitCase, generate

SECONDS = 0.5
# least share of a traced orbit operation's layer spans that their named
# child spans must account for
COVERAGE_FLOORS = {"orbit.decide_coverage": 0.9, "orbit.reduce_coverage": 0.6}


def wrong_answer(case, answer):
    """A well-formed answer that differs from the given right one."""
    if isinstance(case, OrbitCase):
        in_orbit, witness, period = answer
        return [in_orbit, (witness + 1) % period, period] if in_orbit and period > 1 else [
            not in_orbit, 0, 1]
    offset, period, solvable = answer
    return [offset, period, not solvable]


def check_workload(workload, trace, expected, out_dir):
    problems = []
    cases = generate(workload, 0, tiny=True)
    kind = run.kind_of(cases)
    tag = f"{workload}-trace{trace}"
    inputs = out_dir / f"inputs-{tag}.jsonl"
    run.write_inputs(cases, inputs)
    result = run.run_measurer(inputs, kind, SECONDS, trace, out_dir / f"spans-{tag}.jsonl", 120)
    counts = run.run_counters(inputs, kind, 120)
    summary, reasons = run.summarize(cases, result, counts, trace)
    metrics = summary["metrics"]
    printed = {name: m["unit"] for name, m in metrics.items()}
    if printed != expected:
        problems.append(f"metrics {printed} differ from BENCHMARK.json {expected}")
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name} is not a finite number: {m['value']!r}")
    if not summary["correct"] or summary["failed"]:
        problems.append(f"clean run not correct: {reasons}")
    if trace and kind == "orbit":
        for name, floor in COVERAGE_FLOORS.items():
            if metrics[name]["value"] < floor:
                problems.append(f"{name} is {metrics[name]['value']:.3f}, below {floor}")

    tampered = copy.deepcopy(result)
    row = tampered["ops"][0]
    row[2] = wrong_answer(cases[row[0]], row[2])
    bad, _ = run.summarize(cases, tampered, counts, trace)
    if bad["correct"] or not bad["failed"]:
        problems.append("an injected wrong answer was not counted as failed")
    if trace and not bad["metrics"]["check.failed_frac"]["value"] > 0:
        problems.append("an injected wrong answer left check.failed_frac at 0")

    tampered = copy.deepcopy(counts)
    tampered[1][0]["word_ops"] += 1
    bad, _ = run.summarize(cases, result, tampered, trace)
    if bad["correct"]:
        problems.append("two counted passes that differ were not caught")
    return problems


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    out_dir = run.OUT / "selftest"
    shutil.rmtree(out_dir, ignore_errors=True)
    failures = 0
    try:
        for workload in WORKLOADS:
            for trace in (0, 1):
                problems = check_workload(workload, trace, expected[trace], out_dir)
                print(f"{workload} trace={trace}: {'ok' if not problems else 'FAIL'}")
                for p in problems:
                    print(f"  {p}")
                failures += bool(problems)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
