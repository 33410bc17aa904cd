"""cyclorbit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: cyclorbit is imported from ./src,
never from an installed copy.  The inputs are generated from the seed
(workloads.py), answered by one measuring process on one thread in a closed
loop (measure.py), and every answer is checked against how its input was
built (check.py).  The last line printed is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones; BENCHMARK.json
lists both.  The line before it carries the run's provenance.

End-to-end (untraced runs only).  Every input is answered once per round,
and an input's latency is its mean wall time over the run's rounds:
  latency_p50_ms, latency_p90_ms  median and 90th percentile over inputs
  throughput_mbit_s  input megabits over the summed latencies of the inputs;
                     instance bits as cyclorbit.bench.instance_size_bits,
                     system bits as the summed bit lengths of residues and moduli
  setup_s            median time a fresh interpreter takes to import cyclorbit,
                     over imports spread evenly between the run's rounds
  peak_rss_mb        peak resident set of the measuring process, inputs
                     and interpreter included (an operation's own share
                     stays below the loading transient on the small workloads)
  word_ops_per_bit   CostCounter word operations per input bit, counted pass

Per-layer (traced runs): per-operation medians of span time, counts from
the counted pass, and check.failed_frac, the share of operations that raised
or answered wrongly (also carried by "failed" in every run).

The counted pass (count.py) must repeat exactly: every run makes it twice,
in two fresh interpreters, and a run whose two passes count differently is
not correct.  Traced runs write their spans to perfbench/out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check
from workloads import WORKLOADS, OrbitCase, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEADLINE_S = 170


def write_inputs(cases, path):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for case in cases:
            fh.write(json.dumps({"text": case.text}) + "\n")


def kind_of(cases):
    return "orbit" if isinstance(cases[0], OrbitCase) else "system"


def run_measurer(inputs, kind, seconds, trace, spans, timeout):
    """Hand the inputs to measure.py and return what it printed."""
    cmd = [sys.executable, str(HERE / "measure.py"), "--inputs", str(inputs), "--kind", kind,
           "--seconds", str(seconds), "--trace", str(trace), "--spans", str(spans)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"measuring process exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_counters(inputs, kind, timeout):
    """Two counted passes over the inputs, each in a fresh interpreter, side by side."""
    cmd = [sys.executable, str(HERE / "count.py"), "--inputs", str(inputs), "--kind", kind]
    procs = [subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for _ in range(2)]
    deadline = time.monotonic() + timeout
    try:
        outs = [p.communicate(timeout=max(1.0, deadline - time.monotonic())) for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    for p, (_, err) in zip(procs, outs):
        if p.returncode != 0:
            sys.stderr.write(err)
            raise SystemExit(f"counted pass exited with {p.returncode}")
    return [json.loads(out.splitlines()[-1]) for out, _ in outs]


def evaluate(cases, ops):
    """(failed operations, reasons): an operation fails when its answer is wrong."""
    verdicts = {}  # repeats of an input mostly give the same answer: check each once
    failed = 0
    reasons = set()
    for i, _, answer, _ in ops:
        key = (i, json.dumps(answer))
        if key not in verdicts:
            verdicts[key] = check(cases[i], answer)
        if verdicts[key] is not None:
            failed += 1
            reasons.add(f"input {i} ({cases[i].kind}): {verdicts[key]}")
    return failed, sorted(reasons)


def _median(values):
    return statistics.median(values) if values else 0.0


def count_metrics(rows):
    """Per-layer counts over the rows of one counted pass.  A count whose
    layer never ran on this workload reads 0."""
    orbit_rows = [r for r in rows if "cycles" in r]
    no_rows = [r for r in orbit_rows if not r["in_orbit"]]
    folds = [r for r in rows if r["fold_word_ops"] is not None]
    symbols = sum(r.get("symbols", 0) for r in rows)
    matched = sum(r.get("matched_cycles", 0) for r in rows)
    system_rows = [r for r in rows if "bit_ops" in r]
    return {
        "strmatch.comparisons_per_symbol": (
            sum(r.get("comparisons", 0) for r in rows) / symbols if symbols else 0.0, "cmp/symbol"),
        "strmatch.matches_per_cycle": (
            sum(r.get("matches", 0) for r in rows) / matched if matched else 0.0, "count"),
        "orbit.no_in_reduce_frac": (
            sum(r["reduce_none"] for r in no_rows) / len(no_rows) if no_rows else 0.0, "frac"),
        "orbit.cycles_before_refutation": (
            statistics.fmean(r["matched_cycles"] for r in no_rows) if no_rows else 0.0, "count"),
        "permutation.cycles": (_median([r["cycles"] for r in orbit_rows]), "count"),
        "permutation.longest_cycle": (_median([r["longest_cycle"] for r in orbit_rows]), "count"),
        "permutation.fixed_points": (_median([r["fixed_points"] for r in orbit_rows]), "count"),
        "congruence.equations": (_median([r["equations"] for r in folds]), "count"),
        "congruence.max_bits": (_median([r["max_bits"] for r in rows]), "bits"),
        "congruence.word_ops": (_median([r["fold_word_ops"] for r in folds]), "count"),
        "congruence.empty_frac": (
            sum(r["empty"] for r in folds) / len(folds) if folds else 0.0, "frac"),
        "crt_solver.bit_ops": (_median([r["bit_ops"] for r in system_rows]), "count"),
        "crt_solver.atoms": (_median([r["atoms"] for r in system_rows]), "count"),
    }


def input_latencies(ops):
    """{input index: mean wall time in seconds} over an untraced run's operations.

    Other tenants of a shared host slow the program in bursts, and the share
    of a run spent slowed varies from run to run.  The mean over the whole run
    moves in proportion to that share.  A best time (or a median) jumps between
    the unloaded and the loaded speed depending on whether that share is below
    some threshold, and measured runs of the same code spread far more with it.
    """
    times = {}
    for i, seconds, _, _ in ops:
        times.setdefault(i, []).append(seconds)
    return {i: statistics.fmean(t) for i, t in times.items()}


def end_to_end(result, rows):
    latencies = input_latencies(result["ops"])
    times = list(latencies.values())
    return {
        "latency_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3, "ms"),
        "throughput_mbit_s": (sum(rows[i]["bits"] for i in latencies) / sum(times) / 1e6, "Mbit/s"),
        "setup_s": (statistics.median(result["setup"]), "s"),
        "peak_rss_mb": (result["rss_peak_kb"] / 1024, "MiB"),
        "word_ops_per_bit": (sum(r["word_ops"] for r in rows) / sum(r["bits"] for r in rows),
                             "ops/bit"),
    }


def sizes(cases, rows):
    bits = [r["bits"] for r in rows]
    if isinstance(cases[0], OrbitCase):
        ns = [case.n for case in cases]
        return {"instances": len(cases), "n_min": min(ns), "n_median": statistics.median(ns),
                "n_max": max(ns), "input_bits": sum(bits)}
    eqs = [r["equations"] for r in rows]
    return {"systems": len(cases), "equations_min": min(eqs),
            "equations_median": statistics.median(eqs), "equations_max": max(eqs),
            "modulus_bits_max": max(r["modulus_bits"] for r in rows), "input_bits": sum(bits)}


def summarize(cases, result, counts, trace):
    """(summary line, reasons for every wrong answer or count).

    counts holds the rows of the two counted passes.
    """
    failed, reasons = evaluate(cases, result["ops"])
    attempted = len(result["ops"])
    rows = counts[0]
    if counts[1] != rows:
        reasons.append("two counted passes over the same inputs counted differently")
    if trace:
        metrics = {**result["layers"], **count_metrics(rows),
                   "check.failed_frac": (failed / attempted, "frac")}
    else:
        metrics = end_to_end(result, rows)
    summary = {
        "correct": not reasons,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return summary, reasons


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (summary line, provenance)."""
    started = time.monotonic()
    cases = generate(workload, seed)
    kind = kind_of(cases)
    tag = f"{workload}-seed{seed}-trace{trace}"
    inputs = OUT / f"inputs-{tag}.jsonl"
    write_inputs(cases, inputs)
    try:
        result = run_measurer(inputs, kind, seconds, trace, OUT / f"spans-{tag}.jsonl",
                              DEADLINE_S - (time.monotonic() - started))
        counts = run_counters(inputs, kind, DEADLINE_S - (time.monotonic() - started))
    finally:
        inputs.unlink()
    summary, reasons = summarize(cases, result, counts, trace)
    provenance = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "backend": result["backend"],
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "sizes": sizes(cases, counts[0]),
        "failed_frac": summary["failed"] / summary["attempted"],
        "wrong": reasons[:10],
    }
    return summary, provenance


def main(argv=None):
    parser = argparse.ArgumentParser(description="cyclorbit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "cyclorbit" / "__init__.py").is_file():
        raise SystemExit(f"no cyclorbit sources under {SRC}: run from a source checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        raise SystemExit(f"workload {args.workload!r} is not in BENCHMARK.json")

    summary, provenance = run(args.workload, args.seed, args.seconds, args.trace)
    provenance["why"] = why[args.workload]
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, **summary}, indent=1), encoding="utf-8")
    for reason in provenance["wrong"]:
        print(f"wrong: {reason}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
